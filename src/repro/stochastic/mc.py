"""Monte Carlo replication of a pipeline point through the sweep engine.

One replicate = one seed: sample a :class:`~repro.stochastic.perturb.Perturbation`,
apply it to the compiled point's duration arrays, and re-run both task
graphs (baseline and PipeFisher) with the sampled fault trace.  The
template is compiled once and the nominal evaluation is cached in the
engine, so replicates cost two event-loop passes each —
``benchmarks/test_mc_scaling.py`` pins the resulting replicates/sec
advantage over per-seed graph rebuilds in ``BENCH_mc.json``.

Every replicate path goes through :func:`replicate_batch`: a campaign
``stochastic`` unit (:func:`run_replicate`) is a one-seed block, and
:func:`monte_carlo` passes its whole seed block.  The batch re-times
through the native core and falls back per row to
:func:`replicate_from_point`, the python reference (which
``monte_carlo(batch=False)`` also runs directly); either way a
(run, model, seed) triple gives the bit-identical record.

The bubble filler is deliberately *not* re-run per replicate: K-FAC
bubble placement models the steady state the operator tunes for, while a
replicate models one perturbed step — its span, bubble fraction, and
utilization are the robustness metrics.  Nominal values ride along in
each replicate record so degradation ratios need no second lookup.

Replication runs in this process; a seed range spreads across worker
processes only as campaign units (``CampaignSpec.seeds`` under
``repro campaign run --jobs N``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

try:
    import numpy as np
except ImportError:  # pragma: no cover - numpy is a de-facto hard dep
    np = None

from repro.stochastic.model import StochasticModel
from repro.stochastic.perturb import (
    perturbed_durations,
    sample_perturbation,
    table_durations,
)
from repro.stochastic.stats import Summary, summarize
from repro.sweep.engine import _windowed_utilization
from repro.sweep.retime import device_bubbles, simulate_compiled

#: Replicate metrics every summary reduces (keys of each replicate dict).
METRICS = ("span", "pf_span", "bubble_fraction", "utilization",
           "span_degradation")


def compiled_bubble_fraction(graph, sim) -> float:
    """Idle fraction of the simulated step across all devices.

    Sums every device's idle intervals over ``[0, makespan]`` (the same
    merge the bubble filler's interval scan uses, with no minimum-bubble
    cutoff) and normalizes by total device-time.  Restart downtime that
    falls *inside* a task's footprint counts as busy — the device is
    occupied redoing lost work; downtime before a delayed start shows up
    as idle.
    """
    span = sim.makespan
    idle = 0.0
    for dev in range(graph.num_devices):
        for a, b in device_bubbles(graph, sim, dev, span, 0.0):
            idle += b - a
    return idle / (graph.num_devices * span)


def _downtime(restarts) -> float:
    total = 0.0
    for _, _, fail, resume, _ in restarts:
        total += resume - fail
    return total


def _lost_work(restarts) -> float:
    total = 0.0
    for _, _, _, _, lost in restarts:
        total += lost
    return total


def replicate_from_point(point, nominal, model: StochasticModel,
                         seed: int) -> dict:
    """Execute one seed against a compiled point; returns the JSON record.

    ``point`` is a :class:`~repro.sweep.engine.CompiledPoint`; ``nominal``
    its engine evaluation (the time unit and degradation reference).
    """
    template = point.template
    time_unit = nominal.base.makespan
    p = sample_perturbation(model, seed, template.num_devices, time_unit)
    faults = p.faults()
    base_td = perturbed_durations(
        template.base_graph, table_durations(template.base_graph,
                                             point.base_durs), p)
    pf_td = perturbed_durations(
        template.pf_graph, table_durations(template.pf_graph,
                                           point.pf_durs), p)
    base = simulate_compiled(template.base_graph, point.base_durs,
                             task_durs=base_td, faults=faults)
    pf = simulate_compiled(template.pf_graph, point.pf_durs,
                           task_durs=pf_td, faults=faults)
    return {
        "seed": seed,
        "span": base.makespan,
        "pf_span": pf.makespan,
        "bubble_fraction": compiled_bubble_fraction(template.base_graph,
                                                    base),
        "utilization": _windowed_utilization(template.base_graph, base),
        "span_degradation": base.makespan / nominal.base.makespan,
        "nominal_span": nominal.base.makespan,
        "nominal_pf_span": nominal.pf.makespan,
        "n_restarts": len(base.restarts) + len(pf.restarts),
        "downtime_s": _downtime(base.restarts) + _downtime(pf.restarts),
        "lost_work_s": _lost_work(base.restarts) + _lost_work(pf.restarts),
    }


def replicate_batch(point, nominal, model: StochasticModel,
                    seeds, engine=None) -> list[dict]:
    """Batched :func:`replicate_from_point` over a seed block.

    Perturbations are still sampled per seed (the RNG draw order is the
    contract), but re-timing runs as one ``(n_seeds, n_tasks)`` native
    pass per graph — fault-carrying seeds included: their per-device
    failure tables pack into the fault-replay core, whose empty-table
    rows are bit-identical to the no-fault path, so mixed blocks need no
    splitting.  The base graph's pass also folds each row's bubble
    fraction and utilization; restart counts/downtime/lost-work fold in
    the reference's append order from the native restart rows.  Any row
    the native core rejects falls back to the scalar reference; either
    way every record is bit-identical to the scalar path's.

    ``engine``, when given, receives counter credit: ``native_evals`` /
    ``mc_batched_replicates`` per natively re-timed replicate and
    ``mc_faulty_batched`` for the fault-carrying subset.
    """
    from repro.sweep import batch as _batch
    from repro.sweep import native as _native

    template = point.template
    g_base, g_pf = template.base_graph, template.pf_graph
    ga_b = ga_p = None
    if np is not None and _native.available():
        ga_b = _native.graph_arrays(g_base)
        ga_p = _native.graph_arrays(g_pf)
    if ga_b is None or ga_p is None:
        return [replicate_from_point(point, nominal, model, s)
                for s in seeds]

    seeds = list(seeds)
    time_unit = nominal.base.makespan
    perts = [sample_perturbation(model, seed, template.num_devices,
                                 time_unit) for seed in seeds]
    faults = [p.faults() for p in perts]
    any_faults = any(f is not None for f in faults)

    def perturbed_matrix(graph, ga, durs):
        # Rows replicate ``perturbed_durations`` exactly: control tasks
        # keep the table value, device tasks multiply by the device's
        # sampled factor (one IEEE float64 product, same as python's).
        ctrl = ga.device < 0
        task_idx = np.maximum(ga.device, 0)
        table = np.asarray(durs, np.float64)[ga.dur_code]
        rows = np.empty((len(perts), graph.n), np.float64)
        for row, p in enumerate(perts):
            fac = np.asarray(p.device_factor, np.float64)[task_idx]
            rows[row] = np.where(ctrl, table, table * fac)
        return rows

    row_faults = faults if any_faults else None
    gb = _batch.simulate_graph_batch(
        g_base, task_durs=perturbed_matrix(g_base, ga_b, point.base_durs),
        faults=row_faults, bubbles=True)
    gp = _batch.simulate_graph_batch(
        g_pf, task_durs=perturbed_matrix(g_pf, ga_p, point.pf_durs),
        faults=row_faults)
    records: list = [None] * len(seeds)
    batched = faulty_batched = 0
    for row, seed in enumerate(seeds):
        if gb is None or gp is None or not (gb.ok(row) and gp.ok(row)):
            records[row] = replicate_from_point(point, nominal, model, seed)
            continue
        if faults[row] is not None:
            nb, down_b, lost_b = gb.restart_stats(row)
            npf, down_p, lost_p = gp.restart_stats(row)
            n_restarts = nb + npf
            downtime = down_b + down_p
            lost = lost_b + lost_p
            faulty_batched += 1
        else:
            n_restarts, downtime, lost = 0, 0.0, 0.0
        batched += 1
        span = float(gb.makespan[row])
        records[row] = {
            "seed": seed,
            "span": span,
            "pf_span": float(gp.makespan[row]),
            "bubble_fraction": float(gb.bubble[row]),
            "utilization": float(gb.util[row]),
            "span_degradation": span / nominal.base.makespan,
            "nominal_span": nominal.base.makespan,
            "nominal_pf_span": nominal.pf.makespan,
            "n_restarts": n_restarts,
            "downtime_s": downtime,
            "lost_work_s": lost,
        }
    if engine is not None and batched:
        engine.native_evals += batched
        engine.mc_batched_replicates += batched
        engine.mc_faulty_batched += faulty_batched
    return records


def run_replicate(run, model: StochasticModel, seed: int,
                  engine=None) -> dict:
    """One Monte Carlo replicate of ``run`` (a ``PipeFisherRun``).

    The single-unit entry point the campaign ``stochastic`` unit kind
    executes: a one-seed :func:`replicate_batch`, so the record is the
    one ``monte_carlo`` gives for the same seed.  Replicates sharing an
    engine share the compiled template and the cached nominal
    evaluation.
    """
    if engine is None:
        from repro.sweep.engine import default_engine

        engine = default_engine()
    point = engine.compiled_point(run)
    nominal = engine.nominal_evaluation(point)
    return replicate_batch(point, nominal, model, (seed,), engine=engine)[0]


@dataclass
class MonteCarloResult:
    """Replicates of one (run, model) pair plus their reductions."""

    model: StochasticModel
    seeds: tuple
    replicates: list = field(default_factory=list)  #: dicts, seed order

    def series(self, metric: str) -> list:
        return [r[metric] for r in self.replicates]

    def summary(self, metric: str) -> Summary:
        return summarize(self.series(metric))

    def summaries(self) -> dict:
        """``{metric: Summary}`` for every standard metric."""
        return {m: self.summary(m) for m in METRICS}


def monte_carlo(run, model: StochasticModel, seeds, engine=None,
                batch: bool = True) -> MonteCarloResult:
    """Map seeds to replicates of ``run`` under ``model`` and collect.

    The driver behind the ``robustness`` experiment: one compiled point,
    one nominal evaluation, then one re-timing pass per seed.  The same
    (run, model, seed) triple always produces the bit-identical replicate
    dict — ``CampaignSpec.seeds`` shards and resumes over exactly these —
    regardless of execution mode: ``batch=True`` (default) re-times the
    block through :func:`replicate_batch`, the path campaign units take
    one seed at a time, and ``batch=False`` is the scalar reference
    loop.
    """
    if engine is None:
        from repro.sweep.engine import default_engine

        engine = default_engine()
    point = engine.compiled_point(run)
    nominal = engine.nominal_evaluation(point)
    seeds = tuple(seeds)
    if batch:
        replicates = replicate_batch(point, nominal, model, seeds,
                                     engine=engine)
    else:
        replicates = [replicate_from_point(point, nominal, model, s)
                      for s in seeds]
    return MonteCarloResult(model=model, seeds=seeds,
                            replicates=replicates)
