"""The sweep engine: many what-if points, one schedule template each.

:class:`SweepEngine` is the entry point for evaluating families of
pipeline configurations — the fig5/6/9-16 grids, the interleaved sweep,
table 2, the capacity planner, and any user-defined what-if search.  It
keeps three bounded caches:

* **stage costs** — ``compute_stage_costs`` results keyed by
  ``(arch, hardware, b_micro, layers_per_stage, overhead, factor_blocks)``,
  shared between the simulator path and the analytic §3.3 perf-model
  path (``perf_model()``);
* **schedule templates** — compiled task-graph + K-FAC-inventory
  structure per :class:`~repro.sweep.template.TemplateKey`;
* **per-template timings** — evaluated duration tables, so repeated
  points skip the simulation entirely.

``run()`` produces a :class:`~repro.pipefisher.runner.PipeFisherReport`
**bit-identical** to ``PipeFisherRun.execute()`` for the same
configuration (asserted by ``tests/sweep/test_engine_equivalence.py``
and re-checked against goldens in ``tests/experiments/``): the compiled
re-timing replays the executor's and bubble filler's float operations in
the reference order, and utilizations are folded with the reference's
exact summation order.

``run_group()`` evaluates a list of points in order and is the one
evaluation path (``run(r)`` is ``run_group([r])[0]``).  It serves
timing-cache hits, and duration tables repeated within the group, with
the same counters and LRU order a loop over ``run`` would; the tables
left over are timed per template in one :func:`native_evaluations`
pass (two native event-loop calls and one fill call for the whole
group, :mod:`repro.sweep.batch`), and any row the core cannot serve
through the pure-python reference (:mod:`repro.sweep.retime`) via
:func:`python_evaluation`.  Both timings are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from time import perf_counter

from repro.perfmodel.arch import TransformerArch
from repro.perfmodel.calibration import host_overhead
from repro.perfmodel.costs import StageCosts, compute_stage_costs
from repro.perfmodel.hardware import Hardware
from repro.perfmodel.model import PipelinePerfModel
from repro.pipefisher.assignment import AssignmentResult
from repro.pipefisher.runner import PipeFisherReport, PipeFisherRun
from repro.pipefisher.workqueue import KFACWorkItem, KFACWorkQueue
from repro.pipeline.comm import CommModel
from repro.profiler.timeline import Timeline, TimelineEvent
from repro.profiler.utilization import COLOR_DENSITY
from repro.sweep import batch as _batch
from repro.sweep.cache import BoundedCache
from repro.sweep.retime import (
    CompiledFill,
    CompiledSim,
    fill_compiled,
    simulate_compiled,
)
from repro.pipeline.spec import get_spec
from repro.sweep.template import (
    DUR_BWD,
    DUR_BWD_INPUT,
    DUR_BWD_WEIGHT,
    DUR_FWD,
    DUR_OVERHEAD,
    DUR_PRECOND,
    DUR_SYNC_GRAD,
    DUR_ZERO,
    N_DUR_CODES,
    QDUR_CURV_A,
    QDUR_CURV_B,
    QDUR_INV,
    QDUR_SYNC_CURV,
    ScheduleTemplate,
    TemplateKey,
    build_template,
    stages_per_device,
    structural_group_size,
)


@dataclass(frozen=True)
class CompiledPoint:
    """One sweep point resolved to its compiled structure + durations.

    The template is shared (cached per :class:`TemplateKey`); the
    duration tables are this point's timing.  Consumers that re-time the
    same structure many ways — the Monte Carlo replicator perturbs these
    tables per seed — hold a ``CompiledPoint`` and call
    :func:`~repro.sweep.retime.simulate_compiled` directly, skipping
    every per-point graph rebuild.
    """

    template: ScheduleTemplate
    base_durs: tuple
    pf_durs: tuple
    qdurs: tuple


@dataclass
class _Evaluation:
    """Everything computed for one (template, duration table) pair."""

    base: CompiledSim
    pf: CompiledSim
    fill: CompiledFill
    base_util: float
    pf_util: float
    refresh: int


class SweepEngine:
    """Evaluate sweeps of pipeline configurations with structure reuse.

    Parameters
    ----------
    max_templates:
        Distinct structural configurations kept compiled (LRU).
    max_costs:
        Stage-cost models kept (shared simulator + perf-model cache).
    max_timings:
        Evaluated duration tables kept *per template*.
    """

    def __init__(
        self,
        max_templates: int = 32,
        max_costs: int = 512,
        max_timings: int = 16,
    ) -> None:
        self._templates: BoundedCache = BoundedCache(maxsize=max_templates)
        self._costs: BoundedCache = BoundedCache(maxsize=max_costs)
        self._max_timings = max_timings
        #: Evaluation counters (exposed via :meth:`stats`).
        self.runs = 0
        self.timing_hits = 0
        self.reexecutions = 0
        #: Re-executions served by the native core (subset of the above).
        self.native_evals = 0
        #: Native passes: one per template group of re-executions.
        self.native_passes = 0
        #: Monte Carlo replicates re-timed through a native batch pass.
        self.mc_batched_replicates = 0
        #: Fault-carrying subset of the above (restart-replay core).
        self.mc_faulty_batched = 0
        #: Wall-clock seconds per evaluation phase (see :meth:`stats`).
        self.phase_s = dict.fromkeys(
            ("template_build", "retime", "fill", "report"), 0.0)

    # -- caches -------------------------------------------------------------------

    def clear(self) -> None:
        """Drop every template, cost model, timing, and counter."""
        self._templates.clear()
        self._costs.clear()
        self.runs = 0
        self.timing_hits = 0
        self.reexecutions = 0
        self.native_evals = 0
        self.native_passes = 0
        self.mc_batched_replicates = 0
        self.mc_faulty_batched = 0
        self.phase_s = dict.fromkeys(self.phase_s, 0.0)

    def stats(self) -> dict:
        """Cache and evaluation counters, for tests and reporting.

        ``phase_s`` attributes the engine's wall-clock between template
        compilation (+ cost models), re-timing (event simulation),
        bubble filling, and report assembly, so a sweep's
        speedup is attributable to a phase.  Every phase runs in the
        calling thread, so these are wall-clock seconds of this engine's
        own calls.
        """
        timings = sum(len(t.timings) for t in self._templates.values())
        return {
            "templates": self._templates.stats(),
            "stage_costs": self._costs.stats(),
            "cached_timings": timings,
            "runs": self.runs,
            "timing_hits": self.timing_hits,
            # Retired timing paths, kept at 0 for counter readers.
            "rescales": 0,
            "reexecutions": self.reexecutions,
            "native_evals": self.native_evals,
            "native_passes": self.native_passes,
            "delta_retimes": 0,
            "mc_batched_replicates": self.mc_batched_replicates,
            "mc_faulty_batched": self.mc_faulty_batched,
            "phase_s": dict(self.phase_s),
        }

    def stage_costs(
        self,
        arch: TransformerArch,
        hardware: Hardware,
        b_micro: int,
        layers_per_stage: int,
        schedule: str,
        factor_blocks: int = 1,
    ) -> StageCosts:
        """Cached :func:`compute_stage_costs` (simulator-path flavor)."""
        return self._cost(arch, hardware, b_micro, layers_per_stage,
                          host_overhead(schedule), factor_blocks)

    def _cost(self, arch, hardware, b_micro, layers_per_stage, overhead_s,
              factor_blocks) -> StageCosts:
        key = (arch, hardware, b_micro, layers_per_stage, overhead_s,
               factor_blocks)
        return self._costs.get_or_create(
            key,
            lambda: compute_stage_costs(
                arch, hardware, b_micro,
                layers_per_stage=layers_per_stage,
                overhead_s=overhead_s,
                factor_blocks=factor_blocks,
            ),
        )

    # -- analytic §3.3 path -------------------------------------------------------

    def perf_model(
        self,
        arch: TransformerArch,
        hardware: Hardware,
        schedule: str = "chimera",
        layers_per_stage: int = 1,
        include_overhead: bool = False,
        factor_blocks: int = 1,
    ) -> PipelinePerfModel:
        """A :class:`PipelinePerfModel` whose cost model is engine-cached.

        ``report``/``sweep`` results are bit-identical to an uncached
        model — the cache returns the same pure-function results — but a
        grid over ``(b_micro, depth, n_micro_factor)`` computes each
        distinct ``(arch, hardware, b_micro)`` cost model once instead
        of twice per cell.  The cache is shared across schedules with
        equal calibrated overhead and with the simulator path.
        """
        return _CachedPerfModel(self, arch, hardware, schedule,
                                layers_per_stage, include_overhead,
                                factor_blocks)

    # -- simulator path -----------------------------------------------------------

    def run(self, run: PipeFisherRun, costs: StageCosts | None = None
            ) -> PipeFisherReport:
        """Evaluate one point: ``run_group([run], costs)[0]``."""
        return self.run_group([run], costs)[0]

    def run_group(self, runs, costs: StageCosts | None = None) -> list:
        """Evaluate ``runs`` in order, each bit-identical to ``run.execute()``.

        Every run's compiled point is resolved first, in order, so a run
        the builders reject raises before anything is timed.  The
        duration tables are then served like one :meth:`run` call per
        point would serve them — same counters, same timing-cache LRU
        order — except that each template's uncached tables are timed
        together in one native pass.  ``costs`` overrides the cached
        stage-cost model (ablations and tests use synthetic costs;
        normal sweeps leave it None).
        """
        runs = list(runs)
        points = []
        for run in runs:
            self.runs += 1
            points.append(self.compiled_point(run, costs))
        evaluations = self._evaluate_group(points)
        return [self._build_report(run, point.template, point.qdurs, ev)
                for run, point, ev in zip(runs, points, evaluations)]

    def compiled_point(self, run: PipeFisherRun,
                       costs: StageCosts | None = None) -> CompiledPoint:
        """Resolve ``run`` to its cached template + duration tables.

        The structural half of :meth:`run`: the template is compiled (or
        served from the cache) and the point's duration tables are
        computed, but nothing is simulated.  Re-timing consumers — the
        stochastic Monte Carlo driver, ad-hoc what-if scripts — pair this
        with :meth:`nominal_evaluation` and
        :func:`~repro.sweep.retime.simulate_compiled`.
        """
        t_begin = perf_counter()
        try:
            return self._compiled_point(run, costs)
        finally:
            self.phase_s["template_build"] += perf_counter() - t_begin

    def _compiled_point(self, run: PipeFisherRun,
                        costs: StageCosts | None = None) -> CompiledPoint:
        if costs is None:
            costs = self.stage_costs(run.arch, run.hardware, run.b_micro,
                                     run.layers_per_stage, run.schedule)
        comm = CommModel(allreduce_gbs=run.hardware.interconnect_gbs)
        pf_cfg = run._config(precondition=True, costs=costs, comm=comm)

        n_stages = stages_per_device(run.schedule, run.virtual_chunks)
        world = structural_group_size(run.schedule, run.dp) * run.world_multiplier
        sync_curv_s = 0.0
        if run.inversion_parallel:
            factor_bytes = (run.layers_per_stage * n_stages
                            * run.arch.factor_bytes())
            sync_curv_s = comm.allreduce_time(factor_bytes, world)
        key = TemplateKey(
            schedule=run.schedule,
            depth=run.depth,
            n_micro=run.n_micro,
            virtual_chunks=(run.virtual_chunks
                            if get_spec(run.schedule).uses_virtual_chunks
                            else 0),
            layers_per_stage=run.layers_per_stage,
            dp=run.dp,
            world_multiplier=run.world_multiplier,
            recompute=run.recompute,
            inversion_parallel=run.inversion_parallel,
            has_sync_grad=world > 1 and pf_cfg.stage_param_bytes > 0,
            has_sync_curv=(run.inversion_parallel and sync_curv_s > 0
                           and world > 1),
        )
        template = self._templates.get(key)
        if template is None:
            base_cfg = run._config(precondition=False, costs=costs, comm=comm)
            template = build_template(key, base_cfg, pf_cfg, sync_curv_s)
            template.timings = BoundedCache(maxsize=self._max_timings)
            if template.n_stages != n_stages or template.world != world:
                raise AssertionError(
                    f"structural canonicalization out of sync with the "
                    f"builders: n_stages {template.n_stages} vs {n_stages}, "
                    f"world {template.world} vs {world}"
                )
            self._templates.put(key, template)

        base_durs = self._graph_durations(pf_cfg, costs, n_stages, world,
                                          precondition=False)
        pf_durs = self._graph_durations(pf_cfg, costs, n_stages, world,
                                        precondition=True)
        block = costs.block
        qdurs = [0.0] * 4
        qdurs[QDUR_CURV_A] = block.t_curv_a
        qdurs[QDUR_CURV_B] = block.t_curv_b
        qdurs[QDUR_INV] = block.t_inv / 2.0
        qdurs[QDUR_SYNC_CURV] = sync_curv_s

        return CompiledPoint(template=template, base_durs=base_durs,
                             pf_durs=pf_durs, qdurs=tuple(qdurs))

    def nominal_evaluation(self, point: CompiledPoint) -> _Evaluation:
        """The deterministic (unperturbed) evaluation of a compiled point.

        Served from the template's timing cache when available — Monte
        Carlo replicates share one nominal evaluation as their reference
        timing and time unit.
        """
        return self._evaluate_group([point])[0]

    # -- internals ----------------------------------------------------------------

    @staticmethod
    def _graph_durations(cfg, costs: StageCosts, n_stages: int, world: int,
                         precondition: bool) -> tuple:
        """The per-point duration table, one entry per duration code.

        Each expression replicates the corresponding schedule-builder
        duration computation operation for operation.
        """
        c = costs
        durs = [0.0] * N_DUR_CODES
        durs[DUR_FWD] = c.t_fwd
        durs[DUR_BWD] = c.t_bwd + (c.t_fwd if cfg.recompute else 0.0)
        durs[DUR_BWD_INPUT] = c.t_bwd_input + (c.t_fwd if cfg.recompute else 0.0)
        durs[DUR_BWD_WEIGHT] = c.t_bwd_weight
        if world > 1 and cfg.stage_param_bytes > 0:
            durs[DUR_SYNC_GRAD] = cfg.comm.allreduce_time(
                cfg.stage_param_bytes * n_stages, world
            )
        if precondition:
            durs[DUR_PRECOND] = c.t_prec * n_stages
        durs[DUR_OVERHEAD] = c.t_overhead
        durs[DUR_ZERO] = 0.0
        return tuple(durs)

    def _evaluate_group(self, points) -> list:
        """Time + fill each point's duration table, in point order.

        Timing-cache lookups and inserts run in point order, exactly as
        one call per point would make them: a miss is inserted at once
        as an empty :class:`_Evaluation`, which a later point of the
        group with the same table hits.  Each template's misses are then
        timed in one :func:`native_evaluations` pass, rows the core
        cannot serve by :func:`python_evaluation`, and the empty entries
        filled in.  If timing raises, the entries left empty are removed
        from the cache again.
        """
        evaluations = []
        misses: dict = {}  # id(template) -> (template, dur_keys, entries)
        for point in points:
            timings: BoundedCache = point.template.timings
            dur_key = (point.base_durs, point.pf_durs, point.qdurs)
            ev = timings.get(dur_key)
            if ev is not None:
                self.timing_hits += 1
            else:
                ev = _Evaluation(None, None, None, 0.0, 0.0, 0)
                timings.put(dur_key, ev)
                _, keys, entries = misses.setdefault(
                    id(point.template), (point.template, [], []))
                keys.append(dur_key)
                entries.append(ev)
            evaluations.append(ev)
        try:
            for template, keys, entries in misses.values():
                timed = native_evaluations(template, keys, self.phase_s)
                if timed is None:
                    timed = [None] * len(keys)
                else:
                    self.native_passes += 1
                for dur_key, entry, ev in zip(keys, entries, timed):
                    if ev is None:
                        ev = python_evaluation(template, dur_key,
                                               self.phase_s)
                    else:
                        self.native_evals += 1
                    self.reexecutions += 1
                    vars(entry).update(vars(ev))
        except BaseException:
            for template, keys, entries in misses.values():
                for dur_key, entry in zip(keys, entries):
                    if entry.base is None:
                        template.timings.discard(dur_key)
            raise
        return evaluations

    def _build_report(self, run: PipeFisherRun, template: ScheduleTemplate,
                      qdurs: tuple, ev: _Evaluation) -> PipeFisherReport:
        """Assemble a ``PipeFisherReport`` equal to the reference's.

        The assignment and one-step template timelines are deferred
        behind the report's lazy sources: sweeps that only read numbers
        never pay for per-item/per-event object construction.
        """
        t_begin = perf_counter()
        base_graph, base_sim = template.base_graph, ev.base
        pf_graph, pf_sim = template.pf_graph, ev.pf
        report = PipeFisherReport(
            schedule=run.schedule,
            num_devices=template.num_devices,
            baseline_step_time=ev.base.makespan,
            baseline_utilization=ev.base_util,
            pipefisher_step_time=ev.pf.makespan,
            pipefisher_utilization=ev.pf_util,
            refresh_steps=ev.refresh,
            device_refresh_steps=dict(ev.fill.device_steps),
            assignment_source=partial(_materialize_assignment,
                                      template, qdurs, ev),
            base_template_source=partial(_materialize, base_graph, base_sim),
            pf_template_source=partial(_materialize, pf_graph, pf_sim),
            window_steps=run.window_steps,
        )
        if run.materialize_window:
            report.baseline_timeline
            report.pipefisher_timeline
        self.phase_s["report"] += perf_counter() - t_begin
        return report


def native_evaluations(template: ScheduleTemplate, dur_keys: list,
                       phase_s: dict) -> list | None:
    """Evaluate a template's duration tables in one native pass.

    Both graphs are simulated for every table in one call each, and
    every table's bubbles filled in a third.  Returns one
    :class:`_Evaluation` per table, None in the rows that need
    :func:`python_evaluation` (a non-OK sim/fill status: the reference
    then raises its own errors), or None outright when the core cannot
    serve this template.  Wall-clock is added to ``phase_s["retime"]``
    and ``phase_s["fill"]``.
    """
    if not _batch.batching_supported(template):
        return None
    t_begin = perf_counter()
    gb_b = _batch.simulate_graph_batch(template.base_graph,
                                       [k[0] for k in dur_keys])
    gb_p = _batch.simulate_graph_batch(template.pf_graph,
                                       [k[1] for k in dur_keys])
    phase_s["retime"] += perf_counter() - t_begin
    if gb_b is None or gb_p is None:
        return None
    t_begin = perf_counter()
    fb = _batch.fill_graph_batch(template, gb_p, [k[2] for k in dur_keys])
    evaluations = []
    for i in range(len(dur_keys)):
        if fb is None or not (gb_b.ok(i) and gb_p.ok(i) and fb.ok(i)):
            evaluations.append(None)
            continue
        pf = gb_p.sim(i)
        evaluations.append(_Evaluation(
            base=gb_b.sim(i),
            pf=pf,
            fill=fb.fill(i, pf.makespan),
            base_util=float(gb_b.util[i]),
            pf_util=float(fb.pf_util[i]),
            refresh=max(int(fb.refresh[i]), 1),
        ))
    phase_s["fill"] += perf_counter() - t_begin
    return evaluations


def python_evaluation(template: ScheduleTemplate, dur_key: tuple,
                      phase_s: dict) -> _Evaluation:
    """Evaluate one duration table through the pure-python reference.

    Simulates both graphs, fills the bubbles, and folds the
    utilizations; wall-clock is added to ``phase_s`` like
    :func:`native_evaluations`.
    """
    base_durs, pf_durs, qdurs = dur_key
    t_begin = perf_counter()
    base = simulate_compiled(template.base_graph, base_durs)
    pf = simulate_compiled(template.pf_graph, pf_durs)
    base_util = _windowed_utilization(template.base_graph, base)
    phase_s["retime"] += perf_counter() - t_begin
    t_begin = perf_counter()
    fill = fill_compiled(template, pf, qdurs)
    refresh = max(max(fill.device_steps.values(), default=1), 1)
    evaluation = _Evaluation(
        base=base,
        pf=pf,
        fill=fill,
        base_util=base_util,
        pf_util=_pf_utilization(template, pf, fill, qdurs, refresh),
        refresh=refresh,
    )
    phase_s["fill"] += perf_counter() - t_begin
    return evaluation


def _windowed_utilization(graph, sim: CompiledSim) -> float:
    """Replicates ``utilization(timeline, (0.0, makespan))`` exactly.

    Also the Monte Carlo replicates' utilization of a perturbed timing.
    """
    t1 = sim.makespan
    total = 0.0
    start = sim.start
    end = sim.ev_end
    kind = graph.kind
    density = COLOR_DENSITY
    for i in sim.ev_order:
        e = end[i]
        s = start[i]
        if e <= 0.0 or s >= t1:
            continue
        total += (min(e, t1) - max(s, 0.0)) * density.get(kind[i], 1.0)
    return total / (graph.num_devices * (t1 - 0.0))


def _pf_utilization(template: ScheduleTemplate, pf: CompiledSim,
                    fill: CompiledFill, qdurs: tuple, refresh: int) -> float:
    """Replicates the runner's arithmetic refresh-cycle utilization."""
    density = COLOR_DENSITY
    kind = template.pf_graph.kind
    start = pf.start
    end = pf.ev_end
    c_template = 0.0
    for i in pf.ev_order:
        c_template += (end[i] - start[i]) * density.get(kind[i], 1.0)
    c_kfac = 0.0
    for dev in sorted(fill.segments):
        items = template.queues.devices[dev].items
        for pos, segs in enumerate(fill.segments[dev]):
            rho = density.get(items[pos].kind, 1.0)
            for s, e in segs:
                c_kfac += (e - s) * rho
    pf_colored = refresh * c_template + c_kfac
    return pf_colored / (template.num_devices * refresh * pf.makespan)


class _CachedPerfModel(PipelinePerfModel):
    """A perf model whose ``stage_costs`` consults the engine cache."""

    def __init__(self, engine: SweepEngine, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._engine = engine

    def stage_costs(self, b_micro: int) -> StageCosts:
        return self._engine._cost(
            self.arch, self.hardware, b_micro, self.layers_per_stage,
            host_overhead(self.schedule), self.factor_blocks,
        )


def _materialize_assignment(template: ScheduleTemplate, qdurs: tuple,
                            ev: _Evaluation) -> AssignmentResult:
    """Build the per-item ``AssignmentResult`` a re-timed report exposes."""
    queues: dict[int, KFACWorkQueue] = {}
    for dev in range(template.num_devices):
        items = template.queues.devices[dev].items
        segs = ev.fill.segments[dev]
        queues[dev] = KFACWorkQueue(
            device=dev,
            items=[
                KFACWorkItem(
                    iid=it.iid,
                    device=it.device,
                    kind=it.kind,
                    factor=it.factor,
                    stage=it.stage,
                    block=it.block,
                    micro_batch=it.micro_batch,
                    pipeline=it.pipeline,
                    duration=qdurs[it.dur_code],
                    trigger=it.trigger,
                    segments=list(segs[pos]),
                )
                for pos, it in enumerate(items)
            ],
        )
    return AssignmentResult(
        queues=queues,
        refresh_steps=ev.refresh,
        span=ev.pf.makespan,
        device_refresh_steps=dict(ev.fill.device_steps),
    )


def _materialize(graph, sim: CompiledSim) -> Timeline:
    """Build the one-step :class:`Timeline` a re-timed report renders from.

    Event values (device, kind, start, end, label) match the reference
    simulation's.  ``meta`` dicts are *copied* per event: the reference
    builds fresh task (and hence meta) objects per run, so a consumer
    annotating one report's events must never reach another report of
    the same template — or the template's cached dicts.
    """
    tl = Timeline(graph.num_devices)
    for i in sim.ev_order:
        tl.add(TimelineEvent(graph.device[i], graph.kind[i], sim.start[i],
                             sim.ev_end[i], graph.label[i],
                             dict(graph.meta[i])))
    return tl


#: Process-wide engine the experiment drivers share (one template/cost
#: cache across fig5/6/9-16, tables, the interleaved sweep, examples).
_DEFAULT: SweepEngine | None = None


def default_engine() -> SweepEngine:
    """The shared :class:`SweepEngine` used by the experiment drivers."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = SweepEngine()
    return _DEFAULT
