"""How each of the benchmark's metrics is derived.

Names, units and directions live in ``BENCHMARK.json`` alone; this
module derives a value for every metric listed there.  Every workload
prints every metric; a layer a workload never calls reads 0.  Per-layer
times are shares (%) of the traced window's wall time, so workloads of
different speed compare; the spans file and stderr keep the absolute
seconds.
"""

from __future__ import annotations

import json
from pathlib import Path

import tracing
from harness import median, percentile, peak_rss_mb

_SPEC = json.loads((Path(__file__).resolve().parent.parent
                    / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = tuple(m["name"] for m in _SPEC["end_to_end"])
PER_LAYER = tuple(m["name"] for m in _SPEC["per_layer"])
UNITS = {m["name"]: m["unit"]
         for m in _SPEC["end_to_end"] + _SPEC["per_layer"]}


def end_to_end(setup_s: float, window) -> dict:
    lat = window.latencies_s
    m = {
        "setup_s": setup_s,
        "ops_per_s": window.ops_per_s,
        "latency_p50_ms": median(lat) * 1e3,
        "latency_p95_ms": percentile(lat, 95.0) * 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }
    return {name: m[name] for name in END_TO_END}


def _sum_engine_stats(engines) -> dict:
    """Counters summed across engines, flattened to scalars."""
    total: dict = {}

    def add(key, value):
        total[key] = total.get(key, 0) + value

    for engine in engines:
        stats = engine.stats()
        for cache in ("templates", "stage_costs"):
            cs = stats[cache]
            add(f"{cache}.hits", cs.hits)
            add(f"{cache}.misses", cs.misses)
            add(f"{cache}.evictions", cs.evictions)
        for key in ("timing_hits", "rescales", "reexecutions", "native_evals",
                    "delta_retimes", "mc_batched_replicates",
                    "mc_faulty_batched"):
            add(key, stats[key])
        for phase, seconds in stats["phase_s"].items():
            add(f"phase.{phase}", seconds)
    return total


def counters(workload) -> dict:
    """A snapshot of the program's own counters the workload exposes."""
    snap = _sum_engine_stats(workload.engines())
    store = getattr(workload, "store_stats", None)
    if store is not None:
        s = store()
        snap["store.hits"] = s["hits"]
        snap["store.misses"] = s["misses"]
    return snap


def per_layer(spans: list, before: dict, after: dict,
              traced, untraced, counts: dict, rates: dict,
              attempted: int, failed: int) -> dict:
    """Every ``PER_LAYER`` metric from one traced window.

    ``spans`` are the traced window's spans; ``before``/``after`` are
    :func:`counters` around the window.
    ``counts`` and ``rates`` are the workload's ``window_stats()`` for
    the traced and the untraced window: rates come from the untraced
    one, where tracing cannot slow them.
    """
    table = tracing.layer_table(spans)
    delta = {k: after.get(k, 0) - before.get(k, 0) for k in after}
    wall_s = traced.wall_s

    def busy(name):
        return table.get(name, {}).get("busy_s", 0.0)

    def calls(name):
        return table.get(name, {}).get("calls", 0)

    def pct(seconds):
        return 100.0 * seconds / wall_s

    def ratio(num, den):
        return num / den if den else 0.0

    builds = delta.get("templates.misses", 0)
    hits = delta.get("templates.hits", 0)
    m = {
        "service.http.overhead_pct": pct(busy("client.request")
                                         - busy("service.sweep")
                                         - busy("service.plan")),
        "service.pool.lock_wait_pct": pct(busy("service.pool.wait")),
        "store.get.calls": calls("store.get"),
        "store.hit_rate": ratio(delta.get("store.hits", 0),
                                delta.get("store.hits", 0)
                                + delta.get("store.misses", 0)),
        "store.put.busy_pct": pct(busy("store.put")),
        "rundb.append.calls": calls("rundb.append"),
        "rundb.append.busy_pct": pct(busy("rundb.append")),
        "rundb.open_pct": pct(tracing.busy_under(spans, "rundb.open",
                                                 "campaign.resume")),
        "campaign.run.busy_pct": pct(busy("campaign.run")),
        "sweep.template.builds": builds,
        "sweep.template.hits": hits,
        "sweep.template.evictions": delta.get("templates.evictions", 0),
        "sweep.template.build_pct": pct(delta.get("phase.template_build", 0.0)),
        "sweep.template.hit_rate": ratio(hits, hits + builds),
        "sweep.retime_pct": pct(delta.get("phase.retime", 0.0)),
        "sweep.native_evals": delta.get("native_evals", 0),
        "sweep.native_share": ratio(delta.get("native_evals", 0),
                                    delta.get("reexecutions", 0)),
        "sweep.fill_pct": pct(delta.get("phase.fill", 0.0)),
        "sweep.report_pct": pct(delta.get("phase.report", 0.0)),
        "sweep.timing_hits": delta.get("timing_hits", 0),
        "sweep.rescales": delta.get("rescales", 0),
        "sweep.delta_retimes": delta.get("delta_retimes", 0),
        "sweep.mc_batched_replicates": delta.get("mc_batched_replicates", 0),
        "sweep.mc_faulty_batched": delta.get("mc_faulty_batched", 0),
        "perfmodel.stage_costs.hits": delta.get("stage_costs.hits", 0),
        "perfmodel.stage_costs.misses": delta.get("stage_costs.misses", 0),
        "perfmodel.plan_pct": pct(busy("perfmodel.plan")),
        "pipeline.simulate_compiled.calls": calls("pipeline.simulate_compiled"),
        "pipeline.simulate_compiled.busy_pct":
            pct(busy("pipeline.simulate_compiled")),
        "stochastic.sample_perturbation.busy_pct":
            pct(busy("stochastic.sample_perturbation")),
        "stochastic.replicate_batch.busy_pct":
            pct(busy("stochastic.replicate_batch")),
        "stochastic.native_share": ratio(
            delta.get("mc_batched_replicates", 0),
            counts.get("mc_replicates", 0)),
        "kfac.curvature_pct": pct(busy("kfac.curvature")),
        "kfac.inversion_pct": pct(busy("kfac.inversion")),
        "kfac.precondition_pct": pct(busy("kfac.precondition")),
        "model.forward_pct": pct(busy("model.forward")),
        "model.backward_pct": pct(busy("model.backward")),
        "optim.step_pct": pct(busy("optim.step")),
        "data.next_batch_pct": pct(busy("data.next_batch")),
        "residual_pct": pct(wall_s - tracing.root_busy_s(spans)),
        "trace.overhead_pct": 100.0 * ratio(
            untraced.scaled().ops_per_s - traced.scaled().ops_per_s,
            untraced.scaled().ops_per_s),
        "error_rate": ratio(failed, attempted),
    }
    for name in ("campaign.units_executed", "campaign.resume_hit_rate",
                 "kfac.loss"):
        m[name] = counts.get(name, 0)
    for name in ("campaign.units_per_s", "stochastic.replicates_per_s"):
        m[name] = rates.get(name, 0)
    return {name: m[name] for name in PER_LAYER}
