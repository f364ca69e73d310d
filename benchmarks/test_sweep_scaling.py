"""Sweep engine vs the per-point PipeFisherRun loop, on a Fig. 6-style grid.

The baseline frozen below is the pre-engine sweep path: for every
(hardware, B_micro, depth) point, build both task graphs, simulate both,
build the K-FAC inventory, fill bubbles, and fold the utilizations —
with the stage-cost model memoized across points (the PR 3 state of the
loop).  Two engine measurements sit against it:

* **cold** — a fresh engine per repetition pays template compilation
  inside the timing (the pre-batching headline, floor 5x);
* **steady-state** — structure caches stay warm but every per-template
  timing cache is cleared, so each pass re-times all points through the
  native core (one one-row C pass per point).  This is the marginal
  cost of a new duration table in a long campaign — floor **50x**.

Both engine measurements time a plain ``[engine.run(p) for p in
points]`` loop of one-point groups, the path every campaign unit takes
(the planning service evaluates a request's points as one
``engine.run_group``).  The per-point loop and both engine
measurements alternate in ``PAIRS`` rounds, and each floor gates on
the median per-round ratio: a round sees the same host load on every
side, and the median ignores a round that a load spike hit on one side
only.

Every report from both engine paths is asserted **bit-identical** to
the frozen loop before any speedup is asserted — the engine is only
allowed to be fast by skipping re-derivable structure, never by
approximating.

Emits ``BENCH_sweep.json``.
"""

import statistics
import time

from benchmarks.conftest import record, write_bench
from repro.perfmodel.arch import ARCHITECTURES
from repro.perfmodel.calibration import host_overhead
from repro.perfmodel.costs import compute_stage_costs
from repro.perfmodel.hardware import HARDWARE
from repro.pipefisher.assignment import BubbleFiller
from repro.pipefisher.runner import PipeFisherRun
from repro.pipefisher.workqueue import build_device_queues
from repro.pipeline.comm import CommModel
from repro.pipeline.executor import simulate_tasks
from repro.pipeline.schedules import PipelineConfig, make_schedule
from repro.profiler.utilization import colored_seconds, utilization
from repro.sweep import SweepEngine

ARCH = "BERT-Base"
HARDWARE_NAMES = ("P100", "V100", "RTX3090")
B_MICRO_VALUES = (2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64)
DEPTH_VALUES = (8, 16)
N_MICRO_FACTOR = 2
#: Rounds of (per-point loop, cold engine, steady-state engine).
PAIRS = 5
#: Steady-state passes per round, min taken: one pass is ~30 ms, short
#: enough that a single GC pause or scheduler hiccup shows.
STEADY_REPS = 3
MIN_COLD_SPEEDUP = 5.0
MIN_STEADY_SPEEDUP = 50.0


def sweep_points():
    """A Fig. 6-style Chimera grid: hardware x B_micro x depth (N = 2D)."""
    arch = ARCHITECTURES[ARCH]
    for hw in HARDWARE_NAMES:
        for depth in DEPTH_VALUES:
            for b in B_MICRO_VALUES:
                yield PipeFisherRun(schedule="chimera", arch=arch,
                                    hardware=HARDWARE[hw], b_micro=b,
                                    depth=depth,
                                    n_micro=N_MICRO_FACTOR * depth)


# -- the frozen per-point loop --------------------------------------------------


def frozen_point(run: PipeFisherRun, memo: dict):
    """One sweep point exactly as the pre-engine runner evaluated it."""
    key = (run.arch, run.hardware, run.b_micro, run.layers_per_stage,
           run.schedule)
    costs = memo.get(key)
    if costs is None:
        costs = compute_stage_costs(
            run.arch, run.hardware, run.b_micro,
            layers_per_stage=run.layers_per_stage,
            overhead_s=host_overhead(run.schedule),
        )
        memo[key] = costs
    comm = CommModel(allreduce_gbs=run.hardware.interconnect_gbs)

    def config(precondition):
        return PipelineConfig(
            depth=run.depth, n_micro=run.n_micro, costs=costs, comm=comm,
            dp=run.dp, world_multiplier=run.world_multiplier,
            recompute=run.recompute, precondition=precondition,
            stage_param_bytes=run.layers_per_stage * run.arch.param_bytes(),
            virtual_chunks=run.virtual_chunks,
        )

    base_builder = make_schedule(run.schedule, config(False))
    base_sim = simulate_tasks(base_builder.build(steps=1),
                              base_builder.num_devices)
    base_span = base_sim.makespan
    base_util = utilization(base_sim.timeline, (0.0, base_span))

    pf_builder = make_schedule(run.schedule, config(True))
    template = simulate_tasks(pf_builder.build(steps=1),
                              pf_builder.num_devices)
    span = template.makespan
    queues = build_device_queues(pf_builder, costs)
    assignment = BubbleFiller(template, queues, dp=run.dp).fill()
    refresh = assignment.refresh_steps
    pf_colored = (refresh * colored_seconds(template.timeline.events)
                  + colored_seconds(assignment.events()))
    pf_util = pf_colored / (pf_builder.num_devices * refresh * span)
    return (base_span, base_util, span, pf_util, refresh,
            assignment.device_refresh_steps)


def engine_numbers(report):
    return (report.baseline_step_time, report.baseline_utilization,
            report.pipefisher_step_time, report.pipefisher_utilization,
            report.refresh_steps, report.device_refresh_steps)


def clear_timings(engine: SweepEngine) -> None:
    """Forget every evaluated duration table but keep compiled structure."""
    for template in engine._templates.values():
        template.timings.clear()


def assert_identical(points, ref, got):
    for point, r, g in zip(points, ref, got):
        assert r == engine_numbers(g), (
            f"engine diverged from the per-point loop at "
            f"{point.hardware.name} B={point.b_micro} D={point.depth}"
        )


def test_sweep_engine_vs_per_point_loop(once, benchmark):
    """Cold >= 5x, steady-state (re-timing only) >= 50x, bit-identical."""
    # Both sides start cold: the frozen loop gets a fresh local memo per
    # repetition and the engine is rebuilt per repetition, so nothing
    # warmed by earlier tests can leak into either timing.
    points = list(sweep_points())

    seed_s = cold_s = steady_s = float("inf")
    cold_ratios, steady_ratios = [], []
    for pair in range(PAIRS):
        memo: dict = {}
        t0 = time.perf_counter()
        ref = [frozen_point(p, memo) for p in points]
        seed = time.perf_counter() - t0

        engine = SweepEngine()  # cold: templates rebuilt inside the timing
        t0 = time.perf_counter()
        got = [engine.run(p) for p in points]
        cold = time.perf_counter() - t0
        assert_identical(points, ref, got)

        # Steady state: structure warm, timings cleared — each pass
        # re-times the whole grid through the native core.
        steady = float("inf")
        for rep in range(STEADY_REPS):
            clear_timings(engine)
            t0 = time.perf_counter()
            if pair == PAIRS - 1 and rep == STEADY_REPS - 1:
                got = once(lambda: [engine.run(p) for p in points])
            else:
                got = [engine.run(p) for p in points]
            steady = min(steady, time.perf_counter() - t0)
            assert_identical(points, ref, got)

        cold_ratios.append(seed / cold)
        steady_ratios.append(seed / steady)
        seed_s = min(seed_s, seed)
        cold_s = min(cold_s, cold)
        steady_s = min(steady_s, steady)

    stats = engine.stats()
    assert stats["templates"].misses == len(DEPTH_VALUES)

    cold_x = statistics.median(cold_ratios)
    steady_x = statistics.median(steady_ratios)
    print(f"\nfig6-style sweep, {len(points)} points "
          f"({len(DEPTH_VALUES)} templates): per-point loop {seed_s:.3f}s; "
          f"engine cold {cold_s:.3f}s ({cold_x:.1f}x), "
          f"steady-state {steady_s:.4f}s ({steady_x:.1f}x, "
          f"{stats['native_evals']} native evals); median of {PAIRS} "
          f"round ratios, steady "
          f"{', '.join(f'{r:.1f}' for r in steady_ratios)}")
    assert cold_x >= MIN_COLD_SPEEDUP, (
        f"expected >= {MIN_COLD_SPEEDUP:.0f}x cold over the per-point "
        f"sweep loop, got {cold_x:.1f}x ({cold_s:.3f}s vs {seed_s:.3f}s)"
    )
    assert steady_x >= MIN_STEADY_SPEEDUP, (
        f"expected >= {MIN_STEADY_SPEEDUP:.0f}x steady-state over the "
        f"per-point sweep loop, got {steady_x:.1f}x "
        f"({steady_s:.3f}s vs {seed_s:.3f}s)"
    )
    record(benchmark, seed_s=round(seed_s, 3), cold_s=round(cold_s, 3),
           steady_s=round(steady_s, 4), cold_speedup=round(cold_x, 1),
           steady_speedup=round(steady_x, 1))
    write_bench(
        "sweep",
        config=dict(
            arch=ARCH,
            schedule="chimera",
            hardware=list(HARDWARE_NAMES),
            b_micro=list(B_MICRO_VALUES),
            depth=list(DEPTH_VALUES),
            n_micro_factor=N_MICRO_FACTOR,
            points=len(points),
            templates=len(DEPTH_VALUES),
            pairs=PAIRS,
            steady_reps=STEADY_REPS,
            gate="median per-round ratio, seed/cold/steady alternating",
            identical="all reports bit-identical to the per-point loop "
                      "(also asserted per-field by tests/sweep/)",
            steady_state="structure caches warm, timing caches cleared "
                         "per pass; engine.run loop",
        ),
        seed_s=round(seed_s, 3),
        engine_cold_s=round(cold_s, 3),
        engine_steady_s=round(steady_s, 4),
        speedup_cold=round(cold_x, 1),
        speedup_steady=round(steady_x, 1),
        min_speedup_cold=MIN_COLD_SPEEDUP,
        min_speedup_steady=MIN_STEADY_SPEEDUP,
        native_evals=stats["native_evals"],
        template_hits=stats["templates"].hits,
        template_misses=stats["templates"].misses,
        stage_cost_misses=stats["stage_costs"].misses,
        reexecutions=stats["reexecutions"],
    )
