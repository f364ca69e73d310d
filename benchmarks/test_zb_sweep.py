"""ZB-H1 zero-bubble sweep: frozen per-point baseline vs the sweep engine.

The baseline frozen below is the pre-engine evaluation of the zero-bubble
grid: for every (B_micro, depth) point, both schedules' task graphs are
built, simulated, inventoried and bubble-filled from scratch through
``PipeFisherRun.execute()``, which also computes each point's stage
costs afresh.  The engine path canonicalizes the same grid onto
compiled schedule templates — one per (schedule, depth) — and re-times
each point.  Every report is asserted **bit-identical** before any
speedup is asserted, and the zero-bubble claims are re-checked as
invariants: smaller measured bubble fraction and faster steps than plain
1F1B at the same activation memory, at every fig6-style point.

Emits ``BENCH_zb.json`` (the perf-trajectory file the next PR compares
against; re-run by the non-gating CI benchmarks job).
"""

import time

from benchmarks.conftest import record, write_bench
from repro.experiments.zb import (
    baseline_bubble_fraction,
    format_zb_sweep,
    run_zb_sweep,
)
from repro.pipefisher.runner import PipeFisherRun
from repro.perfmodel.arch import ARCHITECTURES
from repro.perfmodel.hardware import P100
from repro.sweep import SweepEngine

B_MICRO_VALUES = (4, 16, 32)
DEPTH_VALUES = (4, 8, 16)
#: min-of-N timing on both sides (cold caches each rep).
REPS = 2


def grid_points():
    arch = ARCHITECTURES["BERT-Base"]
    for depth in DEPTH_VALUES:
        for b in B_MICRO_VALUES:
            for sched in ("1f1b", "zb1f1b"):
                yield (b, depth, sched), PipeFisherRun(
                    schedule=sched, arch=arch, hardware=P100,
                    b_micro=b, depth=depth, n_micro=depth,
                )


def point_numbers(report):
    return (report.baseline_step_time, report.baseline_utilization,
            report.pipefisher_step_time, report.pipefisher_utilization,
            report.refresh_steps, report.device_refresh_steps,
            baseline_bubble_fraction(report))


def frozen_loop():
    """The per-point loop: every point re-derives all structure."""
    return {key: point_numbers(run.execute()) for key, run in grid_points()}


def engine_loop():
    """The same grid through a fresh (cold) sweep engine."""
    engine = SweepEngine()
    out = {key: point_numbers(engine.run(run)) for key, run in grid_points()}
    return out, engine


def test_zb_sweep(once, benchmark):
    # -- bit-identity before any timing ---------------------------------------
    ref = frozen_loop()
    got, engine = engine_loop()
    assert ref == got
    stats = engine.stats()
    assert stats["templates"].misses == len(DEPTH_VALUES) * 2
    assert stats["templates"].hits >= len(DEPTH_VALUES) * 2 * (
        len(B_MICRO_VALUES) - 1)

    # -- the zero-bubble invariants, on the identical numbers ------------------
    result = once(run_zb_sweep, b_micro_values=B_MICRO_VALUES,
                  depth_values=DEPTH_VALUES, engine=SweepEngine())
    print("\n" + format_zb_sweep(result))
    for key, row in result.rows.items():
        assert row.bubble_zb < row.bubble_1f1b, key
        assert row.step_speedup > 1.0, key
        z = row.zero_bubble
        assert z.baseline_utilization > row.one_f_one_b.baseline_utilization, key
        assert z.pipefisher_utilization > z.baseline_utilization + 0.10, key
        assert z.refresh_steps >= row.one_f_one_b.refresh_steps, key

    # -- perf trajectory --------------------------------------------------------
    t_base = min(_timed(frozen_loop) for _ in range(REPS))
    t_engine = min(_timed(lambda: engine_loop()[0]) for _ in range(REPS))
    speedup = t_base / t_engine
    assert speedup >= 1.2, f"engine path only {speedup:.2f}x on the zb grid"

    headline = result.rows[(32, 16)]
    write_bench(
        "zb",
        grid_points=len(DEPTH_VALUES) * len(B_MICRO_VALUES) * 2,
        baseline_seconds=round(t_base, 4),
        engine_seconds=round(t_engine, 4),
        speedup=round(speedup, 2),
        bubble_1f1b_b32_d16=round(headline.bubble_1f1b, 4),
        bubble_zb_b32_d16=round(headline.bubble_zb, 4),
        step_speedup_b32_d16=round(headline.step_speedup, 3),
        note="bit-identity of engine vs per-point loop asserted before "
             "timing; min-of-%d, cold caches both sides" % REPS,
    )
    record(benchmark,
           zb_engine_speedup=round(speedup, 2),
           bubble_win_b32_d16=round(
               headline.bubble_1f1b - headline.bubble_zb, 4))


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0
