"""Monte Carlo replicate throughput: template reuse vs per-seed rebuild.

A stochastic replicate is a pure re-timing pass over a compiled
template: perturb the duration arrays, re-run the event loop.  The
naive alternative rebuilds the schedule graph (template compile +
stage-cost lookup through a fresh engine) for every seed.  Both paths
are asserted bit-identical per seed, then timed over the same seed set
in alternating pairs; the median per-pair replicates/sec ratio is
asserted **>= 5x** and written to ``BENCH_mc.json``.

On top of template reuse, :func:`~repro.stochastic.mc.replicate_batch`
re-times every fault-free replicate of a seed block as one native
``(n_seeds, n_tasks)`` pass per graph.  Its absolute throughput is
asserted against a floor of 3x the pre-batching scalar rate recorded in
this benchmark's history (564.8 replicates/s), after asserting the
records bit-identical to the scalar path's.

Fault-carrying replicates used to drop out of the batch to the scalar
fallback; the native restart-replay core now keeps them in the same
``(n_seeds, n_tasks)`` pass.  A preemption-heavy model (every seed
draws failures) is asserted bit-identical to the scalar fault path,
then timed: batched faulty replicates/sec must be **>= 5x** the
per-seed scalar rate.
"""

import gc
import statistics
import time
from contextlib import contextmanager

from benchmarks.conftest import record, write_bench
from repro.perfmodel.arch import ARCHITECTURES
from repro.perfmodel.hardware import HARDWARE
from repro.pipefisher.runner import PipeFisherRun
from repro.stochastic.mc import replicate_batch, replicate_from_point
from repro.stochastic.model import StochasticModel
from repro.sweep import SweepEngine

SEEDS = tuple(range(32))
#: A larger block for the batched-throughput measurement: amortizes the
#: one-off marshalling so the rate reflects the per-replicate cost.
BATCH_SEEDS = tuple(range(256))
REPS = 3
#: Alternating reuse/naive timing pairs behind the reuse speedup.
PAIRS = 7
MIN_SPEEDUP = 5.0
#: 3x the scalar template-reuse rate this benchmark recorded before the
#: batched path existed.
MIN_BATCH_RATE = 3.0 * 564.8

#: Jitter + straggler (fault-free), so every replicate exercises the
#: full perturbation path with a deterministic amount of work per seed.
MODEL = StochasticModel(jitter_sigma=0.03, straggler_count=1,
                        straggler_slowdown=1.05)

#: Preemption-heavy: rate 1.0 over this horizon makes every seed draw
#: failures, so the whole block exercises the native restart replay.
FAULTY_MODEL = StochasticModel(jitter_sigma=0.02, preemption_rate=1.0,
                               restart_delay_frac=0.05,
                               checkpoint_interval_frac=0.1)
MIN_FAULTY_SPEEDUP = 5.0


@contextmanager
def gc_paused():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def mc_run() -> PipeFisherRun:
    return PipeFisherRun(schedule="1f1b", arch=ARCHITECTURES["BERT-Base"],
                         hardware=HARDWARE["P100"], b_micro=32, depth=8,
                         n_micro=16, layers_per_stage=2)


def reuse_replicates(run):
    """One compiled point, one nominal evaluation, N re-timing passes."""
    engine = SweepEngine()
    point = engine.compiled_point(run)
    nominal = engine.nominal_evaluation(point)
    return [replicate_from_point(point, nominal, MODEL, s) for s in SEEDS]


def naive_replicates(run):
    """A fresh engine per seed: every replicate pays the graph rebuild."""
    out = []
    for s in SEEDS:
        engine = SweepEngine()
        point = engine.compiled_point(run)
        nominal = engine.nominal_evaluation(point)
        out.append(replicate_from_point(point, nominal, MODEL, s))
    return out


def scalar_block(run, seeds, model=MODEL):
    """Template reuse, scalar replicate loop over ``seeds``."""
    engine = SweepEngine()
    point = engine.compiled_point(run)
    nominal = engine.nominal_evaluation(point)
    return [replicate_from_point(point, nominal, model, s) for s in seeds]


def batched_block(run, seeds, model=MODEL):
    """Template reuse plus the native batched re-timing pass."""
    engine = SweepEngine()
    point = engine.compiled_point(run)
    nominal = engine.nominal_evaluation(point)
    return replicate_batch(point, nominal, model, seeds)


def test_mc_template_reuse_speedup(once, benchmark):
    run = mc_run()

    # -- bit-identity: reuse is an optimization, not an approximation ----------
    assert reuse_replicates(run) == naive_replicates(run)

    # Alternating pairs, gated on the median per-pair ratio: a pair sees
    # the same host load on both sides, and the median ignores a pair
    # that a load spike hit on one side only.
    ratios = []
    reuse_s = naive_s = float("inf")
    for rep in range(PAIRS):
        with gc_paused():
            t0 = time.perf_counter()
            if rep == PAIRS - 1:
                once(reuse_replicates, run)
            else:
                reuse_replicates(run)
            reuse = time.perf_counter() - t0
        with gc_paused():
            t0 = time.perf_counter()
            naive_replicates(run)
            naive = time.perf_counter() - t0
        ratios.append(naive / reuse)
        reuse_s = min(reuse_s, reuse)
        naive_s = min(naive_s, naive)

    speedup = statistics.median(ratios)
    reuse_rate = len(SEEDS) / reuse_s
    naive_rate = len(SEEDS) / naive_s
    print(f"\nMC replicates: {len(SEEDS)} seeds; template reuse "
          f"{reuse_s:.3f}s ({reuse_rate:.0f}/s) vs per-seed rebuild "
          f"{naive_s:.3f}s ({naive_rate:.0f}/s); median of {PAIRS} "
          f"pair ratios {speedup:.1f}x "
          f"({', '.join(f'{r:.1f}' for r in ratios)})")
    assert speedup >= MIN_SPEEDUP, (
        f"template reuse yields only {speedup:.1f}x over per-seed rebuild "
        f"(floor {MIN_SPEEDUP:.0f}x)")

    # -- batched replicate throughput ------------------------------------------
    # Bit-identity first (batching is an execution mode, not a model
    # change), then min-of-REPS over the larger seed block.
    scalar_ref = scalar_block(run, BATCH_SEEDS)
    assert batched_block(run, BATCH_SEEDS) == scalar_ref

    batched_s = float("inf")
    for _ in range(REPS):
        with gc_paused():
            t0 = time.perf_counter()
            batched_block(run, BATCH_SEEDS)
            batched_s = min(batched_s, time.perf_counter() - t0)
    batched_rate = len(BATCH_SEEDS) / batched_s
    batch_speedup = batched_rate / reuse_rate
    print(f"MC batched replicates: {len(BATCH_SEEDS)} seeds in "
          f"{batched_s:.3f}s ({batched_rate:.0f}/s, {batch_speedup:.1f}x "
          f"the scalar reuse rate; floor {MIN_BATCH_RATE:.0f}/s)")
    assert batched_rate >= MIN_BATCH_RATE, (
        f"batched replicates run at {batched_rate:.0f}/s, below the "
        f"{MIN_BATCH_RATE:.0f}/s floor (3x the pre-batching scalar rate)")

    # -- faulty-rows batched headline ------------------------------------------
    # Restart replay in the native core: a preemption-heavy model keeps
    # every seed on the batched path.  Bit-identity vs the scalar fault
    # path comes first — restart rows, lost work, and all.
    faulty_scalar = scalar_block(run, BATCH_SEEDS, FAULTY_MODEL)
    assert all(r["n_restarts"] > 0 for r in faulty_scalar), \
        "the faulty benchmark model must fault every seed"
    assert batched_block(run, BATCH_SEEDS, FAULTY_MODEL) == faulty_scalar

    faulty_scalar_s = faulty_batched_s = float("inf")
    for _ in range(REPS):
        with gc_paused():
            t0 = time.perf_counter()
            scalar_block(run, BATCH_SEEDS, FAULTY_MODEL)
            faulty_scalar_s = min(faulty_scalar_s,
                                  time.perf_counter() - t0)
        with gc_paused():
            t0 = time.perf_counter()
            batched_block(run, BATCH_SEEDS, FAULTY_MODEL)
            faulty_batched_s = min(faulty_batched_s,
                                   time.perf_counter() - t0)
    faulty_rate = len(BATCH_SEEDS) / faulty_batched_s
    faulty_scalar_rate = len(BATCH_SEEDS) / faulty_scalar_s
    faulty_speedup = faulty_scalar_s / faulty_batched_s
    print(f"MC faulty replicates: {len(BATCH_SEEDS)} seeds, all "
          f"restart-carrying; batched {faulty_batched_s:.3f}s "
          f"({faulty_rate:.0f}/s) vs scalar {faulty_scalar_s:.3f}s "
          f"({faulty_scalar_rate:.0f}/s) => {faulty_speedup:.1f}x")
    assert faulty_speedup >= MIN_FAULTY_SPEEDUP, (
        f"batched faulty replicates give only {faulty_speedup:.1f}x over "
        f"the scalar fault path (floor {MIN_FAULTY_SPEEDUP:.0f}x)")

    record(benchmark, replicates=len(SEEDS), reuse_s=round(reuse_s, 4),
           naive_s=round(naive_s, 4), speedup=round(speedup, 1),
           batched_rate=round(batched_rate, 1),
           faulty_speedup=round(faulty_speedup, 1))
    write_bench(
        "mc",
        replicates=len(SEEDS),
        reuse_s=round(reuse_s, 4),
        naive_s=round(naive_s, 4),
        replicates_per_s_reuse=round(reuse_rate, 1),
        replicates_per_s_naive=round(naive_rate, 1),
        speedup=round(speedup, 1),
        min_speedup=MIN_SPEEDUP,
        batch_replicates=len(BATCH_SEEDS),
        batched_s=round(batched_s, 4),
        replicates_per_s_batched=round(batched_rate, 1),
        min_replicates_per_s_batched=round(MIN_BATCH_RATE, 1),
        faulty_scalar_s=round(faulty_scalar_s, 4),
        faulty_batched_s=round(faulty_batched_s, 4),
        replicates_per_s_faulty_batched=round(faulty_rate, 1),
        replicates_per_s_faulty_scalar=round(faulty_scalar_rate, 1),
        faulty_speedup=round(faulty_speedup, 1),
        min_faulty_speedup=MIN_FAULTY_SPEEDUP,
    )
