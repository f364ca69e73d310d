"""Ablations of the design choices DESIGN.md calls out.

Not paper figures — these probe why PipeFisher's pieces matter:

* bubble filling vs K-FAC+skip vs naive K-FAC (execution strategy);
* steady-state (cyclic) readiness vs cold-start assignment;
* work splitting across bubbles on/off (min_chunk sensitivity);
* Chimera vs GPipe refresh/throughput tradeoff across depths;
* damping sensitivity of K-FAC preconditioning;
* empirical-Fisher EMA (stat_decay) on/off.
"""

import numpy as np
import pytest

from benchmarks.conftest import record
from repro.perfmodel import PipelinePerfModel
from repro.perfmodel.arch import BERT_BASE
from repro.perfmodel.calibration import host_overhead
from repro.perfmodel.costs import compute_stage_costs
from repro.perfmodel.hardware import P100
from repro.pipefisher import BubbleFiller, build_device_queues
from repro.pipeline import PipelineConfig, make_schedule, simulate_tasks


def _filler(steady_state=True, min_chunk=2e-3):
    costs = compute_stage_costs(BERT_BASE, P100, 32, layers_per_stage=3,
                                overhead_s=host_overhead("gpipe"))
    cfg = PipelineConfig(depth=4, n_micro=4, costs=costs, precondition=True,
                         stage_param_bytes=3 * BERT_BASE.param_bytes())
    builder = make_schedule("gpipe", cfg)
    template = simulate_tasks(builder.build(), builder.num_devices)
    queues = build_device_queues(builder, costs)
    return BubbleFiller(template, queues, steady_state=steady_state,
                        min_chunk=min_chunk)


def test_ablation_execution_strategy(once, benchmark):
    """Bubble filling is the whole win: same K-FAC math, different placement."""
    model = PipelinePerfModel(BERT_BASE, P100, "chimera")

    def run():
        return model.report(32, 8)

    r = once(run)
    pf, skip, naive = (r.throughput_pipefisher, r.throughput_kfac_skip,
                       r.throughput_kfac_naive)
    print("\n=== Ablation: execution strategy (Chimera BERT-Base B=32 D=8) ===")
    print(f"PipeFisher {pf:8.1f} seqs/s")
    print(f"K-FAC+skip {skip:8.1f} seqs/s  ({pf/skip:.2f}x slower than PF)")
    print(f"naive KFAC {naive:8.1f} seqs/s  ({pf/naive:.2f}x slower than PF)")
    record(benchmark, pipefisher=round(pf, 1), kfac_skip=round(skip, 1),
           kfac_naive=round(naive, 1))
    assert pf / naive > 1.5  # hiding all K-FAC work is a big win
    assert pf / skip > 1.02


def test_ablation_steady_state_readiness(once, benchmark):
    """Cyclic readiness (factors from saved prior-step tensors) shortens the
    refresh interval vs cold-start assignment."""
    def run():
        warm = _filler(steady_state=True).fill().refresh_steps
        cold = _filler(steady_state=False).fill().refresh_steps
        return warm, cold

    warm, cold = once(run)
    print(f"\n=== Ablation: steady-state readiness: refresh {warm} vs "
          f"cold-start {cold} steps ===")
    record(benchmark, steady_state_refresh=warm, cold_start_refresh=cold)
    assert warm <= cold


def test_ablation_work_splitting(once, benchmark):
    """Forbidding splits (min_chunk ~ work size) wastes bubble fragments."""
    def run():
        fine = _filler(min_chunk=2e-3).fill().refresh_steps
        coarse = _filler(min_chunk=5e-2).fill().refresh_steps
        return fine, coarse

    fine, coarse = once(run)
    print(f"\n=== Ablation: kernel-level splitting: refresh {fine} (fine) vs "
          f"{coarse} (coarse) steps ===")
    record(benchmark, fine_chunk_refresh=fine, coarse_chunk_refresh=coarse)
    assert fine <= coarse


def test_ablation_schedule_tradeoff(once, benchmark):
    """§3.3: pick the schedule by throughput vs refresh-frequency tradeoff."""
    def run():
        rows = []
        for sched in ("gpipe", "chimera"):
            m = PipelinePerfModel(BERT_BASE, P100, sched)
            for d in (4, 8, 16):
                r = m.report(32, d)
                rows.append((sched, d, r.throughput_pipefisher, r.refresh_steps))
        return rows

    rows = once(run)
    print("\n=== Ablation: schedule tradeoff (throughput vs refresh) ===")
    print(f"{'schedule':>9s} {'D':>4s} {'thr':>8s} {'refresh':>8s}")
    for sched, d, thr, refresh in rows:
        print(f"{sched:>9s} {d:4d} {thr:8.1f} {refresh:8d}")
    by = {(s, d): (t, r) for s, d, t, r in rows}
    for d in (4, 8, 16):
        assert by[("chimera", d)][0] > by[("gpipe", d)][0]
        assert by[("chimera", d)][1] >= by[("gpipe", d)][1]
    record(benchmark, rows=str(rows))


def test_ablation_damping_sensitivity(once, benchmark):
    """Preconditioning must interpolate between natural gradient (small
    damping) and plain gradient direction (large damping)."""
    from repro.kfac import KFACLayerState

    rng = np.random.default_rng(0)
    inputs = rng.standard_normal((4096, 8)).astype(np.float32)
    inputs[:, 0] *= 10.0
    grads = rng.standard_normal((4096, 6)).astype(np.float32)
    g = np.ones((6, 8), dtype=np.float32)

    def run():
        out = {}
        for damping in (1e-4, 1e2, 1e6):
            s = KFACLayerState("l", 8, 6, include_bias=False)
            s.update_curvature([inputs], [grads], loss_scale=1.0)
            s.update_inverses(damping, use_pi=False)
            nat, _ = s.precondition(g)
            # Anisotropy: how differently the whitened column 0 is treated.
            out[damping] = float(np.abs(nat[:, 1]).mean()
                                 / max(np.abs(nat[:, 0]).mean(), 1e-12))
        return out

    aniso = once(run)
    print("\n=== Ablation: damping sensitivity (col1/col0 magnitude) ===")
    for d, a in aniso.items():
        print(f"  damping {d:8.0e} -> anisotropy {a:8.2f}")
    record(benchmark, **{f"aniso_{k:g}": round(v, 2) for k, v in aniso.items()})
    # Small damping: strong whitening (high anisotropy).  Damping whose
    # per-factor share (sqrt) dwarfs the top eigenvalue (~100 here): ~SGD.
    assert aniso[1e-4] > aniso[1e2] > aniso[1e6]
    assert aniso[1e6] == pytest.approx(1.0, abs=0.2)


def test_ablation_stat_decay(once, benchmark):
    """EMA factors (KAISA-style) vs replace-per-refresh (PipeFisher)."""
    from repro.kfac import KroneckerFactor, compute_factor_from_rows

    rng = np.random.default_rng(1)

    def run():
        drift = {}
        for decay in (0.0, 0.95):
            kf = KroneckerFactor(4, stat_decay=decay)
            prev = None
            deltas = []
            for step in range(30):
                rows = rng.standard_normal((64, 4)).astype(np.float32)
                kf.update(compute_factor_from_rows(rows))
                if prev is not None:
                    deltas.append(float(np.abs(kf.value - prev).mean()))
                prev = kf.value.copy()
            drift[decay] = float(np.mean(deltas))
        return drift

    drift = once(run)
    print(f"\n=== Ablation: factor EMA: per-step drift "
          f"replace={drift[0.0]:.4f} vs ema={drift[0.95]:.4f} ===")
    record(benchmark, drift_replace=round(drift[0.0], 5),
           drift_ema=round(drift[0.95], 5))
    # EMA smooths the estimate: much lower step-to-step drift.
    assert drift[0.95] < drift[0.0] / 3
