"""Batched Monte Carlo must equal the scalar replicate loop.

``monte_carlo(batch=True)`` vectorizes replicates through the native
core; it is a pure execution mode — every replicate record must compare
``==`` to the scalar ``replicate_from_point`` path
(``batch=False``), fault-carrying seeds included.
"""

import pytest

from repro.perfmodel.arch import ARCHITECTURES
from repro.perfmodel.hardware import HARDWARE
from repro.pipefisher.runner import PipeFisherRun
from repro.stochastic import StochasticModel, monte_carlo
from repro.sweep import native
from repro.sweep.engine import SweepEngine

JITTER = StochasticModel(jitter_sigma=0.03)
STRAGGLER = StochasticModel(straggler_count=1, straggler_slowdown=1.1)
#: Moderate preemption: some seeds draw faults (scalar fallback rows),
#: some don't (native rows) — the mixed batch is the interesting case.
MIXED = StochasticModel(jitter_sigma=0.02, preemption_rate=0.3,
                        restart_delay_frac=0.05,
                        checkpoint_interval_frac=0.1)
FAULTY = StochasticModel(jitter_sigma=0.02, preemption_rate=1.0,
                         restart_delay_frac=0.05,
                         checkpoint_interval_frac=0.1)

SEEDS = range(24)


@pytest.fixture(scope="module")
def run():
    return PipeFisherRun(schedule="1f1b", arch=ARCHITECTURES["BERT-Base"],
                         hardware=HARDWARE["P100"], b_micro=32, depth=4,
                         n_micro=8, layers_per_stage=3)


def _scalar(run, model, seeds):
    return monte_carlo(run, model, seeds, engine=SweepEngine(),
                       batch=False).replicates


@pytest.mark.parametrize("model", [JITTER, STRAGGLER, MIXED, FAULTY],
                         ids=["jitter", "straggler", "mixed", "faulty"])
def test_batch_matches_scalar(run, model):
    ref = _scalar(run, model, SEEDS)
    got = monte_carlo(run, model, SEEDS, engine=SweepEngine(),
                      batch=True).replicates
    assert got == ref


def test_mixed_model_actually_mixes(run):
    """The MIXED fixture must exercise both the native rows and the
    scalar fault fallback within one batch."""
    reps = _scalar(run, MIXED, SEEDS)
    faulty = sum(1 for r in reps if r["n_restarts"] > 0)
    assert 0 < faulty < len(reps)


def test_batch_without_native_matches(run, monkeypatch):
    monkeypatch.setenv(native.DISABLE_ENV, "1")
    assert not native.available()
    ref = _scalar(run, JITTER, range(6))
    got = monte_carlo(run, JITTER, range(6), engine=SweepEngine(),
                      batch=True).replicates
    assert got == ref


@pytest.mark.skipif(not native.available(),
                    reason="native core unavailable (nothing is batched)")
def test_batch_credits_engine_counters(run):
    """The batch credits the caller's engine: every replicate of the
    MIXED block is re-timed natively, fault-carrying ones included."""
    eng = SweepEngine()
    monte_carlo(run, MIXED, SEEDS, engine=eng)
    stats = eng.stats()
    assert stats["mc_batched_replicates"] == len(SEEDS)
    assert stats["mc_faulty_batched"] > 0
