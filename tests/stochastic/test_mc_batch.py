"""Batched Monte Carlo must equal the scalar replicate loop.

``monte_carlo(batch=True)`` vectorizes replicates through the native
core, and a campaign unit's ``run_replicate`` is a one-seed block of the
same batch; both are pure execution modes — every replicate record must
compare ``==`` to the scalar ``replicate_from_point`` path
(``batch=False``), fault-carrying seeds included.
"""

import pytest

from repro.campaign.spec import canonical_json
from repro.perfmodel.arch import ARCHITECTURES
from repro.perfmodel.hardware import HARDWARE, P100
from repro.pipefisher.runner import PipeFisherRun
from repro.stochastic import StochasticModel, monte_carlo, run_replicate
from repro.stochastic.mc import replicate_from_point
from repro.sweep import native
from repro.sweep.engine import SweepEngine
from tests.stochastic.test_native_faults import SCHEDULE_CASES
from tests.sweep.test_engine_equivalence import CASES

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


#: A fault-free straggler model and a preemption model (every seed
#: restarts): the two shapes a campaign ``stochastic`` unit runs.
UNIT_MODELS = {
    "straggler": StochasticModel(straggler_count=1, straggler_slowdown=1.05),
    "preempt": StochasticModel(jitter_sigma=0.02, preemption_rate=1.0,
                               restart_delay_frac=0.05,
                               checkpoint_interval_frac=0.1),
}
UNIT_SEEDS = range(8)


@pytest.mark.parametrize("no_native", [False, True],
                         ids=["native", "no-native"])
@pytest.mark.parametrize("model_name", sorted(UNIT_MODELS))
@pytest.mark.parametrize("schedule", SCHEDULE_CASES)
def test_run_replicate_matches_reference(schedule, model_name, no_native,
                                         monkeypatch):
    """The campaign unit's one-seed batch equals the python reference."""
    if no_native:
        monkeypatch.setenv(native.DISABLE_ENV, "1")
    model = UNIT_MODELS[model_name]
    run = PipeFisherRun(hardware=P100, **CASES[schedule])
    engine = SweepEngine()
    point = engine.compiled_point(run)
    nominal = engine.nominal_evaluation(point)
    for seed in UNIT_SEEDS:
        got = run_replicate(run, model, seed, engine=engine)
        ref = replicate_from_point(point, nominal, model, seed)
        assert canonical_json(got) == canonical_json(ref)
    batched = engine.stats()["mc_batched_replicates"]
    assert batched == (len(UNIT_SEEDS) if native.available() else 0)


@pytest.mark.skipif(not native.available(),
                    reason="native core unavailable (nothing is batched)")
def test_campaign_units_tick_batched_replicates():
    """Every executed ``stochastic`` unit is one native replicate."""
    from repro.campaign.runner import CampaignRunner
    from repro.experiments.robustness import robustness_spec

    engine = SweepEngine()
    result = CampaignRunner(engine=engine).run(
        robustness_spec(model=UNIT_MODELS["preempt"], seeds=range(3)))
    assert len(result.executed) == 15
    stats = engine.stats()
    assert stats["mc_batched_replicates"] == len(result.executed)
    assert stats["mc_faulty_batched"] == len(result.executed)
