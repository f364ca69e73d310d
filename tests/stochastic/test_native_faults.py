"""The native fault-replay core must be bit-identical to the reference.

``repro_sim_batch`` given failure tables transliterates the DeviceFaults
restart-replay of :func:`~repro.sweep.retime.simulate_compiled`; these
tests fuzz the whole surface — every registered schedule, mixed
jitter/straggler/preemption perturbations, hand-built edge cases
including the negative-lost-work regression PR 7 fixed — comparing with
``==`` on floats (no tolerances) including the restart rows and the
bubble fraction the same pass folds, plus the python types of the
restart rows and the engine counters the batched MC path feeds.
"""

import pytest

from repro.perfmodel.arch import ARCHITECTURES
from repro.perfmodel.hardware import HARDWARE, P100
from repro.pipefisher.runner import PipeFisherRun
from repro.stochastic import StochasticModel, monte_carlo
from repro.stochastic.mc import compiled_bubble_fraction
from repro.stochastic.perturb import (
    perturbed_durations,
    sample_perturbation,
    table_durations,
)
from repro.sweep import SweepEngine
from repro.sweep import batch as sweep_batch
from repro.sweep import native
from repro.sweep.retime import simulate_compiled
from tests.stochastic.test_faults import faults
from tests.sweep.test_engine_equivalence import CASES

try:
    import numpy as np
except ImportError:  # pragma: no cover
    np = None

#: One representative case per registered schedule family.
SCHEDULE_CASES = ("gpipe", "1f1b", "chimera", "interleaved", "zb1f1b")
FUZZ_SEEDS = 24

#: Heavy preemption on top of jitter + a straggler: every draw category
#: the perturbation sampler has, mixed in one model.
MODEL = StochasticModel(jitter_sigma=0.03, straggler_count=1,
                        straggler_slowdown=1.08, preemption_rate=0.8,
                        restart_delay_frac=0.05,
                        checkpoint_interval_frac=0.1)

pytestmark = pytest.mark.skipif(
    not native.available(),
    reason="native core unavailable (the python reference is the "
           "fallback these tests compare against)")


def _point(name):
    run = PipeFisherRun(hardware=P100, **CASES[name])
    return SweepEngine().compiled_point(run)


def chain_graph(durations, device=0, num_devices=None):
    """test_faults.py's linear chain, with int-packable priorities.

    The hand-built scenarios there use 1-tuple priorities, which keep
    the graph on tuple order keys — fine for the python reference, but
    the native lowering only accepts int keys.  Two-int priorities pack
    (see ``_pack_order_keys``), and ``simulate_compiled`` orders both
    spellings identically, so the scenarios transfer unchanged.
    """
    from repro.pipeline.work import Task, WorkKind
    from repro.sweep.template import compile_graph

    tasks = [Task(tid=f"t{i}", device=device, kind=WorkKind.FORWARD,
                  duration=d, deps=(f"t{i - 1}",) if i else (),
                  priority=(i, 0),
                  meta={"stage": device, "micro_batch": i})
             for i, d in enumerate(durations)]
    return compile_graph(tasks, num_devices or device + 1)


def _perturbation_rows(point, graph, durs, seeds):
    """Per-seed (task_durs, faults) pairs sampled exactly like MC."""
    template = point.template
    nominal = simulate_compiled(graph, durs)
    rows = []
    for seed in seeds:
        p = sample_perturbation(MODEL, seed, template.num_devices,
                                nominal.makespan)
        td = perturbed_durations(graph, table_durations(graph, durs), p)
        rows.append((td, p.faults()))
    return rows


def _assert_fault_sims_equal(ref, got):
    assert ref.start == got.start
    assert ref.end == got.end
    assert ref.ev_end == got.ev_end
    assert ref.ev_order == got.ev_order
    assert ref.makespan == got.makespan
    assert got.restarts == ref.restarts
    assert ref.restarts == got.restarts  # reflected comparison too


@pytest.mark.parametrize("name", SCHEDULE_CASES)
def test_fault_batch_matches_reference(name):
    """≥20 seeds × every schedule, preemption/straggler/jitter mixed."""
    point = _point(name)
    template = point.template
    for graph, durs in ((template.base_graph, point.base_durs),
                        (template.pf_graph, point.pf_durs)):
        rows = _perturbation_rows(point, graph, durs, range(FUZZ_SEEDS))
        matrix = np.asarray([td for td, _ in rows], np.float64)
        fb = sweep_batch.simulate_graph_batch(
            graph, task_durs=matrix, faults=[f for _, f in rows],
            bubbles=True)
        assert fb.rest is not None  # a fault-replay pass
        n_faulty = 0
        for i, (td, f) in enumerate(rows):
            assert fb.ok(i)
            ref = simulate_compiled(graph, None, task_durs=list(td),
                                    faults=f)
            _assert_fault_sims_equal(ref, fb.sim(i))
            assert fb.bubble[i] == compiled_bubble_fraction(graph, ref)
            n, down, lost = fb.restart_stats(i)
            assert n == len(ref.restarts)
            ref_down = 0.0
            ref_lost = 0.0
            for _, _, fail, resume, lw in ref.restarts:
                ref_down += resume - fail
                ref_lost += lw
            assert down == ref_down
            assert lost == ref_lost
            n_faulty += bool(ref.restarts)
        assert n_faulty > 0, "fuzz model never produced a restart"


def test_mixed_none_and_fault_rows_in_one_batch():
    """``faults=None`` rows ride the fault core bit-identically."""
    point = _point("1f1b")
    graph, durs = point.template.base_graph, point.base_durs
    rows = _perturbation_rows(point, graph, durs, range(8))
    fault_list = [f if i % 2 else None for i, (_, f) in enumerate(rows)]
    matrix = np.asarray([td for td, _ in rows], np.float64)
    fb = sweep_batch.simulate_graph_batch(graph, task_durs=matrix,
                                          faults=fault_list)
    for i, (td, _) in enumerate(rows):
        ref = simulate_compiled(graph, None, task_durs=list(td),
                                faults=fault_list[i])
        _assert_fault_sims_equal(ref, fb.sim(i))
        if fault_list[i] is None:
            assert fb.restart_stats(i) == (0, 0.0, 0.0)


@pytest.mark.parametrize("name", SCHEDULE_CASES)
def test_no_fault_call_equals_empty_fault_tables(name):
    """One entry, two spellings of "no faults": NULL tables
    (``faults=None``) and an empty table per row (``[None] * P``) give
    the same rows, and both equal the python reference."""
    point = _point(name)
    graph, durs = point.template.pf_graph, point.pf_durs
    rows = _perturbation_rows(point, graph, durs, range(6))
    matrix = np.asarray([td for td, _ in rows], np.float64)
    plain = sweep_batch.simulate_graph_batch(graph, task_durs=matrix)
    empty = sweep_batch.simulate_graph_batch(
        graph, task_durs=matrix, faults=[None] * len(rows))
    assert plain.rest is None and empty.rest is not None
    for i, (td, _) in enumerate(rows):
        ref = simulate_compiled(graph, None, task_durs=list(td))
        for gb in (plain, empty):
            assert gb.ok(i)
            _assert_fault_sims_equal(ref, gb.sim(i))
        assert empty.restart_stats(i) == (0, 0.0, 0.0)


class TestEdgeCases:
    """The hand-computed scenarios of test_faults.py through the core."""

    def _native_sim(self, g, task_durs, f):
        fb = sweep_batch.simulate_graph_batch(
            g, task_durs=np.asarray([task_durs], np.float64), faults=[f])
        assert fb is not None and fb.ok(0)
        return fb.sim(0)

    def test_downtime_failure_negative_lost_work_regression(self):
        # The PR 7 fix: 0.5 loses 0.5s (down to 1.0), 0.6 strikes the
        # dead device — outage extends to 1.1, lost work must be 0.0,
        # never negative.
        g = chain_graph([1.0])
        f = faults([0.5, 0.6], delay=0.5)
        sim = self._native_sim(g, [1.0], f)
        ref = simulate_compiled(g, None, task_durs=[1.0], faults=f)
        _assert_fault_sims_equal(ref, sim)
        assert sim.makespan == pytest.approx(2.1)
        assert [r[4] for r in sim.restarts] == [pytest.approx(0.5), 0.0]

    def test_idle_failure_delays_start(self):
        g = chain_graph([1.0])
        f = faults([0.0], delay=0.5)
        sim = self._native_sim(g, [1.0], f)
        assert list(sim.start) == [0.5]
        assert sim.restarts == ((0, 0, 0.0, 0.5, 0.0),)

    def test_checkpoint_preserves_completed_intervals(self):
        g = chain_graph([1.0])
        f = faults([0.6], delay=0.2, ckpt=0.25)
        sim = self._native_sim(g, [1.0], f)
        ref = simulate_compiled(g, None, task_durs=[1.0], faults=f)
        _assert_fault_sims_equal(ref, sim)
        assert sim.makespan == pytest.approx(1.3)

    def test_failure_after_makespan_is_ignored(self):
        g = chain_graph([1.0])
        sim = self._native_sim(g, [1.0], faults([5.0], delay=1.0))
        assert sim.makespan == 1.0
        assert len(sim.restarts) == 0
        assert sim.restarts == ()

    def test_checkpoint_floordiv_bit_identity_fuzz(self):
        # (f // ckpt) * ckpt must round exactly like CPython floordiv;
        # hammer awkward ratios through both paths.
        import random

        rng = random.Random(7)
        g = chain_graph([1.0, 1.0, 1.0])
        for _ in range(50):
            times = sorted(rng.uniform(0.0, 3.0) for _ in range(3))
            ckpt = rng.choice([0.1, 0.3, 1.0 / 3.0, 0.07, 1e-3])
            delay = rng.uniform(0.0, 0.3)
            f = faults(times, delay=delay, ckpt=ckpt)
            ref = simulate_compiled(g, None, task_durs=[1.0, 1.0, 1.0],
                                    faults=f)
            _assert_fault_sims_equal(
                ref, self._native_sim(g, [1.0, 1.0, 1.0], f))


class TestRestartRows:
    def _fault_batch(self):
        g = chain_graph([1.0, 1.0])
        return sweep_batch.simulate_graph_batch(
            g, task_durs=np.asarray([[1.0, 1.0]], np.float64),
            faults=[faults([0.5], delay=0.5)])

    def test_restart_stats_fold_the_rows(self):
        fb = self._fault_batch()
        n, down, lost = fb.restart_stats(0)
        assert (n, down, lost) == (1, 0.5, 0.5)
        assert fb.sim(0).restarts == ((0, 0, 0.5, 1.0, 0.5),)

    def test_restart_rows_are_python_scalars(self):
        rows = self._fault_batch().sim(0).restarts
        assert type(rows) is tuple
        (dev, task, fail, resume, lost), = rows
        assert isinstance(dev, int) and isinstance(task, int)
        assert isinstance(fail, float) and isinstance(resume, float)
        assert isinstance(lost, float)


class TestCounters:
    def _run(self):
        return PipeFisherRun(schedule="1f1b",
                             arch=ARCHITECTURES["BERT-Base"],
                             hardware=HARDWARE["P100"], b_micro=32,
                             depth=4, n_micro=8, layers_per_stage=3)

    def test_batched_mc_counters_tick(self):
        engine = SweepEngine()
        before = engine.stats()
        assert before["mc_batched_replicates"] == 0
        assert before["mc_faulty_batched"] == 0
        n = 12
        monte_carlo(self._run(), MODEL, range(n), engine=engine,
                    batch=True)
        after = engine.stats()
        assert after["mc_batched_replicates"] == n
        assert 0 < after["mc_faulty_batched"] <= n
        # Each batched replicate is also a native batched evaluation.
        assert after["native_evals"] - before["native_evals"] >= n

    def test_scalar_mc_leaves_counters_alone(self):
        engine = SweepEngine()
        monte_carlo(self._run(), MODEL, range(4), engine=engine,
                    batch=False)
        assert engine.stats()["mc_batched_replicates"] == 0
        assert engine.stats()["mc_faulty_batched"] == 0

    def test_counters_survive_clear(self):
        engine = SweepEngine()
        monte_carlo(self._run(), MODEL, range(4), engine=engine,
                    batch=True)
        engine.clear()
        assert engine.stats()["mc_batched_replicates"] == 0
        assert engine.stats()["mc_faulty_batched"] == 0
