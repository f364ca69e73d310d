"""Batched re-timing must be bit-identical to the per-point reference.

Property tests for the core invariant: the native batched sim/fill
produces exactly the values the pure-python
:func:`~repro.sweep.retime.simulate_compiled` path does (``==`` on
floats, no tolerances).  One fuzz case per registered schedule family,
20 seeds each.
"""

import gc
import random
import weakref

import pytest

from repro.campaign.units import get_unit_kind
from repro.perfmodel.hardware import P100
from repro.pipefisher.runner import PipeFisherRun
from repro.stochastic import StochasticModel
from repro.stochastic.mc import replicate_batch, replicate_from_point
from repro.sweep import SweepEngine
from repro.sweep import batch as sweep_batch
from repro.sweep import native
from repro.sweep.engine import _windowed_utilization
from repro.sweep.retime import fill_compiled, simulate_compiled
from tests.sweep.test_engine_equivalence import (
    CASES,
    assert_reports_identical,
)

#: One representative case per registered schedule family.
SCHEDULE_CASES = ("gpipe", "1f1b", "chimera", "interleaved", "zb1f1b")
FUZZ_SEEDS = 20

pytestmark = pytest.mark.skipif(
    not native.available(),
    reason="native core unavailable (the python reference is the "
           "fallback these tests compare against)")


def _point(name):
    run = PipeFisherRun(hardware=P100, **CASES[name])
    return SweepEngine().compiled_point(run)


def _fuzz_tables(base, n, lo=0.25, hi=4.0):
    """n jittered copies of a per-code duration table (python floats)."""
    out = []
    for seed in range(n):
        rng = random.Random((hash(tuple(base)) ^ seed) & 0xFFFFFFFF)
        out.append(tuple(d * rng.uniform(lo, hi) for d in base))
    return out


def _assert_sims_equal(ref, got):
    assert ref.start == got.start
    assert ref.end == got.end
    assert ref.ev_end == got.ev_end
    assert ref.ev_order == got.ev_order
    assert ref.makespan == got.makespan


@pytest.mark.parametrize("name", SCHEDULE_CASES)
def test_simulate_batch_matches_reference(name):
    point = _point(name)
    for graph, durs in ((point.template.base_graph, point.base_durs),
                        (point.template.pf_graph, point.pf_durs)):
        tables = _fuzz_tables(durs, FUZZ_SEEDS)
        gb = sweep_batch.simulate_graph_batch(graph, tables)
        assert gb is not None and all(gb.ok(i) for i in range(FUZZ_SEEDS))
        for i, table in enumerate(tables):
            ref = simulate_compiled(graph, table)
            _assert_sims_equal(ref, gb.sim(i))
            assert gb.util[i] == _windowed_utilization(graph, ref)


@pytest.mark.parametrize("name", SCHEDULE_CASES)
def test_fill_batch_matches_reference(name):
    point = _point(name)
    template = point.template
    pf_tables = _fuzz_tables(point.pf_durs, FUZZ_SEEDS)
    q_tables = _fuzz_tables(point.qdurs, FUZZ_SEEDS, lo=0.5, hi=2.0)
    gb = sweep_batch.simulate_graph_batch(template.pf_graph, pf_tables)
    assert gb is not None and all(gb.ok(i) for i in range(FUZZ_SEEDS))
    fb = sweep_batch.fill_graph_batch(template, gb, q_tables)
    assert fb is not None and all(fb.ok(i) for i in range(FUZZ_SEEDS))
    for i, (table, qd) in enumerate(zip(pf_tables, q_tables)):
        ref = fill_compiled(template, simulate_compiled(template.pf_graph,
                                                        table), qd)
        got = fb.fill(i, float(gb.makespan[i]))
        assert ref.span == got.span
        assert dict(ref.device_steps) == dict(got.device_steps)
        assert ref.segments == got.segments


def _hex(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("name", SCHEDULE_CASES)
def test_native_rows_materialize_bit_for_bit(name):
    point = _point(name)
    graph = point.template.pf_graph
    tables = _fuzz_tables(point.pf_durs, 3)
    gb = sweep_batch.simulate_graph_batch(graph, tables)
    for i, table in enumerate(tables):
        ref, got = simulate_compiled(graph, table), gb.sim(i)
        assert not got.materialized
        for field in ("start", "end", "ev_end"):
            values = getattr(got, field)
            assert type(values) is list
            assert all(type(v) is float for v in values)
            assert _hex(values) == _hex(getattr(ref, field)), field
        assert got.ev_order == ref.ev_order
        assert all(type(v) is int for v in got.ev_order)
        assert got.materialized
        assert got.start is got.start  # built once, then kept


def test_native_row_does_not_keep_its_batch_alive():
    point = _point("chimera")
    graph = point.template.base_graph
    gb = sweep_batch.simulate_graph_batch(
        graph, _fuzz_tables(point.base_durs, 4))
    batch_arrays = [weakref.ref(a) for a in
                    (gb.start, gb.end, gb.ev_end, gb.ev_order)]
    row = gb.sim(2)
    del gb
    gc.collect()
    assert all(ref() is None for ref in batch_arrays)
    assert len(row.start) == graph.n and row.makespan > 0.0


def test_scalar_reports_never_build_row_lists():
    engine = SweepEngine()
    run = PipeFisherRun(hardware=P100, **CASES["chimera"])
    report = engine.run(run)
    kind = get_unit_kind("pipefisher")
    kind.serialize(report, {})
    ev = engine.nominal_evaluation(engine.compiled_point(run))
    assert engine.stats()["native_evals"] == 1
    assert not ev.base.materialized and not ev.pf.materialized
    report.baseline_timeline
    assert ev.base.materialized and not ev.pf.materialized


def test_failed_rows_fall_back_per_point():
    """A row the native core rejects must re-run the reference, and the
    other rows of the batch must stay native and untouched."""
    point = _point("chimera")
    graph = point.template.base_graph
    tables = _fuzz_tables(point.base_durs, 4)
    gb = sweep_batch.simulate_graph_batch(graph, tables)
    gb.status[1] = native.ST_MAX_STEPS  # pretend row 1 failed
    sims = [gb.sim(i) if gb.ok(i) else simulate_compiled(graph, tables[i])
            for i in range(4)]
    for table, got in zip(tables, sims):
        _assert_sims_equal(simulate_compiled(graph, table), got)


class _AllocFailingCore:
    """A loaded core that cannot allocate: returns -1, writes nothing."""

    @staticmethod
    def repro_sim_batch(*args):
        return -1

    repro_fill_batch = repro_sim_batch


def test_allocation_failure_falls_back(monkeypatch):
    """Rows of a call that wrote no status must read as failed, so the
    engine and Monte Carlo re-run every one through the reference."""
    monkeypatch.setattr(native, "_load", lambda: _AllocFailingCore)
    run = PipeFisherRun(hardware=P100, **CASES["chimera"])
    engine = SweepEngine()
    assert_reports_identical(run.execute(), engine.run(run))
    assert engine.stats()["native_evals"] == 0

    point = engine.compiled_point(run)
    gb = sweep_batch.simulate_graph_batch(point.template.base_graph,
                                          [point.base_durs] * 3)
    assert not any(gb.ok(i) for i in range(3))
    nominal = engine.nominal_evaluation(point)
    model = StochasticModel(jitter_sigma=0.03, preemption_rate=0.5,
                            restart_delay_frac=0.05)
    seeds = range(6)
    assert replicate_batch(point, nominal, model, seeds, engine=engine) \
        == [replicate_from_point(point, nominal, model, s) for s in seeds]
    assert engine.stats()["mc_batched_replicates"] == 0


def test_engine_phase_counters():
    eng = SweepEngine()
    run = PipeFisherRun(hardware=P100, **CASES["chimera"])
    eng.run(run)
    stats = eng.stats()
    phases = stats["phase_s"]
    assert set(phases) == {"template_build", "retime", "fill", "report"}
    assert phases["template_build"] > 0.0
    assert all(v >= 0.0 for v in phases.values())
    eng.clear()
    assert all(v == 0.0 for v in eng.stats()["phase_s"].values())
