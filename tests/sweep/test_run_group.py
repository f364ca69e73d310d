"""``SweepEngine.run_group`` must equal a loop over ``run``.

``run`` is ``run_group([run])[0]``, so these tests pin the group
semantics against one-point groups: the serialized values (canonical
JSON, so floats compare bit for bit), every engine counter, and the
timing-cache LRU order, natively and on the pure-python path.  Only the
wall-clock ``phase_s`` and ``native_passes`` (one per template group)
may differ.
"""

import numpy as np
import pytest

from repro.campaign.spec import canonical_json
from repro.campaign.units import get_unit_kind
from repro.perfmodel.arch import BERT_BASE, BERT_LARGE
from repro.perfmodel.hardware import HARDWARE
from repro.pipefisher.runner import PipeFisherRun
from repro.service import PlanningService
from repro.sweep import SweepEngine, native


def _mixed_runs():
    """Two templates interleaved, with one duration table repeated."""
    runs = []
    for hw in ("P100", "V100"):
        for b_micro in (8, 16):
            runs.append(PipeFisherRun(
                schedule="1f1b", arch=BERT_BASE, hardware=HARDWARE[hw],
                b_micro=b_micro, depth=4, n_micro=8))
            runs.append(PipeFisherRun(
                schedule="chimera", arch=BERT_LARGE, hardware=HARDWARE[hw],
                b_micro=b_micro, depth=4, n_micro=4))
    runs.insert(5, runs[2])  # a repeat within the group
    return runs


def _forced_row_failure(monkeypatch, engine, run):
    """Make the native core report ``run``'s PipeFisher row as failed,
    in every engine: rows are matched by graph structure and durations."""
    point = engine.compiled_point(run)
    dur_code = native.graph_arrays(point.template.pf_graph).dur_code
    target = np.asarray(point.pf_durs)[dur_code]
    real = native.sim_batch

    def sim_batch(ga, tdur, *args, **kwargs):
        out = real(ga, tdur, *args, **kwargs)
        if np.array_equal(ga.dur_code, dur_code):
            status = out[-1]
            for p in range(tdur.shape[0]):
                if np.array_equal(tdur[p], target):
                    status[p] = native.ST_DEADLOCK
        return out

    monkeypatch.setattr(native, "sim_batch", sim_batch)


def _values(reports):
    kind = get_unit_kind("pipefisher")
    return [canonical_json(kind.serialize(r, {})) for r in reports]


def _comparable(stats):
    return {k: v for k, v in stats.items()
            if k not in ("phase_s", "native_passes")}


def _timing_order(engine):
    return [[id(ev) for ev in t.timings.values()]
            for t in engine._templates.values()]


@pytest.mark.parametrize("no_native", [False, True],
                         ids=["native", "python"])
def test_group_equals_a_loop_over_run(monkeypatch, no_native):
    if no_native:
        monkeypatch.setenv(native.DISABLE_ENV, "1")
    elif not native.available():
        pytest.skip("native core unavailable")
    runs = _mixed_runs()
    looped, grouped = SweepEngine(max_timings=4), SweepEngine(max_timings=4)
    if not no_native:
        _forced_row_failure(monkeypatch, looped, runs[3])
        grouped.compiled_point(runs[3])  # the same template-cache history

    loop_values = _values([looped.run(r) for r in runs])
    group_values = _values(grouped.run_group(runs))

    assert group_values == loop_values
    assert _comparable(grouped.stats()) == _comparable(looped.stats())
    stats = grouped.stats()
    assert stats["timing_hits"] == 1 and stats["reexecutions"] == 8
    assert len(_timing_order(grouped)) == 2
    assert ([len(t) for t in _timing_order(grouped)]
            == [len(t) for t in _timing_order(looped)])
    if no_native:
        assert stats["native_evals"] == stats["native_passes"] == 0
    else:
        # One row fell back to python; one pass per template.
        assert stats["native_evals"] == 7
        assert stats["native_passes"] == 2
        assert looped.stats()["native_passes"] == 8


def test_group_keeps_the_loops_lru_order():
    """Repeats and evictions inside a group touch the timing cache in
    point order: the cached keys, oldest first, equal the loop's."""
    hw = [HARDWARE[h] for h in ("P100", "V100", "RTX3090")]
    six = [PipeFisherRun(schedule="1f1b", arch=BERT_BASE, hardware=h,
                         b_micro=b, depth=4, n_micro=8)
           for h in hw for b in (8, 16)]
    # With 3 timings kept: a hit, a miss of an evicted table, a hit on
    # a table inserted earlier in this group, another evicted miss.
    runs = six + [six[5], six[0], six[5], six[1]]
    looped, grouped = SweepEngine(max_timings=3), SweepEngine(max_timings=3)
    for r in runs:
        looped.run(r)
    grouped.run_group(runs)

    def keys(engine):
        (template,) = engine._templates.values()
        return [k for k, _ in template.timings.items()]

    assert keys(grouped) == keys(looped)
    assert _comparable(grouped.stats()) == _comparable(looped.stats())
    assert grouped.stats()["timing_hits"] == 2


def test_a_rejected_run_raises_before_anything_is_timed():
    good = PipeFisherRun(schedule="1f1b", arch=BERT_BASE,
                         hardware=HARDWARE["P100"], b_micro=8, depth=4,
                         n_micro=8)
    bad = PipeFisherRun(schedule="1f1b", arch=BERT_BASE,
                        hardware=HARDWARE["P100"], b_micro=8, depth=4,
                        n_micro=6.0)  # n_micro_factor 1.5 at depth 4
    engine = SweepEngine()
    with pytest.raises(TypeError):
        engine.run_group([good, bad])
    assert engine.stats()["reexecutions"] == 0
    assert engine.stats()["cached_timings"] == 0


@pytest.mark.skipif(not native.available(),
                    reason="native core unavailable")
def test_a_single_structure_sweep_makes_three_native_calls(monkeypatch):
    calls = {"sim": 0, "fill": 0}
    real_sim, real_fill = native.sim_batch, native.fill_batch

    def sim_batch(*args, **kwargs):
        calls["sim"] += 1
        return real_sim(*args, **kwargs)

    def fill_batch(*args, **kwargs):
        calls["fill"] += 1
        return real_fill(*args, **kwargs)

    monkeypatch.setattr(native, "sim_batch", sim_batch)
    monkeypatch.setattr(native, "fill_batch", fill_batch)
    engine = SweepEngine()
    svc = PlanningService(engine=engine)
    out = svc.sweep({
        "kind": "pipefisher",
        "fixed": {"arch": "BERT-Base", "schedule": "1f1b", "depth": 4,
                  "n_micro_factor": 2},
        "grid": {"hardware": ["P100", "V100", "RTX3090"],
                 "b_micro": [8, 16]},
    })
    assert out["executed"] == 6
    assert calls == {"sim": 2, "fill": 1}
    stats = engine.stats()
    assert stats["native_evals"] == 6 and stats["native_passes"] == 1
