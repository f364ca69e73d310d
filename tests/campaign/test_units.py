"""``execute_units``: unit order, elapsed shares, where a failing group stops.

Two test kinds drive it: ``test_units_loop`` has no ``execute_group``
(it runs in a loop), ``test_units_group`` has one and declares ``i`` a
timing param.  Both advance a fake clock that stands in for
``perf_counter``, so elapsed shares are exact, and both record every
execution, so "executed once" is asserted on actual calls.
"""

from __future__ import annotations

from itertools import groupby

import pytest

from repro.campaign import units as units_mod
from repro.campaign.spec import CampaignSpec, UnitSpec
from repro.campaign.units import (
    UnitContext,
    execute_units,
    register_unit_kind,
    structure,
    structure_key,
)

#: Fake-clock seconds one looped unit takes, and one whole group call.
LOOP_S = 1.0
GROUP_S = 6.0

STATE = {"now": 0.0, "calls": [], "fail_on": None}


def _execute_loop(params, ctx):
    STATE["calls"].append(("loop", params["i"]))
    STATE["now"] += LOOP_S
    if params["i"] == STATE["fail_on"]:
        raise RuntimeError(f"injected failure at unit {params['i']}")
    return {"loop": params["i"]}


def _execute_single(params, ctx):
    STATE["calls"].append(("single", params["i"]))
    STATE["now"] += LOOP_S
    if params["i"] == STATE["fail_on"]:
        raise ValueError(f"injected failure at unit {params['i']}")
    return {"group": params["i"]}


def _execute_group(params_list, ctx):
    STATE["calls"].append(("group", [p["i"] for p in params_list]))
    STATE["now"] += GROUP_S
    if any(p["i"] == STATE["fail_on"] for p in params_list):
        raise ValueError("injected group failure")
    return [{"group": p["i"]} for p in params_list]


register_unit_kind("test_units_loop", _execute_loop, lambda obj, p: obj)
register_unit_kind("test_units_group", _execute_single, lambda obj, p: obj,
                   timing_params=("i",), execute_group=_execute_group)


@pytest.fixture
def state(monkeypatch):
    STATE.update(now=0.0, calls=[], fail_on=None)
    monkeypatch.setattr(units_mod, "perf_counter", lambda: STATE["now"])
    return STATE


def _units(kind: str, values) -> list:
    return [UnitSpec.make(kind, i=i) for i in values]


def _drain(units):
    """Every result ``execute_units`` yields, and what it raised."""
    out = []
    try:
        for result in execute_units(units, UnitContext(engine=None)):
            out.append(result)
    except Exception as exc:  # noqa: BLE001 (the test inspects it)
        return out, exc
    return out, None


def test_results_come_back_in_unit_order_across_consecutive_kinds(state):
    units = (_units("test_units_loop", (0, 1))
             + _units("test_units_group", (2, 3, 4))
             + _units("test_units_loop", (5,)))
    results, error = _drain(units)
    assert error is None
    assert [value for _, value, _ in results] == [
        {"loop": 0}, {"loop": 1},
        {"group": 2}, {"group": 3}, {"group": 4},
        {"loop": 5},
    ]
    assert [obj for obj, _, _ in results] == [v for _, v, _ in results]
    # Consecutive units of one kind form one group, and only those: the
    # two looped runs stay apart and the group kind is called once.
    assert state["calls"] == [("loop", 0), ("loop", 1),
                              ("group", [2, 3, 4]), ("loop", 5)]


def test_elapsed_shares_sum_to_the_group_wall_time(state):
    units = _units("test_units_group", (0, 1, 2)) + _units(
        "test_units_loop", (3, 4))
    results, error = _drain(units)
    assert error is None
    elapsed = [e for _, _, e in results]
    assert elapsed == [GROUP_S / 3] * 3 + [LOOP_S] * 2
    assert sum(elapsed[:3]) == GROUP_S
    assert sum(elapsed) == state["now"]


def test_a_looped_kind_stops_at_the_failing_unit(state):
    state["fail_on"] = 2
    results, error = _drain(_units("test_units_loop", range(5)))
    assert isinstance(error, RuntimeError)
    assert [value for _, value, _ in results] == [{"loop": 0}, {"loop": 1}]
    # Units 0..2 executed exactly once each; nothing after the failure.
    assert state["calls"] == [("loop", 0), ("loop", 1), ("loop", 2)]


def test_a_failing_group_reruns_singly_and_raises_at_the_failing_unit(state):
    state["fail_on"] = 3
    results, error = _drain(_units("test_units_group", range(5)))
    assert isinstance(error, ValueError)
    assert "unit 3" in str(error)
    assert [value for _, value, _ in results] == [
        {"group": 0}, {"group": 1}, {"group": 2}]
    assert state["calls"] == [("group", [0, 1, 2, 3, 4]), ("single", 0),
                              ("single", 1), ("single", 2), ("single", 3)]
    # A re-run unit is timed on its own.
    assert [e for _, _, e in results] == [LOOP_S] * 3


def test_structure_groups_units_as_their_structure_key_does():
    """A campaign groups consecutive units on the unhashed ``structure``;
    over the campaign-overhead grid that gives the same six runs as
    ``structure_key``, over two structures."""
    spec = CampaignSpec(
        name="groups", title="hardware x depth x b_micro chimera grid",
        kind="pipefisher",
        fixed=(("arch", "BERT-Base"), ("n_micro_factor", 2),
               ("schedule", "chimera")),
        grid=(("hardware", ("P100", "V100", "RTX3090")),
              ("depth", (8, 16)),
              ("b_micro", (2, 4, 8, 16, 32, 64))),
    )
    units = spec.units()
    for key in (structure, structure_key):
        runs = [list(group) for _, group in groupby(units, key=key)]
        assert [len(run) for run in runs] == [6] * 6
    pairs = {(structure(u), structure_key(u)) for u in units}
    assert len({s for s, _ in pairs}) == len({k for _, k in pairs}) == 2
    assert len(pairs) == 2
    # No timing params: the unit's own pair and key.
    unit = UnitSpec.make("test_units_loop", i=1)
    assert structure(unit) == (unit.kind, unit.params)
    assert structure_key(unit) == unit.key
    # Every param a timing param: one structure for every ``i``.
    a, b = _units("test_units_group", (1, 2))
    assert structure(a) == structure(b) == ("test_units_group", ())
    assert structure_key(a) == structure_key(b) != a.key
