"""Runner semantics: resume without re-execution, sharding, counter deltas,
structure groups.

The resumability and sharding tests drive a spy unit kind whose executor
counts every invocation, so "resume re-executes zero completed units" is
asserted on actual execution counts, not on runner bookkeeping.  A
second spy kind declares ``i`` a timing param and registers an
``execute_group``, so all its units form one structure group.
"""

from __future__ import annotations

import pytest

from repro.campaign import runner as runner_mod
from repro.campaign.rundb import DONE, FAILED, RunDB, merge_run_dbs
from repro.campaign.runner import CampaignRunner, parse_shard, shard_units
from repro.campaign.spec import CampaignSpec, CampaignValidationError
from repro.campaign.units import register_unit_kind

#: Execution spy state, reset per test by the ``spy`` fixture.
SPY = {"calls": [], "fail_on": None}


def _execute_spy(params, ctx):
    if SPY["fail_on"] is not None and params["i"] == SPY["fail_on"]:
        raise RuntimeError(f"injected failure at unit {params['i']}")
    SPY["calls"].append(params["i"])
    return {"i": params["i"], "squared": params["i"] ** 2}


def _execute_spy_group(params_list, ctx):
    if any(p["i"] == SPY["fail_on"] for p in params_list):
        raise RuntimeError("injected failure in the group")
    return [_execute_spy(p, ctx) for p in params_list]


register_unit_kind("test_spy", _execute_spy, lambda obj, params: obj)
register_unit_kind("test_spy_group", _execute_spy, lambda obj, params: obj,
                   timing_params=("i",), execute_group=_execute_spy_group)


@pytest.fixture
def spy():
    SPY["calls"] = []
    SPY["fail_on"] = None
    return SPY


def _spy_spec(n: int = 6, kind: str = "test_spy") -> CampaignSpec:
    return CampaignSpec(
        name="spy_demo", title="execution-count spy campaign",
        kind=kind, grid=(("i", tuple(range(n))),),
    )


# -- ephemeral mode -------------------------------------------------------------


def test_ephemeral_run_keeps_live_objects(spy):
    spec = _spy_spec(3)
    result = CampaignRunner().run(spec)
    assert spy["calls"] == [0, 1, 2]
    assert [o["i"] for o in result.object_list()] == [0, 1, 2]
    assert len(result.executed) == 3 and not result.reused
    assert result.summary()["resume_hit_rate"] == 0.0


# -- resumability ---------------------------------------------------------------


def test_interrupted_campaign_resumes_with_zero_reexecution(spy, tmp_path):
    spec = _spy_spec(6)
    run_dir = tmp_path / "run"

    # Reference: a clean uninterrupted run (no DB).
    reference = CampaignRunner().run(spec).values()
    spy["calls"] = []

    # Interrupted run: unit 3 dies mid-campaign.
    spy["fail_on"] = 3
    with pytest.raises(RuntimeError, match="injected failure"):
        CampaignRunner(run_dir=run_dir).run(spec)
    assert spy["calls"] == [0, 1, 2]
    db = RunDB.open(run_dir)
    assert db.status_counts() == {DONE: 3, FAILED: 1}

    # Resume: only the failed and never-started units execute.
    spy["fail_on"] = None
    spy["calls"] = []
    result = CampaignRunner(run_dir=run_dir).run(spec)
    assert spy["calls"] == [3, 4, 5], "completed units must not re-execute"
    assert len(result.reused) == 3 and len(result.executed) == 3
    assert result.resume_hit_rate == 0.5

    # The combined record set is bit-identical to the clean run.
    assert result.values() == reference
    assert RunDB.open(run_dir).values() == reference

    # A second resume re-executes nothing at all.
    spy["calls"] = []
    again = CampaignRunner(run_dir=run_dir).run(spec)
    assert spy["calls"] == []
    assert again.resume_hit_rate == 1.0
    assert again.values() == reference


def test_resume_survives_a_truncated_trailing_record(spy, tmp_path):
    spec = _spy_spec(4)
    run_dir = tmp_path / "run"
    reference = CampaignRunner().run(spec).values()
    spy["calls"] = []

    CampaignRunner(run_dir=run_dir).run(spec)
    assert spy["calls"] == [0, 1, 2, 3]

    # Chop the DB mid-record, as a kill -9 during the final append would.
    db = RunDB.open(run_dir)
    text = db.units_path.read_text()
    lines = text.splitlines(keepends=True)
    db.units_path.write_text("".join(lines[:-1]) + lines[-1][:20])

    spy["calls"] = []
    result = CampaignRunner(run_dir=run_dir).run(spec)
    assert spy["calls"] == [3], "only the truncated unit re-executes"
    assert result.values() == reference
    # The on-disk DB healed too: the re-appended record starts a clean line.
    assert RunDB.open(run_dir).values() == reference


def test_no_resume_reexecutes_everything(spy, tmp_path):
    spec = _spy_spec(3)
    run_dir = tmp_path / "run"
    CampaignRunner(run_dir=run_dir).run(spec)
    spy["calls"] = []
    result = CampaignRunner(run_dir=run_dir).run(spec, resume=False)
    assert spy["calls"] == [0, 1, 2]
    assert not result.reused


def test_run_dir_rejects_a_different_spec(spy, tmp_path):
    run_dir = tmp_path / "run"
    CampaignRunner(run_dir=run_dir).run(_spy_spec(3))
    with pytest.raises(CampaignValidationError, match="different"):
        CampaignRunner(run_dir=run_dir).run(_spy_spec(4))


# -- sharding -------------------------------------------------------------------


def test_parse_shard():
    assert parse_shard("1/3") == (0, 3)
    assert parse_shard("3/3") == (2, 3)
    for bad in ("0/3", "4/3", "x/3", "3", "1/0"):
        with pytest.raises(CampaignValidationError):
            parse_shard(bad)


def test_shard_sets_are_disjoint_and_complete():
    units = _spy_spec(7).units()
    n = 3
    seen = []
    for i in range(n):
        assigned = shard_units(units, (i, n))
        keys = [u.key for u, _ in assigned]
        assert not set(keys) & set(seen)
        seen.extend(keys)
    assert sorted(seen) == sorted(u.key for u in units)


def test_sharded_runs_merge_to_the_single_worker_result(spy, tmp_path):
    spec = _spy_spec(7)
    single = CampaignRunner(run_dir=tmp_path / "single").run(spec)
    spy["calls"] = []

    executed_per_shard = []
    for i in range(3):
        CampaignRunner(run_dir=tmp_path / f"shard{i}").run(
            spec, shard=(i, 3))
        executed_per_shard.append(list(spy["calls"]))
        spy["calls"] = []
    # Every unit executed exactly once across the three workers.
    flat = [i for calls in executed_per_shard for i in calls]
    assert sorted(flat) == list(range(7))

    merged = merge_run_dbs(
        [tmp_path / f"shard{i}" for i in range(3)], tmp_path / "merged")
    assert merged.values() == RunDB.open(tmp_path / "single").values()
    assert merged.values() == single.values()

    # Resuming the full campaign from the merged DB re-executes nothing.
    result = CampaignRunner(run_dir=tmp_path / "merged").run(spec)
    assert spy["calls"] == []
    assert result.resume_hit_rate == 1.0


# -- engine counter surfacing ---------------------------------------------------


def test_records_carry_engine_cache_deltas(tmp_path):
    from repro.sweep.engine import SweepEngine

    spec = CampaignSpec(
        name="counters", title="engine counter surfacing",
        kind="pipefisher",
        fixed=(("arch", "BERT-Base"), ("b_micro", 4), ("depth", 4),
               ("hardware", "P100"), ("n_micro", 4)),
        grid=(("schedule", ("gpipe", "1f1b")),),
    )
    result = CampaignRunner(engine=SweepEngine(),
                            run_dir=tmp_path / "run").run(spec)
    for record in result.records.values():
        eng = record["engine"]
        assert eng["runs"] == 1
        for cache in ("templates", "stage_costs"):
            for counter in ("hits", "misses", "evictions"):
                assert f"{cache}_{counter}" in eng
    # Both schedules share stage costs: the second unit hits that cache.
    second = result.records[spec.units()[1].key]["engine"]
    assert second["stage_costs_hits"] >= 1
    total = result.summary()["engine"]
    assert total["runs"] == 2
    # The per-unit deltas sum to the campaign-level delta.
    for key in total:
        assert total[key] == sum(
            r["engine"][key] for r in result.records.values())


# -- structure groups -----------------------------------------------------------


def test_a_grid_runs_one_group_per_structure(monkeypatch, tmp_path):
    """The campaign-overhead benchmark's grid: 36 units, 6 structures."""
    from repro.sweep.engine import SweepEngine

    spec = CampaignSpec(
        name="groups", title="hardware x depth x b_micro chimera grid",
        kind="pipefisher",
        fixed=(("arch", "BERT-Base"), ("n_micro_factor", 2),
               ("schedule", "chimera")),
        grid=(("hardware", ("P100", "V100", "RTX3090")),
              ("depth", (8, 16)),
              ("b_micro", (2, 4, 8, 16, 32, 64))),
    )
    executed, appended = [], []
    execute_units = runner_mod.execute_units
    append_many = RunDB.append_many

    def spy_execute(units, ctx):
        executed.append(len(units))
        return execute_units(units, ctx)

    def spy_append(db, records):
        records = list(records)
        appended.append(len(records))
        append_many(db, records)

    monkeypatch.setattr(runner_mod, "execute_units", spy_execute)
    monkeypatch.setattr(RunDB, "append_many", spy_append)
    seen = []
    result = CampaignRunner(engine=SweepEngine(), run_dir=tmp_path).run(
        spec, on_unit=lambda unit, record, reused: seen.append(unit.key))
    assert len(spec.units()) == 36
    assert executed == [6] * 6
    assert appended == [6] * 6
    assert seen == [u.key for u in spec.units()], "on_unit in unit order"
    assert result.values() == RunDB.open(tmp_path).values()
    assert len(result.values()) == 36


def test_a_failing_group_leaves_its_finished_units_done(spy, tmp_path):
    spec = _spy_spec(6, kind="test_spy_group")
    run_dir = tmp_path / "run"
    reference = CampaignRunner().run(spec).values()
    spy["calls"] = []

    spy["fail_on"] = 3
    with pytest.raises(RuntimeError, match="injected failure at unit 3"):
        CampaignRunner(run_dir=run_dir).run(spec)
    assert spy["calls"] == [0, 1, 2]
    db = RunDB.open(run_dir)
    assert db.status_counts() == {DONE: 3, FAILED: 1}
    failed = db.records[spec.units()[3].key]
    assert failed["status"] == FAILED
    assert failed["error"] == "RuntimeError: injected failure at unit 3"

    spy["fail_on"] = None
    spy["calls"] = []
    result = CampaignRunner(run_dir=run_dir).run(spec)
    assert spy["calls"] == [3, 4, 5], "resume starts at the failing unit"
    assert len(result.reused) == 3 and len(result.executed) == 3
    assert result.values() == reference


def test_grouped_records_split_the_group_engine_delta(tmp_path):
    from repro.sweep.engine import SweepEngine

    spec = CampaignSpec(
        name="grouped_counters", title="two structures of three points",
        kind="pipefisher",
        fixed=(("arch", "BERT-Base"), ("hardware", "P100"),
               ("n_micro_factor", 2), ("schedule", "1f1b")),
        grid=(("depth", (4, 8)), ("b_micro", (2, 4, 8))),
    )
    result = CampaignRunner(engine=SweepEngine(),
                            run_dir=tmp_path / "run").run(spec)
    records = list(result.records.values())
    total = result.engine_delta
    assert total["runs"] == 6
    for key, value in total.items():
        shares = [r["engine"][key] for r in records]
        if isinstance(value, int):
            assert all(isinstance(s, int) for s in shares), key
            assert sum(shares) == value, key
        else:
            assert sum(shares) == pytest.approx(value), key
    assert [r["engine"]["runs"] for r in records] == [1] * 6
    assert records == [RunDB.open(tmp_path / "run").records[u.key]
                       for u in spec.units()]
