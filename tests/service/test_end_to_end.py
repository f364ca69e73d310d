"""Service results are bit-identical to the campaign CLI's.

The tentpole guarantee: a grid answered by ``POST /sweep`` — inline or
through the job queue, over HTTP or not — records exactly the values a
``repro campaign run`` of the equivalent spec records, unit key by unit
key, byte for byte in canonical JSON.  Each comparison runs the two
paths on *separate* engines, so agreement is computed, not cached.
"""

import json

import pytest

from repro.campaign.cli import main as campaign_main
from repro.campaign.registry import _CAMPAIGNS, register_campaign
from repro.campaign.rundb import RunDB
from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import canonical_json
from repro.service import PlanningService, ServiceClient, ServiceServer
from repro.service.jobs import spec_from_request, sweep_request
from repro.sweep import SweepEngine

GRID_BODY = {
    "kind": "perf_report",
    "fixed": {"arch": "BERT-Large", "hardware": "P100",
              "schedule": "chimera"},
    "grid": {"depth": [4, 8], "b_micro": [8, 16]},
}


def _campaign_values(spec, engine=None, run_dir=None):
    runner = CampaignRunner(engine=engine or SweepEngine(), run_dir=run_dir)
    result = runner.run(spec)
    return {k: rec["value"] for k, rec in result.records.items()}


def _assert_bit_identical(service_units, campaign_values):
    assert {u["key"] for u in service_units} == set(campaign_values)
    for unit in service_units:
        assert canonical_json(unit["value"]) == \
            canonical_json(campaign_values[unit["key"]]), unit["key"]


#: A simulator grid over two structures: the service evaluates each
#: structure's units in one ``engine.run_group`` pass.
PIPEFISHER_BODY = {
    "kind": "pipefisher",
    "fixed": {"arch": "BERT-Base", "hardware": "P100", "schedule": "1f1b",
              "n_micro": 8},
    "grid": {"depth": [4, 8], "b_micro": [8, 16]},
}

#: The ``plan_cold`` shape: hardware x b_micro over one structure.
PIPEFISHER_6_BODY = {
    "kind": "pipefisher",
    "fixed": {"arch": "BERT-Large", "schedule": "chimera", "depth": 8,
              "n_micro_factor": 2, "layers_per_stage": 2},
    "grid": {"hardware": ["P100", "RTX3090", "V100"], "b_micro": [4, 8]},
}


@pytest.mark.parametrize("body,n", [(GRID_BODY, 4), (PIPEFISHER_BODY, 4),
                                    (PIPEFISHER_6_BODY, 6)],
                         ids=["perf_report", "pipefisher", "pipefisher-6"])
def test_inline_sweep_matches_campaign_runner(body, n):
    """The service executes a request's misses as one group, the runner
    one unit at a time; the served record and the run-DB record carry
    equal values."""
    svc = PlanningService(engine=SweepEngine())
    out = svc.sweep(dict(body))
    assert out["mode"] == "inline" and out["executed"] == n
    spec = spec_from_request(sweep_request(dict(body)))
    _assert_bit_identical(out["units"], _campaign_values(spec))


def test_sweep_matches_the_campaign_cli_bit_for_bit(tmp_path, capsys):
    """The literal ``repro campaign run`` path against the same grid."""
    spec = spec_from_request(sweep_request(dict(GRID_BODY)))
    register_campaign(spec)
    try:
        run_dir = tmp_path / "cli-run"
        assert campaign_main(["run", spec.name,
                              "--run-dir", str(run_dir)]) == 0
        capsys.readouterr()
        cli_values = RunDB.open(run_dir).values()
    finally:
        _CAMPAIGNS.pop(spec.name, None)

    svc = PlanningService(engine=SweepEngine())
    out = svc.sweep(dict(GRID_BODY))
    _assert_bit_identical(out["units"], cli_values)


def test_job_path_over_http_matches_campaign_runner(tmp_path):
    state = tmp_path / "state"
    svc = PlanningService(state_dir=state, engine=SweepEngine())
    with ServiceServer(svc) as server:
        client = ServiceClient(server.url)
        submitted = client.post("/sweep", {**GRID_BODY, "inline": False})
        assert submitted["mode"] == "job"
        done = client.wait_for_job(submitted["job"], timeout=60.0)
        assert done["status"] == "done"
        assert done["done_units"] == done["units"] == 4
        served = [client.result(key) for key in done["unit_keys"]]

    spec = spec_from_request(sweep_request(dict(GRID_BODY)))
    _assert_bit_identical(served, _campaign_values(spec))


def test_persistent_service_survives_restart(tmp_path):
    state = tmp_path / "state"
    first = PlanningService(state_dir=state, engine=SweepEngine())
    out = first.sweep({**GRID_BODY, "inline": False})
    first.jobs.wait(out["job"])

    # A fresh process over the same state dir: results and the finished
    # job are already there, and the repeat grid costs nothing.
    reborn = PlanningService(state_dir=state, engine=SweepEngine())
    assert reborn.jobs.counts() == {"done": 1}
    assert reborn.job_status(out["job"])["done_units"] == 4
    again = reborn.sweep(dict(GRID_BODY))
    assert again["mode"] == "inline"
    assert again["executed"] == 0 and again["cached"] == 4
    spec = spec_from_request(sweep_request(dict(GRID_BODY)))
    _assert_bit_identical(again["units"], _campaign_values(spec))


def test_job_results_are_real_campaign_run_dirs(tmp_path):
    """Persistent jobs leave an auditable campaign run DB behind."""
    state = tmp_path / "state"
    svc = PlanningService(state_dir=state, engine=SweepEngine())
    out = svc.sweep({**GRID_BODY, "inline": False})
    svc.jobs.wait(out["job"])

    run_dir = state / "jobs" / out["job"]
    db = RunDB.open(run_dir)
    meta = db.read_meta()
    assert meta is not None
    assert meta["campaign"] == f"service-{out['job']}"
    assert set(db.values()) == set(out["unit_keys"])
