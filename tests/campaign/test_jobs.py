"""Parallel campaign execution: ``jobs=N`` workers over one run DB.

The contract mirrors sharding: N workers each run a disjoint shard in a
private DB copy, the parent merges and replays — the merged run DB's
values must equal a single-worker run's exactly, and resuming a jobs
run must execute nothing.  Uses the registered ``zb`` campaign (a real
engine-backed grid) because unit kinds registered inside a test module
don't exist in worker processes.
"""

import json

import pytest

from repro.campaign.cli import main as campaign_main
from repro.campaign.registry import get_campaign
from repro.campaign.rundb import RunDB
from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import CampaignValidationError


@pytest.fixture(scope="module")
def spec():
    return get_campaign("zb").spec


def test_jobs_run_matches_single_worker(spec, tmp_path):
    single = CampaignRunner(run_dir=tmp_path / "single").run(spec)
    jobs = CampaignRunner(run_dir=tmp_path / "jobs").run(spec, jobs=2)
    assert sorted(jobs.executed) == sorted(single.executed)
    assert not jobs.reused
    assert jobs.values() == single.values()
    assert (RunDB.open(tmp_path / "jobs").values()
            == RunDB.open(tmp_path / "single").values())
    # Worker shards left behind for post-mortem must also be valid DBs.
    for i in (1, 2):
        wd = tmp_path / "jobs" / f"worker-{i}"
        assert (wd / "units.jsonl").exists()


def test_jobs_resume_executes_zero(spec, tmp_path):
    run_dir = tmp_path / "run"
    CampaignRunner(run_dir=run_dir).run(spec, jobs=2)
    again = CampaignRunner(run_dir=run_dir).run(spec, jobs=2)
    assert not again.executed
    assert len(again.reused) == len(spec.units())


def test_jobs_requires_run_dir(spec):
    with pytest.raises(CampaignValidationError, match="run_dir"):
        CampaignRunner().run(spec, jobs=2)


def test_jobs_rejects_explicit_shard(spec, tmp_path):
    with pytest.raises(CampaignValidationError, match="shard"):
        CampaignRunner(run_dir=tmp_path / "run").run(spec, jobs=2,
                                                     shard=(0, 2))


def test_jobs_records_carry_phase_and_batch_counters(spec, tmp_path):
    result = CampaignRunner(run_dir=tmp_path / "run").run(spec, jobs=2)
    for rec in result.records.values():
        eng = rec["engine"]
        for phase in ("template_build", "retime", "fill", "report"):
            assert f"phase_{phase}_s" in eng
        for counter in ("native_evals", "mc_batched_replicates"):
            assert counter in eng
    delta = result.engine_delta
    assert delta["runs"] == len(spec.units())
    assert delta["phase_template_build_s"] >= 0.0


def test_cli_jobs_flag(tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert campaign_main(["run", "zb", "--run-dir", str(run_dir),
                          "--jobs", "2"]) == 0
    out = capsys.readouterr().out
    assert "executed 18, reused 0/18" in out
    assert campaign_main(["run", "zb", "--run-dir", str(run_dir),
                          "--jobs", "2"]) == 0
    assert "executed 0, reused 18/18" in capsys.readouterr().out
    assert campaign_main(["status", "--run-dir", str(run_dir)]) == 0
    assert "engine phase seconds:" in capsys.readouterr().out
    # records on disk are plain JSON with the new counters
    rec = json.loads((run_dir / "units.jsonl").read_text()
                     .splitlines()[0])
    assert "phase_retime_s" in rec["engine"]


def test_cli_jobs_verbose_labels_worker_runs_and_reuse(tmp_path, capsys):
    """The parent replays the merged DB to print progress: units the
    workers ran this invocation are ``[run]``, resumed ones ``[db]``."""
    argv = ["run", "zb", "--run-dir", str(tmp_path / "run"), "--jobs", "2",
            "--verbose"]
    for tag in ("[run]", "[db]"):
        assert campaign_main(argv) == 0
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("  [")]
        assert [line.split()[0] for line in lines] == [tag] * 18


def test_cli_jobs_validation(tmp_path, capsys):
    assert campaign_main(["run", "zb", "--jobs", "2"]) == 2
    assert "--run-dir" in capsys.readouterr().err
    assert campaign_main(["run", "zb", "--run-dir", str(tmp_path / "r"),
                          "--jobs", "2", "--shard", "1/2"]) == 2
    assert "--shard" in capsys.readouterr().err
