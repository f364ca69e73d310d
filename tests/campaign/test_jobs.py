"""Parallel campaign execution: ``jobs=N`` workers, one run-DB writer.

N worker processes execute the campaign's structure groups and the
parent records their results in canonical order, as the serial loop
does: the run DB's values must equal a single-worker run's exactly, a
failing run must record the same done and failed units, and resuming a
jobs run must execute nothing.  Uses registered kinds (the ``zb``
campaign, a real engine-backed grid) because unit kinds registered
inside a test module don't exist in worker processes.
"""

import json

import pytest

from repro.campaign.cli import main as campaign_main
from repro.campaign.registry import get_campaign
from repro.campaign.rundb import RunDB
from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import CampaignSpec, CampaignValidationError, UnitSpec
from repro.sweep.engine import SweepEngine


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
    # The parent is the only writer: no per-worker run dirs, and one
    # record per unit in its own DB.
    assert not list((tmp_path / "jobs").glob("worker-*"))
    lines = (tmp_path / "jobs" / "units.jsonl").read_text().splitlines()
    assert sorted(json.loads(line)["key"] for line in lines) == \
        sorted(u.key for u in spec.units())


def test_jobs_resume_executes_zero(spec, tmp_path):
    run_dir = tmp_path / "run"
    CampaignRunner(run_dir=run_dir).run(spec, jobs=2)
    again = CampaignRunner(run_dir=run_dir).run(spec, jobs=2)
    assert not again.executed
    assert len(again.reused) == len(spec.units())


def _failing_spec() -> CampaignSpec:
    """6 good ``pipefisher`` units in 2 structures, then one its params
    reject (``n_micro`` and ``n_micro_factor`` both given)."""
    point = dict(arch="BERT-Base", hardware="P100", schedule="1f1b")
    good = [UnitSpec.make("pipefisher", depth=depth, b_micro=b_micro,
                          n_micro_factor=2, **point)
            for depth in (4, 8) for b_micro in (2, 4, 8)]
    bad = UnitSpec.make("pipefisher", depth=4, b_micro=2, n_micro=8,
                        n_micro_factor=2, **point)
    return CampaignSpec(name="jobs_failure", title="six good, one bad",
                        explicit_units=tuple(good) + (bad,))


def test_failing_jobs_run_records_what_a_serial_run_does(tmp_path):
    failing = _failing_spec()
    counts = {}
    for mode, jobs in (("serial", None), ("jobs", 2)):
        with pytest.raises(ValueError, match="n_micro or n_micro_factor"):
            CampaignRunner(run_dir=tmp_path / mode).run(failing, jobs=jobs)
        counts[mode] = RunDB.open(tmp_path / mode).status_counts()
    assert counts["jobs"] == counts["serial"] == {"done": 6, "failed": 1}
    assert (RunDB.open(tmp_path / "jobs").values()
            == RunDB.open(tmp_path / "serial").values())

    engine = SweepEngine()
    with pytest.raises(ValueError, match="n_micro or n_micro_factor"):
        CampaignRunner(engine=engine, run_dir=tmp_path / "jobs").run(failing)
    assert engine.stats()["runs"] == 0, "resume re-executed a done unit"


def test_jobs_compile_each_structure_once(tmp_path):
    """Each structure group goes to one worker whole, so the 5
    templates of the 40-unit robustness campaign are built once each."""
    robustness = get_campaign("robustness").spec
    assert len(robustness.units()) == 40
    result = CampaignRunner(run_dir=tmp_path / "run").run(robustness, jobs=2)
    assert len(result.executed) == 40
    assert result.engine_delta["templates_misses"] == 5


@pytest.mark.parametrize("jobs", [0, -1])
def test_jobs_below_two_run_serially(spec, jobs):
    result = CampaignRunner().run(spec, jobs=jobs)
    assert len(result.executed) == len(spec.units())
    assert None not in result.object_list()


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
