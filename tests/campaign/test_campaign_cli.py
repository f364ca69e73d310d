"""The ``repro campaign`` CLI family, end to end through ``repro.cli.main``."""

from __future__ import annotations

import pytest

from repro.cli import main


def _run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_campaign_list(capsys):
    code, out = _run(capsys, "campaign", "list")
    assert code == 0
    for name in ("fig5", "fig6", "zb", "interleaved", "table2", "table3",
                 "schedule_panel"):
        assert name in out


def test_experiment_dispatch_still_works(capsys):
    code, out = _run(capsys, "table3")
    assert code == 0
    assert "matches paper Table 3: True" in out


def test_campaign_run_resume_status_diff(capsys, tmp_path):
    run_dir = str(tmp_path / "zb")
    code, out = _run(capsys, "campaign", "run", "zb", "--run-dir", run_dir)
    assert code == 0
    assert "executed 18, reused 0/18" in out

    # Second invocation: everything served from the run DB.
    code, out = _run(capsys, "campaign", "run", "zb", "--run-dir", run_dir)
    assert code == 0
    assert "executed 0, reused 18/18" in out

    code, out = _run(capsys, "campaign", "status", "--run-dir", run_dir)
    assert code == 0
    assert "done 18/18" in out

    code, out = _run(capsys, "campaign", "diff", "zb", "--run-dir", run_dir)
    assert code == 0
    assert "bit-exact" in out


def _progress_sources(out: str) -> list[str]:
    """The ``[run]``/``[db]`` tag of each ``--verbose`` progress line."""
    return [line.split()[0] for line in out.splitlines()
            if line.startswith("  [")]


def test_campaign_run_verbose_labels_reused_units(capsys, tmp_path):
    run_dir = str(tmp_path / "zb")
    code, out = _run(capsys, "campaign", "run", "zb", "--run-dir", run_dir,
                     "--verbose")
    assert code == 0
    assert _progress_sources(out) == ["[run]"] * 18

    # A resume reuses every unit, and each progress line says so.
    code, out = _run(capsys, "campaign", "run", "zb", "--run-dir", run_dir,
                     "--verbose")
    assert code == 0
    assert "executed 0, reused 18/18" in out
    assert _progress_sources(out) == ["[db]"] * 18


def test_campaign_diff_detects_divergence(capsys, tmp_path, monkeypatch):
    import json

    from repro.campaign.goldens import golden_path, read_golden

    committed = read_golden("table2")
    monkeypatch.setenv("REPRO_GOLDEN_DIR", str(tmp_path))
    tampered = json.loads(json.dumps(committed))
    tampered[0] = {"float": (1e9).hex()}
    golden_path("table2").write_text(json.dumps(tampered))
    code, out = _run(capsys, "campaign", "diff", "table2")
    assert code == 1
    assert "diverge" in out and "delta" in out


def test_campaign_diff_missing_golden(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_GOLDEN_DIR", str(tmp_path))
    code, out = _run(capsys, "campaign", "diff", "table3")
    assert code == 2
    assert "missing" in out


def test_campaign_regen_goldens_matches_committed_bytes(
        capsys, tmp_path, monkeypatch):
    """First-class regen writes byte-identical files to the env-var path."""
    from repro.campaign.goldens import golden_dir

    committed = (golden_dir() / "table3.json").read_bytes()
    monkeypatch.setenv("REPRO_GOLDEN_DIR", str(tmp_path))
    code, out = _run(capsys, "campaign", "regen-goldens", "table3")
    assert code == 0
    assert (tmp_path / "table3.json").read_bytes() == committed


def test_campaign_shard_and_merge(capsys, tmp_path):
    for i in (1, 2):
        code, out = _run(capsys, "campaign", "run", "table3",
                         "--run-dir", str(tmp_path / f"s{i}"),
                         "--shard", f"{i}/2")
        assert code == 0
    code, out = _run(capsys, "campaign", "merge",
                     str(tmp_path / "s1"), str(tmp_path / "s2"),
                     "--out", str(tmp_path / "merged"))
    assert code == 0
    code, out = _run(capsys, "campaign", "diff", "table3",
                     "--run-dir", str(tmp_path / "merged"))
    assert code == 0


def test_campaign_status_on_non_run_dir(capsys, tmp_path):
    code, out = _run(capsys, "campaign", "status", "--run-dir",
                     str(tmp_path / "nothing"))
    assert code == 2


def test_campaign_unknown_name(capsys):
    code = main(["campaign", "run", "does_not_exist"])
    err = capsys.readouterr().err
    assert code == 2
    assert "unknown campaign" in err


def test_cli_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        main(["not_an_experiment"])
