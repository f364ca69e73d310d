"""Run-DB durability: append-only JSONL, truncation tolerance, merging."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.campaign.rundb import DONE, FAILED, RunDB, merge_run_dbs
from repro.campaign.spec import CampaignSpec, CampaignValidationError


def _spec(name: str = "demo") -> CampaignSpec:
    return CampaignSpec(
        name=name, title="t", kind="perf_report",
        grid=(("b_micro", (1, 2)),),
    )


def _rec(key: str, value, status: str = DONE) -> dict:
    return {"key": key, "status": status, "value": value}


def test_append_reload_last_record_wins(tmp_path):
    db = RunDB.open(tmp_path / "run")
    db.append(_rec("k1", 1))
    db.append(_rec("k2", 2, status="failed"))
    db.append(_rec("k2", 3))  # retry after failure: last record wins
    fresh = RunDB.open(tmp_path / "run")
    assert fresh.values() == {"k1": 1, "k2": 3}
    assert fresh.done("k1")["value"] == 1
    assert fresh.done("k2")["value"] == 3
    assert fresh.status_counts() == {"done": 2}


def test_truncated_trailing_line_tolerated(tmp_path):
    db = RunDB.open(tmp_path / "run")
    db.append(_rec("k1", 1))
    db.append(_rec("k2", 2))
    # A killed writer leaves a partial final line; completed records survive.
    with db.units_path.open("a") as f:
        f.write('{"key": "k3", "status": "do')
    fresh = RunDB.open(tmp_path / "run")
    assert fresh.values() == {"k1": 1, "k2": 2}
    assert fresh.skipped_lines == 1
    # Appending after the corruption starts a clean line again.
    fresh.append(_rec("k3", 3))
    again = RunDB.open(tmp_path / "run")
    assert again.values() == {"k1": 1, "k2": 2, "k3": 3}


def test_non_record_lines_tolerated(tmp_path):
    db = RunDB.open(tmp_path / "run")
    db.units_path.write_text('42\n{"no_key": true}\n\n')
    db.reload()
    assert db.records == {}
    assert db.skipped_lines == 2


def test_bind_pins_the_spec(tmp_path):
    db = RunDB.open(tmp_path / "run")
    spec = _spec()
    db.bind(spec)
    meta = db.read_meta()
    assert meta["campaign"] == "demo"
    assert CampaignSpec.from_dict(meta["spec"]) == spec
    db.bind(spec)  # idempotent
    with pytest.raises(CampaignValidationError, match="belongs to campaign"):
        db.bind(_spec(name="other"))
    different = CampaignSpec(name="demo", title="t", kind="perf_report",
                             grid=(("b_micro", (1, 2, 3)),))
    with pytest.raises(CampaignValidationError, match="different"):
        db.bind(different)


def test_merge_disjoint_sources(tmp_path):
    spec = _spec()
    for i, key in enumerate(("k1", "k2")):
        db = RunDB.open(tmp_path / f"shard{i}")
        db.bind(spec)
        db.append(_rec(key, i))
    out = merge_run_dbs([tmp_path / "shard0", tmp_path / "shard1"],
                        tmp_path / "merged")
    assert out.values() == {"k1": 0, "k2": 1}
    assert out.read_meta()["campaign"] == "demo"


def test_merge_conflict_aborts(tmp_path):
    for i, value in enumerate((1, 2)):
        db = RunDB.open(tmp_path / f"src{i}")
        db.bind(_spec())
        if i == 0:
            db.append(_rec("k0", 0))  # merged cleanly before the conflict
        db.append(_rec("k1", value))
    with pytest.raises(CampaignValidationError, match="merge conflict"):
        merge_run_dbs([tmp_path / "src0", tmp_path / "src1"],
                      tmp_path / "merged")
    # Every check runs before the first write: no partial merge.
    assert list((tmp_path / "merged").iterdir()) == []


def test_merge_writes_the_bytes_of_one_append_per_record(tmp_path):
    failed = _rec("k1", None, status=FAILED)
    sources = {"src0": [failed, _rec("k2", 2)],
               "src1": [_rec("k1", 1), _rec("k3", 3)]}
    for name, records in sources.items():
        RunDB.open(tmp_path / name).append_many(records)
    RunDB.open(tmp_path / "merged").append(_rec("k4", 4))
    reference = RunDB.open(tmp_path / "reference")
    for rec in [_rec("k4", 4), failed, _rec("k2", 2), _rec("k1", 1),
                _rec("k3", 3)]:
        reference.append(rec)

    out = merge_run_dbs([tmp_path / "src0", tmp_path / "src1"],
                        tmp_path / "merged")
    assert out.units_path.read_bytes() == reference.units_path.read_bytes()
    assert out.values() == {"k1": 1, "k2": 2, "k3": 3, "k4": 4}


def test_merge_rejects_mixed_campaigns(tmp_path):
    a = RunDB.open(tmp_path / "a")
    a.bind(_spec(name="one"))
    b = RunDB.open(tmp_path / "b")
    b.bind(_spec(name="two"))
    with pytest.raises(CampaignValidationError, match="different campaigns"):
        merge_run_dbs([tmp_path / "a", tmp_path / "b"], tmp_path / "merged")


class _ReadCountingFile:
    """Wraps a binary file handle, counting bytes returned by read()."""

    def __init__(self, fh, counts):
        self._fh = fh
        self._counts = counts

    def read(self, n=-1):
        data = self._fh.read(n)
        self._counts.append(len(data))
        return data

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        self._fh.__enter__()
        return self

    def __exit__(self, *exc):
        return self._fh.__exit__(*exc)


def test_append_cost_does_not_scale_with_file_size(tmp_path, monkeypatch):
    """Append reads O(1) bytes however large units.jsonl has grown.

    The seed implementation re-read the whole file (``read_bytes``) per
    append just to check the trailing newline — O(n^2) over a campaign.
    """
    db = RunDB.open(tmp_path / "run")
    # ~1 MB of records: any whole-file read is instantly visible below.
    pad = "x" * 1000
    for i in range(1000):
        db.append({"key": f"k{i}", "status": DONE, "value": pad})
    assert db.units_path.stat().st_size > 1_000_000

    read_sizes: list[int] = []
    real_open = Path.open

    def spy_open(self, mode="r", *args, **kwargs):
        fh = real_open(self, mode, *args, **kwargs)
        if self.name == "units.jsonl" and "r" in mode and "b" in mode:
            return _ReadCountingFile(fh, read_sizes)
        return fh

    monkeypatch.setattr(Path, "open", spy_open)
    monkeypatch.setattr(
        Path, "read_bytes",
        lambda self: pytest.fail("append re-read the whole units file"))
    db.append(_rec("tail", 1))
    assert sum(read_sizes) <= 1  # the trailing-newline probe byte
    monkeypatch.undo()
    assert RunDB.open(tmp_path / "run").done("tail")["value"] == 1


def test_append_still_heals_truncation_with_tail_probe(tmp_path):
    db = RunDB.open(tmp_path / "run")
    db.append(_rec("k1", 1))
    with db.units_path.open("a") as f:
        f.write('{"key": "k2", "status": "do')  # killed mid-append
    db.append(_rec("k3", 3))
    fresh = RunDB.open(tmp_path / "run")
    assert fresh.values() == {"k1": 1, "k3": 3}
    assert fresh.skipped_lines == 1


def test_append_many_writes_the_bytes_of_single_appends(tmp_path):
    records = [_rec(f"k{i}", {"v": i / 3}) for i in range(6)]
    records.append(_rec("k1", 7))  # a repeat key: last record wins
    single = RunDB.open(tmp_path / "single")
    for rec in records:
        single.append(rec)
    grouped = RunDB.open(tmp_path / "grouped")
    grouped.append_many(records[:2])
    grouped.append_many([])
    grouped.append_many(records[2:])
    assert grouped.units_path.read_bytes() == single.units_path.read_bytes()
    assert grouped.records == single.records
    assert RunDB.open(tmp_path / "grouped").records == single.records


def test_append_many_heals_a_truncated_tail_with_one_newline(tmp_path):
    db = RunDB.open(tmp_path / "run")
    db.append(_rec("k1", 1))
    fragment = '{"key": "k2", "status": "do'
    with db.units_path.open("a") as f:
        f.write(fragment)  # killed mid-append
    db.append_many([_rec("k3", 3), _rec("k4", 4)])
    lines = db.units_path.read_text().split("\n")
    assert lines == [json.dumps(_rec("k1", 1)), fragment,
                     json.dumps(_rec("k3", 3)), json.dumps(_rec("k4", 4)), ""]
    fresh = RunDB.open(tmp_path / "run")
    assert fresh.values() == {"k1": 1, "k3": 3, "k4": 4}
    assert fresh.skipped_lines == 1


def test_append_many_checks_every_key_before_writing(tmp_path):
    db = RunDB.open(tmp_path / "run")
    with pytest.raises(ValueError):
        db.append_many([_rec("k1", 1), {"status": DONE}])
    assert not db.units_path.exists() and db.records == {}


def test_meta_written_atomically(tmp_path):
    db = RunDB.open(tmp_path / "run")
    db.bind(_spec())
    # No temporary residue: the tmp file was renamed into place.
    leftovers = [p.name for p in (tmp_path / "run").iterdir()
                 if p.name not in ("meta.json", "units.jsonl")]
    assert leftovers == []
    assert db.read_meta()["campaign"] == "demo"


def test_corrupt_meta_is_a_clear_error(tmp_path):
    db = RunDB.open(tmp_path / "run")
    db.bind(_spec())
    db.meta_path.write_text('{"campaign": "demo", "spec": {"na')  # truncated
    with pytest.raises(CampaignValidationError, match="corrupt campaign meta"):
        db.read_meta()
    with pytest.raises(CampaignValidationError, match="corrupt campaign meta"):
        db.bind(_spec())
    with pytest.raises(CampaignValidationError, match="corrupt campaign meta"):
        merge_run_dbs([tmp_path / "run"], tmp_path / "merged")


def test_non_object_meta_is_a_clear_error(tmp_path):
    db = RunDB.open(tmp_path / "run")
    db.meta_path.write_text('[1, 2]\n')  # valid JSON, wrong shape
    with pytest.raises(CampaignValidationError, match="expected a JSON"):
        db.read_meta()


def test_records_are_plain_jsonl(tmp_path):
    """Each line is one self-contained JSON object (greppable, tail-able)."""
    db = RunDB.open(tmp_path / "run")
    db.append(_rec("k1", {"x": 1.5}))
    lines = db.units_path.read_text().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["value"] == {"x": 1.5}
