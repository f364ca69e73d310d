"""The persistent campaign run DB: append-only JSONL under a run dir.

Layout of a run dir::

    <run_dir>/meta.json     # campaign name + full serialized spec
    <run_dir>/units.jsonl   # one record per executed unit, append-only

Each record is a self-contained JSON object keyed by the unit's canonical
point hash.  Appending is the only write operation, so a killed worker
leaves at most one truncated trailing line — which :meth:`RunDB.load`
tolerates — and never corrupts completed records.  The *last* record per
key wins, so a failed unit is retried by simply appending its successful
record later.  ``--shard i/n`` runs write separate run dirs merged with
:func:`merge_run_dbs`.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.campaign.spec import CampaignSpec, CampaignValidationError

#: Record statuses a unit can be in.
DONE = "done"
FAILED = "failed"

_FORMAT_VERSION = 1


def _ends_mid_line(path: Path) -> bool:
    """True when ``path`` is non-empty and lacks a trailing newline.

    Reads exactly one byte (a seek to the end) regardless of file size —
    appends must stay O(record), not O(file), over a long campaign.
    """
    with path.open("rb") as f:
        f.seek(0, os.SEEK_END)
        if f.tell() == 0:
            return False
        f.seek(-1, os.SEEK_END)
        return f.read(1) != b"\n"


def _write_meta(path: Path, meta: dict) -> None:
    """Write ``meta.json`` atomically (tmp file + rename).

    The units file heals truncation on the next append, but a
    half-written meta file would brick the run dir — so the content
    lands under a temporary name in the same directory and is moved
    into place with :func:`os.replace`, which is atomic on POSIX and
    Windows alike.
    """
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(meta, indent=1) + "\n")
    os.replace(tmp, path)


@dataclass
class RunDB:
    """One campaign's persistent unit records."""

    run_dir: Path
    records: dict = field(default_factory=dict)  #: key -> last record
    skipped_lines: int = 0  #: unparsable lines tolerated during load

    @classmethod
    def open(cls, run_dir) -> "RunDB":
        db = cls(run_dir=Path(run_dir))
        db.run_dir.mkdir(parents=True, exist_ok=True)
        db.reload()
        return db

    @property
    def units_path(self) -> Path:
        return self.run_dir / "units.jsonl"

    @property
    def meta_path(self) -> Path:
        return self.run_dir / "meta.json"

    # -- meta ---------------------------------------------------------------------

    def bind(self, spec: CampaignSpec) -> None:
        """Pin this run dir to ``spec`` (or check it already is).

        A run dir belongs to exactly one campaign spec; resuming with a
        different spec would silently mix incompatible unit sets, so the
        mismatch is an error rather than a merge.
        """
        meta = self.read_meta()
        if meta is None:
            _write_meta(self.meta_path, {
                "format_version": _FORMAT_VERSION,
                "campaign": spec.name,
                "spec": spec.to_dict(),
            })
            return
        if meta.get("campaign") != spec.name:
            raise CampaignValidationError(
                f"run dir {self.run_dir} belongs to campaign "
                f"{meta.get('campaign')!r}, not {spec.name!r}")
        if meta.get("spec") != spec.to_dict():
            raise CampaignValidationError(
                f"run dir {self.run_dir} was created from a different "
                f"{spec.name!r} spec; use a fresh run dir")

    def read_meta(self) -> dict | None:
        """The pinned campaign meta, or None when the dir is unbound.

        A corrupt or truncated ``meta.json`` is reported as a
        :class:`CampaignValidationError` naming the file — actionable
        (restore it or re-bind a fresh run dir) instead of an unhandled
        ``JSONDecodeError`` deep in a resume.
        """
        if not self.meta_path.exists():
            return None
        try:
            meta = json.loads(self.meta_path.read_text())
        except json.JSONDecodeError as exc:
            raise CampaignValidationError(
                f"corrupt campaign meta {self.meta_path}: {exc}; restore "
                f"the file or start a fresh run dir") from exc
        if not isinstance(meta, dict):
            raise CampaignValidationError(
                f"corrupt campaign meta {self.meta_path}: expected a JSON "
                f"object, got {type(meta).__name__}")
        return meta

    # -- records ------------------------------------------------------------------

    def reload(self) -> None:
        """(Re)read ``units.jsonl``, last record per key winning.

        A truncated trailing line (the footprint of a killed writer) is
        skipped and counted in :attr:`skipped_lines`, not an error.
        """
        self.records = {}
        self.skipped_lines = 0
        if not self.units_path.exists():
            return
        for line in self.units_path.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                self.skipped_lines += 1
                continue
            if not isinstance(rec, dict) or "key" not in rec:
                self.skipped_lines += 1
                continue
            self.records[rec["key"]] = rec

    def append(self, record: dict) -> None:
        """Durably append one unit record and index it."""
        self.append_many([record])

    def append_many(self, records) -> None:
        """Durably append unit records, in order, and index them.

        One tail check, one open and one write for the whole group; the
        file bytes are those of one :meth:`append` per record.  If the
        file ends mid-line (a previous writer was killed during its
        final append), a newline is inserted first so the new records
        start clean instead of fusing with the truncated fragment.
        """
        records = list(records)
        for record in records:
            if "key" not in record:
                raise ValueError(f"record has no unit key: {record}")
        if not records:
            return
        text = "".join(json.dumps(r) + "\n" for r in records)
        if self.units_path.exists() and _ends_mid_line(self.units_path):
            text = "\n" + text
        with self.units_path.open("a") as f:
            f.write(text)
            f.flush()
        for record in records:
            self.records[record["key"]] = record

    def done(self, key: str) -> dict | None:
        """The completed record for ``key``, if any."""
        rec = self.records.get(key)
        return rec if rec is not None and rec.get("status") == DONE else None

    def values(self) -> dict:
        """``{key: value}`` for every completed unit."""
        return {k: r["value"] for k, r in self.records.items()
                if r.get("status") == DONE}

    def status_counts(self) -> dict:
        counts: dict[str, int] = {}
        for rec in self.records.values():
            counts[rec.get("status", "?")] = counts.get(
                rec.get("status", "?"), 0) + 1
        return counts


def merge_run_dbs(sources, dest) -> RunDB:
    """Merge shard run dirs into one DB (e.g. after ``--shard i/n`` runs).

    Completed records must not conflict: if two sources completed the
    same unit key with different values, the merge aborts before it
    writes anything — shards of one campaign are disjoint by
    construction, so a conflict means the sources came from different
    code or different specs.  The new records land with one
    :meth:`RunDB.append_many`.
    """
    srcs = [RunDB.open(s) for s in sources]
    metas = [db.read_meta() for db in srcs]
    out = RunDB.open(dest)
    base_meta = next((m for m in metas if m is not None), None)
    for m in metas:
        if m is not None and base_meta is not None and m != base_meta:
            raise CampaignValidationError(
                "cannot merge run DBs from different campaigns/specs")
    merged, new = dict(out.records), []
    for db in srcs:
        for key, rec in db.records.items():
            existing = merged.get(key)
            if (existing is not None and existing.get("status") == DONE
                    and rec.get("status") == DONE
                    and existing["value"] != rec["value"]):
                raise CampaignValidationError(
                    f"merge conflict on unit {key}: sources recorded "
                    f"different values")
            if existing is None or existing.get("status") != DONE:
                merged[key] = rec
                new.append(rec)
    if base_meta is not None and out.read_meta() is None:
        _write_meta(out.meta_path, base_meta)
    out.append_many(new)
    return out
