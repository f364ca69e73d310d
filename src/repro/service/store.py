"""The service result store: canonical-point-hash keyed, run-DB backed.

Every stored record is keyed by the same canonical unit hash
(:func:`repro.campaign.spec.unit_key`) the campaign layer addresses work
by, and carries the same serialized value the campaign runner would
record — so a repeat query is a cache hit, ``GET /results/<hash>``
resolves results produced by either path, and a service answer is
bit-identical to the equivalent ``repro campaign run``.

Persistence reuses :class:`~repro.campaign.rundb.RunDB` (append-only
JSONL, truncation-healing): the store directory is a run dir that is
never bound to a spec, because it accumulates units from every request.
With no directory the store is a process-local dict (tests, benchmarks,
ephemeral servers).
"""

from __future__ import annotations

import threading

from repro.campaign.rundb import DONE, RunDB

#: The record fields a store entry keeps (campaign records are stripped
#: of campaign-specific bookkeeping like shard/index before storing).
RECORD_FIELDS = ("key", "kind", "params", "status", "value", "elapsed_s")


def store_record(key: str, kind: str, params: dict, value,
                 elapsed_s: float = 0.0) -> dict:
    """A canonical store record for one completed unit."""
    return {"key": key, "kind": kind, "params": dict(params),
            "status": DONE, "value": value, "elapsed_s": elapsed_s}


def from_campaign_record(rec: dict) -> dict:
    """Strip a campaign run-DB record down to the store's canonical shape."""
    return {f: rec[f] for f in RECORD_FIELDS if f in rec}


class ResultStore:
    """Completed unit records by canonical point hash.

    Thread-safe: the HTTP layer serves many concurrent clients, and the
    job worker writes while requests read.  ``hits``/``misses`` count
    :meth:`get` outcomes — the service's result-store hit rate.
    """

    def __init__(self, run_dir=None) -> None:
        self._lock = threading.Lock()
        self._db = RunDB.open(run_dir) if run_dir is not None else None
        self._mem: dict = {}
        if self._db is not None:
            self._mem = {k: from_campaign_record(r)
                         for k, r in self._db.records.items()
                         if r.get("status") == DONE}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._mem)

    def contains(self, key: str) -> bool:
        """Membership without touching the hit/miss counters."""
        with self._lock:
            return key in self._mem

    def peek(self, key: str) -> dict | None:
        """The record for ``key`` without touching the hit/miss counters."""
        with self._lock:
            return self._mem.get(key)

    def get(self, key: str) -> dict | None:
        with self._lock:
            rec = self._mem.get(key)
            if rec is None:
                self.misses += 1
            else:
                self.hits += 1
            return rec

    def put(self, record: dict) -> dict:
        """Index (and persist) one completed record: ``put_many``."""
        return self.put_many([record])[0]

    def put_many(self, records) -> list:
        """Index (and persist) completed records, idempotently.

        Returns the stored record per input, in order.  A record already
        stored under its key is kept as-is — results are
        content-addressed, so the first write wins and repeats are
        no-ops rather than appends.  The new records reach the run DB in
        one :meth:`~repro.campaign.rundb.RunDB.append_many`.
        """
        recs = [from_campaign_record(r) for r in records]
        with self._lock:
            out, new = [], []
            for rec in recs:
                existing = self._mem.get(rec["key"])
                if existing is None:
                    self._mem[rec["key"]] = existing = rec
                    new.append(rec)
                out.append(existing)
            if self._db is not None and new:
                self._db.append_many(new)
            return out

    def stats(self) -> dict:
        with self._lock:
            total = self.hits + self.misses
            return {
                "size": len(self._mem),
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": self.hits / total if total else 0.0,
                "persistent": self._db is not None,
            }
