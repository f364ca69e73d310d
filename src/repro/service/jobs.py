"""The service job queue: big grids run asynchronously, durably.

A sweep too large to answer inline becomes a *job*: the request is
canonicalized, hashed to a deterministic job id (resubmitting the same
grid is idempotent — same id, same units, and an already-finished job
answers instantly), persisted to an append-only ``jobs/units.jsonl``
ledger in the run-DB format (one status-transition record per line,
last record wins), and executed by a background worker.  The worker is
a :class:`~repro.campaign.runner.CampaignRunner` over a per-job run
dir — optionally fanned out over ``jobs=N`` worker processes — so job
results are ordinary campaign records, keyed by the same canonical
point hash the result store serves.

A service restarted mid-job re-enqueues every ``queued``/``running``
job it finds in the ledger; the campaign runner's resume semantics skip
units already recorded, so recovery re-executes nothing.
"""

from __future__ import annotations

import queue
import threading
import time
from pathlib import Path

from repro.campaign.rundb import RunDB
from repro.campaign.spec import (
    CampaignSpec,
    CampaignValidationError,
    canonical_json,
    unit_key,
)

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"

#: Hard per-request unit ceiling — a typo'd grid must not become a
#: million-unit job.
MAX_UNITS = 4096


def sweep_request(body: dict) -> dict:
    """Validate and canonicalize a ``POST /sweep`` body.

    Returns ``{"kind", "fixed", "grid"}`` with axis order preserved
    (it sets unit *order*; unit identity is order-free by construction).
    """
    if not isinstance(body, dict):
        raise CampaignValidationError("sweep request must be a JSON object")
    unknown = set(body) - {"kind", "fixed", "grid", "inline"}
    if unknown:
        raise CampaignValidationError(
            f"unknown sweep request fields: {sorted(unknown)}")
    kind = body.get("kind", "perf_report")
    fixed = body.get("fixed", {})
    grid = body.get("grid", {})
    if not isinstance(kind, str) or not kind:
        raise CampaignValidationError("sweep 'kind' must be a non-empty string")
    if not isinstance(fixed, dict):
        raise CampaignValidationError("sweep 'fixed' must be an object")
    if not isinstance(grid, dict):
        raise CampaignValidationError(
            "sweep 'grid' must be an object of axis -> [values...]")
    for axis, values in grid.items():
        if not isinstance(values, list) or not values:
            raise CampaignValidationError(
                f"grid axis {axis!r} needs a non-empty list of values")
    return {"kind": kind, "fixed": dict(fixed), "grid": dict(grid)}


def job_id_for(request: dict) -> str:
    """The deterministic job id of a canonicalized sweep request.

    The same 16-hex-char content hash family campaigns use for units —
    here over the whole request — so job ids are stable across
    processes and resubmissions.
    """
    return unit_key("service_sweep", {
        "kind": request["kind"],
        "fixed": request["fixed"],
        # Axis order is presentation; hash the content.
        "grid": {a: list(v) for a, v in sorted(request["grid"].items())},
    })


def spec_from_request(request: dict) -> CampaignSpec:
    """The :class:`CampaignSpec` a sweep request expands through.

    Campaign validation (scalar params, non-empty axes, duplicate
    detection) is the request validation — service grids are campaigns.
    """
    return CampaignSpec(
        name=f"service-{job_id_for(request)}",
        title="ad-hoc service sweep",
        kind=request["kind"],
        fixed=tuple(sorted(request["fixed"].items())),
        grid=tuple((axis, tuple(values))
                   for axis, values in request["grid"].items()),
        description=canonical_json(request),
    )


class JobQueue:
    """Durable FIFO of sweep jobs, drained by one worker thread.

    ``executor(job) -> None`` does the actual campaign work (the
    service provides it); the queue owns ids, persistence, status
    transitions, and crash recovery.
    """

    def __init__(self, executor, state_dir=None) -> None:
        self._executor = executor
        self._db = (RunDB.open(Path(state_dir) / "jobs")
                    if state_dir is not None else None)
        self._jobs: dict[str, dict] = {}
        if self._db is not None:
            self._jobs = {k: dict(r) for k, r in self._db.records.items()}
        self._lock = threading.Lock()
        self._q: queue.Queue = queue.Queue()
        self._worker: threading.Thread | None = None
        self._recover()

    # -- persistence --------------------------------------------------------------

    def _transition(self, job: dict, status: str, **extra) -> dict:
        rec = {**job, "status": status, **extra,
               "updated_s": round(time.time(), 3)}
        with self._lock:
            self._jobs[rec["key"]] = rec
            if self._db is not None:
                self._db.append(rec)
        return rec

    def _recover(self) -> None:
        """Re-enqueue jobs a previous process left unfinished."""
        for job in sorted(self._jobs.values(),
                          key=lambda j: j.get("submitted_s", 0.0)):
            if job.get("status") in (QUEUED, RUNNING):
                self._enqueue(job["key"])

    # -- public API ---------------------------------------------------------------

    def submit(self, request: dict) -> dict:
        """Enqueue a canonicalized sweep request; idempotent by content.

        A job already known (any status but ``failed``) is returned
        as-is — done jobs answer instantly, queued/running jobs are
        simply polled.  Failed jobs are retried.
        """
        job_id = job_id_for(request)
        spec = spec_from_request(request)
        n_units = len(spec.units())
        with self._lock:
            existing = self._jobs.get(job_id)
        if existing is not None and existing.get("status") != FAILED:
            return existing
        job = {
            "key": job_id,
            "campaign": spec.name,
            "request": request,
            "units": n_units,
            "unit_keys": list(spec.unit_keys()),
            "submitted_s": round(time.time(), 3),
        }
        rec = self._transition(job, QUEUED)
        self._enqueue(job_id)
        return rec

    def get(self, job_id: str) -> dict | None:
        with self._lock:
            job = self._jobs.get(job_id)
            return dict(job) if job is not None else None

    def counts(self) -> dict:
        with self._lock:
            counts: dict[str, int] = {}
            for job in self._jobs.values():
                s = job.get("status", "?")
                counts[s] = counts.get(s, 0) + 1
            return counts

    def wait(self, job_id: str, timeout: float = 60.0) -> dict:
        """Block until ``job_id`` settles (done/failed) or timeout."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            job = self.get(job_id)
            if job is not None and job.get("status") in (DONE, FAILED):
                return job
            time.sleep(0.01)
        raise TimeoutError(f"job {job_id} did not settle in {timeout:.1f}s")

    # -- the worker ---------------------------------------------------------------

    def _enqueue(self, job_id: str) -> None:
        self._q.put(job_id)
        with self._lock:
            if self._worker is None or not self._worker.is_alive():
                self._worker = threading.Thread(
                    target=self._drain, name="repro-service-jobs",
                    daemon=True)
                self._worker.start()

    def _drain(self) -> None:
        while True:
            try:
                job_id = self._q.get(timeout=0.5)
            except queue.Empty:
                return
            job = self.get(job_id)
            if job is None or job.get("status") in (DONE,):
                continue
            running = self._transition(job, RUNNING,
                                       started_s=round(time.time(), 3))
            try:
                self._executor(running)
            except Exception as exc:  # recorded, not raised: the queue lives on
                self._transition(running, FAILED,
                                 error=f"{type(exc).__name__}: {exc}")
            else:
                self._transition(running, DONE,
                                 finished_s=round(time.time(), 3))
