"""The planning service: HTTP endpoints over the sweep engine.

Stdlib only (``http.server.ThreadingHTTPServer``), one
:class:`PlanningService` per server process:

* ``POST /plan`` — the capacity-planner search (arch/hardware/budget →
  every evaluated configuration + the pinned best), served from the
  shared engine's cost-model caches;
* ``POST /sweep`` — an ad-hoc grid expanded to canonical-hash units;
  small grids answer inline, big grids return a job id;
* ``GET /jobs/<id>`` — job status + progress;
* ``GET /results/<hash>`` — one stored unit record by canonical hash;
* ``GET /metrics`` — request counts, p50/p99 latency, result-store hit
  rate, flattened engine counters, unit-cost/budget accounting.

Every configuration evaluated anywhere — inline sweep, job, or CLI
campaign — runs through the one
:func:`~repro.campaign.units.execute_units` (a request's store misses
as one group) and lands in one result store keyed by the canonical
point hash, so repeat queries are cache hits and service values are
bit-identical to ``repro campaign run`` of the same grid.

Concurrency model: the HTTP layer threads freely; evaluation routes
each request to one slot of a small :class:`EnginePool` by a structural
key and holds only that slot's lock (a sweep engine and its caches are
not thread-safe, so same-key work stays sequential and bit-exact),
which lets cold misses for *distinct* templates evaluate concurrently.
The key drops the params a unit kind declares timing-only, and a key
keeps its slot, so every grid over one schedule template lands on the
slot that already compiled it (a grid over several structures keys by
all of them, and can rebuild a template another slot holds).  The
result store, metrics, and budget
accounting are internally locked and stay atomic across slots; unit
values are deterministic functions of ``(kind, params)``, so responses
are byte-identical regardless of which slot computed them.

Optionally the service requires a bearer token (``repro serve
--token``): requests without ``Authorization: Bearer <token>`` are
rejected with 401 and counted in ``/metrics``.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import threading
from collections import OrderedDict
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from time import perf_counter

from repro.campaign.runner import _engine_counters
from repro.campaign.spec import CampaignValidationError
from repro.campaign.units import structure_key
from repro.service import planner as planner_mod
from repro.service.jobs import (
    FAILED,
    MAX_UNITS,
    JobQueue,
    job_id_for,
    spec_from_request,
    sweep_request,
)
from repro.service.metrics import BudgetExceeded, Metrics
from repro.service.store import ResultStore, store_record

#: Grids at or under this many units answer inline by default.
DEFAULT_INLINE_LIMIT = 32

#: Engine slots when neither ``engine`` nor ``engine_pool`` is given.
DEFAULT_ENGINE_POOL = 4

#: Routing keys an :class:`EnginePool` remembers (least recently used
#: forgotten first): far more than the pool's template caches hold.
MAX_ROUTES = 4096

#: Most keys an :class:`EnginePool` slot may hold beyond its emptiest
#: slot.  Four slots then split 90 keys at most 28 to one, within
#: one engine's 32-entry template cache.
ROUTE_SLACK = 8

#: Largest request body read, in bytes.  A ``/sweep`` grid at the
#: ``MAX_UNITS`` ceiling is tens of KiB; a bigger declared length answers
#: 413 instead of pinning a handler thread on ``rfile.read``.
MAX_BODY_BYTES = 1 << 20

#: Seconds a connection may sit idle on a read or write before the
#: handler gives up on it.  A body that stalls short of its declared
#: ``Content-Length`` answers 408; an idle keep-alive connection closes.
SOCKET_TIMEOUT_S = 60


class _EngineSlot:
    """One engine plus the lock serializing all work routed to it."""

    __slots__ = ("engine", "lock", "pending", "keys")

    def __init__(self, engine) -> None:
        self.engine = engine
        self.lock = threading.RLock()
        self.pending = 0  #: requests routed here and not yet finished
        self.keys = 0     #: remembered keys assigned to this slot


class EnginePool:
    """A fixed set of sweep engines, each guarded by its own lock.

    Work routes by a caller-chosen structural key, and a key keeps the
    slot it was first given: repeated identical requests serialize on
    one engine (engines are not thread-safe), and the service keys
    sweeps by template structure (see
    :meth:`PlanningService._units_key`), so a grid of one structure
    reuses the template its slot already compiled.  A new key goes to
    the slot with the fewest requests in flight, ties to the one holding
    the fewest keys, but never to a slot already ``ROUTE_SLACK`` keys
    ahead of the emptiest: a cold miss does not queue behind a busy
    slot, and however traffic overlaps the slots' template caches split
    the working set evenly.  Keys are remembered as fixed-size digests,
    the last ``MAX_ROUTES`` of them; a forgotten key is assigned afresh,
    which can cost a template build, never a different answer.
    """

    def __init__(self, engines) -> None:
        if not engines:
            raise ValueError("engine pool needs at least one engine")
        self.slots = tuple(_EngineSlot(e) for e in engines)
        self._routes: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self.slots)

    def _assign(self, digest: bytes) -> _EngineSlot:
        if len(self.slots) == 1:
            return self.slots[0]
        slot = self._routes.get(digest)
        if slot is not None:
            self._routes.move_to_end(digest)
            return slot
        limit = min(s.keys for s in self.slots) + ROUTE_SLACK
        slot = min((s for s in self.slots if s.keys < limit),
                   key=lambda s: (s.pending, s.keys))
        slot.keys += 1
        self._routes[digest] = slot
        if len(self._routes) > MAX_ROUTES:
            _, old = self._routes.popitem(last=False)
            old.keys -= 1
        return slot

    @contextmanager
    def route(self, key: str):
        """Hold ``key``'s slot lock for the block; yields the slot."""
        digest = hashlib.blake2b(key.encode("utf-8"), digest_size=16).digest()
        with self._lock:
            slot = self._assign(digest)
            slot.pending += 1
        try:
            with slot.lock:
                yield slot
        finally:
            with self._lock:
                slot.pending -= 1

    def counters(self) -> dict:
        """Flattened engine counters summed across every slot."""
        total: dict = {}
        for s in self.slots:
            with s.lock:
                for k, v in _engine_counters(s.engine).items():
                    total[k] = total.get(k, 0) + v
        return total


class ServiceError(Exception):
    """An error with an HTTP status, rendered as a JSON body."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


_PLAN_FIELDS = {"arch", "hardware", "budget_gb", "mem_gb",
                "layers_per_stage", "depths", "b_micros", "schedules",
                "recompute"}


def _analytic_schedules() -> list:
    """The schedules the default planner search covers (for cost estimates)."""
    from repro.pipeline.spec import get_spec, schedule_names

    return [s for s in schedule_names()
            if get_spec(s).critical_path is not None]


class PlanningService:
    """The service core, independent of the HTTP layer (unit-testable)."""

    def __init__(
        self,
        state_dir=None,
        engine=None,
        inline_limit: int = DEFAULT_INLINE_LIMIT,
        worker_jobs: int = 1,
        budget_units: int | None = None,
        engine_pool: int | None = None,
        token: str | None = None,
    ) -> None:
        from repro.campaign.registry import load_builtin_campaigns
        from repro.sweep.engine import SweepEngine

        load_builtin_campaigns()  # the full unit-kind vocabulary
        # ``engine=X`` keeps the injected engine as the sole slot (the
        # single-lock behavior tests and baseline benchmarks rely on)
        # unless ``engine_pool`` explicitly widens it with fresh engines.
        if engine is not None:
            engines = [engine]
            if engine_pool is not None and engine_pool > 1:
                engines += [SweepEngine() for _ in range(engine_pool - 1)]
        else:
            n = engine_pool if engine_pool is not None else DEFAULT_ENGINE_POOL
            engines = [SweepEngine() for _ in range(max(n, 1))]
        self.pool = EnginePool(engines)
        self.engine = self.pool.slots[0].engine
        self.token = token
        self.state_dir = Path(state_dir) if state_dir is not None else None
        self.inline_limit = inline_limit
        self.worker_jobs = worker_jobs
        self.store = ResultStore(
            self.state_dir / "results" if self.state_dir else None)
        self.metrics = Metrics(budget_units)
        #: Units charged per job id this process and not yet settled by
        #: :meth:`_run_job` (recovered jobs were charged by a previous
        #: process and refund nothing here).
        self._job_charges: dict[str, int] = {}
        self._job_charges_lock = threading.Lock()
        # Last: the queue may immediately recover + run unfinished jobs,
        # and the executor reads every attribute above.
        self.jobs = JobQueue(
            self._run_job,
            self.state_dir / "queue" if self.state_dir else None)

    # -- endpoint logic -----------------------------------------------------------

    def plan(self, body: dict) -> dict:
        """``POST /plan``: the capacity-planner search."""
        if not isinstance(body, dict):
            raise ServiceError(400, "plan request must be a JSON object")
        unknown = set(body) - _PLAN_FIELDS
        if unknown:
            raise ServiceError(
                400, f"unknown plan request fields: {sorted(unknown)}")
        for required in ("arch", "hardware"):
            if required not in body:
                raise ServiceError(400, f"plan request needs {required!r}")
        budget_gb = body.get("budget_gb", body.get("mem_gb"))
        kwargs = dict(
            arch=body["arch"],
            hardware=body["hardware"],
            budget_gb=budget_gb,
            layers_per_stage=int(body.get("layers_per_stage", 1)),
        )
        for axis, name in (("depths", "depths"), ("b_micros", "b_micros"),
                           ("schedules", "schedules"),
                           ("recompute", "recompute_options")):
            if axis in body:
                values = body[axis]
                if not isinstance(values, list) or not values:
                    raise ServiceError(
                        400, f"plan {axis!r} needs a non-empty list")
                kwargs[name] = tuple(values)
        cost = (len(kwargs.get("depths", planner_mod.DEFAULT_DEPTHS))
                * len(kwargs.get("b_micros", planner_mod.DEFAULT_B_MICROS))
                * len(kwargs.get("recompute_options", (False, True)))
                * len(kwargs.get("schedules", ()) or _analytic_schedules()))
        key = "plan:" + json.dumps(kwargs, sort_keys=True)
        self._charge(cost)
        try:
            with self.pool.route(key) as slot:
                result = planner_mod.plan(engine=slot.engine, **kwargs)
        except ValueError as exc:
            self.metrics.refund(cost)
            raise ServiceError(400, str(exc)) from exc
        out = result.to_dict()
        out["cost_units"] = cost
        return out

    def sweep(self, body: dict) -> dict:
        """``POST /sweep``: inline answer or enqueued job."""
        try:
            request = sweep_request(body if isinstance(body, dict) else None)
            spec = spec_from_request(request)
        except CampaignValidationError as exc:
            raise ServiceError(400, str(exc)) from exc
        self._check_kind(request["kind"])
        units = spec.units()
        if len(units) > MAX_UNITS:
            raise ServiceError(
                400, f"sweep expands to {len(units)} units; the per-request "
                     f"ceiling is {MAX_UNITS}")
        inline = body.get("inline")
        if not isinstance(inline, bool):
            inline = len(units) <= self.inline_limit
        if inline:
            records, executed, cost = self._execute_units(units)
            return {
                "mode": "inline",
                "kind": request["kind"],
                "units": records,
                "executed": executed,
                "cached": len(units) - executed,
                "cost_units": cost,
            }
        job_id = job_id_for(request)
        existing = self.jobs.get(job_id)
        if existing is None or existing.get("status") == FAILED:
            # Charge up front: the budget gates work *before* it starts;
            # _run_job refunds what the job leaves undone.
            cost = sum(1 for u in units if not self.store.contains(u.key))
            self._charge(cost)
            with self._job_charges_lock:
                self._job_charges[job_id] = (
                    self._job_charges.get(job_id, 0) + cost)
        job = self.jobs.submit(request)
        return {
            "mode": "job",
            "job": job["key"],
            "status": job["status"],
            "units": job["units"],
            "unit_keys": job["unit_keys"],
            "poll": f"/jobs/{job['key']}",
        }

    def job_status(self, job_id: str) -> dict:
        job = self.jobs.get(job_id)
        if job is None:
            raise ServiceError(404, f"unknown job {job_id!r}")
        done_units = sum(1 for k in job.get("unit_keys", ())
                         if self.store.contains(k))
        out = {
            "job": job["key"],
            "status": job["status"],
            "units": job.get("units", 0),
            "done_units": done_units,
            "unit_keys": job.get("unit_keys", []),
            "request": job.get("request"),
        }
        if "error" in job:
            out["error"] = job["error"]
        return out

    def result(self, key: str) -> dict:
        rec = self.store.get(key)
        if rec is None:
            raise ServiceError(404, f"no result stored under {key!r}")
        return rec

    def metrics_snapshot(self) -> dict:
        snap = self.metrics.snapshot()
        snap["store"] = self.store.stats()
        snap["jobs"] = self.jobs.counts()
        snap["engine"] = self.pool.counters()
        snap["engine_pool"] = len(self.pool)
        return snap

    # -- execution ----------------------------------------------------------------

    def _charge(self, cost: int) -> None:
        try:
            self.metrics.charge(cost)
        except BudgetExceeded as exc:
            raise ServiceError(429, str(exc)) from exc

    @staticmethod
    def _check_kind(kind: str) -> None:
        from repro.campaign.units import get_unit_kind

        try:
            get_unit_kind(kind)
        except KeyError as exc:
            raise ServiceError(400, str(exc.args[0])) from exc

    @staticmethod
    def _units_key(units) -> str:
        """The slot-routing key of a unit batch.

        The batch's distinct :func:`~repro.campaign.units.structure_key`
        values: canonical ``(kind, params)`` hashes minus the params the
        kind declares timing-only.  Grids of one structure that differ
        only in ``arch``, ``hardware``, ``b_micro`` (or, for
        ``stochastic``, seeds and model) share a slot and its compiled
        template; identical requests still share a key.  For a kind that
        declares no timing params the parts are the unit hashes.  Each
        engine caches by the full template key, so routing changes only
        hit rates, never results.
        """
        return "|".join(dict.fromkeys(structure_key(u) for u in units))

    def _execute_units(self, units, charge: bool = True):
        """Serve ``units`` from the store, executing the misses.

        The store misses run as one group through
        :func:`~repro.campaign.units.execute_units` against the slot's
        engine — the campaign runner's own execution, so the recorded
        values are bit-identical to a ``repro campaign run`` of the same
        grid — and the units it finished are stored together, a failed
        group's too; the cost of the rest is refunded.  A unit whose
        params its kind rejects (``KeyError``/``TypeError``/
        ``ValueError``) answers 400.  Only the routed slot is locked;
        the store and budget are internally atomic, so distinct grids
        execute concurrently.
        """
        from repro.campaign.units import UnitContext, execute_units

        with self.pool.route(self._units_key(units)) as slot:
            cost = sum(1 for u in units if not self.store.contains(u.key))
            if charge:
                self._charge(cost)
            out = [self.store.get(u.key) for u in units]
            misses = [u for u, rec in zip(units, out) if rec is None]
            results: list = []
            try:
                for result in execute_units(
                        misses, UnitContext(engine=slot.engine)):
                    results.append(result)
            except (KeyError, TypeError, ValueError) as exc:
                raise ServiceError(
                    400, f"unit {misses[len(results)].key} rejected: {exc}"
                ) from exc
            finally:
                stored = self.store.put_many([
                    store_record(u.key, u.kind, u.params_dict(), value, s)
                    for u, (_, value, s) in zip(misses, results)])
                if charge and len(stored) < len(misses):
                    self.metrics.refund(cost - len(stored))
            fresh = iter(stored)
            out = [rec if rec is not None else next(fresh) for rec in out]
            return out, len(stored), (cost if charge else 0)

    def _run_job(self, job: dict) -> None:
        """Execute one queued job (called from the queue's worker thread).

        Persistent services run the grid as a real campaign — a
        :class:`CampaignRunner` over ``<state>/jobs/<id>``, with
        ``worker_jobs`` worker processes when configured — pre-seeded from
        the result store so repeat units cost nothing.  In-memory
        services reuse the inline execution path.  Either way every unit
        done reaches the store, a failing job included, and when the job
        ends the units its charge covered that are still missing from
        the store are refunded.
        """
        spec = spec_from_request(job["request"])
        units = spec.units()
        try:
            if self.state_dir is None:
                self._execute_units(units, charge=False)
            else:
                self._run_campaign_job(job["key"], spec, units)
        finally:
            with self._job_charges_lock:
                charged = self._job_charges.pop(job["key"], 0)
            missing = sum(1 for u in units if not self.store.contains(u.key))
            self.metrics.refund(min(charged, missing))

    def _run_campaign_job(self, job_id: str, spec, units) -> None:
        from repro.campaign.rundb import DONE as REC_DONE
        from repro.campaign.rundb import RunDB
        from repro.campaign.runner import CampaignRunner

        run_dir = self.state_dir / "jobs" / job_id
        with self.pool.route(self._units_key(units)) as slot:
            db = RunDB.open(run_dir)
            seeds = (self.store.peek(u.key) for u in units
                     if db.done(u.key) is None)
            db.append_many([rec for rec in seeds if rec is not None])
            runner = CampaignRunner(engine=slot.engine, run_dir=run_dir)
            try:
                runner.run(
                    spec,
                    jobs=self.worker_jobs if self.worker_jobs > 1 else None)
            finally:
                db.reload()  # the runner's records, a failed run's too
                self.store.put_many([rec for rec in db.records.values()
                                     if rec.get("status") == REC_DONE])


# -- the HTTP layer ---------------------------------------------------------------


_INDEX = {
    "service": "repro-capacity-planner",
    "endpoints": {
        "POST /plan": "capacity-planner search "
                      "(arch, hardware, [budget_gb, depths, b_micros, "
                      "schedules, recompute, layers_per_stage])",
        "POST /sweep": "grid of units ([kind], [fixed], [grid], [inline]) — "
                       "inline answer or job id",
        "GET /jobs/<id>": "job status + progress",
        "GET /results/<hash>": "stored unit record by canonical point hash",
        "GET /metrics": "request/latency/hit-rate/engine/budget counters",
    },
}


class _HTTPServer(ThreadingHTTPServer):
    # Listen backlog: the stdlib default of 5 overflows when a few clients
    # open fresh connections at once (urllib opens one per request); the
    # kernel then drops the SYN and the client resends it ~1 s later.
    request_queue_size = 64


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP to the bound :class:`PlanningService`."""

    service: PlanningService = None  # bound per server via subclassing
    server_version = "repro-planner/1.0"
    protocol_version = "HTTP/1.1"
    timeout = SOCKET_TIMEOUT_S
    # TCP_NODELAY on each accepted socket: a reply goes out as a header
    # write and a body write, and with Nagle's algorithm the body waits
    # for the client's delayed ACK of the headers — ~40 ms per request
    # on a keep-alive connection.
    disable_nagle_algorithm = True

    # The default handler logs every request to stderr; the service has
    # /metrics for that.
    def log_message(self, format, *args):  # noqa: A002 (stdlib signature)
        pass

    def _reply(self, status: int, payload: dict) -> None:
        body = (json.dumps(payload) + "\n").encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _content_length(self) -> int:
        """The request's ``Content-Length``, 0 when absent.

        A non-integer or negative value answers 400 and one above
        :data:`MAX_BODY_BYTES` answers 413; both close the connection
        unread: keep-alive cannot resync past a body of unknown extent
        (``rfile.read(-1)`` would block until the client hangs up), and
        reading an oversized one would hold the thread until the client
        sends it all.
        """
        text = self.headers.get("Content-Length") or "0"
        try:
            length = int(text)
        except ValueError:
            length = -1
        if length < 0:
            self.close_connection = True
            raise ServiceError(400, f"invalid Content-Length: {text!r}")
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            raise ServiceError(
                413, f"request body of {length} bytes exceeds the "
                     f"{MAX_BODY_BYTES}-byte limit")
        return length

    def _read(self, length: int) -> bytes:
        """Read ``length`` body bytes; a stalled body answers 408 and
        closes the connection (its unread rest would desync keep-alive)."""
        try:
            return self.rfile.read(length) if length else b""
        except TimeoutError:
            self.close_connection = True
            raise ServiceError(
                408, f"request body not received within {self.timeout} s"
            ) from None

    def _body(self) -> dict:
        raw = self._read(self._content_length())
        if not raw:
            raise ServiceError(400, "request body must be JSON")
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ServiceError(400, f"invalid JSON body: {exc}") from exc

    def _authorized(self) -> bool:
        token = self.service.token
        if not token:
            return True
        header = self.headers.get("Authorization", "")
        return hmac.compare_digest(header, f"Bearer {token}")

    def _reject_unauthorized(self) -> None:
        # Drain the unread body so HTTP/1.1 keep-alive stays in sync.
        try:
            self._read(self._content_length())
        except ServiceError as exc:
            self._reply(exc.status, {"error": exc.message,
                                     "status": exc.status})
            return
        self.service.metrics.auth_reject()
        self._reply(401, {
            "error": "unauthorized: send 'Authorization: Bearer <token>'",
            "status": 401,
        })

    def _dispatch(self, endpoint: str, fn) -> None:
        started = perf_counter()
        error = False
        cost = 0
        try:
            payload = fn()
            cost = payload.get("cost_units", 0) if isinstance(payload, dict) else 0
            status = 200
        except ServiceError as exc:
            error = True
            status = exc.status
            payload = {"error": exc.message, "status": exc.status}
        except Exception as exc:  # pragma: no cover - defensive 500
            error = True
            status = 500
            payload = {"error": f"{type(exc).__name__}: {exc}", "status": 500}
        # Observe *before* replying: once the client has the response, a
        # /metrics scrape must already see this request counted.
        self.service.metrics.observe(endpoint, perf_counter() - started,
                                     error=error, cost=cost)
        self._reply(status, payload)

    def do_GET(self) -> None:  # noqa: N802 (stdlib casing)
        if not self._authorized():
            self._reject_unauthorized()
            return
        path = self.path.rstrip("/") or "/"
        if path == "/":
            self._dispatch("index", lambda: dict(_INDEX))
        elif path == "/metrics":
            self._dispatch("metrics", self.service.metrics_snapshot)
        elif path.startswith("/jobs/"):
            job_id = path[len("/jobs/"):]
            self._dispatch("jobs", lambda: self.service.job_status(job_id))
        elif path.startswith("/results/"):
            key = path[len("/results/"):]
            self._dispatch("results", lambda: self.service.result(key))
        elif path in ("/plan", "/sweep"):
            self._dispatch("method", lambda: _method_not_allowed("POST"))
        else:
            self._dispatch("unknown", lambda: _not_found(path))

    def do_POST(self) -> None:  # noqa: N802 (stdlib casing)
        if not self._authorized():
            self._reject_unauthorized()
            return
        path = self.path.rstrip("/")
        if path == "/plan":
            self._dispatch("plan", lambda: self.service.plan(self._body()))
        elif path == "/sweep":
            self._dispatch("sweep", lambda: self.service.sweep(self._body()))
        elif path in ("", "/metrics") or path.startswith(("/jobs/",
                                                          "/results/")):
            self._dispatch("method", lambda: _method_not_allowed("GET"))
        else:
            self._dispatch("unknown", lambda: _not_found(path))


def _not_found(path: str):
    raise ServiceError(404, f"no such endpoint: {path}")


def _method_not_allowed(use: str):
    raise ServiceError(405, f"method not allowed; use {use}")


class ServiceServer:
    """A :class:`PlanningService` bound to a listening HTTP server.

    ``port=0`` picks a free port (tests, benchmarks).  Use as a context
    manager, or call :meth:`start`/:meth:`close` explicitly;
    :meth:`serve_forever` is the blocking CLI entry.
    """

    def __init__(self, service: PlanningService, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.service = service
        handler = type("BoundHandler", (_Handler,), {"service": service})
        self.httpd = _HTTPServer((host, port), handler)
        self.httpd.daemon_threads = True
        self.host, self.port = self.httpd.server_address[:2]
        self.url = f"http://{self.host}:{self.port}"
        self._thread: threading.Thread | None = None

    def start(self) -> "ServiceServer":
        self._thread = threading.Thread(target=self.httpd.serve_forever,
                                        name="repro-service-http",
                                        daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self.httpd.serve_forever()

    def close(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)

    def __enter__(self) -> "ServiceServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()
