"""Service endpoint behavior: routing, validation, idempotency, metrics.

Exercises :class:`PlanningService` both directly (endpoint logic) and
through a live :class:`ServiceServer` + :class:`ServiceClient` pair
(HTTP routing and status codes).  Everything runs on a private
in-memory service with its own engine, so tests are hermetic.
"""

import http.client
import json
import socket
import statistics
import threading
import urllib.parse
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

import pytest

from repro.service import (
    PlanningService,
    ServiceClient,
    ServiceError,
    ServiceHTTPError,
    ServiceServer,
)
from repro.service import app as service_app
from repro.service.jobs import job_id_for, sweep_request
from repro.sweep import SweepEngine

FIXED = {"arch": "BERT-Large", "hardware": "P100", "schedule": "chimera"}


def _sweep_body(grid, **over):
    body = {"kind": "perf_report", "fixed": dict(FIXED), "grid": grid}
    body.update(over)
    return body


PF_FIXED = {"arch": "BERT-Base", "hardware": "P100", "schedule": "1f1b",
            "depth": 4}


def _pf_body(**fixed):
    return {"kind": "pipefisher",
            "fixed": {**PF_FIXED, "n_micro": 8, **fixed},
            "grid": {"b_micro": [8, 16]}}


#: Grids that expand fine but whose params the unit kind rejects.
MALFORMED_UNIT_BODIES = (
    _sweep_body({"depth": [4]}),                      # b_micro missing
    _pf_body(bogus=1),                                # unknown param
    _pf_body(depth="4"),                              # wrong type
    {"kind": "pipefisher",                            # non-integer n_micro
     "fixed": {**PF_FIXED, "n_micro_factor": 1.5},
     "grid": {"b_micro": [8, 16]}},
    _sweep_body({"depth": [4, 8]}, fixed={**FIXED, "b_micro": None}),
)
MALFORMED_UNIT_IDS = ("missing-param", "unknown-param", "str-depth",
                      "fractional-n-micro", "null-b-micro")


@pytest.fixture()
def svc():
    return PlanningService(engine=SweepEngine())


@pytest.fixture(scope="module")
def live():
    with ServiceServer(PlanningService(engine=SweepEngine())) as server:
        yield ServiceClient(server.url)


class TestPlanEndpoint:
    def test_plan_returns_points_and_pinned_best(self, svc):
        out = svc.plan({"arch": "BERT-Large", "hardware": "P100",
                        "depths": [4], "b_micros": [8, 16]})
        assert len(out["points"]) == out["cost_units"] > 0
        assert out["best"]["fits"] is True

    def test_missing_required_fields_are_400(self, svc):
        for body in ({}, {"arch": "BERT-Large"}, {"hardware": "P100"}):
            with pytest.raises(ServiceError) as exc:
                svc.plan(body)
            assert exc.value.status == 400

    def test_unknown_fields_and_values_are_400(self, svc):
        for body in (
            {"arch": "BERT-Large", "hardware": "P100", "bogus": 1},
            {"arch": "Nope", "hardware": "P100"},
            {"arch": "BERT-Large", "hardware": "P100", "depths": []},
            {"arch": "BERT-Large", "hardware": "P100", "depths": 4},
            {"arch": "BERT-Large", "hardware": "P100",
             "schedules": ["nope"]},
        ):
            with pytest.raises(ServiceError) as exc:
                svc.plan(body)
            assert exc.value.status == 400

    def test_rejected_plan_refunds_its_charge(self, svc):
        with pytest.raises(ServiceError):
            svc.plan({"arch": "BERT-Large", "hardware": "P100",
                      "schedules": ["nope"]})
        assert svc.metrics.charged_units == 0


class TestSweepEndpoint:
    def test_inline_sweep_executes_each_unit_once(self, svc):
        out = svc.sweep(_sweep_body({"depth": [4, 8], "b_micro": [8]}))
        assert out["mode"] == "inline"
        assert out["executed"] == 2 and out["cached"] == 0
        assert all(u["status"] == "done" for u in out["units"])

    def test_repeat_sweep_is_fully_cached(self, svc):
        body = _sweep_body({"depth": [4], "b_micro": [8, 16]})
        first = svc.sweep(body)
        again = svc.sweep(body)
        assert first["executed"] == 2
        assert again["executed"] == 0 and again["cached"] == 2
        assert again["cost_units"] == 0
        assert again["units"] == first["units"]

    def test_axis_order_does_not_change_unit_identity(self, svc):
        a = svc.sweep(_sweep_body({"depth": [4, 8], "b_micro": [8, 16]}))
        b = svc.sweep(_sweep_body({"b_micro": [8, 16], "depth": [4, 8]}))
        assert {u["key"] for u in a["units"]} == {u["key"] for u in b["units"]}
        assert b["executed"] == 0  # permuted axes are the same four points

    def test_axis_order_does_not_change_job_identity(self):
        fwd = sweep_request(_sweep_body({"depth": [4], "b_micro": [8]}))
        rev = sweep_request({"kind": "perf_report", "fixed": dict(FIXED),
                             "grid": {"b_micro": [8], "depth": [4]}})
        assert job_id_for(fwd) == job_id_for(rev)
        # ...but different *content* is a different job.
        other = sweep_request(_sweep_body({"depth": [8], "b_micro": [8]}))
        assert job_id_for(fwd) != job_id_for(other)

    def test_malformed_sweeps_are_400(self, svc):
        for body in (
            _sweep_body({"depth": []}),                 # empty axis
            _sweep_body({"depth": 4}),                  # not a list
            _sweep_body({}, bogus=1),                   # unknown field
            _sweep_body({}, kind="no_such_kind"),       # unknown unit kind
            {"kind": "perf_report", "fixed": [1]},      # fixed not an object
        ):
            with pytest.raises(ServiceError) as exc:
                svc.sweep(body)
            assert exc.value.status == 400

    @pytest.mark.parametrize("body", MALFORMED_UNIT_BODIES,
                             ids=MALFORMED_UNIT_IDS)
    def test_unit_execution_errors_are_400_not_500(self, svc, body):
        # A structurally valid grid whose params the unit kind rejects.
        with pytest.raises(ServiceError) as exc:
            svc.sweep(body)
        assert exc.value.status == 400
        assert "rejected" in exc.value.message

    def test_oversized_grids_are_refused_up_front(self, svc):
        with pytest.raises(ServiceError) as exc:
            svc.sweep(_sweep_body({"depth": list(range(70)),
                                   "b_micro": list(range(70))}))
        assert exc.value.status == 400
        assert "4096" in exc.value.message

    def test_forced_job_mode_round_trips(self, svc):
        out = svc.sweep(_sweep_body({"depth": [4], "b_micro": [32]},
                                    inline=False))
        assert out["mode"] == "job"
        done = svc.jobs.wait(out["job"])
        assert done["status"] == "done"
        status = svc.job_status(out["job"])
        assert status["done_units"] == status["units"] == 1
        rec = svc.result(status["unit_keys"][0])
        assert rec["status"] == "done" and rec["kind"] == "perf_report"

    def test_resubmitting_a_finished_job_answers_instantly(self, svc):
        body = _sweep_body({"depth": [4], "b_micro": [64]}, inline=False)
        first = svc.sweep(body)
        svc.jobs.wait(first["job"])
        again = svc.sweep(body)
        assert again["job"] == first["job"]
        assert again["status"] == "done"


class TestBudget:
    def test_budget_gates_work_with_429(self):
        svc = PlanningService(engine=SweepEngine(), budget_units=2)
        body = _sweep_body({"depth": [4], "b_micro": [8, 16]})
        svc.sweep(body)  # exactly the budget
        with pytest.raises(ServiceError) as exc:
            svc.sweep(_sweep_body({"depth": [8], "b_micro": [8]}))
        assert exc.value.status == 429
        # Cache hits are free: the exhausted budget still serves repeats.
        again = svc.sweep(body)
        assert again["cached"] == 2 and again["cost_units"] == 0

    def test_rejected_units_refund_their_budget(self):
        svc = PlanningService(engine_pool=1, budget_units=10)
        for body in MALFORMED_UNIT_BODIES:
            with pytest.raises(ServiceError) as exc:
                svc.sweep(body)
            assert exc.value.status == 400
        assert svc.metrics_snapshot()["budget"]["charged_units"] == 0
        out = svc.sweep(_pf_body())
        assert out["executed"] == 2 and out["cost_units"] == 2

    @pytest.mark.parametrize("persistent", [False, True],
                             ids=["in-memory", "state-dir"])
    def test_failed_job_refunds_its_budget(self, persistent, tmp_path):
        svc = PlanningService(budget_units=4,
                              state_dir=tmp_path if persistent else None)
        job = svc.sweep({**_pf_body(bogus=1), "inline": False})
        assert svc.metrics_snapshot()["budget"]["charged_units"] == 2
        assert svc.jobs.wait(job["job"])["status"] == "failed"
        assert svc.metrics_snapshot()["budget"]["charged_units"] == 0
        out = svc.sweep({"kind": "pipefisher", "fixed": PF_FIXED,
                         "grid": {"b_micro": [8, 16], "n_micro": [8, 16]}})
        assert out["executed"] == 4 and out["cost_units"] == 4

    @pytest.mark.parametrize("persistent", [False, True],
                             ids=["in-memory", "state-dir"])
    def test_failed_job_keeps_the_charge_of_done_units(self, persistent,
                                                       tmp_path):
        svc = PlanningService(budget_units=4,
                              state_dir=tmp_path if persistent else None)
        body = {"kind": "pipefisher", "fixed": PF_FIXED, "inline": False,
                "grid": {"b_micro": [8], "n_micro_factor": [2, 1.5]}}
        job = svc.sweep(body)
        assert svc.jobs.wait(job["job"])["status"] == "failed"
        assert svc.metrics_snapshot()["budget"]["charged_units"] == 1
        done, failed = job["unit_keys"]
        assert svc.result(done)["key"] == done
        assert not svc.store.contains(failed)

    def test_budget_appears_in_metrics(self):
        svc = PlanningService(engine=SweepEngine(), budget_units=10)
        svc.sweep(_sweep_body({"depth": [4], "b_micro": [8]}))
        snap = svc.metrics_snapshot()
        assert snap["budget"] == {"limit_units": 10, "charged_units": 1,
                                  "remaining_units": 9}


class TestHTTPRouting:
    def test_index_lists_the_endpoints(self, live):
        idx = live.get("/")
        assert idx["service"] == "repro-capacity-planner"
        assert "POST /plan" in idx["endpoints"]

    def test_unknown_path_is_404(self, live):
        with pytest.raises(ServiceHTTPError) as exc:
            live.get("/nope")
        assert exc.value.status == 404

    def test_wrong_method_is_405(self, live):
        with pytest.raises(ServiceHTTPError) as exc:
            live.get("/plan")
        assert exc.value.status == 405
        with pytest.raises(ServiceHTTPError) as exc:
            live.post("/metrics", {})
        assert exc.value.status == 405

    def test_unknown_result_and_job_are_404(self, live):
        for path in ("/results/ffffffffffffffff", "/jobs/ffffffffffffffff"):
            with pytest.raises(ServiceHTTPError) as exc:
                live.get(path)
            assert exc.value.status == 404

    def test_invalid_json_body_is_400(self, live):
        req = urllib.request.Request(
            live.url + "/plan", data=b"{not json",
            headers={"Content-Type": "application/json"}, method="POST")
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(req, timeout=10)
        assert exc.value.code == 400
        assert "invalid JSON" in json.loads(exc.value.read())["error"]

    @pytest.mark.parametrize("length", ["abc", "-1"])
    def test_bad_content_length_is_400_and_closes(self, live, length):
        """A non-integer or negative ``Content-Length`` is a 400, and the
        server closes the connection (the body's extent is unknown)
        instead of answering 500 or blocking on ``rfile.read(-1)``."""
        url = urllib.parse.urlsplit(live.url)
        request = (f"POST /plan HTTP/1.1\r\nHost: {url.hostname}\r\n"
                   f"Content-Type: application/json\r\n"
                   f"Content-Length: {length}\r\n\r\n{{}}").encode()
        with socket.create_connection((url.hostname, url.port),
                                      timeout=10) as sock:
            sock.sendall(request)
            raw = b""
            while chunk := sock.recv(65536):
                raw += chunk
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.split()[1] == b"400"
        assert "Content-Length" in json.loads(body)["error"]

    def test_oversized_body_is_413_and_closes(self, live):
        """A declared body above the cap answers 413 and closes at once,
        instead of holding the handler thread in ``rfile.read`` while the
        client trickles (or never sends) a gigabyte."""
        url = urllib.parse.urlsplit(live.url)
        request = (f"POST /sweep HTTP/1.1\r\nHost: {url.hostname}\r\n"
                   f"Content-Type: application/json\r\n"
                   f"Content-Length: {1 << 30}\r\n\r\n{{\"grid\": 1}}").encode()
        with socket.create_connection((url.hostname, url.port),
                                      timeout=5) as sock:
            sock.sendall(request)
            raw = b""
            while chunk := sock.recv(65536):
                raw += chunk
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.split()[1] == b"413"
        assert "exceeds" in json.loads(body)["error"]

    @pytest.mark.parametrize("token", [None, "s3cret"],
                             ids=["body", "auth-drain"])
    def test_stalled_body_is_408_and_closes(self, monkeypatch, token):
        """A body that stops short of its ``Content-Length`` answers 408
        once the socket timeout expires and closes the connection, both
        when read as JSON and when drained before a 401, instead of
        pinning the handler thread forever."""
        monkeypatch.setattr(service_app._Handler, "timeout", 0.5)
        svc = PlanningService(engine=SweepEngine(), token=token)
        with ServiceServer(svc) as server:
            url = urllib.parse.urlsplit(server.url)
            request = (f"POST /plan HTTP/1.1\r\nHost: {url.hostname}\r\n"
                       f"Content-Type: application/json\r\n"
                       f"Content-Length: 10\r\n\r\n{{\"a\":").encode()
            with socket.create_connection((url.hostname, url.port),
                                          timeout=10) as sock:
                sock.sendall(request)
                raw = b""
                while chunk := sock.recv(65536):
                    raw += chunk
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.split()[1] == b"408"
        assert "not received" in json.loads(body)["error"]

    def test_service_errors_carry_json_bodies(self, live):
        with pytest.raises(ServiceHTTPError) as exc:
            live.plan("Nope", "P100")
        assert exc.value.status == 400
        assert "unknown architecture" in exc.value.body["error"]


class TestKeepAlive:
    def test_accepted_sockets_disable_nagle(self, monkeypatch):
        seen = []
        real_setup = service_app._Handler.setup

        def setup(handler):
            real_setup(handler)
            seen.append(handler.connection.getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY))

        monkeypatch.setattr(service_app._Handler, "setup", setup)
        with ServiceServer(PlanningService(engine=SweepEngine())) as server:
            ServiceClient(server.url).get("/")
        assert seen and all(seen)

    def test_keep_alive_requests_do_not_wait_for_delayed_acks(self, live):
        """A reply is a header write plus a body write; with Nagle's
        algorithm on, the body waited for the client's delayed ACK, ~40
        ms per request on one connection (0.7 ms without)."""
        url = urllib.parse.urlsplit(live.url)
        conn = http.client.HTTPConnection(url.hostname, url.port,
                                          timeout=10)
        times = []
        try:
            for _ in range(60):
                started = perf_counter()
                conn.request("GET", "/metrics")
                resp = conn.getresponse()
                resp.read()
                times.append(perf_counter() - started)
                assert resp.status == 200 and not resp.will_close
        finally:
            conn.close()
        assert statistics.median(times) <= 0.020


class TestConnectionBurst:
    def test_burst_of_fresh_connections_is_not_dropped(self, live):
        """8 clients each opening a fresh connection at once overflowed
        the stdlib listen backlog of 5: the kernel dropped SYNs and those
        clients waited ~1 s to resend them."""
        threads, rounds = 8, 5
        grid, fixed = {"depth": [4], "b_micro": [8]}, dict(FIXED)
        live.sweep(grid, fixed=fixed)  # warm: the burst is store hits
        barrier = threading.Barrier(threads, timeout=10)

        def client(_):
            times = []
            for _ in range(rounds):
                barrier.wait()
                started = perf_counter()
                live.sweep(grid, fixed=fixed)
                times.append(perf_counter() - started)
            return times

        with ThreadPoolExecutor(max_workers=threads) as pool:
            times = [t for ts in pool.map(client, range(threads)) for t in ts]
        assert len(times) == threads * rounds
        slow = [round(t, 3) for t in times if t > 0.5]
        assert not slow, f"requests over 0.5 s: {slow}"


class TestMetrics:
    def test_counters_reflect_traffic(self, live):
        before = live.metrics()["requests"].get("sweep", {}).get("count", 0)
        live.sweep({"depth": [4], "b_micro": [8]}, fixed=dict(FIXED))
        live.sweep({"depth": [4], "b_micro": [8]}, fixed=dict(FIXED))
        snap = live.metrics()
        sweep = snap["requests"]["sweep"]
        assert sweep["count"] == before + 2
        assert sweep["p50_ms"] >= 0.0 and sweep["p99_ms"] >= sweep["p50_ms"]
        assert snap["store"]["hits"] >= 1  # the repeat request
        assert 0.0 <= snap["store"]["hit_rate"] <= 1.0
        assert "runs" in snap["engine"]
        assert snap["engine"]["stage_costs_misses"] >= 1
        assert snap["charged_units"] >= 1

    def test_errors_are_counted_per_endpoint(self, live):
        before = live.metrics()["requests"].get("plan", {}).get("errors", 0)
        with pytest.raises(ServiceHTTPError):
            live.plan("Nope", "P100")
        assert live.metrics()["requests"]["plan"]["errors"] == before + 1
