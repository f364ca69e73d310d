"""Engine-pool concurrency, bearer-token auth, and worker-shard kinds.

Four service behaviors this file pins down:

* A pooled service (``engine_pool > 1``) answers byte-identically to
  the single-engine serial pass — slot routing is a lock-contention
  detail, never a results detail — and concurrent cold misses from
  many client threads still agree.
* Structure routing: grids of one schedule template that differ only
  in the params their kind declares timing-only (``arch``,
  ``hardware``, ``b_micro``; seeds and model for ``stochastic``) land
  on one slot, so the pool compiles each template once.
* Bearer-token auth: every endpoint 401s without the exact token,
  the reject counter ticks, and :class:`ServiceClient` sends the
  header when constructed with ``token=``.
* Worker-shard subprocesses can execute *registered* (non-generic)
  unit kinds: ``worker_jobs=2`` over a ``stochastic`` grid must
  produce the same records as an in-process campaign run.  Fresh
  subprocesses only inherit the generic kinds unless the shard worker
  re-imports the experiment modules — the regression this guards.
"""

import threading
from contextlib import ExitStack

import pytest

from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import canonical_json
from repro.service import (
    PlanningService,
    ServiceClient,
    ServiceHTTPError,
    ServiceServer,
)
from repro.service import app
from repro.service.app import DEFAULT_ENGINE_POOL, EnginePool
from repro.service.jobs import MAX_UNITS, spec_from_request, sweep_request
from repro.stochastic.model import StochasticModel
from repro.sweep import SweepEngine

FIXED = {"arch": "BERT-Large", "hardware": "P100", "schedule": "chimera"}


def _sweep_body(grid, **over):
    body = {"kind": "perf_report", "fixed": dict(FIXED), "grid": grid}
    body.update(over)
    return body


def _stochastic_body(**over):
    """A ``stochastic``-kind grid: a registered, non-generic unit kind."""
    model = StochasticModel(jitter_sigma=0.02, preemption_rate=0.5,
                            restart_delay_frac=0.05,
                            checkpoint_interval_frac=0.1)
    body = {
        "kind": "stochastic",
        "fixed": {"arch": "BERT-Base", "hardware": "P100",
                  "schedule": "1f1b", "b_micro": 32, "depth": 4,
                  "n_micro": 8, "layers_per_stage": 3,
                  **model.as_params()},
        "grid": {"seed": [0, 1, 2, 3]},
    }
    body.update(over)
    return body


#: One pipefisher template structure; grids add the timing-only params.
PF_STRUCTURE = {"schedule": "1f1b", "depth": 4, "n_micro": 8,
                "layers_per_stage": 1}


def _pf_body(arch, hardware, b_micros):
    return {"kind": "pipefisher",
            "fixed": {**PF_STRUCTURE, "arch": arch, "hardware": hardware},
            "grid": {"b_micro": list(b_micros)}}


def _units(body):
    return spec_from_request(sweep_request(
        {k: v for k, v in body.items() if k != "inline"})).units()


def _pick(pool, key):
    """The slot ``key`` routes to (assigning one if the key is new)."""
    with pool.route(key) as slot:
        return slot


def _slot(svc, body):
    return _pick(svc.pool, svc._units_key(_units(body)))


def _templates(slot):
    return slot.engine.stats()["templates"]


def _values(out):
    return {u["key"]: canonical_json(u["value"]) for u in out["units"]}


def _campaign_values(body):
    spec = spec_from_request(sweep_request(
        {k: v for k, v in body.items() if k != "inline"}))
    result = CampaignRunner(engine=SweepEngine()).run(spec)
    return {k: canonical_json(rec["value"])
            for k, rec in result.records.items()}


class TestEnginePool:
    def test_default_service_gets_a_pool(self):
        svc = PlanningService()
        assert len(svc.pool) > 1
        assert svc.metrics_snapshot()["engine_pool"] == len(svc.pool)

    def test_explicit_engine_means_single_slot(self):
        # The pre-pool constructor contract: tests and benchmarks that
        # hand in one engine observe exactly that engine's counters.
        engine = SweepEngine()
        svc = PlanningService(engine=engine)
        assert len(svc.pool) == 1
        assert svc.pool.slots[0].engine is engine
        assert svc.engine is engine

    def test_pooled_sweep_is_byte_identical_to_serial(self):
        body = _sweep_body({"depth": [4, 8], "b_micro": [8, 16]})
        pooled = PlanningService(engine_pool=4).sweep(dict(body))
        assert pooled["mode"] == "inline" and pooled["executed"] == 4
        assert _values(pooled) == _campaign_values(body)

    def test_concurrent_cold_misses_agree_with_serial(self):
        # Distinct single-unit grids land on different slots and
        # evaluate concurrently; every response must still match the
        # one-engine serial pass bit for bit.
        bodies = [_sweep_body({"depth": [d], "b_micro": [b]})
                  for d in (4, 8) for b in (8, 16)]
        svc = PlanningService(engine_pool=4)
        outs = [None] * len(bodies)

        def hit(i):
            outs[i] = svc.sweep(dict(bodies[i]))

        threads = [threading.Thread(target=hit, args=(i,))
                   for i in range(len(bodies))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for body, out in zip(bodies, outs):
            assert _values(out) == _campaign_values(body)

    def test_pool_counters_aggregate_across_slots(self):
        svc = PlanningService(engine_pool=3)
        svc.sweep(_sweep_body({"depth": [4, 8], "b_micro": [8, 16]}))
        from repro.campaign.runner import _engine_counters

        merged = svc.pool.counters()
        per_slot = [_engine_counters(s.engine) for s in svc.pool.slots]
        for key, total in merged.items():
            assert total == pytest.approx(sum(s[key] for s in per_slot))
        assert any(v > 0 for v in merged.values()), merged

    def test_slot_routing_is_deterministic(self):
        pool = EnginePool([SweepEngine() for _ in range(4)])
        picks = {_pick(pool, "plan:xyz") for _ in range(8)}
        assert len(picks) == 1

    def test_new_keys_avoid_busy_slots(self):
        pool = EnginePool([SweepEngine() for _ in range(2)])
        with pool.route("heavy") as busy:
            assert busy.pending == 1
            light = _pick(pool, "light")
            assert light is not busy
            with pool.route("heavy") as again:  # a key keeps its slot
                assert again is busy and busy.pending == 2
        assert busy.pending == 0
        # Idle slots take new keys by count, so keys spread evenly.
        picks = [_pick(pool, f"k{i}") for i in range(6)]
        assert busy.keys == light.keys == 4
        assert picks.count(busy) == picks.count(light) == 3

    def test_forgotten_routes_are_reassigned(self, monkeypatch):
        monkeypatch.setattr(app, "MAX_ROUTES", 4)
        pool = EnginePool([SweepEngine() for _ in range(3)])
        for i in range(10):
            _pick(pool, f"k{i}")
        assert sum(s.keys for s in pool.slots) == 4
        first = _pick(pool, "k9")
        assert _pick(pool, "k9") is first

    def test_routes_remember_fixed_size_keys(self):
        # A full-size batch of a kind without timing params keys by one
        # unit hash per unit: tens of KiB the pool must not keep.
        units = _units(_sweep_body({"depth": list(range(1, 65)),
                                    "b_micro": list(range(1, 65))}))
        assert len(units) == MAX_UNITS
        key = PlanningService._units_key(units)
        assert len(key) > 50_000
        pool = EnginePool([SweepEngine() for _ in range(2)])
        _pick(pool, "small")
        _pick(pool, key)
        assert [len(k) for k in pool._routes] == [16, 16]
        assert _pick(pool, key) is _pick(pool, key)


class TestStructureRouting:
    def test_one_structure_builds_one_template(self):
        svc = PlanningService(engine_pool=4)
        first = _pf_body("BERT-Base", "P100", [8, 16])
        second = _pf_body("BERT-Large", "V100", [32])
        slot = _slot(svc, first)
        assert _slot(svc, second) is slot
        svc.sweep(dict(first))
        before = _templates(slot)
        assert before.misses == 1
        out = svc.sweep(dict(second))
        assert out["executed"] == 1
        after = _templates(slot)
        assert after.misses == before.misses
        assert after.hits > before.hits
        others = [s for s in svc.pool.slots if s is not slot]
        assert all(_templates(s).lookups == 0 for s in others)

    def test_stochastic_seeds_share_their_structures_slot(self):
        svc = PlanningService(engine_pool=4)
        first = _stochastic_body()
        other_seeds = _stochastic_body(grid={"seed": [7, 8]})
        other_model = _stochastic_body()
        other_model["fixed"].update(hardware="V100", jitter_sigma=0.05)
        slot = _slot(svc, first)
        assert _slot(svc, other_seeds) is slot
        assert _slot(svc, other_model) is slot
        svc.sweep(dict(first))
        misses = _templates(slot).misses
        svc.sweep(dict(other_seeds))
        assert _templates(slot).misses == misses

    def test_identical_requests_share_a_key(self):
        body = _pf_body("BERT-Base", "P100", [8, 16])
        key = PlanningService._units_key(_units(body))
        assert PlanningService._units_key(_units(dict(body))) == key
        pool = EnginePool([SweepEngine() for _ in range(4)])
        assert _pick(pool, key) is _pick(
            pool, PlanningService._units_key(_units(body)))

    def test_structure_changes_change_the_key(self):
        body = _pf_body("BERT-Base", "P100", [8])
        deeper = _pf_body("BERT-Base", "P100", [8])
        deeper["fixed"]["depth"] = 8
        assert (PlanningService._units_key(_units(body))
                != PlanningService._units_key(_units(deeper)))

    def test_kinds_without_timing_params_key_by_unit_hash(self):
        units = _units(_sweep_body({"depth": [4, 8], "b_micro": [8, 16]}))
        assert PlanningService._units_key(units) == \
            "|".join(u.key for u in units)

    def test_pooled_answers_match_a_single_engine(self):
        bodies = [_pf_body("BERT-Base", "P100", [8, 16]),
                  _pf_body("BERT-Large", "V100", [32]),
                  _stochastic_body(),
                  _stochastic_body(grid={"seed": [7, 8]})]
        deeper = _pf_body("BERT-Base", "RTX3090", [8])
        deeper["fixed"]["depth"] = 8
        bodies.append(deeper)
        pooled = PlanningService(engine_pool=4)
        single = PlanningService(engine=SweepEngine())
        for body in bodies:
            assert _values(pooled.sweep(dict(body))) == \
                _values(single.sweep(dict(body)))

    @pytest.mark.parametrize("busy", range(DEFAULT_ENGINE_POOL))
    def test_default_pool_holds_a_90_structure_working_set(self, busy):
        # 5 schedules x 3 depths x 3 micro-batch factors x 2 layers per
        # stage, as in the fig6-axis planning benchmark, routed while
        # ``busy`` slots stay held by requests in flight: no slot may
        # get more structures than one engine's template cache holds,
        # or cold sweeps would evict templates they come back to.
        pool = EnginePool([SweepEngine()
                           for _ in range(DEFAULT_ENGINE_POOL)])
        per_slot = {id(s): 0 for s in pool.slots}
        with ExitStack() as held:
            for i in range(busy):
                held.enter_context(pool.route(f"in-flight {i}"))
            assert sum(s.pending > 0 for s in pool.slots) == busy
            for schedule in ("1f1b", "chimera", "gpipe", "interleaved",
                             "zb1f1b"):
                for depth in (4, 8, 16):
                    for factor in (1, 2, 4):
                        for lps in (1, 2):
                            units = _units({
                                "kind": "pipefisher",
                                "fixed": {"arch": "BERT-Base",
                                          "schedule": schedule,
                                          "depth": depth,
                                          "n_micro_factor": factor,
                                          "layers_per_stage": lps},
                                "grid": {"hardware": ["P100", "V100"],
                                         "b_micro": [1, 2]}})
                            slot = _pick(
                                pool, PlanningService._units_key(units))
                            per_slot[id(slot)] += 1
        assert sum(per_slot.values()) == 90
        capacity = SweepEngine().stats()["templates"].maxsize
        assert max(per_slot.values()) <= capacity, per_slot


class TestWorkerShardKinds:
    def test_worker_jobs_run_registered_kinds(self, tmp_path):
        """The satellite regression: ``worker_jobs=2`` + a non-generic
        kind.  Shard subprocesses start from a blank registry; without
        the shard worker loading the builtin campaigns the job dies
        with an unknown-kind error instead of producing records."""
        body = _stochastic_body(inline=False)
        svc = PlanningService(state_dir=tmp_path / "state",
                              engine=SweepEngine(), worker_jobs=2)
        out = svc.sweep(dict(body))
        assert out["mode"] == "job"
        svc.jobs.wait(out["job"])
        job = svc.job_status(out["job"])
        assert job["status"] == "done", job.get("error")
        assert job["done_units"] == job["units"] == 4
        served = {key: canonical_json(svc.store.get(key)["value"])
                  for key in job["unit_keys"]}
        assert served == _campaign_values(body)

    def test_inline_stochastic_sweep_still_works(self):
        # The in-process path never lost kind registrations; pin it so
        # the shard fix is comparable against a passing baseline.
        out = PlanningService(engine=SweepEngine()).sweep(
            _stochastic_body())
        assert out["mode"] == "inline" and out["executed"] == 4


class TestBearerAuth:
    @pytest.fixture(scope="class")
    def live(self):
        svc = PlanningService(engine=SweepEngine(), token="s3cret")
        with ServiceServer(svc) as server:
            yield svc, server

    def test_missing_token_is_401(self, live):
        svc, server = live
        with pytest.raises(ServiceHTTPError) as err:
            ServiceClient(server.url).metrics()
        assert err.value.status == 401
        assert "Bearer" in err.value.body["error"]

    def test_wrong_token_is_401_even_on_post(self, live):
        svc, server = live
        client = ServiceClient(server.url, token="wrong")
        with pytest.raises(ServiceHTTPError) as err:
            client.post("/sweep", _sweep_body({"depth": [4], "b_micro": [8]}))
        assert err.value.status == 401

    def test_correct_token_serves_and_rejects_are_counted(self, live):
        svc, server = live
        client = ServiceClient(server.url, token="s3cret")
        out = client.post("/sweep", _sweep_body({"depth": [4], "b_micro": [8]}))
        assert out["mode"] == "inline" and len(out["units"]) == 1
        snap = client.metrics()
        # Both 401s above were counted; authorized traffic was not.
        assert snap["auth_rejects"] == 2
        assert svc.metrics.auth_rejects == 2

    def test_tokenless_service_accepts_anonymous_requests(self):
        svc = PlanningService(engine=SweepEngine())
        with ServiceServer(svc) as server:
            assert "requests" in ServiceClient(server.url).metrics()
        assert svc.metrics.auth_rejects == 0
