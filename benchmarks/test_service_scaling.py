"""Planning-service throughput, latency percentiles, and warm hit rate.

Drives a live :class:`ServiceServer` (ThreadingHTTPServer on a loopback
port, in-process) through a cold pass of distinct ``/sweep`` grids and a
warm pass repeating them byte-for-byte.  The cold pass pays unit
execution; the warm pass must be answered entirely from the
canonical-hash result store — its hit rate is asserted **1.0** and its
unit cost 0.  A concurrent phase fans the warm grid set across client
threads to measure request throughput under parallel load, and the
served values are asserted bit-identical to a :class:`CampaignRunner`
pass over the same grids on a fresh engine.

A separate cold-concurrency phase measures what the engine pool buys:
the seed service held ONE lock across every unit execution, so any
in-flight cold evaluation head-of-line blocked every other request.
A mixed batch (a few heavy cold ``stochastic`` grids + many light cold
``perf_report`` grids) is fanned across client threads against a
single-lock service and against a pooled one; the light requests'
mean completion latency, as a median over paired reps, must improve
**>= 2x**, and the two services'
responses must be byte-identical — slot routing is a scheduling
detail, never a results detail.

``BENCH_service.json`` records throughput (requests/s, cold and
concurrent-warm), client-side p50/p99 latency per phase, the
cold-vs-warm store hit rates, and the cold-concurrency speedup — the
service perf trajectory the next PR compares against.
"""

import statistics
import time
from concurrent.futures import ThreadPoolExecutor

from repro.stochastic.model import StochasticModel

from benchmarks.conftest import record, write_bench
from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import canonical_json
from repro.service import PlanningService, ServiceClient, ServiceServer
from repro.service.jobs import spec_from_request, sweep_request
from repro.service.metrics import percentile
from repro.sweep import SweepEngine

SCHEDULES = ("gpipe", "1f1b", "chimera", "zb1f1b")
DEPTHS = (4, 8, 16)
B_MICROS = (8, 32)
CLIENT_THREADS = 8
WARM_ROUNDS = 3
CONCURRENT_REPS = 3

#: Cold-concurrency phase: pool size, floor, and the heavy grids' MC
#: model (preemption-heavy, so every replicate pays restart replay).
POOL_SLOTS = 8
MIN_COLD_CONCURRENCY = 2.0
HEAVY_SEEDS = 64
HEAVY_MODEL = StochasticModel(jitter_sigma=0.02, preemption_rate=1.0,
                              restart_delay_frac=0.05,
                              checkpoint_interval_frac=0.1)


def _bodies():
    """One small sweep body per (schedule, depth) — distinct grids."""
    return [
        {"kind": "perf_report",
         "fixed": {"arch": "BERT-Large", "hardware": "P100",
                   "schedule": schedule, "depth": depth},
         "grid": {"b_micro": list(B_MICROS)}}
        for schedule in SCHEDULES
        for depth in DEPTHS
    ]


def _timed_pass(client, bodies):
    latencies, responses = [], []
    t0 = time.perf_counter()
    for body in bodies:
        s0 = time.perf_counter()
        responses.append(client.post("/sweep", body))
        latencies.append(time.perf_counter() - s0)
    return time.perf_counter() - t0, sorted(latencies), responses


def _p(ms_sorted, q):
    return round(percentile(ms_sorted, q) * 1000.0, 3)


def _mixed_cold_bodies():
    """A few heavy cold grids plus many light ones, all store misses."""
    heavy = [
        {"kind": "stochastic",
         "fixed": {"arch": "BERT-Base", "hardware": "P100",
                   "schedule": schedule, "b_micro": 32, "depth": 8,
                   "n_micro": 16, "layers_per_stage": 2,
                   **HEAVY_MODEL.as_params()},
         "grid": {"seed": list(range(HEAVY_SEEDS))},
         "inline": True}  # hold the slot lock; that's the point
        for schedule in SCHEDULES
    ]
    light = [
        {"kind": "perf_report",
         "fixed": {"arch": "BERT-Large", "hardware": "P100",
                   "schedule": schedule, "depth": depth},
         "grid": {"b_micro": list(B_MICROS)}}
        for schedule in SCHEDULES
        for depth in (4, 8, 16, 32)
    ]
    return heavy, light


def _mixed_cold_phase(service):
    """Fan heavy+light cold requests across threads; time each class.

    In-process (no HTTP) on purpose: the phase measures what the
    service lock serializes, not socket accept behavior.
    """
    heavy, light = _mixed_cold_bodies()
    requests = [("heavy", b) for b in heavy] + [("light", b) for b in light]
    latencies = {"heavy": [], "light": []}

    def hit(tagged):
        tag, body = tagged
        t0 = time.perf_counter()
        out = service.sweep(dict(body))
        latencies[tag].append(time.perf_counter() - t0)
        return out

    t0 = time.perf_counter()
    with ThreadPoolExecutor(max_workers=CLIENT_THREADS) as pool:
        responses = list(pool.map(hit, requests))
    total_s = time.perf_counter() - t0
    assert all(r["mode"] == "inline" and r["cached"] == 0
               for r in responses)
    return total_s, latencies, responses


def _strip_volatile(responses):
    """Responses minus per-unit wall clock, for byte comparison."""
    out = []
    for r in responses:
        r = dict(r)
        r["units"] = [{k: v for k, v in u.items() if k != "elapsed_s"}
                      for u in r["units"]]
        out.append(r)
    return out


def test_service_scaling(once, benchmark):
    bodies = _bodies()
    service = PlanningService(engine=SweepEngine())

    with ServiceServer(service) as server:
        client = ServiceClient(server.url)

        # -- cold pass: every grid is new; all units execute --------------------
        cold_s, cold_lat, cold_resp = once(_timed_pass, client, bodies)
        assert all(r["mode"] == "inline" for r in cold_resp)
        assert all(r["cached"] == 0 for r in cold_resp)
        units = sum(r["executed"] for r in cold_resp)
        assert units == len(bodies) * len(B_MICROS)
        cold_hit_rate = service.store.stats()["hit_rate"]

        # -- warm pass: identical requests must all be store hits ---------------
        warm_s, warm_lat, warm_resp = _timed_pass(client, bodies)
        assert all(r["executed"] == 0 for r in warm_resp)
        assert all(r["cost_units"] == 0 for r in warm_resp)
        warm_hits = sum(r["cached"] for r in warm_resp)
        warm_hit_rate = warm_hits / units
        assert warm_hit_rate == 1.0, (
            f"warm repeat served {warm_hits}/{units} units from the store; "
            f"every repeated canonical hash must hit")
        # Byte-identical unit payloads (the bookkeeping counters differ).
        assert [r["units"] for r in warm_resp] == \
            [r["units"] for r in cold_resp]

        # -- concurrent warm load: many clients, one engine ---------------------
        # Best-of-REPS: a single TCP accept stall would otherwise swing
        # the recorded throughput by an order of magnitude.
        rounds = bodies * WARM_ROUNDS
        concurrent_s = float("inf")
        for _ in range(CONCURRENT_REPS):
            t0 = time.perf_counter()
            with ThreadPoolExecutor(max_workers=CLIENT_THREADS) as pool:
                results = list(pool.map(
                    lambda b: client.post("/sweep", b), rounds))
            concurrent_s = min(concurrent_s, time.perf_counter() - t0)
            assert all(r["executed"] == 0 for r in results)

        snap = client.metrics()
        assert snap["requests"]["sweep"]["count"] == \
            2 * len(bodies) + CONCURRENT_REPS * len(rounds)

    # -- bit-identity vs a campaign run of the same grids on a fresh engine ----
    reference = {}
    runner = CampaignRunner(engine=SweepEngine())
    for body in bodies:
        result = runner.run(spec_from_request(sweep_request(body)))
        reference.update(
            {k: rec["value"] for k, rec in result.records.items()})
    for response in cold_resp:
        for unit in response["units"]:
            assert canonical_json(unit["value"]) == \
                canonical_json(reference[unit["key"]]), unit["key"]

    # -- cold-miss concurrency: single global lock vs the engine pool ----------
    # Median light mean over REPS fresh service pairs (both passes fully
    # cold each rep): a pooled light mean of ~0.2 ms makes any one rep's
    # ratio noise.  Bit-identical responses asserted on every rep.
    single_means, pooled_means = [], []
    for _ in range(CONCURRENT_REPS):
        _, single_lat, single_resp = _mixed_cold_phase(
            PlanningService(engine=SweepEngine()))
        _, pooled_lat, pooled_resp = _mixed_cold_phase(
            PlanningService(engine_pool=POOL_SLOTS))
        assert canonical_json(_strip_volatile(pooled_resp)) == \
            canonical_json(_strip_volatile(single_resp)), \
            "pooled service answered differently from the single-lock one"
        single_means.append(1000.0 * sum(single_lat["light"])
                            / len(single_lat["light"]))
        pooled_means.append(1000.0 * sum(pooled_lat["light"])
                            / len(pooled_lat["light"]))
    single_light_ms = statistics.median(single_means)
    pooled_light_ms = statistics.median(pooled_means)
    cold_concurrency = single_light_ms / pooled_light_ms
    heavy_n, light_n = (len(b) for b in _mixed_cold_bodies())
    print(f"cold concurrency: {heavy_n} heavy + {light_n} light cold "
          f"grids over {CLIENT_THREADS} threads; light mean latency "
          f"{single_light_ms:.1f} ms (single lock) -> "
          f"{pooled_light_ms:.1f} ms (pool of {POOL_SLOTS}) "
          f"=> {cold_concurrency:.1f}x")
    assert cold_concurrency >= MIN_COLD_CONCURRENCY, (
        f"engine pool improves concurrent cold-miss latency only "
        f"{cold_concurrency:.1f}x over the single lock "
        f"(floor {MIN_COLD_CONCURRENCY:.0f}x)")

    cold_rps = len(bodies) / cold_s
    warm_rps = len(bodies) / warm_s
    concurrent_rps = len(rounds) / concurrent_s
    print(f"\nservice: {len(bodies)} grids / {units} units; "
          f"cold {cold_rps:.0f} req/s (p50 {_p(cold_lat, .5)} ms, "
          f"p99 {_p(cold_lat, .99)} ms), "
          f"warm {warm_rps:.0f} req/s (p50 {_p(warm_lat, .5)} ms, "
          f"p99 {_p(warm_lat, .99)} ms), "
          f"{CLIENT_THREADS}-thread warm {concurrent_rps:.0f} req/s; "
          f"hit rate cold {cold_hit_rate:.2f} -> warm {warm_hit_rate:.2f}")

    record(benchmark, cold_rps=round(cold_rps, 1),
           warm_rps=round(warm_rps, 1),
           concurrent_rps=round(concurrent_rps, 1),
           warm_hit_rate=warm_hit_rate,
           cold_concurrency_speedup=round(cold_concurrency, 1))
    write_bench(
        "service",
        grids=len(bodies),
        units=units,
        cold_requests_per_s=round(cold_rps, 1),
        warm_requests_per_s=round(warm_rps, 1),
        concurrent_requests_per_s=round(concurrent_rps, 1),
        concurrent_client_threads=CLIENT_THREADS,
        cold_p50_ms=_p(cold_lat, 0.50),
        cold_p99_ms=_p(cold_lat, 0.99),
        warm_p50_ms=_p(warm_lat, 0.50),
        warm_p99_ms=_p(warm_lat, 0.99),
        cold_store_hit_rate=round(cold_hit_rate, 3),
        warm_store_hit_rate=warm_hit_rate,
        engine_pool_slots=POOL_SLOTS,
        cold_light_mean_ms_single_lock=round(single_light_ms, 1),
        cold_light_mean_ms_pooled=round(pooled_light_ms, 1),
        cold_concurrency_speedup=round(cold_concurrency, 1),
        min_cold_concurrency_speedup=MIN_COLD_CONCURRENCY,
    )
