"""``plan_cold`` and ``plan_warm``: closed-loop HTTP load on the service.

Both drive an in-process :class:`~repro.service.ServiceServer` on
loopback (persistent ``--state-dir`` in a temporary directory) with the
same request mix: 9 of 10 requests are ``POST /sweep`` grids of
``pipefisher`` units over hardware x b_micro (the axes of the fig6 and
fig9-10 campaigns), the rest ``POST /plan`` searches.  Each request
opens its own connection, as the repo's urllib client does.  One client
thread: the service is bound by the interpreter lock, so a second
client adds no throughput, and with two the same seed measured 21 and
26 requests/s on unchanged code.

* ``plan_cold`` walks a seeded order of 1,620 distinct grids, so
  sweeps miss the result store and run the engine.  Their structural
  working set (5 schedules x 3 depths x 3 micro-batch factors x 2
  layers per stage = 90 templates) is larger than one engine's
  32-entry template cache, so template builds, evictions, native
  re-timing and run-DB appends all show.
* ``plan_warm`` serves a small seeded working set once before timing,
  then repeats it: every timed sweep is a store hit, so HTTP, JSON and
  store reads dominate.  It differs from ``plan_cold`` only in how
  often requests repeat.
"""

from __future__ import annotations

import http.client
import json
import random
import threading

from repro.campaign.rundb import RunDB
from repro.campaign.spec import canonical_json
from repro.campaign.units import UnitContext, get_unit_kind
from repro.perfmodel.arch import ARCHITECTURES
from repro.perfmodel.hardware import HARDWARE
from repro.pipeline.spec import schedule_names
from repro.service import PlanningService, ServiceServer
from repro.service import planner as planner_mod
from repro.sweep.engine import SweepEngine

from tracing import TimedLock

DEPTHS = (4, 8, 16)
N_MICRO_FACTORS = (1, 2, 4)
LAYERS_PER_STAGE = (1, 2)
#: Disjoint b_micro pairs from the fig6 axis, so no two grids share a
#: unit.  (b_micro 128, beyond that axis, never finishes for OPT-350M
#: interleaved at depth 16, 64 micro-batches, 2 layers per stage.)
B_MICRO_PAIRS = ((1, 2), (4, 8), (16, 32))
#: One request in PLAN_EVERY is a ``POST /plan``.  Plans are slower than
#: warm sweeps; at one in twenty the p95 fell on the boundary between
#: the two kinds and swung by 29% between runs.
PLAN_EVERY = 10
#: Distinct grids ``plan_warm`` repeats: one of each structure, so the
#: templates it keeps (and its memory) do not depend on the seed.
WARM_GRIDS = 90
#: Served cold units re-computed by the python reference after the run.
CHECK_UNITS = 16
#: Plan bodies re-computed on a fresh engine after the run.
CHECK_PLANS = 4
#: Carries "<client span id>:<request id>" in traced runs.
TRACE_HEADER = "X-Perfbench-Span"


def sweep_bodies(rng: random.Random) -> list:
    """Every distinct cold grid, in a seeded, cost-balanced order.

    Template cost differs tenfold between structures, so a plain
    shuffle makes a run's cost, and above all its p95, depend on how
    many of the costliest structures its few hundred requests happen to
    draw.  Instead every block of 90 consecutive grids holds each
    structure once, with a seeded architecture and b_micro pair, and
    within a block the structures are dealt out by cost: ranked by
    ``depth**2 * n_micro_factor`` (their task count grows so) into 9
    strata of 10, and each run of 9 consecutive grids takes one from
    every stratum, in a seeded order.  So any window of requests holds
    the same share of each cost, to within one request per stratum.
    The structures come in the same order in every block, so each
    recurs exactly 90 grids later.
    """
    by_structure = {}
    for schedule in schedule_names():
        for depth in DEPTHS:
            for factor in N_MICRO_FACTORS:
                for lps in LAYERS_PER_STAGE:
                    grids = [
                        {"kind": "pipefisher",
                         "fixed": {"arch": arch, "schedule": schedule,
                                   "depth": depth, "n_micro_factor": factor,
                                   "layers_per_stage": lps},
                         "grid": {"hardware": sorted(HARDWARE),
                                  "b_micro": list(pair)}}
                        for arch in sorted(ARCHITECTURES)
                        for pair in B_MICRO_PAIRS
                    ]
                    rng.shuffle(grids)
                    by_structure[(schedule, depth, factor, lps)] = grids
    keys = list(by_structure)
    rng.shuffle(keys)
    keys.sort(key=lambda k: k[1] ** 2 * k[2])  # stable: ties stay shuffled
    n_strata = len(DEPTHS) * len(N_MICRO_FACTORS)
    size = len(keys) // n_strata
    strata = [keys[i * size:(i + 1) * size] for i in range(n_strata)]
    order = []
    for i in range(size):
        rng.shuffle(strata)
        order += [stratum[i] for stratum in strata]
    bodies = []
    for block in range(len(by_structure[order[0]])):
        bodies += [by_structure[key][block] for key in order]
    return bodies


def plan_body(rng: random.Random) -> dict:
    return {"arch": rng.choice(sorted(ARCHITECTURES)),
            "hardware": rng.choice(sorted(HARDWARE)),
            "layers_per_stage": rng.choice(LAYERS_PER_STAGE)}


def _strip_elapsed(units) -> list:
    return [{k: v for k, v in u.items() if k != "elapsed_s"} for u in units]


class PlanLoad:
    """One planning service plus the seeded request stream against it."""

    def __init__(self, seed: int, work_dir, warm: bool) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.warm = warm
        self.tracer = None
        self.service = None
        self.server = None

    # -- lifecycle -----------------------------------------------------------------

    def setup(self) -> None:
        self.service = PlanningService(state_dir=self.work_dir / "state")
        self.server = ServiceServer(self.service).start()
        self._conn = (self.server.host, self.server.port)
        rng = random.Random(self.seed)
        self._rng = rng
        grids = sweep_bodies(rng)
        self._grids = grids[:WARM_GRIDS] if self.warm else grids
        self._issued = 0
        self._served: list = []      # cold: (params, value) per served unit
        self._first_units: dict = {}  # grid index -> units, elapsed stripped
        self._first_plans: dict = {}  # canonical plan body -> response
        self.mismatches: list = []

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None

    def quiesce(self) -> None:
        """Wait for the request threads still closing their connections.

        ``ThreadingHTTPServer`` starts one per request; threading names
        each after its target.
        """
        for thread in threading.enumerate():
            if thread.name.endswith("(process_request_thread)"):
                thread.join()

    def prime(self) -> None:
        """``plan_warm``: serve the working set once, before any timing."""
        if self.warm:
            for i in range(len(self._grids)):
                self._request("sweep", self._grids[i], grid_index=i)

    # -- load ----------------------------------------------------------------------

    def _next(self) -> tuple:
        n = self._issued
        self._issued += 1
        if n % PLAN_EVERY == PLAN_EVERY - 1:
            return n, "plan", plan_body(self._rng), None
        if self.warm:
            i = self._rng.randrange(len(self._grids))
        else:
            i = (n - n // PLAN_EVERY) % len(self._grids)
        return n, "sweep", self._grids[i], i

    def op(self) -> bool:
        n, endpoint, body, grid_index = self._next()
        if self.tracer is None:
            return self._request(endpoint, body, grid_index)
        with self.tracer.span("client.request", rid=n) as span:
            return self._request(endpoint, body, grid_index,
                                 trace=f"{span.sid}:{n}")

    def _post(self, path: str, body: dict, trace=None) -> tuple:
        headers = {"Content-Type": "application/json",
                   "Connection": "close"}
        if trace is not None:
            headers[TRACE_HEADER] = trace
        conn = http.client.HTTPConnection(*self._conn, timeout=120)
        try:
            conn.request("POST", path, json.dumps(body), headers)
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read())
        finally:
            conn.close()

    def _request(self, endpoint: str, body: dict, grid_index=None,
                 trace=None) -> bool:
        status, payload = self._post("/" + endpoint, body, trace)
        if status != 200:
            self.mismatches.append(f"{endpoint} -> HTTP {status}: {payload}")
            return False
        if endpoint == "plan":
            return self._check_plan(body, payload)
        units = payload.get("units")
        if payload.get("mode") != "inline" or len(units) != 6:
            self.mismatches.append(f"sweep answered {payload.get('mode')} "
                                   f"with {len(units or ())} units")
            return False
        if not self.warm:
            self._served.extend((u["params"], u["value"]) for u in units)
            return True
        stripped = _strip_elapsed(units)
        first = self._first_units.setdefault(grid_index, stripped)
        if first is not stripped and first != stripped:
            self.mismatches.append(f"warm grid {grid_index} differs from "
                                   f"its first answer")
            return False
        return True

    def _check_plan(self, body: dict, payload: dict) -> bool:
        key = canonical_json(body)
        first = self._first_plans.setdefault(key, payload)
        if first is not payload and first != payload:
            self.mismatches.append(f"plan {key} changed between requests")
            return False
        return True

    # -- checks --------------------------------------------------------------------

    def check(self) -> tuple:
        """(items checked, failures) of the checks left for after the run.

        Cold: a seeded sample of served ``pipefisher`` values must be
        byte-identical to the python reference (``via_engine: False``).
        Both: sampled plans must equal a fresh engine's plan.
        """
        failures = []
        rng = random.Random(self.seed + 1)
        kind = get_unit_kind("pipefisher")
        ctx = UnitContext(engine=SweepEngine())
        sample = (rng.sample(self._served, min(CHECK_UNITS, len(self._served)))
                  if self._served else [])
        for params, value in sample:
            ref_params = {**params, "via_engine": False}
            ref = kind.serialize(kind.execute(ref_params, ctx), ref_params)
            if canonical_json(ref) != canonical_json(value):
                failures.append(f"unit {canonical_json(params)} differs from "
                                f"the python reference")
        plans = sorted(self._first_plans)
        for key in rng.sample(plans, min(CHECK_PLANS, len(plans))):
            body = json.loads(key)
            ref = planner_mod.plan(engine=SweepEngine(), **body).to_dict()
            served = dict(self._first_plans[key])
            served.pop("cost_units", None)
            if canonical_json(ref) != canonical_json(served):
                failures.append(f"plan {key} differs from a fresh engine")
        if not self.warm and not sample:
            failures.append("no sweep was served")
        return len(sample) + min(CHECK_PLANS, len(plans)), failures

    # -- tracing -------------------------------------------------------------------

    def instrument(self, tracer) -> None:
        """Wrap the service's public calls; see README for the layer map."""
        self.tracer = tracer
        svc = self.service
        tracer.wrap(svc, "sweep", "service.sweep")
        tracer.wrap(svc, "plan", "service.plan")
        for slot in svc.pool.slots:
            tracer.patch(slot, "lock",
                         TimedLock(slot.lock, tracer, "service.pool.wait"))
            tracer.wrap(slot.engine, "run", "sweep.engine.run")
        for method in ("get", "put", "contains", "peek"):
            tracer.wrap(svc.store, method, f"store.{method}")
        tracer.wrap(RunDB, "append", "rundb.append")
        tracer.wrap(planner_mod, "plan", "perfmodel.plan")

        handler = self.server.httpd.RequestHandlerClass
        do_post = handler.do_POST

        def traced_do_post(h):
            parent, _, rid = (h.headers.get(TRACE_HEADER) or ":").partition(":")
            with tracer.span("service.http",
                             parent=int(parent) if parent else None,
                             rid=int(rid) if rid else None):
                do_post(h)

        tracer.patch(handler, "do_POST", traced_do_post)

    def engines(self) -> list:
        return [slot.engine for slot in self.service.pool.slots]

    def store_stats(self) -> dict:
        return self.service.store.stats()
