"""The campaign runner: expand a spec, execute units, persist, resume.

:class:`CampaignRunner` turns a :class:`~repro.campaign.spec.CampaignSpec`
into executed units through the shared sweep engine:

* **ephemeral mode** (``run_dir=None``) — every unit executes in-process
  and the live result objects are kept; this is the path the thin
  ``run_fig*`` experiment wrappers use, so their outputs are
  bit-identical to the pre-campaign imperative loops (same calls, same
  order, same engine);
* **persistent mode** (``run_dir=...``) — each completed unit is
  recorded in the append-only run DB with its serialized value and its
  share of its group's elapsed time and engine-counter deltas.  A
  resumed run skips every recorded-done unit without re-executing it,
  and ``shard=(i, n)`` restricts execution to every n-th unit so
  workers can split one campaign across processes and merge their DBs.

Each run of consecutive pending units that share a
:func:`~repro.campaign.units.structure` (the ``b_micro`` axis of a
``pipefisher`` grid, a ``stochastic`` one's seeds) is one
:func:`~repro.campaign.units.execute_units` group with one
``append_many``: a killed run loses at most that group, and a failing
group leaves its finished units ``done``, the failing one ``failed``.
Every group runs through :func:`execute_group`: in-process on the
runner's engine, or with ``jobs=N`` in N worker processes whose results
the parent alone records.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import groupby

from repro.campaign.rundb import DONE, FAILED, RunDB
from repro.campaign.spec import CampaignSpec, CampaignValidationError, UnitSpec
from repro.campaign.units import UnitContext, execute_units, structure

#: Scalar sweep-engine counters surfaced per unit record.
_ENGINE_COUNTERS = ("runs", "timing_hits", "reexecutions", "native_evals",
                    "native_passes", "mc_batched_replicates",
                    "mc_faulty_batched")
#: BoundedCache counters surfaced per unit record, per cache.
_CACHE_COUNTERS = ("hits", "misses", "evictions")
_CACHES = ("templates", "stage_costs")


def _engine_counters(engine) -> dict:
    """A flat snapshot of the engine's evaluation + cache counters.

    Includes the per-phase wall-clock attribution as ``phase_<name>_s``
    keys, so each unit record (and ``campaign status``) can say where a
    campaign's time went.
    """
    stats = engine.stats()
    flat = {name: stats.get(name, 0) for name in _ENGINE_COUNTERS}
    for cache in _CACHES:
        cs = stats[cache]
        for c in _CACHE_COUNTERS:
            flat[f"{cache}_{c}"] = getattr(cs, c)
    for phase, seconds in stats.get("phase_s", {}).items():
        flat[f"phase_{phase}_s"] = seconds
    return flat


def _counter_delta(before: dict, after: dict) -> dict:
    return {k: after[k] - before[k] for k in after}


def _split_delta(delta: dict, n: int) -> list:
    """``delta`` in ``n`` even shares; integer counters sum back exactly."""
    return [{k: v // n + (i < v % n) if isinstance(v, int) else v / n
             for k, v in delta.items()} for i in range(n)]


def parse_shard(text: str) -> tuple:
    """Parse a 1-based ``i/n`` shard selector into 0-based ``(i, n)``."""
    try:
        i_str, n_str = text.split("/")
        i, n = int(i_str), int(n_str)
    except ValueError:
        raise CampaignValidationError(
            f"shard must look like '1/3', got {text!r}") from None
    if n < 1 or not 1 <= i <= n:
        raise CampaignValidationError(
            f"shard index out of range: {text!r} (need 1 <= i <= n)")
    return i - 1, n


def shard_units(units, shard: tuple) -> list:
    """The (unit, index) pairs assigned to 0-based shard ``(i, n)``.

    Assignment is round-robin on the canonical unit order, so the n
    shard sets are disjoint and their union is the full campaign —
    independent of which worker runs which shard.
    """
    i, n = shard
    return [(u, j) for j, u in enumerate(units) if j % n == i]


@dataclass
class CampaignResult:
    """What one ``CampaignRunner.run`` produced."""

    spec: CampaignSpec
    #: key -> full record dict (executed this run or reused from the DB).
    records: dict = field(default_factory=dict)
    #: key -> live result object (None for units reused from the run DB
    #: or executed in a ``jobs > 1`` worker).
    objects: dict = field(default_factory=dict)
    executed: list = field(default_factory=list)  #: keys run this time
    reused: list = field(default_factory=list)    #: keys served from the DB
    elapsed_s: float = 0.0
    engine_delta: dict = field(default_factory=dict)

    def values(self) -> dict:
        """``{key: serialized value}`` for every completed unit."""
        return {k: r["value"] for k, r in self.records.items()
                if r.get("status") == DONE}

    def object_list(self) -> list:
        """Live objects in canonical unit order (ephemeral runs only)."""
        return [self.objects[u.key] for u in self.spec.units()]

    @property
    def resume_hit_rate(self) -> float:
        total = len(self.executed) + len(self.reused)
        return len(self.reused) / total if total else 0.0

    def summary(self) -> dict:
        return {
            "campaign": self.spec.name,
            "units": len(self.records),
            "executed": len(self.executed),
            "reused": len(self.reused),
            "resume_hit_rate": self.resume_hit_rate,
            "elapsed_s": self.elapsed_s,
            "units_per_s": (len(self.executed) / self.elapsed_s
                            if self.elapsed_s > 0 else 0.0),
            "engine": dict(self.engine_delta),
        }


class CampaignRunner:
    """Execute campaign specs through one shared sweep engine."""

    def __init__(self, engine=None, run_dir=None) -> None:
        if engine is None:
            from repro.sweep.engine import default_engine

            engine = default_engine()
        self.engine = engine
        self.run_dir = run_dir

    def run(
        self,
        spec: CampaignSpec,
        shard: tuple = (0, 1),
        resume: bool = True,
        on_unit=None,
        jobs: int | None = None,
    ) -> CampaignResult:
        """Run (or resume) ``spec``, returning the completed state.

        ``on_unit(unit, record, reused)`` is called once per unit in
        canonical order, after its group completes (``reused=False``)
        or as it is reused from the run DB (``reused=True``); the CLI
        uses it for progress lines.  An exception raised by a unit
        executor is recorded as ``failed`` in the run DB (so an
        interrupted campaign shows where it stopped) and re-raised.

        ``jobs=N`` (persistent mode only) executes the pending groups
        in N worker processes, each with its own engine; the parent
        records their results in canonical order as the serial loop
        does, so the run DB holds what a single-worker run's holds.
        Worker-run units keep no live object.
        """
        jobs = max(jobs or 1, 1)
        if jobs > 1 and self.run_dir is None:
            raise CampaignValidationError(
                "jobs > 1 requires a run_dir (the parent records the "
                "workers' units in the run DB)")
        if jobs > 1 and shard != (0, 1):
            raise CampaignValidationError(
                "jobs cannot be combined with an explicit shard")
        db = RunDB.open(self.run_dir) if self.run_dir is not None else None
        if db is not None:
            db.bind(spec)
        result = CampaignResult(spec=spec)
        result.engine_delta = dict.fromkeys(_engine_counters(self.engine), 0)
        t0 = time.perf_counter()

        # Hash every unit up front: hashed between two engine runs, a key
        # costs ~5x its warm time (measured on a 2-vCPU host).  Pending
        # units group on their unhashed structure, split into chunks of
        # at most ceil(pending / jobs) units; a reused unit is a group of
        # its own.
        rows = []
        for unit, index in shard_units(spec.units(), shard):
            key = unit.key
            prior = db.done(key) if db is not None and resume else None
            tag = (False, key) if prior else (True, structure(unit))
            rows.append((unit, index, prior, tag))
        n_pending = sum(1 for row in rows if row[3][0])
        size = max(1, -(-n_pending // jobs))
        groups = []
        for (pending, _), group in groupby(rows, key=lambda row: row[3]):
            group = list(group)
            groups += [(pending, group[i:i + size])
                       for i in range(0, len(group), size)]
        chunks = [[row[0] for row in group]
                  for pending, group in groups if pending]

        pool = None
        if jobs > 1 and chunks:
            from concurrent.futures import ProcessPoolExecutor

            pool = ProcessPoolExecutor(max_workers=min(jobs, len(chunks)),
                                       initializer=_init_worker)
            executed = pool.map(_execute_in_worker, chunks)
        else:
            executed = (execute_group(units, self.engine) for units in chunks)
        try:
            for pending, group in groups:
                if pending:
                    self._record_group(spec, shard, group, *next(executed),
                                       db, result, on_unit)
                    continue
                unit, _, prior, _ = group[0]
                result.records[unit.key] = prior
                result.objects[unit.key] = None
                result.reused.append(unit.key)
                if on_unit is not None:
                    on_unit(unit, prior, True)
        finally:
            if pool is not None:
                pool.shutdown(cancel_futures=True)

        result.elapsed_s = time.perf_counter() - t0
        return result

    def _record_group(self, spec: CampaignSpec, shard: tuple, rows: list,
                      outcomes: list, delta: dict, error, db,
                      result: CampaignResult, on_unit) -> None:
        """Record one executed structure group with one ``append_many``;
        re-raise ``error`` once its failed unit is recorded."""
        shares = _split_delta(delta, len(outcomes))
        records = [
            self._record(spec, unit, index, shard, value, elapsed, share)
            for (unit, index, _, _), (_, value, elapsed), share
            in zip(rows, outcomes, shares)]
        if error is not None:
            records[-1].update(status=FAILED,
                               error=f"{type(error).__name__}: {error}")
        if db is not None:
            db.append_many(records)
        for k, v in delta.items():
            result.engine_delta[k] += v
        done = len(records) - (error is not None)
        for (unit, _, _, _), (obj, _, _), record in zip(
                rows[:done], outcomes, records):
            result.records[unit.key] = record
            result.objects[unit.key] = obj
            result.executed.append(unit.key)
            if on_unit is not None:
                on_unit(unit, record, False)
        if error is not None:
            raise error

    @staticmethod
    def _record(spec: CampaignSpec, unit: UnitSpec, index: int, shard: tuple,
                value, elapsed: float, engine: dict) -> dict:
        return {
            "key": unit.key,
            "campaign": spec.name,
            "kind": unit.kind,
            "params": unit.params_dict(),
            "index": index,
            "shard": [shard[0] + 1, shard[1]],
            "status": DONE,
            "value": value,
            "elapsed_s": elapsed,
            "engine": engine,
        }


def execute_group(units: list, engine) -> tuple:
    """Run ``units`` through :func:`execute_units` with ``engine``.

    Returns ``(outcomes, engine-counter delta, exception or None)``.
    When a unit raises, the outcomes end with its ``(None, None,
    elapsed_s)`` after every unit finished before it.
    """
    outcomes, error = [], None
    before = _engine_counters(engine)
    started = time.perf_counter()
    try:
        for outcome in execute_units(units, UnitContext(engine=engine)):
            outcomes.append(outcome)
    except Exception as exc:
        error = exc
        outcomes.append((None, None, time.perf_counter() - started
                         - sum(o[2] for o in outcomes)))
    return outcomes, _counter_delta(before, _engine_counters(engine)), error


#: The sweep engine of a ``jobs > 1`` worker process.
_WORKER_ENGINE = None


def _init_worker() -> None:
    """Give a worker process the full unit-kind registry and an engine.

    A fresh subprocess only has the generic unit kinds registered at
    import time; specs carrying experiment kinds (``stochastic``,
    ``fig8_lr``, ...) need the full registry.
    """
    global _WORKER_ENGINE
    from repro.campaign.registry import load_builtin_campaigns
    from repro.sweep.engine import SweepEngine

    load_builtin_campaigns()
    _WORKER_ENGINE = SweepEngine()


def _execute_in_worker(units: list) -> tuple:
    """:func:`execute_group` on the worker's engine, minus the live
    objects (the parent keeps none for units a worker ran)."""
    from concurrent.futures.process import _ExceptionWithTraceback

    outcomes, delta, error = execute_group(units, _WORKER_ENGINE)
    if error is not None:
        # Unpickles with the worker's traceback as its __cause__, as the
        # exception of a failed pool task does.
        error = _ExceptionWithTraceback(error, error.__traceback__)
    return [(None, value, elapsed) for _, value, elapsed in outcomes], \
        delta, error
