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
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass, field
from itertools import groupby
from pathlib import Path

from repro.campaign.rundb import DONE, FAILED, RunDB, merge_run_dbs
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
    #: key -> live result object (None for units reused from the run DB).
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

        ``jobs=N`` (persistent mode only) splits the campaign into N
        round-robin shards, runs each in a worker process against its
        own copy of the run DB, merges the worker DBs back, and resumes
        serially to assemble the full result — the merged DB is
        bit-identical to a single-worker run's.
        """
        if jobs is not None and jobs > 1:
            return self._run_jobs(spec, shard=shard, resume=resume,
                                  on_unit=on_unit, jobs=jobs)
        db = RunDB.open(self.run_dir) if self.run_dir is not None else None
        if db is not None:
            db.bind(spec)
        result = CampaignResult(spec=spec)
        # Nothing but the groups touches the engine, so each group's
        # "before" snapshot is the previous group's "after".
        before = before_all = _engine_counters(self.engine)
        t0 = time.perf_counter()

        # Hash every unit up front: hashed between two engine runs, a key
        # costs ~5x its warm time (measured on a 2-vCPU host).  Pending
        # units group on their unhashed structure; a reused unit is a
        # group of its own.
        rows = []
        for unit, index in shard_units(spec.units(), shard):
            key = unit.key
            prior = db.done(key) if db is not None and resume else None
            tag = (False, key) if prior else (True, structure(unit))
            rows.append((unit, index, prior, tag))
        for (pending, _), group in groupby(rows, key=lambda row: row[3]):
            if pending:
                before = self._run_group(spec, shard, list(group), db, result,
                                         on_unit, before)
                continue
            unit, _, prior, _ = next(group)
            result.records[unit.key] = prior
            result.objects[unit.key] = None
            result.reused.append(unit.key)
            if on_unit is not None:
                on_unit(unit, prior, True)

        result.elapsed_s = time.perf_counter() - t0
        result.engine_delta = _counter_delta(
            before_all, _engine_counters(self.engine))
        return result

    def _run_group(self, spec: CampaignSpec, shard: tuple, rows: list, db,
                   result: CampaignResult, on_unit, before: dict) -> dict:
        """Execute and record one structure group (also when it raises);
        the engine counters after it."""
        outcomes, error = [], None
        started = time.perf_counter()
        try:
            for outcome in execute_units([row[0] for row in rows],
                                         UnitContext(engine=self.engine)):
                outcomes.append(outcome)
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
            outcomes.append((None, None, time.perf_counter() - started
                             - sum(o[2] for o in outcomes)))
            raise
        finally:
            after = _engine_counters(self.engine)
            shares = _split_delta(_counter_delta(before, after), len(outcomes))
            records = [
                self._record(spec, unit, index, shard, value, elapsed, share)
                for (unit, index, _, _), (_, value, elapsed), share
                in zip(rows, outcomes, shares)]
            if error is not None:
                records[-1].update(status=FAILED, error=error)
            if db is not None:
                db.append_many(records)
            done = len(records) - (error is not None)
            for (unit, _, _, _), (obj, _, _), record in zip(
                    rows[:done], outcomes, records):
                result.records[unit.key] = record
                result.objects[unit.key] = obj
                result.executed.append(unit.key)
                if on_unit is not None:
                    on_unit(unit, record, False)
        return after

    def _run_jobs(self, spec: CampaignSpec, shard: tuple, resume: bool,
                  on_unit, jobs: int) -> CampaignResult:
        """Fan a persistent campaign out over ``jobs`` worker processes.

        Each worker runs one round-robin shard against a private run-DB
        copy seeded with the parent's completed units (so resume skips
        them); the parent merges the worker DBs back and replays the
        campaign serially from the merged DB to build the result.
        """
        from concurrent.futures import ProcessPoolExecutor

        if self.run_dir is None:
            raise CampaignValidationError(
                "jobs > 1 requires a run_dir (workers share state "
                "through the run DB)")
        if shard != (0, 1):
            raise CampaignValidationError(
                "jobs cannot be combined with an explicit shard")
        t0 = time.perf_counter()
        parent = Path(self.run_dir)
        db = RunDB.open(parent)
        db.bind(spec)
        worker_dirs = []
        for i in range(jobs):
            wd = parent / f"worker-{i + 1}"
            wd.mkdir(parents=True, exist_ok=True)
            for name in ("units.jsonl", "meta.json"):
                src = parent / name
                if src.exists():
                    shutil.copyfile(src, wd / name)
                elif (wd / name).exists():
                    (wd / name).unlink()
            worker_dirs.append(wd)
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [
                pool.submit(_shard_worker, spec, (i, jobs), str(wd), resume)
                for i, wd in enumerate(worker_dirs)
            ]
            outcomes = [f.result() for f in futures]
        merge_run_dbs([str(wd) for wd in worker_dirs], str(parent))

        executed = [key for keys, _ in outcomes for key in keys]
        executed_set = set(executed)

        def replayed(unit, record, reused):
            on_unit(unit, record, record["key"] not in executed_set)

        # Serial resume over the merged DB: every unit is now done, so
        # this pass only assembles records (and fires on_unit, flagging
        # the units the workers ran as executed) in canonical order
        # without re-executing anything.
        result = self.run(spec, resume=True,
                          on_unit=replayed if on_unit is not None else None)
        result.executed = executed
        result.reused = [k for k in result.reused if k not in executed_set]
        delta = dict(result.engine_delta)
        for _, worker_delta in outcomes:
            for k, v in worker_delta.items():
                delta[k] = delta.get(k, 0) + v
        result.engine_delta = delta
        result.elapsed_s = time.perf_counter() - t0
        return result

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


def _shard_worker(spec: CampaignSpec, shard: tuple, run_dir: str,
                  resume: bool) -> tuple:
    """Run one shard of ``spec`` in a worker process.

    Module-level so the pool pickles it by reference.  Returns the
    executed unit keys plus the engine-counter delta this shard caused,
    for the parent to fold into the merged result.

    A fresh subprocess only has the generic unit kinds registered at
    import time; specs carrying experiment kinds (``stochastic``,
    ``fig8_lr``, ...) need the full registry, so load it here exactly
    like the parent process does.
    """
    from repro.campaign.registry import load_builtin_campaigns
    from repro.sweep.engine import SweepEngine

    load_builtin_campaigns()
    runner = CampaignRunner(engine=SweepEngine(), run_dir=run_dir)
    result = runner.run(spec, shard=shard, resume=resume)
    return result.executed, result.engine_delta
