"""The unit-kind registry: the execution vocabulary campaigns are written in.

A :class:`UnitKind` pairs an ``execute`` function (params -> live result
object, evaluated through the shared sweep engine) with a ``serialize``
function ((live object, params) -> JSON-safe value recorded in the run
DB), and :func:`execute_units` is the one place units run: the planning
service hands it a request's store misses as one group, and the
campaign runner each run of units that share a :func:`structure`;
it alone decides where a failing group stopped.  A kind may also
register an ``execute_group`` function that executes many units' params
at once; kinds without one are looped.  The two generic kinds every
simulator campaign is built from live here:

* ``pipefisher`` — one :class:`~repro.pipefisher.runner.PipeFisherRun`
  point; a group's points are evaluated through one
  ``engine.run_group`` call (or each through ``run.execute()`` when
  ``via_engine`` is false, preserving the exact pre-campaign execution
  path of the fig. 1/3 panels);
* ``perf_report`` — one §3.3 analytic :class:`PerfReport` cell, the unit
  of the fig. 5/6/9-16 grids.

Experiment-specific kinds (the fig. 7 training run, the fig. 8 LR
schedules, the table 3 architecture check) are registered by their
experiment modules — importing :mod:`repro.experiments` loads the full
vocabulary.

A kind may declare *timing params*: params that only set durations and
never change the compiled schedule template a unit evaluates on.
:func:`structure` drops them, so the planning service can route units
of one structure (by :func:`structure_key`) to the engine that already
holds its template, and a campaign runs them as one group.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from operator import attrgetter
from time import perf_counter
from typing import Any, Callable

from repro.campaign.spec import unit_key


@dataclass(frozen=True)
class UnitKind:
    """One entry of the execution vocabulary."""

    name: str
    execute: Callable[[dict, "UnitContext"], Any]
    serialize: Callable[[Any, dict], Any]
    #: True when ``execute`` reads the ``seed`` param — specs that declare
    #: ``seeds`` over a kind that ignores them would silently run the same
    #: unit N times, so registration audits this (see registry.py).
    seed_aware: bool = False
    #: Params that only set durations (cost model inputs, seeds,
    #: perturbations) and never change the task graph or K-FAC work
    #: inventory.  Routing hint only: results never depend on it.
    timing_params: frozenset = frozenset()
    #: ``(params list, ctx) -> live objects``, one per params, in
    #: order; None loops ``execute``.  Results must equal the loop's.
    execute_group: Callable | None = None


@dataclass
class UnitContext:
    """Shared execution state handed to every unit executor."""

    engine: Any  #: the SweepEngine all units of a campaign run share


_KINDS: dict[str, UnitKind] = {}


def register_unit_kind(name: str,
                       execute: Callable[[dict, UnitContext], Any],
                       serialize: Callable[[Any, dict], Any],
                       replace: bool = False,
                       seed_aware: bool = False,
                       timing_params=(),
                       execute_group=None) -> UnitKind:
    if name in _KINDS and not replace:
        raise ValueError(f"unit kind {name!r} already registered")
    kind = UnitKind(name=name, execute=execute, serialize=serialize,
                    seed_aware=seed_aware,
                    timing_params=frozenset(timing_params),
                    execute_group=execute_group)
    _KINDS[name] = kind
    return kind


def get_unit_kind(name: str) -> UnitKind:
    try:
        return _KINDS[name]
    except KeyError:
        raise KeyError(
            f"unknown unit kind {name!r}; registered: {sorted(_KINDS)}"
        ) from None


def execute_units(units, ctx: UnitContext):
    """Yield ``(live object, serialized value, elapsed_s)`` per unit,
    in order, each run of consecutive units of one kind as a group.

    A kind with ``execute_group`` runs a group in one call, each unit
    taking an even share of its wall time; if the call raises, the
    group re-runs one timed unit at a time, as other kinds always run.
    The first unit to raise then stops it: its exception propagates
    unchanged, after every unit before it was yielded.
    """
    for name, group in groupby(units, key=attrgetter("kind")):
        started = perf_counter()
        kind = get_unit_kind(name)
        params = [u.params_dict() for u in group]
        if kind.execute_group is not None:
            try:
                objs = kind.execute_group(params, ctx)
                values = [kind.serialize(obj, p)
                          for obj, p in zip(objs, params)]
            except Exception:
                pass  # re-run one at a time, to find the failing unit
            else:
                elapsed = (perf_counter() - started) / len(params)
                for obj, value in zip(objs, values):
                    yield obj, value, elapsed
                continue
        for p in params:
            started = perf_counter()
            obj = kind.execute(p, ctx)
            yield obj, kind.serialize(obj, p), perf_counter() - started


def unit_kind_names() -> list[str]:
    return sorted(_KINDS)


def kind_seed_aware(name: str) -> bool | None:
    """Whether a kind reads the seed param (None if not yet registered)."""
    kind = _KINDS.get(name)
    return None if kind is None else kind.seed_aware


def structure(unit) -> tuple:
    """``(kind, params)`` of ``unit`` minus its kind's timing params.

    Units that differ only in timing params share it; for a kind that
    declares none (or is unregistered) it is the unit's own pair.
    Comparing it costs no hashing, so a campaign groups units on it.
    """
    kind = _KINDS.get(unit.kind)
    if kind is None or not kind.timing_params:
        return unit.kind, unit.params
    return unit.kind, tuple(p for p in unit.params
                            if p[0] not in kind.timing_params)


def structure_key(unit) -> str:
    """The canonical hash of :func:`structure`: the unit's own (cached)
    key when no param was dropped."""
    kind, params = structure(unit)
    if len(params) == len(unit.params):
        return unit.key
    return unit_key(kind, dict(params))


# -- pipefisher: one simulated PipeFisherRun point ------------------------------


def pipefisher_run(p: dict):
    """The :class:`~repro.pipefisher.runner.PipeFisherRun` ``p`` names.

    ``p`` holds the ``pipefisher`` point vocabulary and is consumed:
    ``schedule``/``arch``/``hardware`` are looked up, ``n_micro_factor``
    becomes ``n_micro``, and every other key is a run field.  Shared by
    the ``pipefisher`` and ``stochastic`` kinds.
    """
    from repro.perfmodel.arch import ARCHITECTURES
    from repro.perfmodel.hardware import HARDWARE
    from repro.pipefisher.runner import PipeFisherRun

    if "n_micro_factor" in p:
        if "n_micro" in p:
            raise ValueError("give n_micro or n_micro_factor, not both")
        p["n_micro"] = p.pop("n_micro_factor") * p["depth"]
    return PipeFisherRun(
        schedule=p.pop("schedule"),
        arch=ARCHITECTURES[p.pop("arch")],
        hardware=HARDWARE[p.pop("hardware")],
        **p,
    )


def _execute_pipefisher_group(params_list: list, ctx: UnitContext) -> list:
    """Every point's report: the ``via_engine`` ones from one
    ``engine.run_group`` call, the rest from ``run.execute()``.

    All runs are built before any is evaluated, so a point its params
    reject raises before anything runs.
    """
    runs, via_engine = [], []
    for params in params_list:
        p = dict(params)
        via_engine.append(p.pop("via_engine", True))
        p.pop("record_bubble", None)  # serializer-only knob
        runs.append(pipefisher_run(p))
    reports = iter(ctx.engine.run_group(
        [run for run, v in zip(runs, via_engine) if v]))
    return [next(reports) if v else run.execute()
            for run, v in zip(runs, via_engine)]


def _execute_pipefisher(params: dict, ctx: UnitContext):
    return _execute_pipefisher_group([params], ctx)[0]


def _serialize_pipefisher(report, params: dict):
    value = {
        "baseline_step_time": report.baseline_step_time,
        "baseline_utilization": report.baseline_utilization,
        "pipefisher_step_time": report.pipefisher_step_time,
        "pipefisher_utilization": report.pipefisher_utilization,
        "refresh_steps": report.refresh_steps,
        "device_refresh_steps": [
            [int(d), int(s)]
            for d, s in sorted(report.device_refresh_steps.items())
        ],
    }
    if params and params.get("record_bubble"):
        from repro.pipeline.bubbles import bubble_fraction

        value["baseline_bubble_fraction"] = bubble_fraction(
            report.base_template, (0.0, report.baseline_step_time)
        )
    return value


# -- perf_report: one §3.3 analytic grid cell -----------------------------------


def _execute_perf_report(params: dict, ctx: UnitContext):
    from repro.perfmodel.arch import ARCHITECTURES
    from repro.perfmodel.hardware import HARDWARE

    p = dict(params)
    model = ctx.engine.perf_model(
        ARCHITECTURES[p.pop("arch")],
        HARDWARE[p.pop("hardware")],
        p.pop("schedule"),
        layers_per_stage=p.pop("layers_per_stage", 1),
    )
    b_micro = p.pop("b_micro")
    depth = p.pop("depth")
    n_micro = p.pop("n_micro_factor", 1) * depth
    return model.report(b_micro, depth, n_micro=n_micro,
                        recompute=p.pop("recompute", False))


def _serialize_perf_report(r, params: dict):
    return {
        "t_fwd": r.t_fwd,
        "t_bwd": r.t_bwd,
        "t_pipe": r.t_pipe,
        "t_bubble": r.t_bubble,
        "t_curv_total": r.t_curv_total,
        "t_inv": r.t_inv,
        "t_prec": r.t_prec,
        "ratio": r.ratio,
        "refresh_steps": r.refresh_steps,
        "throughput_pipeline": r.throughput_pipeline,
        "throughput_pipefisher": r.throughput_pipefisher,
        "throughput_kfac_skip": r.throughput_kfac_skip,
        "throughput_kfac_naive": r.throughput_kfac_naive,
        "memory_total_gb": r.memory.total_gb(),
    }


#: The 14 values of a golden ``_perf_cell``, in the pinned order.
PERF_CELL_FIELDS = (
    "t_fwd", "t_bwd", "t_pipe", "t_bubble", "t_curv_total", "t_inv",
    "t_prec", "ratio", "refresh_steps", "throughput_pipeline",
    "throughput_pipefisher", "throughput_kfac_skip",
    "throughput_kfac_naive", "memory_total_gb",
)


def perf_cell(value: dict) -> list:
    """A recorded ``perf_report`` value as the golden cell list."""
    return [value[f] for f in PERF_CELL_FIELDS]


def pf_report_row(value: dict) -> list:
    """A recorded ``pipefisher`` value as the golden ``_pf_report`` list."""
    return [
        value["baseline_step_time"],
        value["baseline_utilization"],
        value["pipefisher_step_time"],
        value["pipefisher_utilization"],
        value["refresh_steps"],
        [list(item) for item in value["device_refresh_steps"]],
    ]


register_unit_kind("pipefisher", _execute_pipefisher, _serialize_pipefisher,
                   timing_params=("arch", "hardware", "b_micro"),
                   execute_group=_execute_pipefisher_group)
register_unit_kind("perf_report", _execute_perf_report, _serialize_perf_report)
