"""Schedule templates: the structure of a sweep point, compiled once.

A sweep over (architecture, hardware, micro-batch size) re-uses the same
*structural* configuration — ``(schedule, depth, n_micro, virtual_chunks,
layers_per_stage, ...)`` — at every point; only the work durations change.
:class:`ScheduleTemplate` canonicalizes that structure into a
:class:`TemplateKey`, builds the baseline and PipeFisher task graphs and
the K-FAC work-queue inventory exactly once, and compiles them into
integer-indexed arrays (dependency adjacency, priority/tid ranks,
in-flight key ids, duration codes).  Re-timing a point is then a small
duration table plus :func:`simulate_compiled` / ``fill_compiled`` in
:mod:`repro.sweep.retime` — no string formatting, no dict building, no
dataclass graph construction.

The lowerings here are shared with the per-run path:
:func:`repro.pipeline.executor.simulate_tasks` runs every task list
through :func:`compile_graph`, and
:class:`repro.pipefisher.assignment.BubbleFiller` lowers its queues with
:func:`compile_queues`, so a template point and ``PipeFisherRun.execute``
run the same loops over the same arrays.
``tests/sweep/test_engine_equivalence.py`` asserts their reports are
equal across every schedule family.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.pipefisher.workqueue import build_device_queues
from repro.pipeline.bubbles import OCCUPYING_KINDS
from repro.pipeline.schedules import PipelineConfig, make_schedule
from repro.pipeline.spec import get_spec
from repro.pipeline.work import Task, WorkKind

#: Duration codes: every task's duration is one of these per-point values.
DUR_FWD = 0       #: forward of one stage
DUR_BWD = 1       #: backward (+ recompute forward when enabled)
DUR_SYNC_GRAD = 2
DUR_PRECOND = 3
DUR_OVERHEAD = 4
DUR_ZERO = 5      #: barriers / control tasks
DUR_BWD_INPUT = 6   #: zero-bubble input-grad (+ recompute forward)
DUR_BWD_WEIGHT = 7  #: zero-bubble weight-grad (bubble filler material)
N_DUR_CODES = 8

#: K-FAC work-item duration codes.
QDUR_CURV_A = 0
QDUR_CURV_B = 1
QDUR_INV = 2      #: one factor's inversion (``block.t_inv / 2``)
QDUR_SYNC_CURV = 3

_KIND_TO_DUR = {
    WorkKind.FORWARD: DUR_FWD,
    WorkKind.BACKWARD: DUR_BWD,
    WorkKind.BACKWARD_INPUT: DUR_BWD_INPUT,
    WorkKind.BACKWARD_WEIGHT: DUR_BWD_WEIGHT,
    WorkKind.SYNC_GRAD: DUR_SYNC_GRAD,
    WorkKind.PRECONDITION: DUR_PRECOND,
    WorkKind.OVERHEAD: DUR_OVERHEAD,
    WorkKind.BARRIER: DUR_ZERO,
}

_QKIND_TO_DUR = {
    ("curvature", "A"): QDUR_CURV_A,
    ("curvature", "B"): QDUR_CURV_B,
    ("inversion", "A"): QDUR_INV,
    ("inversion", "B"): QDUR_INV,
    ("sync_curv", "-"): QDUR_SYNC_CURV,
}


@dataclass(frozen=True)
class TemplateKey:
    """Canonical structural identity of a sweep point.

    Everything that shapes the task graph or the K-FAC work inventory —
    but not the durations — is in the key; two points with equal keys
    share one compiled template.  ``virtual_chunks`` is canonicalized to
    0 for the schedules that ignore it, so e.g. gpipe points with
    different (unused) chunk settings still share a template.
    """

    schedule: str
    depth: int
    n_micro: int
    virtual_chunks: int
    layers_per_stage: int
    dp: int
    world_multiplier: int
    recompute: bool
    inversion_parallel: bool
    has_sync_grad: bool
    has_sync_curv: bool


def structural_group_size(schedule: str, dp: int) -> int:
    """Size of one device's allreduce group, before ``world_multiplier``.

    The registry's structural mirror of ``ScheduleBuilder.dp_group``:
    Chimera's pipeline pair doubles the replication; every other schedule
    groups the ``dp`` replicas.
    """
    return get_spec(schedule).group_size(dp)


def stages_per_device(schedule: str, virtual_chunks: int) -> int:
    """Stages hosted per device (constant within a schedule family)."""
    return get_spec(schedule).stages_per_device(virtual_chunks)


@dataclass
class CompiledGraph:
    """One task graph lowered to integer-indexed arrays.

    ``meta``/``label`` keep references to the template build's dicts and
    strings; the engine copies each ``meta`` when it materializes report
    timelines, so consumers can annotate events without corrupting the
    cached template or sibling reports.

    ``order_key`` collapses the executor's ``(priority, tid)`` ready-heap
    ordering into one comparable per task: the lexicographic priority
    tuple packed with the tid's sort rank when priorities are uniform
    non-negative int pairs (the builders' shape), else a
    ``(priority, rank)`` tuple.  Either way, comparing two tasks'
    ``order_key`` gives exactly the reference's tie-break order.
    """

    num_devices: int
    n: int
    device: list[int | None]
    kind: list[str]
    label: list[str]
    meta: list[dict]
    order_key: list               #: packed (priority, tid-rank) heap key
    dur_code: list[int]
    ndeps: list[int]
    dependents: list[list[int]]
    inflight_key: list[int]       #: admission key id, -1 if none
    inflight_limit: list[int]
    release_key: list[int]        #: released key id, -1 if none
    n_inflight_keys: int
    zero_dep: list[int]           #: tasks with no deps, in build order
    #: Occupying (bubble-relevant) task indices per device, build order.
    occupying_by_device: list[list[int]]


def _pack_order_keys(tasks: list[Task], rank: list[int]) -> list:
    """One comparable per task, ordered exactly like ``(priority, tid)``.

    The empty priority ``()`` (the builders' "run first" marker, e.g. the
    optimizer-step control task) sorts before every non-empty tuple, so
    it packs to the bare rank and every int-pair priority shifts up one
    slot — keeping the whole graph on int keys, which is what lets the
    native batch core (``repro.sweep.native``) accept it.
    """
    n = len(tasks)
    prios = [t.priority for t in tasks]
    if all(
        p == () or (
            len(p) == 2 and type(p[0]) is int and type(p[1]) is int
            and p[0] >= 0 and p[1] >= 0)
        for p in prios
    ):
        m1 = max((p[1] for p in prios if p), default=0) + 1
        return [rank[i] if not p else (p[0] * m1 + p[1] + 1) * n + rank[i]
                for i, p in enumerate(prios)]
    return [(p, rank[i]) for i, p in enumerate(prios)]


def compile_graph(tasks: list[Task], num_devices: int) -> CompiledGraph:
    """Lower a task graph to arrays.

    Raises ``ValueError`` on a duplicate task id and ``RuntimeError`` on
    a dependency on an unknown task.
    """
    by_id: dict[str, int] = {}
    for i, t in enumerate(tasks):
        if t.tid in by_id:
            raise ValueError(f"duplicate task id {t.tid}")
        by_id[t.tid] = i
    n = len(tasks)
    ndeps = [0] * n
    dependents: list[list[int]] = [[] for _ in range(n)]
    for i, t in enumerate(tasks):
        ndeps[i] = len(t.deps)
        for d in t.deps:
            if d not in by_id:
                raise RuntimeError(f"task {t.tid} depends on unknown task {d}")
            dependents[by_id[d]].append(i)

    order = sorted(range(n), key=lambda i: tasks[i].tid)
    rank = [0] * n
    for r, i in enumerate(order):
        rank[i] = r

    key_ids: dict = {}

    def key_id(key) -> int:
        if key not in key_ids:
            key_ids[key] = len(key_ids)
        return key_ids[key]

    inflight_key = [-1] * n
    inflight_limit = [0] * n
    release_key = [-1] * n
    occupying_by_device: list[list[int]] = [[] for _ in range(num_devices)]
    kind = [t.kind.value for t in tasks]
    for i, t in enumerate(tasks):
        key = t.meta.get("inflight_key")
        if key is not None:
            inflight_key[i] = key_id(key)
            inflight_limit[i] = t.meta["inflight_limit"]
        rel = t.meta.get("inflight_release")
        if rel is not None:
            release_key[i] = key_id(rel)
        if t.device is not None and kind[i] in OCCUPYING_KINDS:
            occupying_by_device[t.device].append(i)

    return CompiledGraph(
        num_devices=num_devices,
        n=n,
        device=[t.device for t in tasks],
        kind=kind,
        label=[t.label for t in tasks],
        meta=[t.meta for t in tasks],
        order_key=_pack_order_keys(tasks, rank),
        # Kinds no schedule builder emits (recompute, K-FAC work) get
        # N_DUR_CODES, which no duration table has: such graphs re-time
        # only through explicit per-task durations.
        dur_code=[_KIND_TO_DUR.get(t.kind, N_DUR_CODES) for t in tasks],
        ndeps=ndeps,
        dependents=dependents,
        inflight_key=inflight_key,
        inflight_limit=inflight_limit,
        release_key=release_key,
        n_inflight_keys=len(key_ids),
        zero_dep=[i for i in range(n) if ndeps[i] == 0],
        occupying_by_device=occupying_by_device,
    )


@dataclass
class CompiledItem:
    """Structural identity of one K-FAC work item (durations come later)."""

    iid: str
    device: int
    kind: str
    factor: str
    stage: int
    block: int
    micro_batch: int | None
    pipeline: str | None
    dur_code: int
    trigger: tuple                #: original trigger tuple (for reports)
    #: For forward/backward triggers: index of the task (in a template,
    #: of the pf graph) whose end is the readiness event.  For "items"
    #: triggers: -1.
    trigger_task: int
    #: For "items" triggers: positions (within the device queue) of the
    #: items that must be assigned first.
    dep_positions: tuple[int, ...]


@dataclass
class DeviceQueue:
    """One device's K-FAC inventory: item structs + hot-loop arrays."""

    #: Items in inventory order (the reference ``build_device_queues``
    #: emission order) — used when a report materializes its assignment.
    items: list[CompiledItem]
    #: Parallel arrays the compiled filler reads (no attribute access).
    codes: list[int]              #: duration code per item
    trig: list[int]               #: trigger task idx, -1 for "items"
    dependents: dict[int, list[int]]


@dataclass
class CompiledQueues:
    """Per-device K-FAC work inventories, structurally compiled."""

    devices: dict[int, DeviceQueue]


@dataclass
class ScheduleTemplate:
    """Everything cost-independent about one structural configuration."""

    key: TemplateKey
    num_devices: int
    n_stages: int                 #: stages hosted per device (constant)
    world: int                    #: allreduce world per device (constant)
    base_graph: CompiledGraph
    pf_graph: CompiledGraph
    queues: CompiledQueues
    #: Cached per-duration-table timings/evaluations (engine-managed).
    timings: object = field(default=None, repr=False)


def trigger_index(kinds, metas, ends=None) -> dict[tuple, int]:
    """Index the tasks whose ends make K-FAC items ready.

    Maps ``(kind, stage, micro_batch, pipeline, replica)`` — an item's
    forward/backward trigger plus the replica it runs on — to a task
    index.  A split backward's input-grad task satisfies "backward"
    triggers: a B factor needs the output gradient, which the input-grad
    pass produces (weight-grads consume it).  When several tasks share a
    key, the latest-ending one wins given ``ends``, else the last one.
    """
    index: dict[tuple, int] = {}
    for i, (kind, meta) in enumerate(zip(kinds, metas)):
        if kind == "backward_input":
            kind = "backward"
        elif kind not in ("forward", "backward"):
            continue
        key = (kind, meta["stage"], meta["micro_batch"],
               meta.get("pipeline"), meta.get("replica", 0))
        j = index.get(key)
        if j is None or ends is None or ends[i] > ends[j]:
            index[key] = i
    return index


def compile_queues(queues: dict, trigger_of: dict[tuple, int], dp: int,
                   dur_code) -> CompiledQueues:
    """Lower per-device K-FAC inventories to the filler's arrays.

    ``queues`` maps device -> :class:`~repro.pipefisher.workqueue.KFACWorkQueue`.
    A forward/backward trigger resolves through ``trigger_of`` (see
    :func:`trigger_index`) for the replica ``item.device % dp``;
    ``dur_code(item)`` is the item's index into the duration table the
    filler is given.
    """
    devices: dict[int, DeviceQueue] = {}
    for dev in sorted(queues):
        items = queues[dev].items
        pos_of = {item.iid: pos for pos, item in enumerate(items)}
        dev_items: list[CompiledItem] = []
        dev_deps: dict[int, list[int]] = {}
        for pos, item in enumerate(items):
            kind = item.trigger[0]
            if kind == "items":
                dep_positions = tuple(pos_of[d] for d in item.trigger[1])
                trigger_task = -1
                for dpos in dep_positions:
                    dev_deps.setdefault(dpos, []).append(pos)
            elif kind in ("forward", "backward"):
                _, s, m, pipe = item.trigger
                replica = item.device % dp
                dep_positions = ()
                trigger_task = trigger_of.get((kind, s, m, pipe, replica))
                if trigger_task is None:
                    raise KeyError(
                        f"no {kind} event for stage {s}, micro-batch {m}, "
                        f"pipeline {pipe}, replica {replica}"
                    )
            else:
                raise ValueError(f"unknown trigger {item.trigger!r}")
            dev_items.append(
                CompiledItem(
                    iid=item.iid,
                    device=item.device,
                    kind=item.kind,
                    factor=item.factor,
                    stage=item.stage,
                    block=item.block,
                    micro_batch=item.micro_batch,
                    pipeline=item.pipeline,
                    dur_code=dur_code(item),
                    trigger=item.trigger,
                    trigger_task=trigger_task,
                    dep_positions=dep_positions,
                )
            )
        devices[dev] = DeviceQueue(
            items=dev_items,
            codes=[it.dur_code for it in dev_items],
            trig=[it.trigger_task for it in dev_items],
            dependents=dev_deps,
        )
    return CompiledQueues(devices=devices)


def build_template(
    key: TemplateKey,
    base_cfg: PipelineConfig,
    pf_cfg: PipelineConfig,
    sync_curv_seconds: float,
) -> ScheduleTemplate:
    """Build + compile both task graphs and the K-FAC inventory once.

    The configs carry this first point's costs, but only structure is
    kept: durations are replaced per point by the engine's re-timing.
    """
    base_builder = make_schedule(key.schedule, base_cfg)
    pf_builder = make_schedule(key.schedule, pf_cfg)
    base_graph = compile_graph(base_builder.build(steps=1), base_builder.num_devices)
    pf_graph = compile_graph(pf_builder.build(steps=1), pf_builder.num_devices)

    ref_queues = build_device_queues(
        pf_builder,
        pf_cfg.costs,
        inversion_parallel=key.inversion_parallel,
        sync_curv_seconds=sync_curv_seconds,
    )
    queues = compile_queues(
        ref_queues, trigger_index(pf_graph.kind, pf_graph.meta), pf_cfg.dp,
        lambda item: _QKIND_TO_DUR[(item.kind, item.factor)])

    return ScheduleTemplate(
        key=key,
        num_devices=pf_builder.num_devices,
        n_stages=len(pf_builder.stages_of_device(0)),
        world=pf_builder.allreduce_world(0),
        base_graph=base_graph,
        pf_graph=pf_graph,
        queues=queues,
    )
