"""Spec-driven builder for pipeline-schedule task graphs.

One generic :class:`ScheduleBuilder` turns a :class:`PipelineConfig` plus
a :class:`~repro.pipeline.spec.ScheduleSpec` into the task graph of one
or more synchronous optimization steps:

* forward/backward tasks per (micro-batch, stage) with P2P dependencies
  (backward split into input-grad B + weight-grad W tasks when the spec
  declares ``split_backward`` — the zero-bubble family),
* optional activation recomputation before each backward,
* sync-grad allreduce tasks per data-parallel group,
* an optional precondition task (PipeFisher's only per-step overhead),
* an uncolored host-overhead interval, and
* a global barrier (the pipeline flush) between steps.

Schedule policy is pure data: priorities, in-flight limits, topology and
pipeline structure all come from the spec (see
:mod:`repro.pipeline.spec`), executed by
:func:`repro.pipeline.executor.simulate_tasks`:

============  ==============================  ==============================
schedule      forward priority                 in-flight limit per stage
============  ==============================  ==============================
GPipe         before backwards, m asc          N_micro (unbounded)
1F1B          after backwards, m asc           D - stage
Chimera       after backwards, inj asc         D - local stage, per pipeline
Interleaved   before backwards, virtual        D - stage (D counts virtual
              index m + chunk*P asc            stages)
ZB-H1         after input-grads, m asc;        D - stage (same memory as
              weight-grads below forwards      1F1B; W deferred to bubbles)
============  ==============================  ==============================

The concrete classes (``GPipeSchedule``, ``OneFOneBSchedule``,
``ChimeraSchedule``, ``InterleavedSchedule``, ``ZeroBubbleSchedule``) are
*generated* from their specs — they exist so ``isinstance`` checks and
subclassing (e.g. the async extension) keep working, but contain no
schedule logic of their own.  Register a new
:class:`~repro.pipeline.spec.ScheduleSpec` and :func:`make_schedule`,
the CLI, the sweep engine, and the invariant tests all pick it up.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.perfmodel.costs import StageCosts
from repro.pipeline.comm import CommModel
from repro.pipeline.spec import ScheduleSpec, get_spec
from repro.pipeline.work import Task, WorkKind


@dataclass
class PipelineConfig:
    """Everything a schedule builder needs.

    Attributes
    ----------
    depth:
        Number of pipeline stages D.
    n_micro:
        Micro-batches per device per step (paper's N_micro).
    costs:
        Per-stage work durations.
    comm:
        Communication model for collectives.
    dp:
        Simulated data-parallel replicas (devices = dp * depth).
    world_multiplier:
        Extra un-simulated replicas that only enlarge the allreduce world
        (e.g. Fig. 7's 64 model copies simulated as one instance).
    recompute:
        Activation recomputation (R in the figures).
    precondition:
        Append PipeFisher's per-step precondition work to the critical path.
    stage_param_bytes:
        Parameter bytes per stage (sync-grad allreduce volume).
    virtual_chunks:
        Stage chunks per device for the interleaved schedule (Megatron's
        v); ignored by schedules whose spec leaves ``uses_virtual_chunks``
        off.
    """

    depth: int
    n_micro: int
    costs: StageCosts
    comm: CommModel = field(default_factory=CommModel)
    dp: int = 1
    world_multiplier: int = 1
    recompute: bool = False
    precondition: bool = False
    stage_param_bytes: float = 0.0
    virtual_chunks: int = 2

    def __post_init__(self) -> None:
        if self.depth < 2:
            raise ValueError(f"pipeline depth must be >= 2, got {self.depth}")
        if self.n_micro < 1:
            raise ValueError(f"n_micro must be >= 1, got {self.n_micro}")
        if self.dp < 1 or self.world_multiplier < 1:
            raise ValueError("dp and world_multiplier must be >= 1")
        if self.virtual_chunks < 1:
            raise ValueError(
                f"virtual_chunks must be >= 1, got {self.virtual_chunks}"
            )


class ScheduleBuilder:
    """Generic builder: executes the task-graph program a spec declares.

    Subclasses carry their spec as a class attribute (set by
    :func:`builder_class`); nothing else is overridden per schedule.
    """

    spec: ScheduleSpec | None = None
    name: str = "base"

    def __init__(self, config: PipelineConfig) -> None:
        if self.spec is None:
            raise TypeError(
                "ScheduleBuilder needs a spec; use make_schedule() or a "
                "class generated by builder_class()"
            )
        if self.spec.validate is not None:
            self.spec.validate(config)
        self.config = config

    # -- device topology --------------------------------------------------------

    @property
    def num_devices(self) -> int:
        return self.spec.num_devices(self.config)

    def device(self, stage: int, replica: int, pipeline: str | None = None) -> int:
        """Device executing ``stage`` for ``replica`` (and ``pipeline``,
        for bidirectional schedules — Chimera defaults to "down")."""
        return self.spec.device_of(self.config, stage, replica, pipeline)

    def stages_of_device(self, dev: int) -> list[int]:
        """Stages hosted by a device (one for unidirectional schedules;
        two for Chimera; ``virtual_chunks`` for interleaved)."""
        return self.spec.stages_of_device(self.config, dev)

    def dp_group(self, dev: int) -> list[int]:
        """Devices holding a replica of ``dev``'s stage (allreduce group)."""
        return self.spec.dp_group(self.config, dev)

    def allreduce_world(self, dev: int) -> int:
        return len(self.dp_group(dev)) * self.config.world_multiplier

    # -- schedule policy ----------------------------------------------------------

    def fwd_priority(self, m: int, stage: int = 0) -> tuple:
        return self.spec.fwd_priority(self.config, m, stage)

    def bwd_priority(self, m: int, stage: int = 0) -> tuple:
        return self.spec.bwd_priority(self.config, m, stage)

    def wgt_priority(self, m: int, stage: int = 0) -> tuple:
        return self.spec.wgt_priority(self.config, m, stage)

    def inflight_limit(self, stage: int) -> int:
        return self.spec.inflight_limit(self.config, stage)

    # -- task-graph construction ----------------------------------------------------

    def build(self, steps: int = 1) -> list[Task]:
        """Task graph for ``steps`` consecutive optimization steps."""
        if steps < 1:
            raise ValueError(f"steps must be >= 1, got {steps}")
        tasks: list[Task] = []
        prev_barrier: str | None = None
        for k in range(steps):
            step_tasks, barrier = self._build_step(k, prev_barrier)
            tasks.extend(step_tasks)
            prev_barrier = barrier
        return tasks

    def _build_step(
        self, step: int, prev_barrier: str | None
    ) -> tuple[list[Task], str]:
        cfg = self.config
        c = cfg.costs
        spec = self.spec
        tasks: list[Task] = []
        entry_deps = (prev_barrier,) if prev_barrier else ()

        for r in range(cfg.dp):
            for pipe in spec.pipelines(cfg):
                #: Chimera tids carry the pipeline tag; labels tag the
                #: micro-batch with the pipeline initial instead of "m".
                tag = "" if pipe is None else f"{pipe}."
                mtag = "m" if pipe is None else pipe[0]
                key_pipe = "uni" if pipe is None else pipe
                for m in spec.microbatches(cfg):
                    for s in range(cfg.depth):
                        dev = self.device(s, r, pipe)
                        fid = f"F.{step}.{r}.{tag}{m}.{s}"
                        deps = list(entry_deps)
                        if s > 0:
                            deps.append(f"F.{step}.{r}.{tag}{m}.{s - 1}")
                        meta = {
                            "stage": s,
                            "micro_batch": m,
                            "replica": r,
                            "step": step,
                            "inflight_key": (r, key_pipe, s),
                            "inflight_limit": self.inflight_limit(s),
                        }
                        if pipe is not None:
                            meta["pipeline"] = pipe
                        tasks.append(
                            Task(
                                tid=fid,
                                device=dev,
                                kind=WorkKind.FORWARD,
                                duration=c.t_fwd,
                                deps=tuple(deps),
                                priority=self.fwd_priority(m, s),
                                label=f"F {mtag}{m} s{s}",
                                meta=meta,
                            )
                        )
                    for s in reversed(range(cfg.depth)):
                        dev = self.device(s, r, pipe)
                        bid = f"B.{step}.{r}.{tag}{m}.{s}"
                        deps = [f"F.{step}.{r}.{tag}{m}.{s}"]
                        if s < cfg.depth - 1:
                            deps.append(f"B.{step}.{r}.{tag}{m}.{s + 1}")
                        bwd_base = c.t_bwd_input if spec.split_backward else c.t_bwd
                        dur = bwd_base + (c.t_fwd if cfg.recompute else 0.0)
                        meta = {
                            "stage": s,
                            "micro_batch": m,
                            "replica": r,
                            "step": step,
                            "inflight_release": (r, key_pipe, s),
                            "recompute": cfg.recompute,
                        }
                        if pipe is not None:
                            meta["pipeline"] = pipe
                        tasks.append(
                            Task(
                                tid=bid,
                                device=dev,
                                kind=(WorkKind.BACKWARD_INPUT
                                      if spec.split_backward
                                      else WorkKind.BACKWARD),
                                duration=dur,
                                deps=tuple(deps),
                                priority=self.bwd_priority(m, s),
                                label=f"B {mtag}{m} s{s}",
                                meta=meta,
                            )
                        )
                        if spec.split_backward:
                            # Weight-grad: depends only on its own stage's
                            # input-grad; the schedule defers it into
                            # bubbles via its (low) priority.
                            wmeta = {
                                "stage": s,
                                "micro_batch": m,
                                "replica": r,
                                "step": step,
                            }
                            if pipe is not None:
                                wmeta["pipeline"] = pipe
                            tasks.append(
                                Task(
                                    tid=f"W.{step}.{r}.{tag}{m}.{s}",
                                    device=dev,
                                    kind=WorkKind.BACKWARD_WEIGHT,
                                    duration=c.t_bwd_weight,
                                    deps=(bid,),
                                    priority=self.wgt_priority(m, s),
                                    label=f"W {mtag}{m} s{s}",
                                    meta=wmeta,
                                )
                            )

        tasks.extend(self._tail_tasks(step, tasks))
        barrier_id = f"BAR.{step}"
        tail_ids = [t.tid for t in tasks if t.meta.get("tail") and t.meta["step"] == step]
        tasks.append(
            Task(
                tid=barrier_id,
                device=None,
                kind=WorkKind.BARRIER,
                duration=0.0,
                deps=tuple(tail_ids),
                label=f"flush step {step}",
                meta={"step": step},
            )
        )
        return tasks, barrier_id

    def _last_backward_ids(self, step: int, dev: int, tasks: list[Task]) -> list[str]:
        """All gradient-producing tids of this step on this device — the
        sync-grad dependencies.  For split backwards these are the
        weight-grad tasks (each W depends on its B, so waiting on every W
        transitively waits on every input-grad too)."""
        kind = (WorkKind.BACKWARD_WEIGHT if self.spec.split_backward
                else WorkKind.BACKWARD)
        return [
            t.tid
            for t in tasks
            if t.kind == kind
            and t.device == dev
            and t.meta["step"] == step
        ]

    def _tail_tasks(self, step: int, body: list[Task]) -> list[Task]:
        """Per-device sync-grad -> precondition -> overhead chain."""
        cfg = self.config
        c = cfg.costs
        tail: list[Task] = []
        for dev in range(self.num_devices):
            own_bwd = self._last_backward_ids(step, dev, body)
            if not own_bwd:
                continue
            last_dep_ids = list(own_bwd)
            world = self.allreduce_world(dev)
            if world > 1 and cfg.stage_param_bytes > 0:
                group = self.dp_group(dev)
                group_bwd: list[str] = []
                for g in group:
                    group_bwd.extend(self._last_backward_ids(step, g, body))
                n_stages = len(self.stages_of_device(dev))
                dur = cfg.comm.allreduce_time(
                    cfg.stage_param_bytes * n_stages, world
                )
                sid = f"SG.{step}.{dev}"
                tail.append(
                    Task(
                        tid=sid,
                        device=dev,
                        kind=WorkKind.SYNC_GRAD,
                        duration=dur,
                        deps=tuple(group_bwd),
                        priority=(2, 0),
                        label=f"sync-grad d{dev}",
                        meta={"step": step, "tail": False},
                    )
                )
                last_dep_ids = [sid]
            if cfg.precondition:
                pid = f"PC.{step}.{dev}"
                n_stages = len(self.stages_of_device(dev))
                tail.append(
                    Task(
                        tid=pid,
                        device=dev,
                        kind=WorkKind.PRECONDITION,
                        duration=c.t_prec * n_stages,
                        deps=tuple(last_dep_ids),
                        priority=(2, 1),
                        label=f"precond d{dev}",
                        meta={"step": step, "tail": False},
                    )
                )
                last_dep_ids = [pid]
            oid = f"OH.{step}.{dev}"
            tail.append(
                Task(
                    tid=oid,
                    device=dev,
                    kind=WorkKind.OVERHEAD,
                    duration=c.t_overhead,
                    deps=tuple(last_dep_ids),
                    priority=(3, 0),
                    label=f"overhead d{dev}",
                    meta={"step": step, "tail": True},
                )
            )
        return tail


#: Generated builder classes, one per registered spec (lazily created so
#: late registrations work without touching this module).
_BUILDER_CLASSES: dict[str, type[ScheduleBuilder]] = {}


def builder_class(name: str) -> type[ScheduleBuilder]:
    """The (generated) builder class for a registered schedule."""
    spec = get_spec(name)
    cls = _BUILDER_CLASSES.get(spec.name)
    if cls is None:
        cls = type(
            f"{spec.name}Schedule",
            (ScheduleBuilder,),
            {"spec": spec, "name": spec.name, "__doc__": spec.description},
        )
        _BUILDER_CLASSES[spec.name] = cls
    return cls


def make_schedule(name: str, config: PipelineConfig) -> ScheduleBuilder:
    """Instantiate a schedule builder by registry name.

    Unknown names raise ``ValueError`` listing every registered schedule.
    """
    return builder_class(name)(config)


#: Stable aliases for the generated classes (isinstance / subclassing).
GPipeSchedule = builder_class("gpipe")
OneFOneBSchedule = builder_class("1f1b")
ChimeraSchedule = builder_class("chimera")
InterleavedSchedule = builder_class("interleaved")
ZeroBubbleSchedule = builder_class("zb1f1b")