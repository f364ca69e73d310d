"""K-FAC work inventories per device.

Work granularity follows the paper's Figure 1 legend: a *curvature* item
covers A_l or B_l of one transformer block for one micro-batch; an
*inversion* item covers A_l or B_l of one block ("a subset of assigned
layers"); sync-curvature (when data/inversion parallelism is on) is one
allreduce per device.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from repro.perfmodel.costs import StageCosts
from repro.pipeline.schedules import ScheduleBuilder


@dataclass
class KFACWorkItem:
    """One placeable unit of K-FAC work.

    ``trigger`` defines readiness (rule 1/2 of §3.1):

    * ``("forward", stage, micro_batch, pipeline)`` — ready when that
      forward ends in the step where the item is placed;
    * ``("backward", stage, micro_batch, pipeline)`` — same for backward;
    * ``("items", (item ids...))`` — ready when those items finish
      (inversion after all curvature of its layer+factor; sync-curvature
      after all curvature of the device).
    """

    iid: str
    device: int
    kind: str  # "curvature" | "inversion" | "sync_curv"
    factor: str  # "A" | "B" | "-"
    stage: int
    block: int  # block index within the stage (0..layers_per_stage-1)
    micro_batch: int | None
    pipeline: str | None
    duration: float
    trigger: tuple
    #: Filled by the assigner.  A work is a sequence of kernels, so it may
    #: be split across several bubbles ("subsequent bubbles are utilized",
    #: §3.1); each placed piece is one (start, end) segment.
    segments: list[tuple[float, float]] = field(default_factory=list)

    @property
    def placed_duration(self) -> float:
        return sum(e - s for s, e in self.segments)

    @property
    def remaining(self) -> float:
        return self.duration - self.placed_duration

    @property
    def assigned(self) -> bool:
        """Placed in full, up to the rounding of segment ends.

        Each end ``start + piece`` is rounded to a double, so a segment
        can come up short by half an ulp of its end — more than 1e-12
        once ends pass ~8.2e3 s.
        """
        slack = 1e-12
        if self.segments:
            slack += len(self.segments) * math.ulp(self.segments[-1][1])
        return self.remaining <= slack

    @property
    def start(self) -> float | None:
        return self.segments[0][0] if self.segments else None

    @property
    def end(self) -> float | None:
        return self.segments[-1][1] if self.segments else None

    @property
    def label(self) -> str:
        mb = f" m{self.micro_batch}" if self.micro_batch is not None else ""
        return f"{self.kind[:4]}{self.factor} s{self.stage}L{self.block}{mb}"


@dataclass
class KFACWorkQueue:
    """Ordered K-FAC work for one device."""

    device: int
    items: list[KFACWorkItem] = field(default_factory=list)

    def by_id(self) -> dict[str, KFACWorkItem]:
        return {i.iid: i for i in self.items}

    @property
    def total_duration(self) -> float:
        return sum(i.duration for i in self.items)

    def unassigned(self) -> list[KFACWorkItem]:
        return [i for i in self.items if not i.assigned]


def _microbatches_of(builder: ScheduleBuilder, pipeline: str | None) -> range:
    """Micro-batches per pipeline, as the schedule spec declares them
    (Chimera splits ``n_micro`` across its bidirectional pair)."""
    return builder.spec.microbatches(builder.config)


def build_device_queues(
    builder: ScheduleBuilder,
    costs: StageCosts,
    inversion_parallel: bool = False,
    sync_curv_seconds: float = 0.0,
) -> dict[int, KFACWorkQueue]:
    """Create the per-device K-FAC work inventory for one refresh.

    Parameters
    ----------
    builder:
        The pipeline schedule (provides the device -> stages mapping).
    costs:
        Stage costs; curvature/inversion durations come from its block
        model, one item per (block, factor, micro-batch or none).
    inversion_parallel:
        Split inversion items round-robin across each data-parallel group
        (§3.2), preceded by a sync-curvature allreduce per device.
    sync_curv_seconds:
        Duration of the sync-curvature allreduce (0 to omit even when
        ``inversion_parallel``).
    """
    cfg = builder.config
    block = costs.block
    L = costs.layers_per_stage
    queues: dict[int, KFACWorkQueue] = {
        d: KFACWorkQueue(d) for d in range(builder.num_devices)
    }
    counter = itertools.count()

    for dev in range(builder.num_devices):
        q = queues[dev]
        stages = builder.stages_of_device(dev)
        pipes_of_stage: dict[int, list[str | None]] = {
            s: [builder.spec.pipe_of_stage(cfg, dev, s)] for s in stages
        }

        curv_ids: dict[tuple, list[str]] = {}
        all_curv_ids: list[str] = []
        # Rule 1: curvature per (stage, block, factor, micro-batch).
        for s in stages:
            for pipe in pipes_of_stage[s]:
                for m in _microbatches_of(builder, pipe):
                    for b in range(L):
                        for factor, dur, ev in (
                            ("A", block.t_curv_a, "forward"),
                            ("B", block.t_curv_b, "backward"),
                        ):
                            iid = f"kfac{next(counter)}.d{dev}"
                            item = KFACWorkItem(
                                iid=iid,
                                device=dev,
                                kind="curvature",
                                factor=factor,
                                stage=s,
                                block=b,
                                micro_batch=m,
                                pipeline=pipe,
                                duration=dur,
                                trigger=(ev, s, m, pipe),
                            )
                            q.items.append(item)
                            curv_ids.setdefault((s, b, factor), []).append(iid)
                            all_curv_ids.append(iid)

        # Optional sync-curvature before inversion (data parallelism, §3.2).
        sync_dep: list[str] = []
        if inversion_parallel and sync_curv_seconds > 0 and builder.allreduce_world(dev) > 1:
            iid = f"kfac{next(counter)}.d{dev}"
            q.items.append(
                KFACWorkItem(
                    iid=iid,
                    device=dev,
                    kind="sync_curv",
                    factor="-",
                    stage=stages[0],
                    block=0,
                    micro_batch=None,
                    pipeline=None,
                    duration=sync_curv_seconds,
                    trigger=("items", tuple(all_curv_ids)),
                )
            )
            sync_dep = [iid]

        # Rule 2: inversion per (stage, block, factor), after all of its
        # curvature items (and the factor allreduce when data-parallel).
        inv_specs = []
        for s in stages:
            for b in range(L):
                for factor in ("A", "B"):
                    inv_specs.append((s, b, factor))
        if inversion_parallel:
            group = builder.dp_group(dev)
            rank = group.index(dev)
            inv_specs = [
                spec for i, spec in enumerate(inv_specs) if i % len(group) == rank
            ]
        for s, b, factor in inv_specs:
            iid = f"kfac{next(counter)}.d{dev}"
            q.items.append(
                KFACWorkItem(
                    iid=iid,
                    device=dev,
                    kind="inversion",
                    factor=factor,
                    stage=s,
                    block=b,
                    micro_batch=None,
                    pipeline=None,
                    duration=block.t_inv / 2.0,
                    trigger=("items", tuple(curv_ids[(s, b, factor)] + sync_dep)),
                )
            )
    return queues
