"""The automatic work-assignment algorithm (paper §3.1).

Profile one pipeline step (here: simulate it), extract the bubbles, then
place K-FAC work items into them in readiness order:

    "we pick one work from the 'queue' of all the K-FAC work and assign it
    to a bubble if its duration is shorter than the bubble duration
    (otherwise, subsequent bubbles are utilized) according to the rules
    above.  We repeat this procedure until all the K-FAC work are assigned
    to bubbles."

Because the synchronous schedule repeats identically every step, bubbles
in step ``k`` are the step-0 bubbles shifted by ``k * span``; an item
triggered by "forward of micro-batch m at stage s" is ready at that
forward's end *within the step it is placed in*.  The number of steps
needed to drain the queue is the curvature refresh interval.

:class:`BubbleFiller` lowers the queues and the profiled step to arrays
(:func:`repro.sweep.template.compile_queues`) and runs the one python
placement loop, :func:`repro.sweep.retime.fill_queues` — the same loop
the sweep engine re-times templates with.  Its placements are
bit-identical to the seed's scan-all greedy loop, frozen as the baseline
in ``benchmarks/test_filler_scaling.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.pipefisher.workqueue import KFACWorkQueue
from repro.pipeline.bubbles import bubble_intervals
from repro.pipeline.executor import SimulationResult
from repro.profiler.timeline import TimelineEvent


@dataclass
class AssignmentResult:
    """Outcome of bubble filling.

    :meth:`BubbleFiller.fill` guarantees every item is assigned before a
    result is constructed, so reporting helpers never re-validate.
    """

    queues: dict[int, KFACWorkQueue]
    refresh_steps: int
    span: float
    #: device -> steps its own queue needed (per-stage refresh frequency).
    device_refresh_steps: dict[int, int] = field(default_factory=dict)

    def events(self) -> list[TimelineEvent]:
        """Assigned K-FAC work as timeline events (one per segment)."""
        out = []
        for q in self.queues.values():
            for i in q.items:
                for s, e in i.segments:
                    out.append(
                        TimelineEvent(
                            device=i.device,
                            kind=i.kind,
                            start=s,
                            end=e,
                            label=i.label,
                            meta={
                                "stage": i.stage,
                                "block": i.block,
                                "factor": i.factor,
                                "micro_batch": i.micro_batch,
                                "step": int(s // self.span),
                            },
                        )
                    )
        return out

    @property
    def total_filled(self) -> float:
        return sum(q.total_duration for q in self.queues.values())


class BubbleFiller:
    """Places per-device K-FAC work queues into a step template's bubbles.

    Parameters
    ----------
    template:
        Simulation of ONE steady-state pipeline step (with PipeFisher's
        precondition already on the critical path).
    queues:
        Per-device work inventories from :func:`build_device_queues`.
        :meth:`fill` writes each item's segments.
    dp:
        Data-parallel degree (to resolve which replica's forward/backward
        events trigger a device's items).
    max_steps:
        Safety bound on the refresh interval.
    min_bubble:
        Ignore bubbles shorter than this (kernel-launch granularity).
    min_chunk:
        Smallest placeable piece of a split work (~one CUDA kernel).
    steady_state:
        In the repeating (static) schedule, every trigger event has
        already occurred in the previous step, so startup bubbles before
        a cycle's own forward/backward may compute factors from the
        previous step's saved tensors — the same staleness the paper
        embraces ("the first precondition ... is performed with the
        stale inverse matrices calculated at previous steps").  Set
        False to model the very first cycle after initialization.
    """

    def __init__(
        self,
        template: SimulationResult,
        queues: dict[int, KFACWorkQueue],
        dp: int = 1,
        max_steps: int = 64,
        min_bubble: float = 1e-5,
        min_chunk: float = 2e-3,
        steady_state: bool = True,
    ) -> None:
        self.template = template
        self.queues = queues
        self.dp = dp
        self.max_steps = max_steps
        self.min_bubble = min_bubble
        self.min_chunk = min_chunk
        self.steady_state = steady_state
        self.span = template.makespan

    def fill(self) -> AssignmentResult:
        """Assign every queue; the refresh interval is the slowest device.

        A curvature item becomes ready at the end of its trigger event (a
        zero-bubble input-grad pass satisfies "backward" triggers) and
        stays ready afterwards: activations are held for A factors and
        error signals are saved for B factors (what M_act and M_err^save
        in the §3.3 memory model pay for).  An ``("items", ...)`` item is
        ready when its dependencies are placed.

        Raises RuntimeError here — at assignment time, not when the result
        is later reported — if any item escaped placement.
        """
        # Imported here: repro.sweep imports the PipeFisher runner, which
        # imports this module.
        from repro.sweep.retime import fill_queues
        from repro.sweep.template import compile_queues, trigger_index

        timeline = self.template.timeline
        events = timeline.events
        ends = [e.end for e in events]
        trigger_of = trigger_index([e.kind for e in events],
                                   [e.meta for e in events], ends)
        items = [item for dev in sorted(self.queues)
                 for item in self.queues[dev].items]
        code = {id(item): k for k, item in enumerate(items)}
        compiled = compile_queues(self.queues, trigger_of, self.dp,
                                  lambda item: code[id(item)])
        fill = fill_queues(
            compiled, [item.duration for item in items], ends,
            lambda dev: bubble_intervals(timeline, dev, (0.0, self.span),
                                         min_duration=self.min_bubble),
            self.span, max_steps=self.max_steps, min_chunk=self.min_chunk,
            steady_state=self.steady_state)
        for dev, segments in fill.segments.items():
            for item, segs in zip(self.queues[dev].items, segments):
                item.segments = segs
        unassigned = [i.iid for i in items if not i.assigned]
        if unassigned:
            raise RuntimeError(
                f"fill left {len(unassigned)} item(s) unassigned: "
                f"{unassigned[:5]}"
            )
        refresh = max(fill.device_steps.values(), default=1)
        return AssignmentResult(
            queues=self.queues,
            refresh_steps=max(refresh, 1),
            span=self.span,
            device_refresh_steps=fill.device_steps,
        )
