"""Discrete-event execution of pipeline task graphs.

:func:`simulate_tasks` runs a list of :class:`~repro.pipeline.work.Task`
objects and returns their timeline.  It lowers the graph with
:func:`repro.sweep.template.compile_graph` and runs it through
:func:`repro.sweep.retime.simulate_compiled`, the one python event loop
(``repro/sweep/_native.c`` is its fuzzed C twin, used only by the sweep
engine's batches).

The loop is event-driven list scheduling: completions pop from a global
event heap in simulated-time order; each device keeps a ready heap keyed
by ``(priority, tid)``, and an idle device starts its best *eligible*
ready task.  The schedule-specific behaviour (GPipe's phase order, 1F1B's
backward priority and in-flight limit, Chimera's injection order,
interleaved-1F1B's chunk order) lives entirely in the tasks' ``priority``
tuples and in-flight metadata, so one executor serves every schedule.

Eligibility (activation-memory admission control) uses two meta keys:

* ``inflight_key``/``inflight_limit`` on a FORWARD: the forward may start
  only while fewer than ``limit`` micro-batches are in flight for that key.
* ``inflight_release`` on the releasing task — the full BACKWARD, or the
  input-grad (BACKWARD_INPUT) half when the schedule splits the backward:
  the slot is freed at that task's simulated *end* time.  Zero-bubble
  weight-grad tasks neither hold nor release slots.

The run is deterministic: every tie — equal priorities, equal event
times — is broken by task id or dispatch order, never by hash order, so
two simulations of the same graph produce identical timelines regardless
of ``PYTHONHASHSEED``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.pipeline.work import Task
from repro.profiler.timeline import Timeline, TimelineEvent


@dataclass
class SimulationResult:
    """Output of a pipeline simulation."""

    timeline: Timeline
    start_times: dict[str, float]
    end_times: dict[str, float]
    makespan: float
    #: Peak number of in-flight micro-batches seen per inflight key.
    peak_inflight: dict = field(default_factory=dict)

    def end_of(self, tid: str) -> float:
        return self.end_times[tid]


def simulate_tasks(tasks: list[Task], num_devices: int) -> SimulationResult:
    """Simulate a task graph and return the resulting timeline.

    Raises ``ValueError`` on duplicate task ids and ``RuntimeError`` on
    unknown deps or a deadlock (dependency cycle or unsatisfiable
    in-flight limits).
    """
    # Imported here: repro.sweep imports the PipeFisher runner, which
    # imports this module.
    from repro.sweep.retime import simulate_compiled
    from repro.sweep.template import compile_graph

    g = compile_graph(tasks, num_devices)
    sim = simulate_compiled(g, None, task_durs=[t.duration for t in tasks])
    start, end = sim.start, sim.end
    timeline = Timeline(num_devices)
    for i in sim.ev_order:
        t = tasks[i]
        timeline.add(TimelineEvent(t.device, g.kind[i], start[i],
                                   sim.ev_end[i], t.label, t.meta))
    return SimulationResult(
        timeline=timeline,
        start_times={t.tid: start[i] for i, t in enumerate(tasks)},
        end_times={t.tid: end[i] for i, t in enumerate(tasks)},
        makespan=sim.makespan,
        peak_inflight=_peak_inflight(tasks, sim),
    )


def _peak_inflight(tasks: list[Task], sim) -> dict:
    """Replay admissions and releases over a finished simulation.

    A forward is admitted at its start; its slot is freed at the
    releasing task's completion-processing time (``sim.end``).  At one
    instant the event loop drains completions before it dispatches, so a
    release there precedes the admissions.  A zero-duration releasing
    task is the exception: it frees its slot only after the rest of its
    own dispatch batch, and a batch is dispatched in ascending device
    order, so one instant's dispatches split into batches wherever the
    device index stops increasing.  A batch that starts on a higher device
    than the previous one ended on looks like its continuation, so with
    zero-duration releasing tasks (no schedule builder emits them) the
    replayed peak can overcount.
    """
    start, end = sim.start, sim.end
    ops = []
    batch = 0
    prev = None
    for pos, i in enumerate(sim.ev_order):
        t = tasks[i]
        if prev is not None and (start[i] != start[prev]
                                 or t.device <= tasks[prev].device):
            batch += 1
        prev = i
        key = t.meta.get("inflight_key")
        if key is not None:
            ops.append((start[i], 1, batch, 0, pos, 1, key))
        rel = t.meta.get("inflight_release")
        if rel is not None:
            if start[i] < end[i]:
                ops.append((end[i], 0, 0, 0, pos, -1, rel))
            else:
                ops.append((end[i], 1, batch, 1, pos, -1, rel))
    # No two ops agree up to ``pos``, so the sort never compares keys.
    ops.sort()
    inflight: dict = {}
    peak: dict = {}
    for *_, delta, key in ops:
        inflight[key] = inflight.get(key, 0) + delta
        if delta > 0:
            peak[key] = max(peak.get(key, 0), inflight[key])
    return peak
