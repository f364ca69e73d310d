"""The python event loop and bubble filler, over compiled arrays.

These are the one python implementation of each algorithm;
``_native.c`` (driven through :mod:`repro.sweep.batch`) is their
accelerated twin, fuzzed against them, and rows the C core cannot serve
fall back here.

:func:`simulate_compiled` is the discrete-event executor behind
:func:`repro.pipeline.executor.simulate_tasks` (whose module docstring
states the scheduling semantics), run over a
:class:`~repro.sweep.template.CompiledGraph`'s integer arrays: ready
heaps compare precomputed ``order_key``s that encode the ``(priority,
tid)`` order.  It optionally re-times with an explicit per-task duration
array and a :class:`DeviceFaults` failure/restart plan — the stochastic
replicate path (:mod:`repro.stochastic`), which perturbs durations per
device and injects restart-from-checkpoint downtime without rebuilding
the graph.

:func:`fill_queues` is the §3.1 greedy bubble filler behind
:class:`repro.pipefisher.assignment.BubbleFiller`; :func:`fill_compiled`
runs it over a schedule template's queues and pf-graph bubbles.  Each
device's candidates are held as two sorted lists — "now" items (ready
before the cursor) by ``(-ready, pos)`` and "future" items by ``(ready,
pos)`` — so the greedy key ``(start, -ready, pos)`` is a walk over them.
"""

from __future__ import annotations

import heapq
from bisect import insort
from dataclasses import dataclass

from repro.sweep.template import CompiledGraph, CompiledQueues, ScheduleTemplate

#: Two simulated instants closer than this are the same instant (guards
#: float drift when equal end times are summed along different dep paths).
#: It is absolute, so above ~8.2e3 s (where one ulp of a double exceeds
#: 1e-12) it is below one ulp and tie batching is exact equality there.
#: Widening it would merge distinct instants at small times; code that
#: must terminate at any magnitude (the filler's completion test) does
#: not rely on it.
_TIME_EPS = 1e-12
#: Placement epsilon of the bubble filler.
_EPS = 1e-9


@dataclass(frozen=True)
class DeviceFaults:
    """A per-device failure/restart plan the executor replays at dispatch.

    ``failure_times[d]`` is an ascending tuple of absolute instants at
    which device ``d`` fails.  A failure striking a running task loses the
    work since the last checkpoint (every ``checkpoint_every`` seconds of
    task progress when positive; only completed-task boundaries when 0 —
    the whole in-flight attempt is redone), takes ``restart_delay``
    seconds of downtime, and re-executes the lost work on the same device.
    A failure striking an idle device only delays its next start past the
    downtime window.  Stochastic models sample these traces per replicate
    (:mod:`repro.stochastic.perturb`); the executor itself stays
    deterministic given the trace.
    """

    failure_times: tuple
    restart_delay: float = 0.0
    checkpoint_every: float = 0.0


@dataclass
class CompiledSim:
    """Timing of one compiled graph (the ``SimulationResult`` essentials).

    ``end`` holds the *completion-processing* times (the executor may
    batch completions within its 1e-12 tie epsilon, overwriting a task's
    end with the batch instant — dependency propagation and the makespan
    use these; they are ``SimulationResult.end_times``).  ``ev_end``
    holds each task's *dispatch-computed* ``start + duration``, which is
    what timeline events record; bubbles, colored time, and K-FAC trigger
    readiness all read event ends.

    ``restarts`` holds one ``(device, task, fail_time, resume_time,
    lost_work)`` tuple per fault the simulation replayed (empty for
    deterministic runs) — the "extra tasks" a failure injects, exposed so
    reports can render downtime and re-executed work.
    """

    start: list[float]
    end: list[float]
    ev_end: list[float]
    #: Task indices in dispatch order — the timeline's insertion order.
    ev_order: list[int]
    makespan: float
    restarts: tuple = ()


def simulate_compiled(
    g: CompiledGraph,
    durs: tuple | None,
    task_durs: list | None = None,
    faults: DeviceFaults | None = None,
) -> CompiledSim:
    """Run the executor's event loop over compiled arrays.

    ``durs[g.dur_code[i]]`` is task i's duration; ``task_durs``, when
    given, overrides the table with an explicit per-task duration array
    (the stochastic perturbation path — per-device jitter makes durations
    task-dependent).  The native core reproduces the result bit for bit:
    same heap orders, same simultaneous-completion draining, same
    in-flight admission/parking, same float additions.

    ``faults`` injects the failure/restart semantics of
    :class:`DeviceFaults`: each dispatch folds the device's pending
    failures into the task's execution window — restart downtime plus
    re-execution of un-checkpointed work — before the completion event is
    scheduled.  Control tasks (``device is None``) never fail.
    """
    n = g.n
    device = g.device
    if task_durs is None:
        task_durs = [durs[c] for c in g.dur_code]
    tdur = task_durs
    order_key = g.order_key
    dependents = g.dependents
    ikey = g.inflight_key
    ilim = g.inflight_limit
    rkey = g.release_key
    heappush = heapq.heappush
    heappop = heapq.heappop

    missing = list(g.ndeps)
    start = [0.0] * n
    end = [0.0] * n
    ev_end = [0.0] * n
    device_free = [0.0] * g.num_devices
    ready: list[list] = [[] for _ in range(g.num_devices)]
    parked: list[list] = [[] for _ in range(g.n_inflight_keys)]
    inflight = [0] * g.n_inflight_keys
    ev_order: list[int] = []
    #: (end time, dispatch number, task): equal-time pops stay FIFO.
    events: list[tuple[float, int, int]] = []
    remaining = n

    if faults is not None:
        fail_times = faults.failure_times
        fail_cursor = [0] * g.num_devices
        restart_delay = faults.restart_delay
        checkpoint_every = faults.checkpoint_every
        restarts: list[tuple] = []

        def run_with_faults(dev: int, now: float, dur: float,
                            idx: int) -> tuple[float, float]:
            """Fold device ``dev``'s pending failures into one execution.

            Failures that struck while the device sat idle push the start
            past their downtime windows (no work lost); failures landing
            inside the attempt lose the progress since the last
            checkpoint, cost ``restart_delay`` of downtime, and resume
            with the surviving remainder.  Returns (start, end).
            """
            times = fail_times[dev]
            n_times = len(times)
            cur = fail_cursor[dev]
            st = now
            while cur < n_times and times[cur] <= st:
                f = times[cur]
                cur += 1
                resume = f + restart_delay
                if resume > st:
                    restarts.append((dev, idx, f, resume, 0.0))
                    st = resume
            attempt = st
            left = dur
            while cur < n_times and times[cur] < attempt + left:
                f = times[cur]
                cur += 1
                if f <= attempt:
                    # The device is already down (failure during restart
                    # downtime): the outage extends, no new work is lost.
                    resume = f + restart_delay
                    if resume > attempt:
                        restarts.append((dev, idx, f, resume, 0.0))
                        attempt = resume
                    continue
                done = f - attempt
                preserved = 0.0
                if checkpoint_every > 0.0:
                    last_ckpt = (f // checkpoint_every) * checkpoint_every
                    if last_ckpt > attempt:
                        preserved = min(done, last_ckpt - attempt)
                left -= preserved
                resume = f + restart_delay
                restarts.append((dev, idx, f, resume, done - preserved))
                attempt = resume
            fail_cursor[dev] = cur
            return st, attempt + left

    def promote(idx: int, now: float, dirty: set) -> None:
        nonlocal remaining
        stack = [idx]
        while stack:
            cur = stack.pop()
            if device[cur] is None:
                start[cur] = now
                end[cur] = now
                ev_end[cur] = now
                remaining -= 1
                for dep in dependents[cur]:
                    missing[dep] -= 1
                    if missing[dep] == 0:
                        stack.append(dep)
            else:
                heappush(ready[device[cur]], (order_key[cur], cur))
                dirty.add(device[cur])

    dirty: set[int] = set()
    for i in g.zero_dep:
        promote(i, 0.0, dirty)
    now = 0.0
    horizon = _TIME_EPS
    while True:
        # Every idle device whose state changed starts its best eligible
        # ready task.
        for dev in sorted(dirty):
            if device_free[dev] > horizon:
                continue
            heap = ready[dev]
            while heap:
                entry = heappop(heap)
                idx = entry[1]
                key = ikey[idx]
                if key >= 0:
                    if inflight[key] >= ilim[idx]:
                        # Admission-blocked; a release re-queues it.
                        parked[key].append(entry)
                        continue
                    inflight[key] += 1
                if faults is None:
                    st = now
                    t_end = now + tdur[idx]
                else:
                    st, t_end = run_with_faults(dev, now, tdur[idx], idx)
                device_free[dev] = t_end
                start[idx] = st
                ev_end[idx] = t_end
                heappush(events, (t_end, len(ev_order), idx))
                ev_order.append(idx)
                break
        if not events:
            break
        now = events[0][0]
        horizon = now + _TIME_EPS
        dirty = set()
        # Drain every completion at this instant before any device picks,
        # so simultaneous releases/readiness are all visible to the pick.
        while events and events[0][0] <= horizon:
            idx = heappop(events)[2]
            end[idx] = now
            remaining -= 1
            dirty.add(device[idx])
            rel = rkey[idx]
            if rel >= 0:
                inflight[rel] -= 1
                if parked[rel]:
                    for entry in parked[rel]:
                        heappush(ready[device[entry[1]]], entry)
                        dirty.add(device[entry[1]])
                    parked[rel].clear()
            for dep in dependents[idx]:
                missing[dep] -= 1
                if missing[dep] == 0:
                    dev = device[dep]
                    if dev is None:
                        promote(dep, now, dirty)
                    else:
                        heappush(ready[dev], (order_key[dep], dep))
                        dirty.add(dev)

    if remaining > 0:
        raise RuntimeError(
            f"deadlock: {remaining} tasks cannot run; check deps and "
            "in-flight limits"
        )
    return CompiledSim(start=start, end=end, ev_end=ev_end,
                       ev_order=ev_order, makespan=max(end, default=0.0),
                       restarts=tuple(restarts) if faults is not None else ())


# -- bubble filling over compiled queues ----------------------------------------


def device_bubbles(
    g: CompiledGraph,
    sim: CompiledSim,
    device: int,
    span: float,
    min_bubble: float,
) -> list[tuple[float, float]]:
    """Idle intervals on one device, exactly as ``bubble_intervals`` sees them.

    Replicates ``Timeline.idle_intervals`` over the occupying kinds: sort
    by (start, end), merge with the 1e-12 touch tolerance, complement
    within (0, span), drop bubbles <= ``min_bubble``.
    """
    start = sim.start
    ev_end = sim.ev_end
    evs = sorted((start[i], ev_end[i]) for i in g.occupying_by_device[device])
    merged: list[tuple[float, float]] = []
    for s, e in evs:
        if merged and s <= merged[-1][1] + 1e-12:
            if e > merged[-1][1]:
                merged[-1] = (merged[-1][0], e)
        else:
            merged.append((s, e))
    idle: list[tuple[float, float]] = []
    cursor = 0.0
    for b0, b1 in merged:
        if b0 >= span:
            break
        b0c = max(b0, 0.0)
        b1c = min(b1, span)
        if b0c > cursor:
            idle.append((cursor, b0c))
        cursor = max(cursor, b1c)
    if cursor < span:
        idle.append((cursor, span))
    return [(a, b) for a, b in idle if b - a > min_bubble]


def _feasible(remaining: float, room: float, min_chunk: float) -> bool:
    """Can an item with ``remaining`` work start in ``room`` seconds?

    A fragment (``room < remaining``) must leave both the fragment and
    the leftover at least ``min_chunk`` (~one kernel); a full fit only
    needs positive room.
    """
    if room < remaining - _EPS:
        return not (room < min_chunk - _EPS or remaining - room < min_chunk)
    return room > _EPS


@dataclass
class CompiledFill:
    """Placements for every device of a template at one timing."""

    #: device -> per-item segment lists (inventory order).
    segments: dict[int, list[list[tuple[float, float]]]]
    #: device -> steps its queue needed.
    device_steps: dict[int, int]
    span: float


def fill_compiled(
    template: ScheduleTemplate,
    sim: CompiledSim,
    qdurs: tuple,
    max_steps: int = 64,
    min_bubble: float = 1e-5,
    min_chunk: float = 2e-3,
) -> CompiledFill:
    """Drain a template's K-FAC queues into one timing's bubbles.

    Steady-state readiness (the runner's configuration) against the pf
    graph's bubbles and event ends; ``qdurs`` is the template's
    per-point K-FAC duration table.
    """
    g = template.pf_graph
    span = sim.makespan
    return fill_queues(
        template.queues, qdurs, sim.ev_end,
        lambda dev: device_bubbles(g, sim, dev, span, min_bubble),
        span, max_steps=max_steps, min_chunk=min_chunk)


def fill_queues(
    queues: CompiledQueues,
    qdurs,
    trigger_end: list[float],
    bubbles_of,
    span: float,
    max_steps: int = 64,
    min_chunk: float = 2e-3,
    steady_state: bool = True,
) -> CompiledFill:
    """Greedily place every device's queue into its repeating bubbles.

    Item ``pos`` of a device queue has duration ``qdurs[codes[pos]]``.  A
    forward/backward-triggered item is ready at
    ``trigger_end[trig[pos]]``, minus ``span`` under ``steady_state``
    (the trigger already fired in the previous step, whose saved tensors
    the item may use); an ``("items", ...)`` item is ready when its last
    dependency ends, or at 0.0 if it has none.  ``bubbles_of(dev)`` gives
    the device's step-0 bubbles; step ``k`` reuses them shifted by
    ``k * span``.  At each bubble cursor the winner is the feasible item
    with the smallest ``(start, -ready, pos)``; an item too long for the
    bubble is split, and each piece must respect ``min_chunk``.

    An item is done when its whole remainder fits the room left (or
    what would be left over is at most ``_TIME_EPS``) — decided by the
    branch taken, so a remainder below one ulp of the cursor still
    completes.  Every placement either finishes its item or advances the
    cursor.

    Raises RuntimeError when a device with work has no bubbles, places a
    piece that does neither, makes no progress for a whole step, or
    needs more than ``max_steps`` steps.
    """
    seg_out: dict[int, list[list[tuple[float, float]]]] = {}
    steps_out: dict[int, int] = {}

    for dev in sorted(queues.devices):
        dq = queues.devices[dev]
        n = len(dq.items)
        segments: list[list[tuple[float, float]]] = [[] for _ in range(n)]
        seg_out[dev] = segments
        if n == 0:
            steps_out[dev] = 0
            continue
        bubbles0 = bubbles_of(dev)
        if not bubbles0:
            raise RuntimeError(
                f"device {dev} has no bubbles to fill (span {span:.4f}s)"
            )
        codes = dq.codes
        dur = [qdurs[c] for c in codes]
        placed = [0.0] * n
        dependents = dq.dependents
        dep_count = [0] * n
        dep_max_end = [0.0] * n
        future: list[tuple[float, int]] = []       # (ready, pos) ascending
        now: list[tuple[float, int]] = []          # (-ready, pos) ascending

        trig = dq.trig
        items = dq.items
        for pos in range(n):
            ti = trig[pos]
            if ti >= 0:
                ready = trigger_end[ti]
                future.append((ready - span if steady_state else ready, pos))
            elif items[pos].dep_positions:
                dep_count[pos] = len(items[pos].dep_positions)
            else:
                future.append((0.0, pos))
        future.sort()

        remaining = n
        last_placed_duration = -1.0
        steps_used = 0
        for step in range(max_steps):
            offset = step * span
            for bub0, bub1 in bubbles0:
                b0 = bub0 + offset
                b1 = bub1 + offset
                t = b0
                while True:
                    if b1 - t <= _EPS:
                        break
                    if future and future[0][0] <= t:
                        k = 1
                        flen = len(future)
                        while k < flen and future[k][0] <= t:
                            k += 1
                        for r, pos in future[:k]:
                            insort(now, (-r, pos))
                        del future[:k]
                    win_at = -1
                    win_pos = -1
                    win_ready = 0.0
                    from_future = False
                    st = t
                    room_now = b1 - t
                    for j, (negr, pos) in enumerate(now):
                        if _feasible(dur[pos] - placed[pos], room_now,
                                     min_chunk):
                            win_at, win_pos, win_ready = j, pos, -negr
                            break
                    if win_pos < 0:
                        for j, (r, pos) in enumerate(future):
                            if r >= b1:
                                break
                            if _feasible(dur[pos] - placed[pos], b1 - r,
                                         min_chunk):
                                win_at, win_pos, win_ready = j, pos, r
                                st = r
                                from_future = True
                                break
                    if win_pos < 0:
                        break
                    rem = dur[win_pos] - placed[win_pos]
                    room = b1 - st
                    # Completion follows from the branch taken, never
                    # from re-subtracting ``placed``: far from 0, st + rem
                    # can round back to st (see _TIME_EPS), and an item
                    # whose placed total never moves would spin forever.
                    if rem < room:
                        piece = rem
                        done = True
                    else:
                        # Fills the bubble; a leftover sliver of at most
                        # _TIME_EPS counts as done.
                        piece = room
                        done = rem - room <= _TIME_EPS
                    e = st + piece
                    if not done and e <= t:
                        raise RuntimeError(
                            f"device {dev}: item {items[win_pos].iid} "
                            f"placed without advancing the cursor at "
                            f"t={t!r} (step {step})"
                        )
                    segments[win_pos].append((st, e))
                    placed[win_pos] = placed[win_pos] + (e - st)
                    t = e
                    if done:
                        remaining -= 1
                        if from_future:
                            del future[win_at]
                        else:
                            del now[win_at]
                        item_end = e
                        deps = dependents.get(win_pos)
                        if deps:
                            for dpos in deps:
                                dep_count[dpos] -= 1
                                if item_end > dep_max_end[dpos]:
                                    dep_max_end[dpos] = item_end
                                if dep_count[dpos] == 0:
                                    insort(future, (dep_max_end[dpos], dpos))
                    elif from_future:
                        # Partial placement from the future set: the
                        # cursor has passed its readiness, so it re-enters
                        # as a "now" candidate.
                        del future[win_at]
                        insort(now, (-win_ready, win_pos))
                if remaining == 0:
                    steps_used = step + 1
                    break
            if remaining == 0:
                steps_used = step + 1
                break
            total = 0.0
            for p in placed:
                total += p
            if total <= last_placed_duration + _EPS:
                waiting = {pos for _, pos in now} | {pos for _, pos in future}
                stuck = [items[pos].iid for pos in range(n)
                         if pos in waiting or dep_count[pos] > 0]
                raise RuntimeError(
                    f"device {dev}: no placement progress in step {step}; "
                    f"stuck items: {stuck[:5]}"
                )
            last_placed_duration = total
        else:
            raise RuntimeError(
                f"device {dev}: {remaining} K-FAC items still unassigned "
                f"after {max_steps} steps; bubbles too small for the work"
            )
        steps_out[dev] = steps_used

    return CompiledFill(segments=seg_out, device_steps=steps_out, span=span)
