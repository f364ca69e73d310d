"""Indexed bubble filler vs the seed's scan-all greedy loop.

The seed ``BubbleFiller`` rescanned every unassigned item per placed
segment, and every scan re-walked the full ``("items", ...)`` dependency
tuple — roughly cubic in queue size, and (after the event-driven executor
rewrite) the dominant cost of a PipeFisher run.  Today's filler
(:func:`repro.sweep.retime.fill_queues`) keeps per-device candidate lists
ordered by the greedy rule's ``(start, -ready, position)`` key and
decrements dependency counters as items complete — O(items log items +
total deps).

This benchmark freezes the seed algorithm below as the baseline, asserts
the rewrite produces bit-identical ``(iid -> segments)`` placements on
seed-sized configs of all four schedules, and demonstrates the asymptotic
win (>= 10x here; the gap keeps widening with size) on a depth=16,
n_micro=64, layers_per_stage=4 config.
"""

import time

from benchmarks.conftest import record, write_bench
from repro.perfmodel.costs import StageCosts, WorkCosts
from repro.pipefisher.assignment import AssignmentResult, BubbleFiller
from repro.pipefisher.workqueue import build_device_queues
from repro.pipeline import PipelineConfig, make_schedule, simulate_tasks
from repro.pipeline.bubbles import bubble_intervals


_EPS = 1e-9


class _LegacyBubbleFiller:
    """The seed filler's scan-all loops, kept verbatim as a frozen baseline."""

    def __init__(self, template, queues, dp=1, max_steps=64,
                 min_bubble=1e-5, min_chunk=2e-3, steady_state=True):
        self.template = template
        self.queues = queues
        self.dp = dp
        self.max_steps = max_steps
        self.min_bubble = min_bubble
        self.min_chunk = min_chunk
        self.steady_state = steady_state
        self.span = template.makespan
        self._event_end = {}
        for e in template.timeline.events:
            kind = "backward" if e.kind == "backward_input" else e.kind
            if kind in ("forward", "backward"):
                key = (
                    kind,
                    e.meta["stage"],
                    e.meta["micro_batch"],
                    e.meta.get("pipeline"),
                    e.meta.get("replica", 0),
                )
                self._event_end[key] = max(self._event_end.get(key, 0.0), e.end)

    def _ready_time(self, item, by_id):
        kind = item.trigger[0]
        if kind in ("forward", "backward"):
            _, s, m, pipe = item.trigger
            replica = item.device % self.dp
            rel = self._event_end.get((kind, s, m, pipe, replica))
            if rel is None:
                raise KeyError(
                    f"no {kind} event for stage {s}, micro-batch {m}, "
                    f"pipeline {pipe}, replica {replica}"
                )
            return rel - self.span if self.steady_state else rel
        if kind == "items":
            ends = []
            for dep in item.trigger[1]:
                dep_item = by_id[dep]
                if not dep_item.assigned:
                    return None
                ends.append(dep_item.end)
            return max(ends) if ends else 0.0
        raise ValueError(f"unknown trigger {item.trigger!r}")

    def _fill_device(self, device):
        q = self.queues[device]
        if not q.items:
            return 0
        by_id = q.by_id()
        bubbles0 = bubble_intervals(
            self.template.timeline,
            device,
            (0.0, self.span),
            min_duration=self.min_bubble,
        )
        if not bubbles0:
            raise RuntimeError(
                f"device {device} has no bubbles to fill (span {self.span:.4f}s)"
            )
        remaining = len(q.items)
        last_placed_duration = -1.0
        for step in range(self.max_steps):
            offset = step * self.span
            for b0, b1 in ((a + offset, b + offset) for a, b in bubbles0):
                t = b0
                while True:
                    best = None
                    for pos, item in enumerate(q.items):
                        if item.assigned:
                            continue
                        rt = self._ready_time(item, by_id)
                        if rt is None:
                            continue
                        st = max(t, rt)
                        room = b1 - st
                        if room < item.remaining - _EPS:
                            if (room < self.min_chunk - _EPS
                                    or item.remaining - room < self.min_chunk):
                                continue
                        elif room <= _EPS:
                            continue
                        cand = (st, -rt, pos)
                        if best is None or cand < best:
                            best = cand
                    if best is None:
                        break
                    st, _, pos = best
                    item = q.items[pos]
                    piece = min(item.remaining, b1 - st)
                    item.segments.append((st, st + piece))
                    t = st + piece
                    if item.assigned:
                        remaining -= 1
                if remaining == 0:
                    return step + 1
            if remaining == 0:
                return step + 1
            placed = sum(i.placed_duration for i in q.items)
            if placed <= last_placed_duration + _EPS:
                stuck = [i.iid for i in q.items if not i.assigned]
                raise RuntimeError(
                    f"device {device}: no placement progress in step {step}; "
                    f"stuck items: {stuck[:5]}"
                )
            last_placed_duration = placed
        raise RuntimeError(
            f"device {device}: {remaining} K-FAC items still unassigned after "
            f"{self.max_steps} steps; bubbles too small for the work"
        )

    def fill(self):
        per_device = {}
        for device in sorted(self.queues):
            per_device[device] = self._fill_device(device)
        unassigned = [
            i.iid for q in self.queues.values() for i in q.items if not i.assigned
        ]
        if unassigned:
            raise RuntimeError(
                f"fill left {len(unassigned)} item(s) unassigned: "
                f"{unassigned[:5]}"
            )
        refresh = max(per_device.values(), default=1)
        return AssignmentResult(
            queues=self.queues,
            refresh_steps=max(refresh, 1),
            span=self.span,
            device_refresh_steps=per_device,
        )


def _costs(curv=0.2, inv=0.6, layers=1):
    block = WorkCosts(t_fwd=1.0, t_bwd=2.0, t_curv_a=curv, t_curv_b=curv,
                      t_inv=inv, t_prec=0.05)
    return StageCosts(block=block, layers_per_stage=layers, t_overhead=0.1,
                      kernel_density=1.0)


def _fill(filler_cls, name, cfg, dp=1, inversion_parallel=False,
          sync_curv_seconds=0.0):
    builder = make_schedule(name, cfg)
    template = simulate_tasks(builder.build(), builder.num_devices)
    queues = build_device_queues(builder, cfg.costs,
                                 inversion_parallel=inversion_parallel,
                                 sync_curv_seconds=sync_curv_seconds)
    result = filler_cls(template, queues, dp=dp).fill()
    segments = {i.iid: i.segments for q in queues.values() for i in q.items}
    return result, segments


def test_identical_placements_on_seed_schedules():
    """Bit-identical ``(iid -> segments)`` on all four schedules.

    Covers a work split (inversion longer than any bubble), data
    parallelism, the sync-curvature item whose trigger carries the full
    curvature-id tuple (the dependency-counter path), and interleaving.
    """
    cases = [
        ("gpipe", dict(depth=4, n_micro=4, costs=_costs()), {}),
        ("gpipe", dict(depth=4, n_micro=4, costs=_costs(inv=20.0)), {}),
        ("1f1b", dict(depth=4, n_micro=8, costs=_costs(), dp=2,
                      stage_param_bytes=1e8),
         dict(dp=2, inversion_parallel=True, sync_curv_seconds=0.05)),
        ("chimera", dict(depth=4, n_micro=8, costs=_costs(layers=2),
                         stage_param_bytes=1e8), {}),
        ("interleaved", dict(depth=4, n_micro=8, costs=_costs(),
                             virtual_chunks=2), {}),
    ]
    for name, cfg_kwargs, fill_kwargs in cases:
        cfg = PipelineConfig(precondition=True, **cfg_kwargs)
        new_res, new_segs = _fill(BubbleFiller, name, cfg, **fill_kwargs)
        old_res, old_segs = _fill(_LegacyBubbleFiller, name, cfg, **fill_kwargs)
        assert new_res.refresh_steps == old_res.refresh_steps, name
        assert new_res.device_refresh_steps == old_res.device_refresh_steps, name
        assert new_segs == old_segs, name


def test_indexed_filler_scales(once, benchmark):
    """depth=16, n_micro=64, layers_per_stage=4: 8320 items, >= 10x."""
    cfg = PipelineConfig(depth=16, n_micro=64,
                         costs=_costs(curv=0.02, inv=0.3, layers=4),
                         precondition=True)
    builder = make_schedule("gpipe", cfg)
    template = simulate_tasks(builder.build(), builder.num_devices)

    queues = build_device_queues(builder, cfg.costs)
    n_items = sum(len(q.items) for q in queues.values())
    assert n_items >= 8000

    t0 = time.perf_counter()
    res = once(lambda: BubbleFiller(template, queues).fill())
    new_s = time.perf_counter() - t0
    new_segs = {i.iid: i.segments for q in queues.values() for i in q.items}

    legacy_queues = build_device_queues(builder, cfg.costs)
    t0 = time.perf_counter()
    legacy_res = _LegacyBubbleFiller(template, legacy_queues).fill()
    legacy_s = time.perf_counter() - t0
    legacy_segs = {i.iid: i.segments
                   for q in legacy_queues.values() for i in q.items}

    speedup = legacy_s / new_s
    print(f"\n{n_items} items on {builder.num_devices} devices: "
          f"indexed {new_s:.3f}s vs scan-all {legacy_s:.2f}s "
          f"({speedup:.1f}x), refresh {res.refresh_steps}")
    assert new_segs == legacy_segs
    assert res.refresh_steps == legacy_res.refresh_steps
    assert speedup >= 10.0, (
        f"expected >= 10x over the seed filler, got {speedup:.1f}x "
        f"({new_s:.3f}s vs {legacy_s:.2f}s)"
    )
    record(benchmark, n_items=n_items, indexed_s=round(new_s, 3),
           scan_all_s=round(legacy_s, 3), speedup=round(speedup, 1))
    write_bench("filler", n_items=n_items, num_devices=builder.num_devices,
                indexed_s=round(new_s, 3), scan_all_s=round(legacy_s, 3),
                speedup=round(speedup, 1), refresh_steps=res.refresh_steps)
