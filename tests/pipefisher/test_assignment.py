"""The §3.1 automatic work assignment: correctness invariants."""

import numpy as np
import pytest

from repro.perfmodel.costs import StageCosts, WorkCosts
from repro.pipefisher import BubbleFiller, build_device_queues
from repro.pipeline import GPipeSchedule, PipelineConfig, simulate_tasks
from repro.pipeline.bubbles import OCCUPYING_KINDS
from repro.profiler import Timeline


def setup(tf=1.0, tb=2.0, curv=0.2, inv=0.6, overhead=1.0, depth=4, n_micro=4,
          layers=1, steady_state=True):
    block = WorkCosts(t_fwd=tf, t_bwd=tb, t_curv_a=curv, t_curv_b=curv,
                      t_inv=inv, t_prec=0.05)
    costs = StageCosts(block=block, layers_per_stage=layers,
                       t_overhead=overhead, kernel_density=1.0)
    cfg = PipelineConfig(depth=depth, n_micro=n_micro, costs=costs,
                         precondition=True)
    builder = GPipeSchedule(cfg)
    template = simulate_tasks(builder.build(), builder.num_devices)
    queues = build_device_queues(builder, costs)
    filler = BubbleFiller(template, queues, steady_state=steady_state)
    return builder, template, queues, filler


def trigger_end(template, kind, stage, micro_batch):
    """End of the replica-0 ``kind`` event of (stage, micro-batch)."""
    return max(e.end for e in template.timeline.events
               if e.kind == kind and e.meta["stage"] == stage
               and e.meta["micro_batch"] == micro_batch
               and e.meta.get("pipeline") is None
               and e.meta.get("replica", 0) == 0)


class TestFilling:
    def test_everything_assigned(self):
        _, _, queues, filler = setup()
        result = filler.fill()
        for q in queues.values():
            assert q.unassigned() == []
        assert result.refresh_steps >= 1

    def test_no_overlap_with_base_schedule(self):
        """Assigned K-FAC work must live strictly inside bubbles."""
        builder, template, _, filler = setup()
        result = filler.fill()
        span = template.makespan
        combined = Timeline(builder.num_devices)
        for k in range(result.refresh_steps):
            combined.extend([e.shifted(k * span) for e in template.timeline.events])
        combined.extend(result.events())
        combined.verify_no_overlap(kinds=OCCUPYING_KINDS)

    def test_duration_conserved(self):
        _, _, queues, filler = setup()
        total_before = sum(q.total_duration for q in queues.values())
        result = filler.fill()
        placed = sum(e.duration for e in result.events())
        assert placed == pytest.approx(total_before, rel=1e-9)

    def test_rule1_curvature_a_after_forward(self):
        """Non-steady mode: A-curvature never precedes its forward."""
        _, template, queues, filler = setup(steady_state=False)
        filler.fill()
        for q in queues.values():
            for item in q.items:
                if item.kind == "curvature" and item.factor == "A":
                    end = trigger_end(template, "forward", item.stage,
                                      item.micro_batch)
                    assert item.start >= end - 1e-9

    def test_rule1_curvature_b_after_backward(self):
        _, template, queues, filler = setup(steady_state=False)
        filler.fill()
        for q in queues.values():
            for item in q.items:
                if item.kind == "curvature" and item.factor == "B":
                    end = trigger_end(template, "backward", item.stage,
                                      item.micro_batch)
                    assert item.start >= end - 1e-9

    def test_rule2_inversion_after_all_curvature(self):
        _, _, queues, filler = setup()
        filler.fill()
        for q in queues.values():
            by_id = q.by_id()
            for inv in (i for i in q.items if i.kind == "inversion"):
                dep_end = max(by_id[d].end for d in inv.trigger[1])
                assert inv.start >= dep_end - 1e-9

    def test_steady_state_uses_early_bubbles(self):
        """Steady-state readiness drains the queue in fewer steps."""
        *_, f_cold = setup(steady_state=False, curv=0.5, inv=1.5)
        cold = f_cold.fill().refresh_steps
        *_, f_ss = setup(steady_state=True, curv=0.5, inv=1.5)
        warm = f_ss.fill().refresh_steps
        assert warm <= cold

    def test_work_splitting_across_bubbles(self):
        """A work longer than any single bubble still gets placed."""
        _, _, queues, filler = setup(inv=20.0)  # inversion >> any bubble
        result = filler.fill()
        inv_items = [i for q in queues.values() for i in q.items
                     if i.kind == "inversion"]
        assert all(i.assigned for i in inv_items)
        assert any(len(i.segments) > 1 for i in inv_items)

    def test_refresh_steps_scale_with_work(self):
        # Per-device bubble per step is ~10 time units in this setup; the
        # big case carries ~22 units of K-FAC work per device.
        *_, f_small = setup(curv=0.05, inv=0.1)
        *_, f_big = setup(curv=2.0, inv=6.0)
        small = f_small.fill().refresh_steps
        big = f_big.fill().refresh_steps
        assert small == 1
        assert big >= 3

    def test_impossible_fill_raises(self):
        # Zero-bubble schedule cannot host K-FAC work: force tiny max_steps
        # with massive work.
        *_, filler = setup(curv=5.0, inv=20.0)
        filler.max_steps = 2
        with pytest.raises(RuntimeError):
            filler.fill()

    def test_device_refresh_reported(self):
        _, _, _, filler = setup()
        result = filler.fill()
        assert set(result.device_refresh_steps) == {0, 1, 2, 3}
        assert result.refresh_steps == max(result.device_refresh_steps.values())

    def test_events_have_step_metadata(self):
        _, _, _, filler = setup()
        result = filler.fill()
        for e in result.events():
            assert 0 <= e.meta["step"] < result.refresh_steps


class TestFillTimeValidation:
    """A bad fill must fail at assignment time, not when reporting."""

    def test_fill_raises_on_unassigned_items(self, monkeypatch):
        """If a device's items somehow escape placement, fill() itself
        raises instead of handing back a result whose events() blows up."""
        from repro.sweep import retime

        fill_queues = retime.fill_queues

        def skip_device_0(*args, **kwargs):
            fill = fill_queues(*args, **kwargs)
            # placement silently skipped
            fill.segments[0] = [[] for _ in fill.segments[0]]
            return fill

        monkeypatch.setattr(retime, "fill_queues", skip_device_0)
        _, _, _, filler = setup()
        with pytest.raises(RuntimeError, match="unassigned"):
            filler.fill()

    def test_events_reports_partial_segments_without_raising(self):
        """events() is a pure reporter now: it renders whatever segments
        exist (fill() already guarantees completeness for real results)."""
        from repro.pipefisher.assignment import AssignmentResult
        from repro.pipefisher.workqueue import KFACWorkItem, KFACWorkQueue

        item = KFACWorkItem(
            iid="kfac0.d0", device=0, kind="curvature", factor="A", stage=0,
            block=0, micro_batch=0, pipeline=None, duration=1.0,
            trigger=("forward", 0, 0, None),
            segments=[(0.0, 0.25)],  # partially placed: not assigned
        )
        assert not item.assigned
        result = AssignmentResult(
            queues={0: KFACWorkQueue(device=0, items=[item])},
            refresh_steps=1, span=2.0,
        )
        events = result.events()
        assert [(e.start, e.end) for e in events] == [(0.0, 0.25)]


class TestReadinessIndex:
    """The dependency-counter index must match on-demand readiness."""

    def test_inversion_ready_exactly_at_last_curvature_end(self):
        _, _, queues, filler = setup()
        filler.fill()
        for q in queues.values():
            by_id = q.by_id()
            for inv in (i for i in q.items if i.kind == "inversion"):
                dep_ends = [by_id[d].end for d in inv.trigger[1]]
                # the indexed rt is max(dep ends); start can never precede it
                assert inv.start >= max(dep_ends) - 1e-12

    def test_chained_items_triggers(self):
        """sync_curv depends on ALL curvature; inversions depend on their
        curvature AND the sync item — a two-level counter chain."""
        block = WorkCosts(t_fwd=1.0, t_bwd=2.0, t_curv_a=0.2, t_curv_b=0.2,
                          t_inv=0.6, t_prec=0.05)
        costs = StageCosts(block=block, layers_per_stage=1, t_overhead=1.0,
                           kernel_density=1.0)
        cfg = PipelineConfig(depth=4, n_micro=8, costs=costs, dp=2,
                             precondition=True, stage_param_bytes=1e8)
        from repro.pipeline import make_schedule
        builder = make_schedule("1f1b", cfg)
        template = simulate_tasks(builder.build(), builder.num_devices)
        queues = build_device_queues(builder, costs, inversion_parallel=True,
                                     sync_curv_seconds=0.05)
        result = BubbleFiller(template, queues, dp=2).fill()
        for q in queues.values():
            by_id = q.by_id()
            syncs = [i for i in q.items if i.kind == "sync_curv"]
            assert syncs, "inversion_parallel run must carry sync items"
            for sync in syncs:
                assert sync.start >= max(
                    by_id[d].end for d in sync.trigger[1]) - 1e-12
            for inv in (i for i in q.items if i.kind == "inversion"):
                assert sync.iid in inv.trigger[1]
        assert result.refresh_steps >= 1

    def test_items_trigger_without_deps_fills_first_bubble(self):
        """An ``("items", ())`` item is ready at 0.0, so it lands in the
        device's first bubble."""
        from repro.pipefisher.workqueue import KFACWorkItem, KFACWorkQueue
        from repro.pipeline.bubbles import bubble_intervals

        _, template, _, _ = setup()
        item = KFACWorkItem(
            iid="free.d0", device=0, kind="sync_curv", factor="-", stage=0,
            block=0, micro_batch=None, pipeline=None, duration=0.1,
            trigger=("items", ()),
        )
        result = BubbleFiller(template, {0: KFACWorkQueue(0, [item])}).fill()
        first = bubble_intervals(template.timeline, 0,
                                 (0.0, template.makespan),
                                 min_duration=1e-5)[0]
        assert item.segments == [(first[0], first[0] + 0.1)]
        assert result.device_refresh_steps == {0: 1}
