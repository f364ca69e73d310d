"""GPipe / 1F1B / Chimera schedule structure against the paper's model.

Uses symmetric unit costs so spans can be compared to the Table 1
critical-path constants: with N_micro = D,
GPipe/1F1B span = (2D-1)(Tf+Tb); Chimera span = D*Tf + (2D-2)*Tb.
"""

import numpy as np
import pytest

from repro.perfmodel.costs import StageCosts, WorkCosts
from repro.pipeline import (
    ChimeraSchedule,
    GPipeSchedule,
    OneFOneBSchedule,
    PipelineConfig,
    make_schedule,
    simulate_tasks,
)
from repro.pipeline.bubbles import bubble_fraction, bubble_time


def unit_costs(tf=1.0, tb=2.0, overhead=0.0):
    block = WorkCosts(t_fwd=tf, t_bwd=tb, t_curv_a=0.1, t_curv_b=0.1,
                      t_inv=0.3, t_prec=0.05)
    return StageCosts(block=block, layers_per_stage=1, t_overhead=overhead,
                      kernel_density=1.0)


def config(depth=4, n_micro=4, tf=1.0, tb=2.0, overhead=0.0, **kw):
    return PipelineConfig(depth=depth, n_micro=n_micro,
                          costs=unit_costs(tf, tb, overhead), **kw)


def simulate(name, cfg, steps=1):
    b = make_schedule(name, cfg)
    return b, simulate_tasks(b.build(steps=steps), b.num_devices)


class TestGPipe:
    def test_span_matches_critical_path(self):
        _, res = simulate("gpipe", config())
        # (N + D - 1) * (Tf + Tb) = 7 * 3.
        assert res.makespan == pytest.approx(21.0)

    def test_span_general_n_micro(self):
        _, res = simulate("gpipe", config(n_micro=8))
        assert res.makespan == pytest.approx((8 + 3) * 3.0)

    def test_bubble_time_matches_formula(self):
        b, res = simulate("gpipe", config())
        # Per device: span - N(Tf+Tb) = 21 - 12 = 9; x4 devices.
        assert bubble_time(res.timeline) == pytest.approx(36.0)

    def test_backwards_in_reverse_order_last_stage(self):
        b, res = simulate("gpipe", config())
        last = b.config.depth - 1
        bwd = [e for e in res.timeline.device_events(last)
               if e.kind == "backward"]
        order = [e.meta["micro_batch"] for e in sorted(bwd, key=lambda e: e.start)]
        assert order == [3, 2, 1, 0]

    def test_all_microbatches_in_flight(self):
        _, res = simulate("gpipe", config())
        assert max(res.peak_inflight.values()) == 4

    def test_two_steps_serialized_by_flush(self):
        _, res1 = simulate("gpipe", config(overhead=0.5))
        _, res2 = simulate("gpipe", config(overhead=0.5), steps=2)
        assert res2.makespan == pytest.approx(2 * res1.makespan)


class TestOneFOneB:
    def test_same_span_as_gpipe_at_n_equals_d(self):
        """Paper §3.3: time identical to GPipe when N_micro = D."""
        _, g = simulate("gpipe", config())
        _, f = simulate("1f1b", config())
        assert f.makespan == pytest.approx(g.makespan)

    def test_memory_advantage_peak_inflight(self):
        """1F1B caps in-flight micro-batches at D - stage."""
        b, res = simulate("1f1b", config(n_micro=8))
        for (r, _, stage), peak in res.peak_inflight.items():
            assert peak <= b.config.depth - stage

    def test_gpipe_higher_peak_than_1f1b_when_n_gt_d(self):
        _, g = simulate("gpipe", config(n_micro=8))
        _, f = simulate("1f1b", config(n_micro=8))
        assert max(g.peak_inflight.values()) > max(f.peak_inflight.values())

    def test_steady_state_alternation(self):
        """In steady state the middle of the schedule alternates 1F1B."""
        b, res = simulate("1f1b", config(n_micro=8))
        evs = sorted(res.timeline.device_events(0), key=lambda e: e.start)
        kinds = [e.kind for e in evs if e.kind in ("forward", "backward")]
        # After the D warmup forwards, forwards and backwards alternate.
        middle = kinds[4:-4]
        alternations = sum(1 for a, b2 in zip(middle, middle[1:]) if a != b2)
        assert alternations >= len(middle) - 2


@pytest.mark.parametrize("name, cfg, dp", [
    ("1f1b", config(n_micro=8), 1),
    ("1f1b", config(n_micro=8, dp=2, stage_param_bytes=1e8), 2),
    ("interleaved",
     config(depth=8, n_micro=8, tf=0.5, tb=1.0, virtual_chunks=2), 1),
])
def test_peak_inflight_reaches_cap_exactly(name, cfg, dp):
    """``peak_inflight`` matches the per-dispatch count of the original
    event loop: every stage of every replica reaches its cap D - stage,
    never more (releases at an instant come before its admissions)."""
    b, res = simulate(name, cfg)
    depth = b.config.depth
    assert res.peak_inflight == {
        (r, "uni", s): depth - s for r in range(dp) for s in range(depth)}


class TestChimera:
    def test_span_matches_critical_path(self):
        _, res = simulate("chimera", config())
        # D*Tf + (2D-2)*Tb = 4 + 12 = 16 with Tf=1, Tb=2.
        assert res.makespan == pytest.approx(16.0, rel=0.07)

    def test_fewer_bubbles_than_gpipe(self):
        _, g = simulate("gpipe", config())
        _, c = simulate("chimera", config())
        assert bubble_fraction(c.timeline) < bubble_fraction(g.timeline)

    def test_each_device_hosts_two_stages(self):
        cfg = config()
        b = ChimeraSchedule(cfg)
        assert b.stages_of_device(0) == [0, 3]
        assert b.stages_of_device(1) == [1, 2]

    def test_dp_group_is_pipeline_pair(self):
        b = ChimeraSchedule(config())
        assert b.dp_group(0) == [0, 3]
        assert b.dp_group(1) == [1, 2]

    def test_every_device_processes_n_micro(self):
        cfg = config()
        b = ChimeraSchedule(cfg)
        res = simulate_tasks(b.build(), b.num_devices)
        for d in range(b.num_devices):
            fwd = [e for e in res.timeline.device_events(d) if e.kind == "forward"]
            assert len(fwd) == cfg.n_micro

    def test_odd_depth_rejected(self):
        with pytest.raises(ValueError):
            ChimeraSchedule(config(depth=3, n_micro=4))

    def test_odd_micro_batches_rejected(self):
        with pytest.raises(ValueError):
            ChimeraSchedule(config(depth=4, n_micro=3))

    def test_higher_utilization_than_1f1b(self):
        from repro.profiler import utilization

        _, c = simulate("chimera", config())
        _, f = simulate("1f1b", config())
        u = {"chimera": utilization(c.timeline), "1f1b": utilization(f.timeline)}
        assert u["chimera"] > u["1f1b"]


class TestInterleaved:
    """Interleaved 1F1B: v virtual stage chunks per device (Megatron)."""

    def icfg(self, P=4, v=2, n_micro=8, tf=1.0, tb=2.0, **kw):
        # Per-virtual-stage costs scaled by 1/v: same total model as a
        # plain depth-P pipeline with per-stage costs (tf, tb).
        return config(depth=P * v, n_micro=n_micro, tf=tf / v, tb=tb / v,
                      virtual_chunks=v, **kw)

    def test_stage_to_device_round_robin(self):
        b = make_schedule("interleaved", self.icfg(P=4, v=2))
        assert b.num_devices == 4
        assert b.stages_of_device(0) == [0, 4]
        assert b.stages_of_device(3) == [3, 7]
        assert b.device(5, 0) == 1

    def test_span_matches_interleaved_bubble(self):
        """Bubble shrinks to (P-1)(Tf+Tb)/v: span = N(Tf+Tb) + that."""
        b, res = simulate("interleaved", self.icfg(P=4, v=2, n_micro=8))
        assert res.makespan == pytest.approx(8 * 3.0 + 3 * 3.0 / 2)

    def test_beats_plain_1f1b_same_model_same_devices(self):
        _, plain = simulate("1f1b", config(depth=4, n_micro=8))
        for v in (2, 4):
            _, inter = simulate("interleaved",
                                self.icfg(P=4, v=v, n_micro=8))
            assert inter.makespan < plain.makespan
        from repro.pipeline.bubbles import bubble_fraction
        _, inter = simulate("interleaved", self.icfg(P=4, v=2, n_micro=8))
        assert bubble_fraction(inter.timeline) < bubble_fraction(plain.timeline)

    def test_every_device_runs_all_chunks(self):
        cfg = self.icfg(P=4, v=2, n_micro=8)
        b = make_schedule("interleaved", cfg)
        res = simulate_tasks(b.build(), b.num_devices)
        for d in range(b.num_devices):
            fwd = [e for e in res.timeline.device_events(d)
                   if e.kind == "forward"]
            assert len(fwd) == cfg.n_micro * 2  # n_micro per chunk
            assert {e.meta["stage"] for e in fwd} == set(b.stages_of_device(d))

    def test_dp_group_and_sync_grad(self):
        cfg = self.icfg(P=4, v=2, dp=2, stage_param_bytes=1e8)
        b = make_schedule("interleaved", cfg)
        assert b.num_devices == 8
        assert b.dp_group(0) == [0, 1]
        res = simulate_tasks(b.build(), b.num_devices)
        syncs = [e for e in res.timeline.events if e.kind == "sync_grad"]
        assert len(syncs) == 8  # one per device

    def test_inflight_capped_by_virtual_depth(self):
        b, res = simulate("interleaved", self.icfg(P=4, v=2, n_micro=8))
        for (r, _, stage), peak in res.peak_inflight.items():
            assert peak <= b.config.depth - stage

    def test_invalid_chunking_rejected(self):
        with pytest.raises(ValueError, match="virtual_chunks"):
            make_schedule("interleaved",
                          config(depth=4, n_micro=4, virtual_chunks=1))
        with pytest.raises(ValueError, match="divisible"):
            make_schedule("interleaved",
                          config(depth=6, n_micro=4, virtual_chunks=4))
        with pytest.raises(ValueError, match="fewer than 2"):
            make_schedule("interleaved",
                          config(depth=4, n_micro=4, virtual_chunks=4))
        with pytest.raises(ValueError):
            PipelineConfig(depth=4, n_micro=4, costs=unit_costs(),
                           virtual_chunks=0)


class TestZeroBubble:
    """ZB-H1: split backward, weight-grads deferred into the bubbles."""

    def test_backward_is_split(self):
        b, res = simulate("zb1f1b", config(n_micro=8))
        kinds = [e.kind for e in res.timeline.events]
        assert "backward" not in kinds
        n_tasks = 4 * 8  # depth * n_micro
        assert kinds.count("backward_input") == n_tasks
        assert kinds.count("backward_weight") == n_tasks

    def test_split_durations_sum_to_full_backward(self):
        c = unit_costs()
        assert c.t_bwd_input + c.t_bwd_weight == c.t_bwd
        b, res = simulate("zb1f1b", config(n_micro=4))
        for e in res.timeline.events:
            if e.kind == "backward_input":
                assert e.duration == pytest.approx(1.0)  # Tb/2
            elif e.kind == "backward_weight":
                assert e.duration == pytest.approx(1.0)

    def test_weight_grad_follows_own_input_grad(self):
        b, res = simulate("zb1f1b", config(n_micro=8))
        b_end = {}
        for e in res.timeline.events:
            key = (e.meta.get("micro_batch"), e.meta.get("stage"))
            if e.kind == "backward_input":
                b_end[key] = e.end
        for e in res.timeline.events:
            if e.kind == "backward_weight":
                key = (e.meta["micro_batch"], e.meta["stage"])
                assert e.start >= b_end[key] - 1e-9

    def test_span_matches_zero_bubble_closed_form(self):
        """Symmetric costs: span = N (Tf + Tb) + (D - 1) Tf — the W-filled
        cooldown leaves only the warmup ramp as bubble."""
        _, res = simulate("zb1f1b", config(n_micro=8))
        assert res.makespan == pytest.approx(8 * 3.0 + 3 * 1.0)

    def test_beats_plain_1f1b_span_and_bubble(self):
        _, plain = simulate("1f1b", config(n_micro=8))
        _, zb = simulate("zb1f1b", config(n_micro=8))
        assert zb.makespan < plain.makespan
        assert (bubble_fraction(zb.timeline, (0.0, zb.makespan))
                < bubble_fraction(plain.timeline, (0.0, plain.makespan)))

    def test_same_activation_memory_as_1f1b(self):
        """The H1 variant: in-flight cap D - stage, released at the
        input-grad's end, exactly like 1F1B."""
        b, res = simulate("zb1f1b", config(n_micro=8))
        for (r, _, stage), peak in res.peak_inflight.items():
            assert peak <= b.config.depth - stage

    def test_weight_grads_deferred_below_forwards(self):
        """On the last-stage device, at least one weight-grad runs after
        a later micro-batch's forward — the deferral that fills bubbles."""
        b, res = simulate("zb1f1b", config(n_micro=8))
        last = b.config.depth - 1
        evs = sorted(res.timeline.device_events(last), key=lambda e: e.start)
        deferred = 0
        fwd_seen: list[int] = []
        for e in evs:
            if e.kind == "forward":
                fwd_seen.append(e.meta["micro_batch"])
            elif e.kind == "backward_weight":
                if any(m > e.meta["micro_batch"] for m in fwd_seen):
                    deferred += 1
        assert deferred > 0

    def test_sync_grad_waits_for_weight_grads(self):
        cfg = config(n_micro=4, dp=2, stage_param_bytes=1e8)
        b = make_schedule("zb1f1b", cfg)
        tasks = {t.tid: t for t in b.build(steps=1)}
        sync = [t for t in tasks.values() if t.kind.value == "sync_grad"]
        assert len(sync) == 8
        for t in sync:
            assert t.deps
            assert all(d.startswith("W.") for d in t.deps)


class TestDataParallel:
    def test_device_count(self):
        cfg = config(dp=2)
        assert GPipeSchedule(cfg).num_devices == 8

    def test_sync_grad_emitted_with_dp(self):
        cfg = config(dp=2, stage_param_bytes=1e8)
        b, res = GPipeSchedule(cfg), None
        res = simulate_tasks(b.build(), b.num_devices)
        syncs = [e for e in res.timeline.events if e.kind == "sync_grad"]
        assert len(syncs) == 8  # one per device

    def test_no_sync_without_dp(self):
        cfg = config(stage_param_bytes=1e8)
        b = GPipeSchedule(cfg)
        res = simulate_tasks(b.build(), b.num_devices)
        assert [e for e in res.timeline.events if e.kind == "sync_grad"] == []

    def test_chimera_sync_even_without_outer_dp(self):
        """Chimera's pipeline pair replicates weights -> sync always needed."""
        cfg = config(stage_param_bytes=1e8)
        b = ChimeraSchedule(cfg)
        res = simulate_tasks(b.build(), b.num_devices)
        syncs = [e for e in res.timeline.events if e.kind == "sync_grad"]
        assert len(syncs) == 4

    def test_dp_group_across_replicas(self):
        cfg = config(dp=2)
        b = GPipeSchedule(cfg)
        assert b.dp_group(0) == [0, 1]
        assert b.dp_group(5) == [4, 5]

    def test_replicas_independent_until_sync(self):
        cfg = config(dp=2)
        b = GPipeSchedule(cfg)
        res = simulate_tasks(b.build(), b.num_devices)
        # Same per-replica span as a single pipeline.
        assert res.makespan == pytest.approx(21.0)


class TestRecompute:
    def test_backward_includes_extra_forward(self):
        _, plain = simulate("gpipe", config())
        _, rec = simulate("gpipe", config(recompute=True))
        # Backward slots grow from Tb to Tb+Tf: span (2D-1)(Tf + Tb+Tf).
        assert rec.makespan == pytest.approx(7 * 4.0)
        assert rec.makespan > plain.makespan

    def test_bubble_grows_with_recompute(self):
        """§3.3: activation recomputation increases T_bubble."""
        _, plain = simulate("gpipe", config())
        _, rec = simulate("gpipe", config(recompute=True))
        assert bubble_time(rec.timeline) > bubble_time(plain.timeline)


class TestValidation:
    def test_unknown_schedule_lists_registry(self):
        """The error names every registered schedule (sourced from the
        registry, so new specs appear without touching make_schedule)."""
        with pytest.raises(ValueError, match="zb1f1b"):
            make_schedule("pipedream", config())
        with pytest.raises(ValueError, match="interleaved"):
            make_schedule("pipedream", config())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PipelineConfig(depth=1, n_micro=1, costs=unit_costs())
        with pytest.raises(ValueError):
            PipelineConfig(depth=4, n_micro=0, costs=unit_costs())
        with pytest.raises(ValueError):
            PipelineConfig(depth=4, n_micro=4, costs=unit_costs(), dp=0)

    def test_build_steps_validation(self):
        b = GPipeSchedule(config())
        with pytest.raises(ValueError):
            b.build(steps=0)

    def test_precondition_task_appended(self):
        cfg = config(precondition=True)
        b = GPipeSchedule(cfg)
        res = simulate_tasks(b.build(), b.num_devices)
        precs = [e for e in res.timeline.events if e.kind == "precondition"]
        assert len(precs) == 4
        # Precondition is after the device's last backward.
        for d in range(4):
            bwd_end = max(e.end for e in res.timeline.device_events(d)
                          if e.kind == "backward")
            prec = [e for e in res.timeline.device_events(d)
                    if e.kind == "precondition"][0]
            assert prec.start >= bwd_end - 1e-9
