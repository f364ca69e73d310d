"""Discrete-event executor: dependencies, priorities, admission control."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.pipeline import Task, WorkKind, simulate_tasks


def task(tid, device, dur, deps=(), priority=(0,), kind=WorkKind.FORWARD, meta=None):
    return Task(tid=tid, device=device, kind=kind, duration=dur,
                deps=tuple(deps), priority=priority, meta=meta or {})


class TestBasics:
    def test_chain_on_one_device(self):
        res = simulate_tasks(
            [task("a", 0, 1.0), task("b", 0, 2.0, deps=["a"])], 1
        )
        assert res.start_times["b"] == pytest.approx(1.0)
        assert res.makespan == pytest.approx(3.0)

    def test_cross_device_dependency(self):
        res = simulate_tasks(
            [task("a", 0, 1.0), task("b", 1, 1.0, deps=["a"])], 2
        )
        assert res.start_times["b"] == pytest.approx(1.0)

    def test_independent_tasks_parallel(self):
        res = simulate_tasks([task("a", 0, 2.0), task("b", 1, 2.0)], 2)
        assert res.makespan == pytest.approx(2.0)

    def test_priority_order_on_device(self):
        res = simulate_tasks(
            [task("low", 0, 1.0, priority=(5,)), task("high", 0, 1.0, priority=(1,))],
            1,
        )
        assert res.start_times["high"] < res.start_times["low"]

    def test_device_waits_for_ready(self):
        # b (high priority) not ready until a completes on other device;
        # c runs first because it is ready immediately.
        res = simulate_tasks(
            [
                task("a", 1, 5.0),
                task("b", 0, 1.0, deps=["a"], priority=(0,)),
                task("c", 0, 1.0, priority=(9,)),
            ],
            2,
        )
        assert res.start_times["c"] == pytest.approx(0.0)
        assert res.start_times["b"] == pytest.approx(5.0)

    def test_zero_duration_control_task(self):
        barrier = Task(tid="bar", device=None, kind=WorkKind.BARRIER, duration=0.0,
                       deps=("a",))
        res = simulate_tasks(
            [task("a", 0, 2.0), barrier, task("b", 0, 1.0, deps=["bar"])], 1
        )
        assert res.end_times["bar"] == pytest.approx(2.0)
        assert res.start_times["b"] == pytest.approx(2.0)

    @pytest.mark.parametrize("kind", list(WorkKind))
    def test_every_work_kind_simulates(self, kind):
        """Kinds no schedule builder emits (recompute, K-FAC work) still
        simulate with their own durations."""
        res = simulate_tasks(
            [task("a", 0, 1.0), task("b", 0, 2.0, deps=["a"], kind=kind)], 1
        )
        assert res.start_times["b"] == 1.0
        assert res.makespan == 3.0
        assert [e.kind for e in res.timeline.events] == ["forward", kind.value]

    def test_timeline_events_emitted(self):
        res = simulate_tasks([task("a", 0, 1.0)], 1)
        assert len(res.timeline.events) == 1
        assert res.timeline.events[0].kind == "forward"


class TestErrors:
    def test_duplicate_id(self):
        with pytest.raises(ValueError):
            simulate_tasks([task("a", 0, 1.0), task("a", 0, 1.0)], 1)

    def test_unknown_dep(self):
        with pytest.raises(RuntimeError):
            simulate_tasks([task("a", 0, 1.0, deps=["ghost"])], 1)

    def test_cycle_detected_as_deadlock(self):
        with pytest.raises(RuntimeError, match="deadlock"):
            simulate_tasks(
                [task("a", 0, 1.0, deps=["b"]), task("b", 0, 1.0, deps=["a"])], 1
            )

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            task("a", 0, -1.0)

    def test_control_task_needs_barrier_kind(self):
        with pytest.raises(ValueError):
            Task(tid="x", device=None, kind=WorkKind.FORWARD, duration=0.0)


class TestInflightControl:
    def test_limit_blocks_forward(self):
        """With limit 1, the second forward waits for the first backward."""
        fwd_meta = {"inflight_key": "s0", "inflight_limit": 1}
        bwd_meta = {"inflight_release": "s0"}
        tasks = [
            task("f0", 0, 1.0, priority=(1, 0), meta=dict(fwd_meta)),
            task("f1", 0, 1.0, priority=(1, 1), meta=dict(fwd_meta)),
            task("b0", 0, 1.0, deps=["f0"], priority=(0, 0),
                 kind=WorkKind.BACKWARD, meta=dict(bwd_meta)),
            task("b1", 0, 1.0, deps=["f1"], priority=(0, 1),
                 kind=WorkKind.BACKWARD, meta=dict(bwd_meta)),
        ]
        res = simulate_tasks(tasks, 1)
        assert res.start_times["f1"] >= res.end_times["b0"] - 1e-9
        assert res.peak_inflight["s0"] == 1

    def test_unbounded_without_key(self):
        tasks = [task(f"f{i}", 0, 1.0, priority=(i,)) for i in range(4)]
        res = simulate_tasks(tasks, 1)
        assert res.makespan == pytest.approx(4.0)

    def test_peak_inflight_tracked(self):
        fwd = {"inflight_key": "k", "inflight_limit": 3}
        tasks = [task(f"f{i}", 0, 1.0, priority=(i,), meta=dict(fwd)) for i in range(3)]
        res = simulate_tasks(tasks, 1)
        assert res.peak_inflight["k"] == 3


class TestAdmissionTiming:
    """Regression: in-flight slots must be released at the releasing
    backward's simulated *end* time, not when it is picked.

    The pre-rewrite executor applied a backward's release as soon as the
    scheduler chose it (``complete()`` ran at pick time), so a forward on
    *another* device sharing the in-flight key could be admitted at a
    simulated time before the backward freeing its slot had ended —
    overstating overlap and understating ``peak_inflight``.
    """

    def test_cross_device_forward_waits_for_release_end(self):
        # dev0: f0 takes the only slot; b0 (5s) releases it.
        # dev1: f1 wants the same slot and is otherwise free at t=0.
        # The old executor started f1 at t=0 (b0 picked, slot "freed");
        # the slot is genuinely free only at b0's end, t=6.
        fwd = {"inflight_key": "K", "inflight_limit": 1}
        tasks = [
            task("f0", 0, 1.0, priority=(0,), meta=dict(fwd)),
            task("b0", 0, 5.0, deps=["f0"], priority=(1,),
                 kind=WorkKind.BACKWARD, meta={"inflight_release": "K"}),
            task("f1", 1, 1.0, priority=(2,), meta=dict(fwd)),
        ]
        res = simulate_tasks(tasks, 2)
        assert res.end_times["b0"] == pytest.approx(6.0)
        assert res.start_times["f1"] >= res.end_times["b0"] - 1e-9
        assert res.peak_inflight["K"] == 1

    def test_release_chain_preserves_limit(self):
        """Two devices ping-pong one slot; occupancy never exceeds 1."""
        fwd = {"inflight_key": "K", "inflight_limit": 1}
        rel = {"inflight_release": "K"}
        tasks = []
        for i in range(4):
            dev = i % 2
            deps = [f"b{i - 1}"] if i else []
            tasks.append(task(f"f{i}", dev, 1.0, deps=deps, priority=(0, i),
                              meta=dict(fwd)))
            tasks.append(task(f"b{i}", dev, 2.0, deps=[f"f{i}"], priority=(1, i),
                              kind=WorkKind.BACKWARD, meta=dict(rel)))
        res = simulate_tasks(tasks, 2)
        assert res.peak_inflight["K"] == 1
        for i in range(1, 4):
            assert res.start_times[f"f{i}"] >= res.end_times[f"b{i - 1}"] - 1e-9


class TestDeterminism:
    """Timelines must not depend on hash order (PYTHONHASHSEED)."""

    @staticmethod
    def _chimera_events():
        from repro.perfmodel.costs import StageCosts, WorkCosts
        from repro.pipeline import PipelineConfig, make_schedule

        block = WorkCosts(t_fwd=1.0, t_bwd=2.0, t_curv_a=0.1, t_curv_b=0.1,
                          t_inv=0.3, t_prec=0.05)
        costs = StageCosts(block=block, layers_per_stage=1, t_overhead=0.1,
                           kernel_density=1.0)
        cfg = PipelineConfig(depth=4, n_micro=8, costs=costs, dp=2,
                             stage_param_bytes=1e8, precondition=True)
        b = make_schedule("chimera", cfg)
        res = simulate_tasks(b.build(steps=2), b.num_devices)
        return [(e.device, e.kind, e.start, e.end, e.label)
                for e in res.timeline.events]

    def test_repeated_runs_identical_event_lists(self):
        assert self._chimera_events() == self._chimera_events()

    def test_event_list_stable_across_hash_seeds(self):
        """Same Chimera config under different PYTHONHASHSEED values must
        produce byte-identical event lists (the old executor broke ties by
        ``set`` iteration order, which varies with the seed)."""
        import os
        import subprocess
        import sys

        script = (
            "import hashlib\n"
            "from repro.perfmodel.costs import StageCosts, WorkCosts\n"
            "from repro.pipeline import PipelineConfig, make_schedule, "
            "simulate_tasks\n"
            "block = WorkCosts(t_fwd=1.0, t_bwd=2.0, t_curv_a=0.1, "
            "t_curv_b=0.1, t_inv=0.3, t_prec=0.05)\n"
            "costs = StageCosts(block=block, layers_per_stage=1, "
            "t_overhead=0.1, kernel_density=1.0)\n"
            "cfg = PipelineConfig(depth=4, n_micro=8, costs=costs, dp=2, "
            "stage_param_bytes=1e8, precondition=True)\n"
            "b = make_schedule('chimera', cfg)\n"
            "res = simulate_tasks(b.build(steps=2), b.num_devices)\n"
            "evs = [(e.device, e.kind, e.start, e.end, e.label) "
            "for e in res.timeline.events]\n"
            "print(hashlib.sha256(repr(evs).encode()).hexdigest())\n"
        )
        src_dir = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath(src_dir)
        digests = set()
        for seed in ("0", "424242"):
            env["PYTHONHASHSEED"] = seed
            out = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, check=True, env=env,
            )
            digests.add(out.stdout.strip())
        assert len(digests) == 1, f"hash-seed-dependent timelines: {digests}"


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 12),
    n_devices=st.integers(1, 4),
    seed=st.integers(0, 999),
)
def test_random_dag_completes_and_respects_deps(n, n_devices, seed):
    """Property: any forward-edge DAG simulates without deadlock, every task
    runs after its dependencies, and same-device tasks never overlap."""
    import numpy as np

    rng = np.random.default_rng(seed)
    tasks = []
    for i in range(n):
        deps = [f"t{j}" for j in range(i) if rng.random() < 0.3]
        tasks.append(
            task(f"t{i}", int(rng.integers(n_devices)), float(rng.random()) + 0.01,
                 deps=deps, priority=(int(rng.integers(10)),))
        )
    res = simulate_tasks(tasks, n_devices)
    for t in tasks:
        for d in t.deps:
            assert res.start_times[t.tid] >= res.end_times[d] - 1e-9
    res.timeline.verify_no_overlap()
