"""SweepEngine behavior: caches, bounds, synthetic costs, perf models."""

import pytest

from repro.perfmodel.arch import BERT_BASE
from repro.perfmodel.calibration import host_overhead
from repro.perfmodel.costs import StageCosts, WorkCosts
from repro.perfmodel.hardware import HARDWARE, P100
from repro.perfmodel.model import PipelinePerfModel
from repro.pipefisher import runner as runner_mod
from repro.pipefisher.runner import PipeFisherRun
from repro.sweep import SweepEngine, default_engine
from tests.sweep.test_engine_equivalence import assert_reports_identical


def chimera_point(b_micro=32, depth=8, hw="P100", **kw):
    return PipeFisherRun(schedule="chimera", arch=BERT_BASE,
                         hardware=HARDWARE[hw], b_micro=b_micro,
                         depth=depth, n_micro=depth, **kw)


class TestCacheBehavior:
    def test_template_hit_miss_counters(self):
        engine = SweepEngine()
        engine.run(chimera_point(b_micro=8))
        s = engine.stats()
        assert s["templates"].misses == 1 and s["templates"].hits == 0
        engine.run(chimera_point(b_micro=16))      # same structure
        s = engine.stats()
        assert s["templates"].hits == 1
        assert s["stage_costs"].misses == 2        # two distinct b_micro

    def test_structural_change_misses(self):
        """A changed structural knob must build a new template, never
        reuse a stale one."""
        engine = SweepEngine()
        engine.run(chimera_point(depth=8))
        for kw in (dict(depth=16), dict(depth=8, layers_per_stage=2),
                   dict(depth=8, inversion_parallel=True),
                   dict(depth=8, recompute=True)):
            engine.run(chimera_point(**kw))
        s = engine.stats()
        assert s["templates"].misses == 5
        assert s["templates"].hits == 0

    def test_virtual_chunks_canonicalized_away_for_non_interleaved(self):
        """gpipe ignores virtual_chunks, so differing values must share
        one template."""
        engine = SweepEngine()
        for vc in (2, 4):
            engine.run(PipeFisherRun(schedule="gpipe", arch=BERT_BASE,
                                     hardware=P100, b_micro=8, depth=4,
                                     n_micro=4, virtual_chunks=vc))
        s = engine.stats()
        assert s["templates"].misses == 1 and s["templates"].hits == 1

    def test_exact_repeat_hits_timing_cache(self):
        engine = SweepEngine()
        run = chimera_point()
        engine.run(run)
        engine.run(run)
        assert engine.timing_hits == 1
        assert engine.reexecutions == 1

    def test_bounded_over_100_point_sweep(self):
        """A 100-point sweep must not grow any cache past its bound."""
        engine = SweepEngine(max_templates=4, max_costs=8, max_timings=4)
        for i in range(100):
            engine.run(chimera_point(b_micro=1 + (i % 25), depth=4,
                                     hw=("P100", "V100")[i % 2]))
        s = engine.stats()
        assert s["templates"].size <= 4
        assert s["stage_costs"].size <= 8
        assert s["cached_timings"] <= 4 * 4
        assert s["stage_costs"].evictions > 0
        assert s["runs"] == 100

    def test_clear_resets_everything(self):
        engine = SweepEngine()
        engine.run(chimera_point())
        engine.clear()
        s = engine.stats()
        assert s["templates"].size == 0
        assert s["stage_costs"].size == 0
        assert s["runs"] == 0 and s["reexecutions"] == 0

    def test_default_engine_is_shared(self):
        assert default_engine() is default_engine()


def synthetic_costs(scale=1.0):
    """Exact-binary work costs whose uniform scaling is fp-exact."""
    block = WorkCosts(
        t_fwd=scale * (3 / 256),
        t_bwd=scale * (5 / 256),
        t_curv_a=scale * (3 / 1024),
        t_curv_b=scale * (3 / 1024),
        t_inv=scale * (7 / 1024),
        t_prec=scale * (1 / 1024),
    )
    return StageCosts(block=block, layers_per_stage=1,
                      t_overhead=scale * (1 / 64), kernel_density=1.0)


class TestSyntheticCosts:
    """Engine-vs-reference equivalence at exact-binary synthetic costs."""

    @staticmethod
    def _assert_matches_execute(monkeypatch, engine, run, costs):
        """``engine.run(run, costs)`` equals ``run.execute()`` at ``costs``.

        The reference computes its costs through the runner's
        ``compute_stage_costs``, so the synthetic model is seeded there.
        """
        got = engine.run(run, costs=costs)
        monkeypatch.setattr(runner_mod, "compute_stage_costs",
                            lambda *args, **kwargs: costs)
        assert_reports_identical(run.execute(), got)

    def test_uniform_x2_point_matches_reference(self, monkeypatch):
        """A point whose every duration is exactly 2x a timed point's is
        evaluated afresh and matches a from-scratch per-point run."""
        engine = SweepEngine()
        run = PipeFisherRun(schedule="1f1b", arch=BERT_BASE, hardware=P100,
                            b_micro=32, depth=4, n_micro=4)
        base_costs = synthetic_costs(1.0)
        scaled_costs = synthetic_costs(2.0)
        # Every field of the scaled model is exactly 2x the base model.
        for name in ("t_fwd", "t_bwd", "t_curv_a", "t_curv_b", "t_inv",
                     "t_prec"):
            assert getattr(scaled_costs.block, name) == \
                2.0 * getattr(base_costs.block, name)

        engine.run(run, costs=base_costs)
        assert engine.reexecutions == 1
        self._assert_matches_execute(monkeypatch, engine, run, scaled_costs)
        assert engine.reexecutions == 2

    def test_non_uniform_point_matches_reference(self, monkeypatch):
        engine = SweepEngine()
        run = PipeFisherRun(schedule="1f1b", arch=BERT_BASE, hardware=P100,
                            b_micro=32, depth=4, n_micro=4)
        engine.run(run, costs=synthetic_costs(1.0))
        other = synthetic_costs(2.0)
        other = StageCosts(
            block=WorkCosts(t_fwd=other.block.t_fwd * 1.5,
                            t_bwd=other.block.t_bwd,
                            t_curv_a=other.block.t_curv_a,
                            t_curv_b=other.block.t_curv_b,
                            t_inv=other.block.t_inv,
                            t_prec=other.block.t_prec),
            layers_per_stage=1, t_overhead=other.t_overhead,
            kernel_density=1.0,
        )
        self._assert_matches_execute(monkeypatch, engine, run, other)
        assert engine.reexecutions == 2


class TestPerfModelPath:
    def test_bit_identical_to_uncached_model(self):
        engine = SweepEngine()
        cached = engine.perf_model(BERT_BASE, P100, "chimera")
        plain = PipelinePerfModel(BERT_BASE, P100, "chimera")
        for b, d in ((8, 4), (32, 8), (64, 16)):
            r1 = cached.report(b, d)
            r2 = plain.report(b, d)
            assert r1 == r2

    def test_grid_computes_each_cost_model_once(self):
        engine = SweepEngine()
        model = engine.perf_model(BERT_BASE, P100, "chimera")
        model.sweep([8, 16, 32], [4, 8], n_micro_factor=1)
        model.sweep([8, 16, 32], [4, 8], n_micro_factor=2)
        s = engine.stats()["stage_costs"]
        # 3 b_micro values -> 3 computes; everything else is hits.
        # Each sweep has 3 x 2 cells and report() consults the cost model
        # twice per cell: 2 sweeps * 6 cells * 2 lookups = 24 lookups.
        assert s.misses == 3
        assert s.hits == 24 - 3

    def test_cost_cache_shared_across_schedules_with_same_overhead(self):
        engine = SweepEngine()
        engine.perf_model(BERT_BASE, P100, "gpipe").report(8, 4)
        before = engine.stats()["stage_costs"].misses
        engine.perf_model(BERT_BASE, P100, "1f1b").report(8, 4)
        assert engine.stats()["stage_costs"].misses == before
        assert host_overhead("gpipe") == host_overhead("1f1b")

    def test_simulator_and_model_share_cost_cache(self):
        engine = SweepEngine()
        engine.perf_model(BERT_BASE, P100, "chimera",
                          layers_per_stage=1).report(32, 8)
        before = engine.stats()["stage_costs"].misses
        engine.run(chimera_point(b_micro=32, depth=8))
        assert engine.stats()["stage_costs"].misses == before

