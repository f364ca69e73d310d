"""End-to-end PipeFisher runs: the paper's headline claims as invariants."""

import pytest

from repro.perfmodel.arch import BERT_BASE
from repro.perfmodel.hardware import P100
from repro.pipefisher import PipeFisherRun


@pytest.fixture(scope="module")
def gpipe_report():
    return PipeFisherRun(
        schedule="gpipe", arch=BERT_BASE, hardware=P100, b_micro=32,
        depth=4, n_micro=4, layers_per_stage=3,
    ).execute()


@pytest.fixture(scope="module")
def chimera_report():
    return PipeFisherRun(
        schedule="chimera", arch=BERT_BASE, hardware=P100, b_micro=32,
        depth=4, n_micro=4, layers_per_stage=3, inversion_parallel=True,
    ).execute()


class TestHeadlineClaims:
    def test_pipefisher_lifts_utilization(self, gpipe_report):
        r = gpipe_report
        assert r.pipefisher_utilization > r.baseline_utilization + 0.25

    def test_precondition_is_only_overhead(self, gpipe_report):
        """Step-time overhead must be small (paper: ~4-6.5%)."""
        assert 0.0 < gpipe_report.step_time_overhead < 0.10

    def test_refresh_within_few_steps(self, gpipe_report):
        assert 1 <= gpipe_report.refresh_steps <= 3

    def test_baseline_unaffected_by_kfac(self, gpipe_report):
        """Baseline timeline contains no K-FAC work."""
        kinds = {e.kind for e in gpipe_report.baseline_timeline.events}
        assert "curvature" not in kinds and "inversion" not in kinds

    def test_pipefisher_timeline_contains_kfac(self, gpipe_report):
        kinds = {e.kind for e in gpipe_report.pipefisher_timeline.events}
        assert {"curvature", "inversion", "precondition"} <= kinds

    def test_chimera_baseline_beats_gpipe(self, gpipe_report, chimera_report):
        assert (chimera_report.baseline_utilization
                > gpipe_report.baseline_utilization)

    def test_chimera_step_faster_than_gpipe(self, gpipe_report, chimera_report):
        assert chimera_report.baseline_step_time < gpipe_report.baseline_step_time

    def test_chimera_refresh_slower_than_gpipe(self, gpipe_report, chimera_report):
        """§3.3 tradeoff: fewer bubbles -> less frequent curvature refresh."""
        assert chimera_report.refresh_steps >= gpipe_report.refresh_steps

    def test_device_refresh_consistent(self, gpipe_report):
        assert gpipe_report.refresh_steps == max(
            gpipe_report.device_refresh_steps.values()
        )


class TestUtilizationAccounting:
    def test_utilization_bounded(self, gpipe_report, chimera_report):
        for r in (gpipe_report, chimera_report):
            assert 0.0 < r.baseline_utilization < 1.0
            assert 0.0 < r.pipefisher_utilization <= 1.0

    def test_window_spans_refresh_cycle(self, gpipe_report):
        r = gpipe_report
        t0, t1 = r.pipefisher_timeline.span
        assert t1 >= r.refresh_steps * r.pipefisher_step_time - 1e-6


class TestLazyWindowTimelines:
    def test_timelines_are_lazy_by_default(self):
        r = PipeFisherRun(
            schedule="gpipe", arch=BERT_BASE, hardware=P100, b_micro=32,
            depth=4, n_micro=4, layers_per_stage=3,
        ).execute()
        assert r._baseline_timeline is None
        assert r._pipefisher_timeline is None
        # first access materializes and caches
        tl = r.pipefisher_timeline
        assert tl is r.pipefisher_timeline
        assert r._pipefisher_timeline is tl

    def test_materialize_window_flag_builds_eagerly(self):
        r = PipeFisherRun(
            schedule="gpipe", arch=BERT_BASE, hardware=P100, b_micro=32,
            depth=4, n_micro=4, layers_per_stage=3, materialize_window=True,
        ).execute()
        assert r._baseline_timeline is not None
        assert r._pipefisher_timeline is not None

    def test_lazy_and_eager_runs_agree(self):
        kwargs = dict(schedule="gpipe", arch=BERT_BASE, hardware=P100,
                      b_micro=32, depth=4, n_micro=4, layers_per_stage=3)
        lazy = PipeFisherRun(**kwargs).execute()
        eager = PipeFisherRun(materialize_window=True, **kwargs).execute()
        assert lazy.pipefisher_utilization == pytest.approx(
            eager.pipefisher_utilization, abs=1e-12)
        assert lazy.baseline_utilization == pytest.approx(
            eager.baseline_utilization, abs=1e-12)
        for a, b in ((lazy.baseline_timeline, eager.baseline_timeline),
                     (lazy.pipefisher_timeline, eager.pipefisher_timeline)):
            assert len(a.events) == len(b.events)
            assert a.span == b.span

    def test_arithmetic_utilization_matches_measured_window(self, gpipe_report):
        """The one-cycle arithmetic utilization must equal utilization()
        measured over the materialized whole-cycle window."""
        from repro.profiler import utilization

        r = gpipe_report
        tl = r.pipefisher_timeline
        n_cycles = max(1, -(-r.window_steps // r.refresh_steps))
        cycle_steps = n_cycles * r.refresh_steps
        window = (0.0, cycle_steps * r.pipefisher_step_time)
        assert r.pipefisher_utilization == pytest.approx(
            utilization(tl, window), abs=1e-9)


class TestStageCostCaching:
    """The baseline and precondition configs share one cost model."""

    def test_execute_computes_costs_once(self, monkeypatch):
        from repro.pipefisher import runner as runner_mod

        calls = []
        real = runner_mod.compute_stage_costs

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(runner_mod, "compute_stage_costs", counting)
        run = PipeFisherRun(schedule="gpipe", arch=BERT_BASE, hardware=P100,
                            b_micro=32, depth=4, n_micro=4, layers_per_stage=3)
        run.execute()
        assert len(calls) == 1  # baseline + precondition share the result
