"""End-to-end PipeFisher experiment driver.

``run_pipefisher`` reproduces a Fig. 3/4-style experiment in one call:
simulate the baseline schedule (first-order optimizer), simulate the
PipeFisher step template (baseline + precondition), run the automatic
work assignment, and report utilizations, step times, and the refresh
interval.

Utilizations are computed arithmetically from ONE cycle's colored time —
the schedule repeats exactly, so tiling ``cycle_steps x events`` shifted
copies of every event only to measure the same ratio is pure overhead.
The tiled window timelines (what Figs. 1/3/4 render) are materialized
lazily on first attribute access, or eagerly when a run sets
``materialize_window=True`` for visualization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.perfmodel.arch import TransformerArch
from repro.perfmodel.calibration import host_overhead
from repro.perfmodel.costs import StageCosts, compute_stage_costs
from repro.perfmodel.hardware import Hardware
from repro.pipefisher.assignment import AssignmentResult, BubbleFiller
from repro.pipefisher.workqueue import build_device_queues
from repro.pipeline.comm import CommModel
from repro.pipeline.executor import simulate_tasks
from repro.pipeline.schedules import PipelineConfig, make_schedule
from repro.profiler.timeline import Timeline
from repro.profiler.utilization import colored_seconds, utilization


@dataclass
class PipeFisherReport:
    """Everything a Fig. 3/4 panel shows, as numbers.

    ``baseline_timeline`` / ``pipefisher_timeline`` are lazy: the window
    timelines are tiled from the one-step templates on first access and
    cached, so sweeps that only read the numbers never pay for them.
    The one-step templates themselves may be lazy too:
    ``base_template_source`` / ``pf_template_source`` accept either a
    built :class:`Timeline` or a zero-argument callable producing one —
    the sweep engine passes callables so a re-timed point only
    materializes event objects when something renders them.
    """

    schedule: str
    num_devices: int
    #: Baseline (first-order optimizer) results.
    baseline_step_time: float
    baseline_utilization: float
    #: PipeFisher results.
    pipefisher_step_time: float
    pipefisher_utilization: float
    refresh_steps: int
    device_refresh_steps: dict[int, int]
    #: The K-FAC work placement — an AssignmentResult or a factory (the
    #: sweep engine defers building per-item objects until inspected).
    assignment_source: "AssignmentResult | Callable[[], AssignmentResult]"
    #: One simulated step of each schedule (the repeating templates the
    #: lazy window properties tile from) — a Timeline or a factory.
    base_template_source: "Timeline | Callable[[], Timeline]"
    pf_template_source: "Timeline | Callable[[], Timeline]"
    #: Steps the materialized windows cover (the paper plots ~2 steps).
    window_steps: int = 2
    _baseline_timeline: Timeline | None = field(default=None, repr=False)
    _pipefisher_timeline: Timeline | None = field(default=None, repr=False)

    @property
    def step_time_overhead(self) -> float:
        """Relative per-step cost of PipeFisher (precondition only)."""
        return self.pipefisher_step_time / self.baseline_step_time - 1.0

    @property
    def assignment(self) -> AssignmentResult:
        """The K-FAC work placement (materialized on first access)."""
        src = self.assignment_source
        if callable(src):
            src = src()
            self.assignment_source = src
        return src

    @property
    def base_template(self) -> Timeline:
        """One simulated baseline step (materialized on first access)."""
        src = self.base_template_source
        if callable(src):
            src = src()
            self.base_template_source = src
        return src

    @property
    def pf_template(self) -> Timeline:
        """One simulated PipeFisher step (materialized on first access)."""
        src = self.pf_template_source
        if callable(src):
            src = src()
            self.pf_template_source = src
        return src

    @property
    def baseline_timeline(self) -> Timeline:
        """``window_steps`` tiled copies of the baseline step."""
        if self._baseline_timeline is None:
            tl = Timeline(self.num_devices)
            for k in range(self.window_steps):
                tl.extend([e.shifted(k * self.baseline_step_time)
                           for e in self.base_template.events])
            self._baseline_timeline = tl
        return self._baseline_timeline

    @property
    def pipefisher_timeline(self) -> Timeline:
        """Whole refresh cycles tiled until ``window_steps`` is covered.

        Every tiled step carries its cycle's K-FAC work, so rendering any
        window of it shows the schedule the utilization numbers describe.
        """
        if self._pipefisher_timeline is None:
            span = self.pipefisher_step_time
            n_cycles = max(1, -(-self.window_steps // self.refresh_steps))
            cycle_steps = n_cycles * self.refresh_steps
            tl = Timeline(self.num_devices)
            for k in range(cycle_steps):
                tl.extend([e.shifted(k * span) for e in self.pf_template.events])
            kfac_events = self.assignment.events()
            for c in range(n_cycles):
                offset = c * self.refresh_steps * span
                tl.extend([e.shifted(offset) for e in kfac_events])
            self._pipefisher_timeline = tl
        return self._pipefisher_timeline


@dataclass
class PipeFisherRun:
    """Configuration of one experiment (a Fig. 3/4 panel)."""

    schedule: str
    arch: TransformerArch
    hardware: Hardware
    b_micro: int
    depth: int
    n_micro: int
    layers_per_stage: int = 1
    dp: int = 1
    world_multiplier: int = 1
    inversion_parallel: bool = False
    recompute: bool = False
    #: Steps in the utilization window (the paper plots ~2 steps).
    window_steps: int = 2
    #: Virtual stage chunks per device (interleaved schedule only).
    virtual_chunks: int = 2
    #: Materialize the tiled window timelines eagerly (for visualization).
    #: Off by default: utilizations are exact without them, and sweeps
    #: that never render should not build ``cycle_steps x events`` copies.
    materialize_window: bool = False

    def _config(
        self, precondition: bool, costs: StageCosts, comm: CommModel
    ) -> PipelineConfig:
        return PipelineConfig(
            depth=self.depth,
            n_micro=self.n_micro,
            costs=costs,
            comm=comm,
            dp=self.dp,
            world_multiplier=self.world_multiplier,
            recompute=self.recompute,
            precondition=precondition,
            stage_param_bytes=self.layers_per_stage * self.arch.param_bytes(),
            virtual_chunks=self.virtual_chunks,
        )

    def execute(self) -> PipeFisherReport:
        # The baseline and precondition configs share one cost model and
        # comm model, computed once per run.
        costs = compute_stage_costs(
            self.arch, self.hardware, self.b_micro,
            layers_per_stage=self.layers_per_stage,
            overhead_s=host_overhead(self.schedule),
        )
        comm = CommModel(allreduce_gbs=self.hardware.interconnect_gbs)

        # -- baseline: first-order optimizer, no K-FAC work ---------------------
        base_cfg = self._config(precondition=False, costs=costs, comm=comm)
        base_builder = make_schedule(self.schedule, base_cfg)
        base_sim = simulate_tasks(base_builder.build(steps=1), base_builder.num_devices)
        base_span = base_sim.makespan
        # The window is whole copies of the one step, so its utilization
        # equals the one-step utilization — no tiling needed to measure it.
        base_util = utilization(base_sim.timeline, (0.0, base_span))

        # -- PipeFisher template: baseline + precondition on the critical path --
        pf_cfg = self._config(precondition=True, costs=costs, comm=comm)
        pf_builder = make_schedule(self.schedule, pf_cfg)
        template = simulate_tasks(pf_builder.build(steps=1), pf_builder.num_devices)
        span = template.makespan

        sync_curv_s = 0.0
        if self.inversion_parallel:
            factor_bytes = (
                self.layers_per_stage
                * len(pf_builder.stages_of_device(0))
                * self.arch.factor_bytes()
            )
            world = pf_builder.allreduce_world(0)
            sync_curv_s = pf_cfg.comm.allreduce_time(factor_bytes, world)

        queues = build_device_queues(
            pf_builder,
            pf_cfg.costs,
            inversion_parallel=self.inversion_parallel,
            sync_curv_seconds=sync_curv_s,
        )
        filler = BubbleFiller(template, queues, dp=self.dp)
        assignment = filler.fill()

        # -- utilization over the refresh cycle ---------------------------------
        # The K-FAC assignment repeats every refresh_steps steps; over that
        # cycle every step contributes the template's colored time and the
        # cycle contributes the K-FAC work once:
        #     util = (refresh * colored(template) + colored(kfac))
        #            / (devices * refresh * span)
        # identical (up to fp addition order) to measuring a materialized
        # tiling of whole cycles, without building one.
        refresh = assignment.refresh_steps
        pf_colored = (refresh * colored_seconds(template.timeline.events)
                      + colored_seconds(assignment.events()))
        pf_util = pf_colored / (pf_builder.num_devices * refresh * span)

        report = PipeFisherReport(
            schedule=self.schedule,
            num_devices=pf_builder.num_devices,
            baseline_step_time=base_span,
            baseline_utilization=base_util,
            pipefisher_step_time=span,
            pipefisher_utilization=pf_util,
            refresh_steps=refresh,
            device_refresh_steps=assignment.device_refresh_steps,
            assignment_source=assignment,
            window_steps=self.window_steps,
            base_template_source=base_sim.timeline,
            pf_template_source=template.timeline,
        )
        if self.materialize_window:
            report.baseline_timeline
            report.pipefisher_timeline
        return report


def run_pipefisher(**kwargs) -> PipeFisherReport:
    """Convenience wrapper: ``run_pipefisher(schedule="gpipe", ...)``."""
    return PipeFisherRun(**kwargs).execute()
