"""Pipeline-parallel training substrate.

Implements the three synchronous pipeline schedules the paper targets —
**GPipe** (Huang et al. 2019), **1F1B** (PipeDream-Flush, Narayanan et al.
2019), and **Chimera** (Li & Hoefler 2021, bidirectional, two pipelines) —
plus **interleaved 1F1B** (Megatron-LM virtual stages, Narayanan et al.
2021) and **ZB-H1 zero-bubble 1F1B** (split backward, Qi et al. 2024), as
dependency graphs of work items executed by a discrete-event simulator
with per-device clocks, plus a numerically-executing pipeline used to
verify that pipelined gradient computation is exact.

Every schedule is a declarative :class:`~repro.pipeline.spec.ScheduleSpec`
in a registry; one generic builder executes the spec's program, so a new
schedule is a ``register_schedule`` call plus tests.
"""

from repro.pipeline.work import Task, WorkKind, COMPUTE_KINDS
from repro.pipeline.comm import CommModel
from repro.pipeline.spec import (
    ScheduleSpec,
    register_schedule,
    get_spec,
    schedule_names,
    schedule_specs,
)
from repro.pipeline.schedules import (
    PipelineConfig,
    ScheduleBuilder,
    GPipeSchedule,
    OneFOneBSchedule,
    ChimeraSchedule,
    InterleavedSchedule,
    ZeroBubbleSchedule,
    builder_class,
    make_schedule,
)
from repro.pipeline.executor import simulate_tasks, SimulationResult
from repro.pipeline.bubbles import bubble_time, bubble_fraction
from repro.pipeline.numeric import NumericPipeline

__all__ = [
    "Task",
    "WorkKind",
    "COMPUTE_KINDS",
    "CommModel",
    "PipelineConfig",
    "ScheduleBuilder",
    "ScheduleSpec",
    "register_schedule",
    "get_spec",
    "schedule_names",
    "schedule_specs",
    "GPipeSchedule",
    "OneFOneBSchedule",
    "ChimeraSchedule",
    "InterleavedSchedule",
    "ZeroBubbleSchedule",
    "builder_class",
    "make_schedule",
    "simulate_tasks",
    "SimulationResult",
    "bubble_time",
    "bubble_fraction",
    "NumericPipeline",
]
