"""Sweep engine: evaluate many what-if configurations fast.

The experiment drivers (fig5/6/9-16 grids, table 2, the interleaved
sweep, the capacity planner) and user-defined searches all funnel
through one :class:`SweepEngine`: structural configurations are
canonicalized into schedule templates built once, points sharing a
template are re-timed (native core or compiled python reference), and
stage-cost models are shared between the simulator and the analytic
§3.3 paths — with every result bit-identical to the per-point
:class:`~repro.pipefisher.runner.PipeFisherRun` reference.

Quick use::

    from repro.sweep import SweepEngine
    from repro.pipefisher.runner import PipeFisherRun

    engine = SweepEngine()
    reports = [
        engine.run(PipeFisherRun(schedule="chimera", arch=arch, hardware=hw,
                                 b_micro=b, depth=16, n_micro=16))
        for b in (4, 8, 16, 32)
    ]
    engine.stats()  # cache hit/miss + re-execution counters

Engine/template names are provided lazily (PEP 562): the pipeline
runner imports :mod:`repro.sweep.cache` while the engine imports the
runner, so eagerly importing the engine here would be circular.
"""

from repro.sweep.cache import BoundedCache, CacheStats

__all__ = [
    "BoundedCache",
    "CacheStats",
    "ScheduleTemplate",
    "SweepEngine",
    "TemplateKey",
    "default_engine",
]

_LAZY = {
    "SweepEngine": "repro.sweep.engine",
    "default_engine": "repro.sweep.engine",
    "ScheduleTemplate": "repro.sweep.template",
    "TemplateKey": "repro.sweep.template",
}


def __getattr__(name: str):
    target = _LAZY.get(name)
    if target is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(target), name)
