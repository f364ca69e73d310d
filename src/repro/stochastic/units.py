"""The ``stochastic`` campaign unit kind: one Monte Carlo replicate.

Unit params are the flat union of two vocabularies: the pipeline point
(schedule/arch/hardware/b_micro/depth/n_micro, the ``pipefisher``
vocabulary) and the :class:`~repro.stochastic.model.StochasticModel`
fields, plus the ``seed`` the campaign layer appends when a spec
declares ``seeds``.  :meth:`StochasticModel.from_params` pops the model
fields back out; the remainder builds the ``PipeFisherRun`` through the
``pipefisher`` kind's own parser.  The replicate runs through
:func:`~repro.stochastic.mc.run_replicate` — a one-seed block of the
native Monte Carlo batch, the path ``monte_carlo`` takes — so a unit
record equals ``monte_carlo``'s record for the same seed.

The replicate dict is already JSON-scalar, so serialization is the
identity — the run DB record *is* the replicate.  Every replicate of a
pipeline point re-times the same template, so the kind's timing params
are the ``pipefisher`` ones plus ``seed`` and the model fields.
"""

from __future__ import annotations

from dataclasses import fields

from repro.campaign.units import (
    UnitContext,
    get_unit_kind,
    pipefisher_run,
    register_unit_kind,
)
from repro.stochastic.mc import run_replicate
from repro.stochastic.model import StochasticModel


def _execute_stochastic(params: dict, ctx: UnitContext) -> dict:
    p = dict(params)
    seed = p.pop("seed", 0)
    model = StochasticModel.from_params(p)
    return run_replicate(pipefisher_run(p), model, seed, engine=ctx.engine)


def _serialize_stochastic(value: dict, params: dict) -> dict:
    return value


register_unit_kind(
    "stochastic", _execute_stochastic, _serialize_stochastic,
    seed_aware=True,
    timing_params=(get_unit_kind("pipefisher").timing_params
                   | {"seed"} | {f.name for f in fields(StochasticModel)}))
