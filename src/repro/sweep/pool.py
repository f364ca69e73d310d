"""Process-pool evaluation of sweep points sharing cached templates.

The parent engine resolves structure (templates, cost models, duration
tables) and workers do only the numeric half: each receives one pickled
*stripped* template — timings cache and native handles dropped, so the
payload is plain lists — plus a slice of duration tables, evaluates
them with the engine's own helpers
(:func:`~repro.sweep.engine.native_evaluations`, then
:func:`~repro.sweep.engine.python_evaluation` for the rows the core
cannot serve), and returns plain timing payloads.  The parent rebuilds
reference-typed evaluations from the payloads, so pooled results are
bit-identical to in-process ones.

Used by ``SweepEngine.run_many(jobs=N)``; ``stochastic.monte_carlo``
borrows :func:`picklable_template` for its seed-block workers.
"""

from __future__ import annotations

import dataclasses

from repro.sweep.retime import CompiledFill, CompiledSim


def picklable_template(template):
    """A copy of ``template`` safe to send to a worker process.

    The timings cache stays home (workers get explicit tables; shipping
    cached evaluations would be dead weight) and the graphs are
    shallow-copied so cached ctypes marshalling handles — process-local
    pointers — don't ride along.
    """
    return dataclasses.replace(
        template,
        base_graph=dataclasses.replace(template.base_graph),
        pf_graph=dataclasses.replace(template.pf_graph),
        timings=None,
    )


def _sim_payload(sim: CompiledSim) -> tuple:
    return (sim.start, sim.end, sim.ev_end, sim.ev_order, sim.makespan)


def _sim_from_payload(p: tuple) -> CompiledSim:
    return CompiledSim(start=p[0], end=p[1], ev_end=p[2], ev_order=p[3],
                       makespan=p[4])


def evaluation_payload(ev) -> dict:
    """One evaluation as plain picklable data (segments materialized)."""
    return {
        "base": _sim_payload(ev.base),
        "pf": _sim_payload(ev.pf),
        "segments": ev.fill.segments,
        "device_steps": dict(ev.fill.device_steps),
        "span": ev.fill.span,
        "base_util": ev.base_util,
        "pf_util": ev.pf_util,
        "refresh": ev.refresh,
        "native": ev._native,
    }


def evaluation_from_payload(payload: dict):
    """Rebuild a reference-typed evaluation from a worker payload.

    The ``"native"`` flag rides back onto the evaluation: the parent
    engine's ``native_evals`` counter and phase attribution read it, and
    a rebuilt evaluation that is re-serialized (``evaluation_payload``
    round-trip) must not silently demote native rows to reference ones.
    """
    from repro.sweep.engine import _Evaluation
    ev = _Evaluation(
        base=_sim_from_payload(payload["base"]),
        pf=_sim_from_payload(payload["pf"]),
        fill=CompiledFill(segments=payload["segments"],
                          device_steps=payload["device_steps"],
                          span=payload["span"]),
        base_util=payload["base_util"],
        pf_util=payload["pf_util"],
        refresh=payload["refresh"],
    )
    ev._native = bool(payload.get("native", False))
    return ev


def eval_worker(template, dur_keys: list) -> tuple:
    """Evaluate ``dur_keys`` tables of ``template`` in a worker process.

    Returns ``(payloads, retime_seconds, fill_seconds)`` with payloads
    in input order.  Must stay module-level: the pool pickles it by
    reference.
    """
    from repro.sweep.engine import native_evaluations, python_evaluation

    phase_s = {"retime": 0.0, "fill": 0.0}
    evs = native_evaluations(template, dur_keys, phase_s)
    payloads = [
        evaluation_payload(ev if ev is not None
                           else python_evaluation(template, key, phase_s))
        for key, ev in zip(dur_keys, evs)
    ]
    return payloads, phase_s["retime"], phase_s["fill"]
