"""Batched re-timing: evaluate many duration tables of one template at once.

A compiled template is already integer arrays, so a batch of points
sharing it can be advanced as one ``(n_points, n_tasks)`` pass through
the native core (:mod:`repro.sweep.native`): one C call runs the
event-driven executor for every point and folds each row's utilization
(and, on request, its bubble fraction) in the same pass, and one fills
every point's bubbles.  Each function degrades per point — a row
the core cannot handle (deadlock, filler failure, structural feature it
doesn't model) reports a non-OK status (``ok(i)`` is False), and the
caller re-runs that point through the pure-python reference path, which
also raises the reference's exact errors.  The two callers are
:func:`repro.sweep.engine.native_evaluations` (one call per template
group of sweep points) and :func:`repro.stochastic.mc.replicate_batch`
(one seed block per call: a single seed for a campaign ``stochastic``
unit, the whole block for ``monte_carlo``).

Everything returned is reference-typed, with the per-task and per-item
lists materialized lazily: :class:`NativeSim` (whose ``restarts`` is a
plain tuple of rows) quacks like
:class:`~repro.sweep.retime.CompiledSim` and :class:`NativeFill` like
:class:`~repro.sweep.retime.CompiledFill`.  Each keeps compact copies of
its batch row and builds the python lists (``ndarray.tolist`` preserves
bits) on first touch — sweeps that only read scalar report fields never
pay for boxed floats or segment tuples, and cached evaluations stay a
few bytes per task.
"""

from __future__ import annotations

from dataclasses import dataclass

try:
    import numpy as np
except ImportError:  # pragma: no cover - numpy is a de-facto hard dep
    np = None

from repro.sweep import native


def batching_supported(template) -> bool:
    """Can this template's points be evaluated through the native core?"""
    return (
        np is not None
        and native.available()
        and native.graph_arrays(template.base_graph) is not None
        and native.graph_arrays(template.pf_graph) is not None
        and native.queue_arrays(template) is not None
    )


def _lazy_list(slot: str) -> property:
    """A property that swaps the array in ``slot`` for its ``tolist``."""
    def get(self):
        value = getattr(self, slot)
        if not isinstance(value, list):
            value = value.tolist()
            setattr(self, slot, value)
        return value
    return property(get)


class NativeSim:
    """One batch row as a :class:`~repro.sweep.retime.CompiledSim`.

    Holds owned copies of the row (never views, which would keep the
    whole ``(rows, n)`` batch array alive) and turns each into a list of
    python floats/ints on first access, bit for bit.
    """

    __slots__ = ("makespan", "restarts", "_start", "_end", "_ev_end",
                 "_ev_order")

    start = _lazy_list("_start")
    end = _lazy_list("_end")
    ev_end = _lazy_list("_ev_end")
    ev_order = _lazy_list("_ev_order")

    def __init__(self, start, end, ev_end, ev_order, makespan: float
                 ) -> None:
        self._start = start
        self._end = end
        self._ev_end = ev_end
        self._ev_order = ev_order
        self.makespan = makespan
        self.restarts = ()

    @property
    def materialized(self) -> bool:
        """True once any of the per-task lists has been built."""
        return any(isinstance(getattr(self, s), list) for s in
                   ("_start", "_end", "_ev_end", "_ev_order"))


@dataclass
class GraphBatch:
    """Native sim output for one graph over a point batch."""

    ga: object                 #: the graph's GraphArrays
    start: object              #: (P, n) float64
    end: object
    ev_end: object
    ev_order: object           #: (P, n_disp) int32
    makespan: object           #: (P,) float64
    util: object               #: (P,) float64 windowed utilization
    status: object             #: (P,) int32; 0 == valid row
    #: (P,) float64 bubble fraction, or None unless the pass asked for it.
    bubble: object = None
    #: Restart arrays ``(dev, task, fail, resume, lost, count)`` of a
    #: fault-replay pass — ``(P, cap)`` rows plus the ``(P,)`` valid-row
    #: counts — or None on a fault-free pass.
    rest: object = None

    def ok(self, i: int) -> bool:
        return self.status[i] == 0

    def sim(self, i: int) -> NativeSim:
        s = NativeSim(self.start[i].copy(), self.end[i].copy(),
                      self.ev_end[i].copy(),
                      self.ev_order[i, :self.ga.n_disp].copy(),
                      float(self.makespan[i]))
        if self.rest is not None:
            # ``tolist`` keeps float bits and turns int32 into python
            # ints, so the rows equal the reference's tuples.
            m = int(self.rest[5][i])
            s.restarts = tuple(zip(*(a[i, :m].tolist()
                                     for a in self.rest[:5])))
        return s

    def restart_stats(self, i: int):
        """``(n_restarts, downtime, lost_work)`` for row ``i``.

        The float folds run as python left-folds in append order —
        exactly the reference's ``_downtime``/``_lost_work`` sums — so
        they are bit-identical to folding the scalar path's tuples.
        """
        _, _, fail, resume, lost_rows, count = self.rest
        m = int(count[i])
        down = 0.0
        for f, r in zip(fail[i, :m].tolist(), resume[i, :m].tolist()):
            down += r - f
        lost = 0.0
        for v in lost_rows[i, :m].tolist():
            lost += v
        return m, down, lost


def pack_faults(faults, num_devices: int):
    """Pack per-row :class:`~repro.sweep.retime.DeviceFaults` into the
    native CSR layout: ``(ft_off, ft_times, delay, ckpt)``.

    ``faults`` is one entry per batch row, ``None`` meaning no faults
    (an empty table — the native fault path is bit-identical to the
    no-fault path on such rows).  Returns None when a row's failure
    table does not have exactly ``num_devices`` device lists.
    """
    P = len(faults)
    D = num_devices
    off = np.zeros(P * D + 1, np.int64)
    times: list = []
    delay = np.zeros(P, np.float64)
    ckpt = np.zeros(P, np.float64)
    k = 0
    for p, f in enumerate(faults):
        ft = None
        if f is not None:
            if len(f.failure_times) != D:
                return None
            delay[p] = f.restart_delay
            ckpt[p] = f.checkpoint_every
            ft = f.failure_times
        for d in range(D):
            ts = ft[d] if ft is not None else ()
            times.extend(ts)
            k += len(ts)
            off[p * D + d + 1] = k
    ft_times = np.asarray(times, np.float64) if times \
        else np.zeros(0, np.float64)
    return off, ft_times, delay, ckpt


def simulate_graph_batch(graph, durs_list=None, task_durs=None, faults=None,
                         bubbles=False) -> GraphBatch | None:
    """One native pass of the executor over a batch of duration tables.

    ``durs_list`` is a sequence of per-code duration tuples (expanded to
    per-task durations exactly like the reference's
    ``[durs[c] for c in dur_code]``); ``task_durs`` is an explicit
    ``(P, n)`` per-task duration matrix (the Monte Carlo perturbation
    path).  ``faults``, when given, is one
    :class:`~repro.sweep.retime.DeviceFaults` or ``None`` per row; the
    pass then replays them and the result carries restart rows.  Every
    OK row carries its windowed utilization, and with ``bubbles`` its
    bubble fraction too.
    Returns None when the native core cannot run this graph — callers
    loop :func:`~repro.sweep.retime.simulate_compiled` instead.
    """
    if np is None or not native.available():
        return None
    ga = native.graph_arrays(graph)
    if ga is None:
        return None
    if task_durs is None:
        table = np.asarray(durs_list, np.float64)
        task_durs = np.ascontiguousarray(table[:, ga.dur_code])
    if faults is not None:
        faults = pack_faults(faults, ga.num_devices)
        if faults is None:
            return None
    start, end, ev_end, ev_order, mk, util, bubble, rest, status = \
        native.sim_batch(ga, task_durs, faults, bubbles)
    bad = status != 0
    if bad.any():
        # Failed rows carry partial data; neutralize them so a batched
        # fill over this pass stays in bounds.  Their values are never
        # consumed — callers fall back per failed row.
        ev_order[bad] = 0
        start[bad] = 0.0
        ev_end[bad] = 0.0
        mk[bad] = 1.0
    return GraphBatch(ga=ga, start=start, end=end, ev_end=ev_end,
                      ev_order=ev_order, makespan=mk, util=util,
                      status=status, bubble=bubble, rest=rest)


class NativeFill:
    """A :class:`~repro.sweep.retime.CompiledFill` built from the native
    segment stream, with the per-item tuple lists materialized lazily."""

    __slots__ = ("device_steps", "span", "_qa", "_seg_item", "_seg_s",
                 "_seg_e", "_segments")

    def __init__(self, qa, device_steps: dict, span: float,
                 seg_item, seg_s, seg_e) -> None:
        self.device_steps = device_steps
        self.span = span
        self._qa = qa
        self._seg_item = seg_item
        self._seg_s = seg_s
        self._seg_e = seg_e
        self._segments = None

    @property
    def segments(self) -> dict:
        if self._segments is None:
            q_off = self._qa.q_off_list
            segs = {dev: [[] for _ in range(q_off[dev + 1] - q_off[dev])]
                    for dev in range(len(q_off) - 1)}
            dev = 0
            for gi, s, e in zip(self._seg_item.tolist(),
                                self._seg_s.tolist(),
                                self._seg_e.tolist()):
                while q_off[dev + 1] <= gi or q_off[dev] > gi:
                    dev = dev + 1 if q_off[dev + 1] <= gi else 0
                segs[dev][gi - q_off[dev]].append((s, e))
            self._segments = segs
        return self._segments


@dataclass
class FillBatch:
    """Native fill output over a point batch."""

    qa: object
    device_steps: object       #: (P, D) int32
    refresh: object            #: (P,) int32
    seg_item: object
    seg_s: object
    seg_e: object
    seg_count: object
    pf_util: object            #: (P,) float64, the reference fold
    status: object

    def ok(self, i: int) -> bool:
        return self.status[i] == 0

    def fill(self, i: int, span: float) -> NativeFill:
        m = int(self.seg_count[i])
        steps = self.device_steps[i]
        return NativeFill(
            self.qa,
            {dev: int(steps[dev]) for dev in range(steps.shape[0])},
            span,
            self.seg_item[i, :m].copy(),
            self.seg_s[i, :m].copy(),
            self.seg_e[i, :m].copy(),
        )


def fill_graph_batch(template, pf_batch: GraphBatch, qdurs_list
                     ) -> FillBatch | None:
    """One native pass of the bubble filler over a simulated batch."""
    if np is None or not native.available():
        return None
    qa = native.queue_arrays(template)
    if qa is None:
        return None
    qd = np.ascontiguousarray(np.asarray(qdurs_list, np.float64))
    (dev_steps, refresh, seg_item, seg_s, seg_e, seg_count, pf_util,
     status) = native.fill_batch(
        pf_batch.ga, qa, pf_batch.start, pf_batch.ev_end,
        pf_batch.makespan, qd, pf_batch.ev_order)
    return FillBatch(qa=qa, device_steps=dev_steps, refresh=refresh,
                     seg_item=seg_item, seg_s=seg_s, seg_e=seg_e,
                     seg_count=seg_count, pf_util=pf_util, status=status)
