"""Build, load, and marshal the native batch re-timing core.

``_native.c`` (same directory) is compiled on demand with whatever C
compiler the host has (``$CC``, ``gcc``, or ``cc``) into a
content-hash-named shared object under ``_build/`` — so a source edit
triggers exactly one rebuild, and concurrent processes (campaign
``--jobs`` workers) race benignly to an atomic ``os.replace`` of the same
file.  No compiler, a failed compile, or ``REPRO_NO_NATIVE=1`` all
degrade to ``available() -> False`` and the callers' pure-python paths;
the native core is an accelerator, never a dependency.

The marshalling half lowers a :class:`~repro.sweep.template.CompiledGraph`
(and a template's K-FAC queue inventory) to the flat int32/int64/float64
arrays the C side reads, cached on the graph/template objects so a
sweep pays the conversion once per structure.  Graphs the core cannot
represent — tuple order keys from non-uniform priorities — marshal to
``None`` and the callers fall back per point.

Float semantics: the C core is compiled with ``-ffp-contract=off`` and
no fast-math, so every double operation rounds exactly like CPython's
float arithmetic and results are bit-identical to the reference
(``tests/sweep/test_batch.py`` fuzzes this across every registered
schedule).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
import threading

try:
    import numpy as np
except ImportError:  # pragma: no cover - numpy is a test/bench dep
    np = None

from repro.profiler.utilization import COLOR_DENSITY

#: Set to any non-empty value to force the pure-python paths.
DISABLE_ENV = "REPRO_NO_NATIVE"

#: Per-point status codes mirrored from ``_native.c``.
ST_OK = 0
ST_DEADLOCK = 1
ST_NO_BUBBLES = 2
ST_NO_PROGRESS = 3
ST_MAX_STEPS = 4
ST_SEG_OVERFLOW = 5
ST_REST_OVERFLOW = 6

_SRC = os.path.join(os.path.dirname(__file__), "_native.c")
_BUILD_DIR = os.path.join(os.path.dirname(__file__), "_build")
_CFLAGS = ["-O2", "-fPIC", "-shared", "-ffp-contract=off",
           "-fno-unsafe-math-optimizations"]

_i32 = ctypes.c_int32
_i64 = ctypes.c_int64
_f64 = ctypes.c_double
_P_i32 = ctypes.POINTER(_i32)
_P_i64 = ctypes.POINTER(_i64)
_P_f64 = ctypes.POINTER(_f64)


class _CGraph(ctypes.Structure):
    _fields_ = [
        ("n", _i32), ("num_devices", _i32), ("n_keys", _i32),
        ("n_zero", _i32), ("n_disp", _i32),
        ("device", _P_i32), ("order_key", _P_i64), ("ndeps", _P_i32),
        ("dep_off", _P_i64), ("dep_lst", _P_i32),
        ("ikey", _P_i32), ("ilim", _P_i32), ("rkey", _P_i32),
        ("zero_dep", _P_i32), ("occ_off", _P_i64), ("occ_lst", _P_i32),
        ("density", _P_f64),
    ]


class _CQDesc(ctypes.Structure):
    _fields_ = [
        ("num_devices", _i32), ("n_items", _i32),
        ("q_off", _P_i32), ("codes", _P_i32), ("trig", _P_i32),
        ("ndep_init", _P_i32), ("dep_out_off", _P_i64),
        ("dep_out", _P_i32), ("qdensity", _P_f64),
    ]


_lib = None
_lib_error: str | None = None
_lib_lock = threading.Lock()


def _find_compiler() -> str | None:
    cc = os.environ.get("CC")
    candidates = ([cc] if cc else []) + ["gcc", "cc"]
    for name in candidates:
        path = name if os.path.sep in name else _which(name)
        if path:
            return path
    return None


def _which(name: str) -> str | None:
    for d in os.environ.get("PATH", "").split(os.pathsep):
        p = os.path.join(d, name)
        if os.path.isfile(p) and os.access(p, os.X_OK):
            return p
    return None


def _build_lib() -> str:
    """Compile ``_native.c`` (if needed) and return the .so path."""
    with open(_SRC, "rb") as f:
        src = f.read()
    tag = hashlib.sha256(src + b"\0" + " ".join(_CFLAGS).encode()).hexdigest()
    out = os.path.join(_BUILD_DIR, f"reprosim-{tag[:16]}.so")
    if os.path.exists(out):
        return out
    compiler = _find_compiler()
    if compiler is None:
        raise RuntimeError("no C compiler found (set $CC or install gcc)")
    os.makedirs(_BUILD_DIR, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=_BUILD_DIR)
    os.close(fd)
    try:
        subprocess.run([compiler, *_CFLAGS, "-o", tmp, _SRC],
                       check=True, capture_output=True)
        os.replace(tmp, out)  # atomic: concurrent builders converge
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return out


def _load():
    global _lib, _lib_error
    if _lib is not None or _lib_error is not None:
        return _lib
    with _lib_lock:
        if _lib is not None or _lib_error is not None:
            return _lib
        try:
            lib = ctypes.CDLL(_build_lib())
            lib.repro_sim_batch.argtypes = [
                ctypes.POINTER(_CGraph), _i32, _P_f64,
                _P_i64, _P_f64, _P_f64, _P_f64, _i32,
                _P_f64, _P_f64, _P_f64, _P_i32, _P_f64, _P_f64, _P_f64,
                _P_i32, _P_i32, _P_f64, _P_f64, _P_f64, _P_i32,
                _P_i32,
            ]
            lib.repro_sim_batch.restype = ctypes.c_int
            lib.repro_fill_batch.argtypes = [
                ctypes.POINTER(_CGraph), ctypes.POINTER(_CQDesc), _i32,
                _P_f64, _P_f64, _P_f64, _P_f64, _P_i32,
                _i32, _f64, _f64, _i32,
                _P_i32, _P_i32, _P_i32, _P_f64, _P_f64, _P_i32,
                _P_f64, _P_i32,
            ]
            lib.repro_fill_batch.restype = ctypes.c_int
            _lib = lib
        except Exception as exc:  # no compiler / bad toolchain: fall back
            _lib_error = f"{type(exc).__name__}: {exc}"
            _lib = None
    return _lib


def available() -> bool:
    """True when the native core can be used (compiled + not disabled)."""
    if np is None or os.environ.get(DISABLE_ENV):
        return False
    return _load() is not None


def native_status() -> str:
    """Human-readable state, for diagnostics."""
    if os.environ.get(DISABLE_ENV):
        return f"disabled ({DISABLE_ENV} set)"
    if np is None:
        return "unavailable (numpy missing)"
    if _load() is not None:
        return "compiled and loaded"
    return f"unavailable ({_lib_error})"


def _ptr_i32(a):
    return a.ctypes.data_as(_P_i32)


def _ptr_i64(a):
    return a.ctypes.data_as(_P_i64)


def _ptr_f64(a):
    return a.ctypes.data_as(_P_f64)


class GraphArrays:
    """A :class:`CompiledGraph` lowered to the C core's array layout."""

    __slots__ = ("graph", "n", "num_devices", "n_disp", "dur_code",
                 "device", "struct", "_keep")

    def __init__(self, g) -> None:
        n = g.n
        device = np.fromiter(
            ((-1 if d is None else d) for d in g.device), np.int32, n)
        order_key = np.fromiter(g.order_key, np.int64, n)
        ndeps = np.fromiter(g.ndeps, np.int32, n)
        dep_off = np.zeros(n + 1, np.int64)
        for i, deps in enumerate(g.dependents):
            dep_off[i + 1] = dep_off[i] + len(deps)
        dep_lst = np.fromiter(
            (d for deps in g.dependents for d in deps), np.int32, dep_off[n])
        ikey = np.fromiter(g.inflight_key, np.int32, n)
        ilim = np.fromiter(g.inflight_limit, np.int32, n)
        rkey = np.fromiter(g.release_key, np.int32, n)
        zero_dep = np.fromiter(g.zero_dep, np.int32, len(g.zero_dep))
        D = g.num_devices
        occ_off = np.zeros(D + 1, np.int64)
        for d in range(D):
            occ_off[d + 1] = occ_off[d] + len(g.occupying_by_device[d])
        occ_lst = np.fromiter(
            (t for occ in g.occupying_by_device for t in occ),
            np.int32, occ_off[D])
        density = np.fromiter(
            (COLOR_DENSITY.get(k, 1.0) for k in g.kind), np.float64, n)
        n_disp = int((device >= 0).sum())

        self.graph = g
        self.n = n
        self.num_devices = D
        self.n_disp = n_disp
        self.dur_code = np.fromiter(g.dur_code, np.int64, n)
        #: Per-task device, -1 for control tasks.
        self.device = device
        self._keep = (order_key, ndeps, dep_off, dep_lst, ikey, ilim, rkey,
                      zero_dep, occ_off, occ_lst, density)
        self.struct = _CGraph(
            n=n, num_devices=D, n_keys=g.n_inflight_keys,
            n_zero=len(g.zero_dep), n_disp=n_disp,
            device=_ptr_i32(device), order_key=_ptr_i64(order_key),
            ndeps=_ptr_i32(ndeps), dep_off=_ptr_i64(dep_off),
            dep_lst=_ptr_i32(dep_lst), ikey=_ptr_i32(ikey),
            ilim=_ptr_i32(ilim), rkey=_ptr_i32(rkey),
            zero_dep=_ptr_i32(zero_dep), occ_off=_ptr_i64(occ_off),
            occ_lst=_ptr_i32(occ_lst), density=_ptr_f64(density),
        )


def graph_arrays(g) -> GraphArrays | None:
    """The cached native lowering of ``g``, or None if unsupported."""
    cached = getattr(g, "_native_arrays", None)
    if cached is not None:
        return cached if cached is not False else None
    supported = all(
        isinstance(k, int) and 0 <= k < 2 ** 63 for k in g.order_key)
    if not supported or not available():
        if not supported:  # structural, never changes: cache the refusal
            g._native_arrays = False
        return None
    ga = GraphArrays(g)
    g._native_arrays = ga
    return ga


class QueueArrays:
    """A template's K-FAC inventory lowered to the C core's layout."""

    __slots__ = ("n_items", "seg_cap", "struct", "q_off_list", "_keep")

    def __init__(self, template) -> None:
        D = template.num_devices
        devices = template.queues.devices
        q_off = np.zeros(D + 1, np.int32)
        codes: list[int] = []
        trig: list[int] = []
        ndep_init: list[int] = []
        dep_out: list[list[int]] = []
        qdensity: list[float] = []
        for dev in range(D):
            dq = devices[dev]
            q_off[dev + 1] = q_off[dev] + len(dq.items)
            codes.extend(dq.codes)
            trig.extend(dq.trig)
            for pos, item in enumerate(dq.items):
                ndep_init.append(len(item.dep_positions))
                dep_out.append(dq.dependents.get(pos, []))
                qdensity.append(COLOR_DENSITY.get(item.kind, 1.0))
        n_items = len(codes)
        codes_a = np.asarray(codes, np.int32)
        trig_a = np.asarray(trig, np.int32)
        ndep_a = np.asarray(ndep_init, np.int32)
        dep_out_off = np.zeros(n_items + 1, np.int64)
        for i, deps in enumerate(dep_out):
            dep_out_off[i + 1] = dep_out_off[i] + len(deps)
        dep_out_a = np.fromiter(
            (d for deps in dep_out for d in deps), np.int32,
            dep_out_off[n_items])
        qdensity_a = np.asarray(qdensity, np.float64)

        self.n_items = n_items
        self.seg_cap = 4 * n_items + 256
        self.q_off_list = q_off.tolist()
        self._keep = (q_off, codes_a, trig_a, ndep_a, dep_out_off,
                      dep_out_a, qdensity_a)
        self.struct = _CQDesc(
            num_devices=D, n_items=n_items,
            q_off=_ptr_i32(q_off), codes=_ptr_i32(codes_a),
            trig=_ptr_i32(trig_a), ndep_init=_ptr_i32(ndep_a),
            dep_out_off=_ptr_i64(dep_out_off), dep_out=_ptr_i32(dep_out_a),
            qdensity=_ptr_f64(qdensity_a),
        )


def queue_arrays(template) -> QueueArrays | None:
    """The cached native lowering of a template's queues, or None."""
    cached = getattr(template, "_native_queues", None)
    if cached is not None:
        return cached if cached is not False else None
    if not available():
        return None
    if sorted(template.queues.devices) != list(range(template.num_devices)):
        template._native_queues = False  # structural: cache the refusal
        return None
    qa = QueueArrays(template)
    template._native_queues = qa
    return qa


#: The fault arguments of a fault-free ``repro_sim_batch`` call: NULL
#: tables and a zero restart capacity, then NULL restart outputs.
_NO_FAULTS = (None, None, None, None, 0)
_NO_RESTARTS = (None,) * 6


def sim_batch(ga: GraphArrays, tdur, faults=None, bubbles=False):
    """Run the event loop for a ``(P, n)`` duration batch in one call.

    ``faults`` is None (the no-fault path: NULL tables, nothing else
    allocated) or the packed ``(ft_off, ft_times, delay, ckpt)`` from
    :func:`repro.sweep.batch.pack_faults` — a per-row per-device
    failure-time CSR plus per-row restart delay and checkpoint interval.
    Rows with empty failure tables are bit-identical to the no-fault
    path.  The same pass folds every row's windowed utilization and,
    with ``bubbles``, its bubble fraction.  Returns ``(start, end,
    ev_end, ev_order, makespan, util, bubble, restarts, status)``;
    ``bubble`` is None unless asked for, ``restarts`` is None on a
    fault-free call, else the tuple ``(dev, task, fail, resume, lost,
    count)`` of per-row restart arrays at a shared row stride.  Rows
    with nonzero status carry no valid data and must fall back; every
    row keeps its preset failure status if the core cannot allocate its
    work buffers.
    """
    lib = _load()
    P = tdur.shape[0]
    n, n_disp = ga.n, ga.n_disp
    tdur = np.ascontiguousarray(tdur, np.float64)
    start = np.empty((P, n), np.float64)
    end = np.empty((P, n), np.float64)
    ev_end = np.empty((P, n), np.float64)
    ev_order = np.empty((P, max(n_disp, 1)), np.int32)
    mk = np.empty(P, np.float64)
    util = np.empty(P, np.float64)
    bubble = np.empty(P, np.float64) if bubbles else None
    status = np.full(P, -1, np.int32)
    restarts = None
    fault_args, rest_args = _NO_FAULTS, _NO_RESTARTS
    if faults is not None:
        ft_off, ft_times, delay, ckpt = faults
        D = ga.num_devices
        # Each failure time is consumed at most once per row, so the max
        # per-row failure total is an exact restart-row bound.
        row_tot = ft_off[D::D] - ft_off[:-1:D]
        cap = max(int(row_tot.max()) if P else 0, 1)
        restarts = (np.empty((P, cap), np.int32),
                    np.empty((P, cap), np.int32),
                    np.empty((P, cap), np.float64),
                    np.empty((P, cap), np.float64),
                    np.empty((P, cap), np.float64),
                    np.zeros(P, np.int32))
        fault_args = (_ptr_i64(ft_off), _ptr_f64(ft_times), _ptr_f64(delay),
                      _ptr_f64(ckpt), cap)
        rest_args = tuple(_ptr_i32(a) if a.dtype == np.int32 else _ptr_f64(a)
                          for a in restarts)
    lib.repro_sim_batch(
        ctypes.byref(ga.struct), P, _ptr_f64(tdur), *fault_args,
        _ptr_f64(start), _ptr_f64(end), _ptr_f64(ev_end),
        _ptr_i32(ev_order), _ptr_f64(mk), _ptr_f64(util),
        None if bubble is None else _ptr_f64(bubble), *rest_args,
        _ptr_i32(status))
    return start, end, ev_end, ev_order, mk, util, bubble, restarts, status


def fill_batch(ga: GraphArrays, qa: QueueArrays, start, ev_end, mk, qdurs,
               ev_order):
    """Fill every point's bubbles in one call.

    Returns ``(device_steps, refresh, seg_item, seg_s, seg_e, seg_count,
    pf_util, status)``; rows with nonzero status must fall back (the
    python path raises the reference's error for genuine fill failures),
    and every row keeps its preset failure status if the core cannot
    allocate its work buffers.
    """
    lib = _load()
    P = start.shape[0]
    D = ga.num_devices
    cap = qa.seg_cap
    start = np.ascontiguousarray(start, np.float64)
    ev_end = np.ascontiguousarray(ev_end, np.float64)
    mk = np.ascontiguousarray(mk, np.float64)
    qdurs = np.ascontiguousarray(qdurs, np.float64)
    ev_order = np.ascontiguousarray(ev_order, np.int32)
    dev_steps = np.zeros((P, D), np.int32)
    refresh = np.ones(P, np.int32)
    seg_item = np.empty((P, cap), np.int32)
    seg_s = np.empty((P, cap), np.float64)
    seg_e = np.empty((P, cap), np.float64)
    seg_count = np.zeros(P, np.int32)
    pf_util = np.zeros(P, np.float64)
    status = np.full(P, -1, np.int32)
    lib.repro_fill_batch(
        ctypes.byref(ga.struct), ctypes.byref(qa.struct), P,
        _ptr_f64(start), _ptr_f64(ev_end), _ptr_f64(mk), _ptr_f64(qdurs),
        _ptr_i32(ev_order), 64, 1e-5, 2e-3, cap,
        _ptr_i32(dev_steps), _ptr_i32(refresh), _ptr_i32(seg_item),
        _ptr_f64(seg_s), _ptr_f64(seg_e), _ptr_i32(seg_count),
        _ptr_f64(pf_util), _ptr_i32(status))
    return dev_steps, refresh, seg_item, seg_s, seg_e, seg_count, \
        pf_util, status
