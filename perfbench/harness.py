"""Closed-loop measurement, percentiles and the run's environment.

A workload object supplies ``op() -> bool``: one operation, failed when
it returns False or raises.  :func:`closed_loop` runs operations back to
back on one client thread until the deadline and keeps each one's
latency.  With ``calibrate`` it also times the host-speed kernel between
operations (see :mod:`hostspeed`), outside the window's time, and
:meth:`Window.scaled` rescales the window to the reference host.
"""

from __future__ import annotations

import math
import os
import platform
import re
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field, replace

import hostspeed

#: Seconds of operations between host-speed samples: the host changes
#: speed within a tenth of a second, and a robustness query takes less.
CAL_INTERVAL_S = 0.05


@dataclass
class Window:
    """What one timed window measured."""

    wall_s: float = 0.0  # without the host-speed samples
    op_at: list = field(default_factory=list)  # every op's midpoint
    op_s: list = field(default_factory=list)  # every op's duration
    op_ok: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    cal_at: list = field(default_factory=list)  # host-speed samples
    cal_s: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.op_ok)

    @property
    def failed(self) -> int:
        return self.op_ok.count(False)

    @property
    def completed(self) -> int:
        return self.attempted - self.failed

    @property
    def latencies_s(self) -> list:
        """Durations of the successful ops."""
        return [d for d, ok in zip(self.op_s, self.op_ok) if ok]

    @property
    def ops_per_s(self) -> float:
        return self.completed / self.wall_s if self.wall_s > 0 else 0.0

    def scaled(self) -> "Window":
        """This window with every time scaled to the reference host.

        Each operation is scaled by the host-speed samples around it;
        the time between operations by their mean scale.  Without
        samples the window is returned as measured.
        """
        if not self.cal_s or not self.op_s:
            return self
        scales = hostspeed.scales_at(self.op_at, self.cal_at, self.cal_s)
        op_s = [d * k for d, k in zip(self.op_s, scales)]
        return replace(self, op_s=op_s,
                       wall_s=self.wall_s * sum(op_s) / sum(self.op_s))


def closed_loop(workload, seconds: float, calibrate: bool = False) -> Window:
    """Run ``workload.op`` back to back for ``seconds``.

    Every op that starts before the deadline runs to completion and is
    counted; the window ends when the last one returns.  With
    ``calibrate``, a host-speed sample is taken before the first op,
    after the last, and between ops whenever ``CAL_INTERVAL_S`` has
    passed since the previous one; samples are left out of ``wall_s``.
    Before a sample the workload's ``quiesce()``, if it has one, waits
    for work still running behind the last response, so that work
    slows the window rather than the sample.
    """
    win = Window()
    quiesce = getattr(workload, "quiesce", lambda: None)

    def take() -> float:
        quiesce()
        c0 = time.perf_counter()
        seconds = hostspeed.sample()
        win.cal_at.append(c0 + seconds / 2)
        win.cal_s.append(seconds)
        return time.perf_counter() - c0

    start = time.perf_counter()
    paused = take() if calibrate else 0.0
    deadline = time.perf_counter() + seconds
    last_cal = time.perf_counter()
    while time.perf_counter() < deadline:
        t0 = time.perf_counter()
        try:
            ok = bool(workload.op())
        except Exception:  # a failed op is data, not a crash
            ok = False
            win.errors.append(traceback.format_exc(limit=3))
        t1 = time.perf_counter()
        win.op_at.append((t0 + t1) / 2)
        win.op_s.append(t1 - t0)
        win.op_ok.append(ok)
        if calibrate and t1 - last_cal >= CAL_INTERVAL_S:
            paused += take()
            last_cal = time.perf_counter()
    if calibrate:
        paused += take()
    win.wall_s = time.perf_counter() - start - paused
    return win


def percentile(values, q: float) -> float:
    """Harrell-Davis estimate of the ``q``-th percentile (0..100).

    A Beta((n+1)p, (n+1)(1-p))-weighted mean of all order statistics
    rather than one or two of them, so a tail percentile of a few dozen
    samples (a training step's p95) does not jump with a single sample.
    The weights integrate the Beta density on a fine grid.
    """
    import numpy as np

    xs = np.sort(np.asarray(values, dtype=np.float64))
    n = len(xs)
    if n == 0:
        raise ValueError("percentile of no values")
    if n == 1:
        return float(xs[0])
    p = q / 100.0
    a, b = (n + 1) * p, (n + 1) * (1.0 - p)
    grid = (np.arange(_HD_POINTS) + 0.5) / _HD_POINTS
    log_pdf = ((a - 1.0) * np.log(grid) + (b - 1.0) * np.log1p(-grid)
               - (math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)))
    weights = np.bincount(np.minimum((grid * n).astype(np.int64), n - 1),
                          weights=np.exp(log_pdf), minlength=n)
    return float(weights @ xs / weights.sum())


#: Grid points for the Harrell-Davis weights.
_HD_POINTS = 100_000


def median(values) -> float:
    return percentile(values, 50.0)


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kb / 1024.0


def _command_version(cmd) -> str:
    try:
        out = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=10, check=False)
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    line = (out.stdout or out.stderr).strip().splitlines()
    return line[0] if line else "unavailable"


def _git_sha(root: str) -> str:
    """The checkout's commit, or "unknown" outside a git checkout."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:]),
                      encoding="utf-8") as f:
                return f.read().strip()
        return ref
    except OSError:
        return "unknown"


def _blas() -> tuple:
    """(name and version, thread setting) of numpy's BLAS."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        version = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        version = "unknown"
    threads = (os.environ.get("OPENBLAS_NUM_THREADS")
               or os.environ.get("OMP_NUM_THREADS")
               or f"default ({os.cpu_count()})")
    return version, threads


def fingerprint(root: str, native_loaded: bool) -> dict:
    """The environment a result was measured in."""
    import numpy as np

    blas_version, blas_threads = _blas()
    gcc = _command_version([os.environ.get("CC") or "gcc", "--version"])
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "gcc": re.sub(r"\s+", " ", gcc),
        "blas": blas_version,
        "blas_threads": blas_threads,
        "git_sha": _git_sha(root),
        "native_core_loaded": native_loaded,
        "platform": platform.platform(),
        "executable": os.path.basename(sys.executable),
    }
