"""Host-speed calibration: scale interpreter-bound times to a fixed host.

On a shared host the machine's own speed moves: a fixed piece of pure
Python runs up to 1.8x slower, for spells of a tenth of a second to tens
of minutes, in CPU time as well as wall time, and the interpreter-bound
workloads move with it.  Run-to-run spread from that alone is larger
than any useful regression bound.

So the benchmark times :func:`python_kernel`, a fixed piece of work that
never changes with the program, interleaved with the workload's
operations, and reports each operation's time scaled by
``REFERENCE_S / t``, where ``t`` is the mean of the kernel's timings
right before and right after that operation.  A scaled time reads as
the time on a host where the kernel takes ``REFERENCE_S``.  A change to
the program moves the operations and not the kernel, so it still shows
in full.
"""

from __future__ import annotations

import gc
import heapq
import json
import statistics
import time

#: The kernel's time on the reference host (a shared 2-vCPU Xeon VM in
#: its fast spells).  Only a unit: any constant would do.
REFERENCE_S = 0.010

_DOC = {"units": [{"params": {"arch": "BERT-Base", "schedule": "1f1b",
                              "depth": d, "b_micro": b},
                   "value": {"span": d * 1.5 + b,
                             "util": [0.125 * i for i in range(8)]}}
                  for d in range(8) for b in range(6)]}


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a, b) -> None:
        self.a = a
        self.b = b

    def at(self, x):
        return self.a * x + self.b


def python_kernel() -> float:
    """Fixed interpreter work of the workloads' kinds, about 10 ms.

    String-keyed dicts, a keyed sort, a heap, JSON round trips, small
    objects with method calls and a float loop.
    """
    table = {}
    for i in range(3000):
        table[f"k{i % 997}:{i}"] = (i * 2654435761) & 0xFFFF
    rows = sorted(table.items(), key=lambda kv: (kv[1], kv[0]))
    heap: list = []
    for key, value in rows:
        heapq.heappush(heap, (value, key))
    total = 0.0
    while heap:
        total += heapq.heappop(heap)[0]
    for _ in range(4):
        total += len(json.dumps(json.loads(json.dumps(_DOC, sort_keys=True))))
    for p in [_Point(i, 1.5) for i in range(3000)]:
        total += p.at(0.25)
    acc = 0.0
    for i in range(20000):
        acc += (i % 7) * 0.5 - acc * 1e-6
    return total + acc


def sample() -> float:
    """Seconds one :func:`python_kernel` call takes now.

    The cyclic garbage collector is off meanwhile: its passes cost in
    proportion to the program's heap, which would tie the kernel's time
    to the program's state.  The kernel makes no cycles.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        python_kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale(samples) -> float:
    """``REFERENCE_S`` over the median of kernel timings ``samples``."""
    return REFERENCE_S / statistics.median(samples)


def scales_at(times, cal_at, cal_s) -> list:
    """For each time in ``times`` (ascending): the scale at that time.

    ``cal_at``/``cal_s`` are the samples' times (ascending) and
    durations.  The host changes speed within a tenth of a second, so a
    time is scaled by the mean of the one sample right before it and
    the one right after (or by the only one there is).
    """
    out = []
    j = 0
    n = len(cal_at)
    for t in times:
        while j < n and cal_at[j] <= t:
            j += 1
        near = cal_s[max(j - 1, 0):j + 1]
        out.append(REFERENCE_S * len(near) / sum(near))
    return out
