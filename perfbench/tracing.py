"""In-memory span recorder for the traced benchmark run.

The program under test is not instrumented.  Instead the benchmark wraps
the public calls it makes into each layer (instance methods on the
objects it builds, a few module functions and class methods) so every
call leaves one span: name, start, end, parent span and request id.
Spans stay in memory until the run ends; :func:`layer_table` reduces
them to per-name call counts, busy time and self time (busy time minus
the part covered by direct children).

A parent can live on another thread: the HTTP client passes its span id
and request id in a header, and the server-side handler span adopts
them, so server work counts as a child of the client round trip.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import time

#: (span id, request id) of the innermost open span on this thread/context.
_CURRENT = contextvars.ContextVar("perfbench_span", default=(None, None))


class Tracer:
    """Collects spans from any thread; cheap enough to wrap hot calls."""

    def __init__(self) -> None:
        self.spans: list = []  # (id, parent, name, start_ns, end_ns, rid)
        self._ids = itertools.count(1)
        self._restore: list = []

    def span(self, name: str, parent=None, rid=None) -> "_Span":
        """Open a span; ``parent``/``rid`` default to the enclosing span's."""
        return _Span(self, name, parent, rid)

    # -- wrapping ------------------------------------------------------------------

    def patch(self, owner, attr: str, new) -> None:
        """Set ``owner.attr = new`` until :meth:`unwrap`.

        ``owner`` is an instance, a class or a module.  What gets put
        back is the raw entry of ``owner.__dict__`` (e.g. a
        ``classmethod``), or nothing if the attribute was inherited;
        objects with ``__slots__`` get their old value back.
        """
        own = getattr(owner, "__dict__", None)
        saved = own.get(attr) if own is not None else getattr(owner, attr)
        setattr(owner, attr, new)
        self._restore.append((owner, attr, saved))

    def wrap(self, owner, attr: str, name: str) -> None:
        """Record every call of ``owner.attr`` as a ``name`` span."""
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            with tracer.span(name):
                return orig(*args, **kwargs)

        self.patch(owner, attr, traced)

    def unwrap(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._restore:
            owner, attr, saved = self._restore.pop()
            if saved is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)

    # -- reduction -----------------------------------------------------------------

    def dump(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as f:
            for sid, parent, name, t0, t1, rid in self.spans:
                f.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                    "start_ns": t0, "end_ns": t1,
                                    "request": rid}) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "parent", "rid", "sid", "t0", "token")

    def __init__(self, tracer: Tracer, name: str, parent, rid) -> None:
        self.tracer = tracer
        self.name = name
        self.parent = parent
        self.rid = rid

    def __enter__(self) -> "_Span":
        cur_id, cur_rid = _CURRENT.get()
        if self.parent is None:
            self.parent = cur_id
        if self.rid is None:
            self.rid = cur_rid
        self.sid = next(self.tracer._ids)
        self.token = _CURRENT.set((self.sid, self.rid))
        self.t0 = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        t1 = time.perf_counter_ns()
        _CURRENT.reset(self.token)
        self.tracer.spans.append(
            (self.sid, self.parent, self.name, self.t0, t1, self.rid))


class TimedLock:
    """A lock proxy whose acquire is recorded as a ``name`` span."""

    def __init__(self, lock, tracer: Tracer, name: str) -> None:
        self._lock = lock
        self._tracer = tracer
        self._name = name

    def acquire(self, *args, **kwargs):
        with self._tracer.span(self._name):
            return self._lock.acquire(*args, **kwargs)

    def release(self) -> None:
        self._lock.release()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()


def layer_table(spans) -> dict:
    """``{name: {"calls", "busy_s", "self_s"}}`` over ``spans``.

    Self time is a span's duration minus its direct children's
    durations; summed over a span tree it equals the root's duration.
    """
    child_ns: dict = {}
    for _, parent, _, t0, t1, _ in spans:
        if parent is not None:
            child_ns[parent] = child_ns.get(parent, 0) + (t1 - t0)
    table: dict = {}
    for sid, _, name, t0, t1, _ in spans:
        row = table.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        dur = t1 - t0
        row["calls"] += 1
        row["busy_s"] += dur / 1e9
        row["self_s"] += (dur - child_ns.get(sid, 0)) / 1e9
    return table


def root_busy_s(spans) -> float:
    """Summed duration of the spans that have no parent."""
    return sum(t1 - t0 for _, parent, _, t0, t1, _ in spans
               if parent is None) / 1e9


def busy_under(spans, name: str, ancestor: str) -> float:
    """Summed duration of the ``name`` spans nested in an ``ancestor`` span."""
    parents = {sid: (parent, n) for sid, parent, n, _, _, _ in spans}
    total = 0
    for _, parent, n, t0, t1, _ in spans:
        if n != name:
            continue
        while parent is not None:
            parent, above = parents.get(parent, (None, None))
            if above == ancestor:
                total += t1 - t0
                break
    return total / 1e9
