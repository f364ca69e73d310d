"""Bounded LRU caches with observable statistics.

Every cache in the sweep path (stage-cost models, schedule templates,
per-template timings) is a :class:`BoundedCache`: strictly bounded, LRU
eviction, and hit/miss/eviction counters exposed so tests can assert
cache *behavior* — not just results — and benchmarks can prove their
baselines ran cold (``clear()`` resets both entries and counters).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable


@dataclass(frozen=True)
class CacheStats:
    """Point-in-time counters of one cache."""

    hits: int
    misses: int
    evictions: int
    size: int
    maxsize: int

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        n = self.lookups
        return self.hits / n if n else 0.0


class BoundedCache:
    """An LRU-bounded mapping with hit/miss/eviction accounting.

    Unlike ``functools.lru_cache`` this is introspectable (``stats()``),
    clearable mid-run, and usable with keys computed separately from the
    cached call — the sweep engine keys templates by canonicalized
    structural tuples, not by the raw call arguments.  Memo sites go
    through :meth:`get_or_create`, which treats a stored ``None`` as a
    hit (a hand-rolled ``get``-then-``put`` with a ``None`` sentinel
    would recompute it forever).
    """

    def __init__(self, maxsize: int = 128) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Look up ``key``, counting a hit or miss and refreshing LRU order."""
        if key in self._data:
            self._hits += 1
            self._data.move_to_end(key)
            return self._data[key]
        self._misses += 1
        return default

    def put(self, key: Hashable, value: Any) -> None:
        """Insert ``key``, evicting the least-recently-used entry if full."""
        if key in self._data:
            self._data.move_to_end(key)
        self._data[key] = value
        if len(self._data) > self.maxsize:
            self._data.popitem(last=False)
            self._evictions += 1

    def discard(self, key: Hashable) -> None:
        """Remove ``key`` if present (no accounting)."""
        self._data.pop(key, None)

    def get_or_create(self, key: Hashable, factory: Callable[[], Any]) -> Any:
        """``get`` with a fallback ``factory()`` whose result is stored."""
        sentinel = _MISSING
        value = self.get(key, sentinel)
        if value is sentinel:
            value = factory()
            self.put(key, value)
        return value

    def values(self):
        """Current values, LRU-oldest first (no hit/miss accounting)."""
        return list(self._data.values())

    def items(self):
        """Current (key, value) pairs, LRU-oldest first (no accounting)."""
        return list(self._data.items())

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        self._data.clear()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def stats(self) -> CacheStats:
        return CacheStats(
            hits=self._hits,
            misses=self._misses,
            evictions=self._evictions,
            size=len(self._data),
            maxsize=self.maxsize,
        )


_MISSING = object()
