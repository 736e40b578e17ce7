"""The metrics registry: counters, gauges, fixed-bucket histograms.

One process-wide :class:`MetricsRegistry` replaces the scattered counter
dicts that PRs 1–3 grew: ILP backends report branch-and-bound nodes
explored/pruned, simplex pivots, and LP relaxation gaps; the composition
cache reports digest hits/misses/evictions; the incremental timer folds
its :class:`~repro.sta.timer.TimerStats` in.  The registry is cheap
enough to stay always-on (a dict lookup and an integer add per event —
hot loops accumulate locally and report once per call) and deterministic
(histogram buckets are fixed at creation, so two identical runs produce
identical snapshots modulo wall-clock).
"""

from __future__ import annotations

import bisect
import threading
from typing import Sequence

#: Default histogram buckets for event-count distributions (B&B nodes per
#: solve, retimed nodes per pass, ...): upper bounds, log-ish spaced.
COUNT_BUCKETS: tuple[float, ...] = (
    1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 5000, 10000, 50000,
)

#: Default buckets for fractions in [0, 1] (relaxation gaps, dirty-cone
#: fractions).
FRACTION_BUCKETS: tuple[float, ...] = (
    0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0,
)


class Counter:
    """A monotonically increasing value (int-preserving: stays ``int``
    until a float is added)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: int | float = 0

    def inc(self, amount: int | float = 1) -> None:
        self.value += amount


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: int | float = 0

    def set(self, value: int | float) -> None:
        self.value = value


class Histogram:
    """A fixed-bucket histogram.

    ``buckets`` are upper bounds (ascending); observations above the last
    bound land in the overflow slot.  Fixed buckets keep snapshots
    deterministic — the same run always yields the same counts.
    """

    __slots__ = ("name", "buckets", "counts", "count", "total")

    def __init__(self, name: str, buckets: Sequence[float]) -> None:
        bounds = tuple(float(b) for b in buckets)
        if list(bounds) != sorted(set(bounds)):
            raise ValueError(f"histogram buckets must be strictly ascending: {buckets}")
        self.name = name
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)  # +1 overflow slot
        self.count = 0
        self.total: int | float = 0

    def observe(self, value: int | float) -> None:
        self.counts[bisect.bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.total += value

    def as_dict(self) -> dict:
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.total,
        }


class MetricsRegistry:
    """Create-or-get registry of named metrics.

    Thread-safe for metric *creation*; individual updates are plain
    attribute writes (the GIL makes the integer adds atomic enough for
    profiling counters, and hot paths batch locally anyway).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            with self._lock:
                c = self._counters.setdefault(name, Counter(name))
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            with self._lock:
                g = self._gauges.setdefault(name, Gauge(name))
        return g

    def histogram(
        self, name: str, buckets: Sequence[float] = COUNT_BUCKETS
    ) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            with self._lock:
                h = self._histograms.setdefault(name, Histogram(name, buckets))
        return h

    # -- snapshots ----------------------------------------------------------

    def snapshot(self) -> dict:
        """A plain-data view of every metric (JSON-ready)."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: h.as_dict() for n, h in sorted(self._histograms.items())
            },
        }

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


# -- module-level current registry ------------------------------------------

_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return _registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` as the process-wide registry; returns the
    previous one (restore it in a ``finally``)."""
    global _registry
    prev = _registry
    _registry = registry
    return prev
