"""Wall time rescaled to a fixed interpreter speed.

The shared 2-vCPU machines this benchmark was tuned on change speed by up
to 1.4x for minutes at a time (other tenants share the cores): a fixed
pure-Python loop timed over 10-40 s windows spread 13-25% (IQR over
median), and wall times of the workloads spread as much from run to run.
So every timed region also times a fixed pure-Python reference unit, in
short bursts just before and after the region and every
:data:`SAMPLE_EVERY` seconds inside it, from a ``SIGALRM`` handler on the
main thread.  A region's :attr:`Clock.seconds` is its wall time, less the
in-region units, divided by the machine's slowness: the median unit time
over :data:`REF_UNIT_S`.  At the machine's typical speed it reads about
the wall time.

In a region whose work runs on executor threads (``Clock(threaded=True)``)
a main-thread unit would take turns with them at the interpreter lock and
time their work as well as the machine, so such a region gets only the
bursts around it; keep it short.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

#: Typical time of one :func:`reference_unit` on the 2-vCPU tuning machine.
REF_UNIT_S = 0.0064
#: Reference units in each burst before and after a region.
BURST_UNITS = 12
#: Seconds between in-region samples.
SAMPLE_EVERY = 0.25


#: The reference unit's working set: about 6 MB, past the per-core caches,
#: so the unit feels the cache and memory contention the workloads feel.
_TABLE = {i: i * 3 for i in range(60_000)}


def reference_unit() -> int:
    """Scattered reads over :data:`_TABLE`, about 6 ms.  It allocates
    almost nothing: a unit that allocates runs fast or slow with the state
    of the heap, not with the machine."""
    table = _TABLE
    acc = 0
    k = 1
    for _ in range(30_000):
        k = (k * 7919 + 13) % 60_000
        acc ^= table[k]
    return acc


class Clock:
    """Times one region: ``with Clock() as c: ...`` then ``c.seconds``.

    Must be used on the main thread, one region at a time.
    """

    def __init__(self, threaded: bool = False) -> None:
        self.sample = not threaded
        self.units: list[float] = []
        self.wall = 0.0
        self._in_region = 0.0

    def _unit(self) -> float:
        t0 = time.perf_counter()
        reference_unit()
        dt = time.perf_counter() - t0
        self.units.append(dt)
        return dt

    def _burst(self) -> None:
        for _ in range(BURST_UNITS):
            self._unit()

    def _on_alarm(self, signum, frame) -> None:
        self._in_region += self._unit()

    def __enter__(self) -> "Clock":
        gc.collect()
        self._burst()
        if self.sample:
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.wall = time.perf_counter() - self._t0 - self._in_region
        if self.sample:
            signal.signal(signal.SIGALRM, self._previous)
        self._burst()
        return False

    @property
    def slowness(self) -> float:
        """Median reference-unit time over :data:`REF_UNIT_S`."""
        return statistics.median(self.units) / REF_UNIT_S

    @property
    def seconds(self) -> float:
        """The region's wall time at the reference speed."""
        return self.wall / self.slowness
