"""Hierarchical span tracing with Chrome ``trace_event`` export.

The tracer is the single timing substrate of the flow: engine stages,
per-subgraph ILP solves, timer retimes, and ECO recomposes all open
*spans* — nested, thread-safe intervals carrying a category and a
small dict of args.  A finished run exports directly to Chrome's
``trace_event`` JSON (:meth:`Tracer.write_chrome_trace`), so traces open
in Perfetto / ``chrome://tracing`` without conversion.

Design constraints:

* **Near-zero overhead when disabled.**  The module-level :func:`span`
  helper returns one shared no-op context manager when no enabled tracer
  is installed — a global load, a truth test, and two empty method calls
  per instrumentation site (sub-microsecond; see
  ``benchmarks/test_obs_overhead.py``).
* **Thread-safe.**  The active-span stack is thread-local, so spans
  opened on different threads nest independently; the finished-record
  list is guarded by a lock.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from dataclasses import dataclass, field


@dataclass
class SpanRecord:
    """One finished span."""

    id: int
    parent_id: int | None
    name: str
    cat: str
    start_us: float
    dur_us: float
    pid: int
    tid: int
    args: dict = field(default_factory=dict)


class NullSpan:
    """The shared do-nothing span handed out when tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **args) -> None:
        pass


NULL_SPAN = NullSpan()


class _ActiveSpan:
    """A live span: a context manager that records itself on exit."""

    __slots__ = ("_tracer", "name", "cat", "args", "id", "parent_id", "_t0")

    def __init__(self, tracer: "Tracer", name: str, cat: str, args: dict | None):
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.args = args
        self.id = next(tracer._ids)
        self.parent_id: int | None = None
        self._t0 = 0.0

    def set(self, **args) -> None:
        """Attach (or update) args mid-span, e.g. counts known only at the
        end of the work."""
        if self.args is None:
            self.args = args
        else:
            self.args.update(args)

    def __enter__(self) -> "_ActiveSpan":
        stack = self._tracer._stack()
        self.parent_id = stack[-1][0] if stack else None
        stack.append((self.id, self.name))
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        t1 = time.perf_counter()
        tracer = self._tracer
        stack = tracer._stack()
        if stack and stack[-1][0] == self.id:
            stack.pop()
        tracer._record(
            SpanRecord(
                id=self.id,
                parent_id=self.parent_id,
                name=self.name,
                cat=self.cat,
                start_us=(self._t0 - tracer.epoch) * 1e6,
                dur_us=(t1 - self._t0) * 1e6,
                pid=os.getpid(),
                tid=threading.get_ident(),
                args=self.args or {},
            )
        )
        return False


class Tracer:
    """Collects spans for one run.

    ``epoch`` is the ``time.perf_counter()`` origin all timestamps are
    relative to: the moment the tracer was created.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.epoch = time.perf_counter()
        self._records: list[SpanRecord] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        # Every thread's live span stack, keyed by thread ident.  The
        # lists are the same objects ``_stack`` mutates, so the sampling
        # profiler can snapshot any thread's stack without touching its
        # thread-local state (reads race benignly under the GIL).
        self._thread_stacks: dict[int, list[tuple[int, str]]] = {}

    # -- recording ----------------------------------------------------------

    def span(self, name: str, cat: str = "flow", **args) -> "_ActiveSpan | NullSpan":
        """Open a span; use as ``with tracer.span("stage.solve") as sp:``."""
        if not self.enabled:
            return NULL_SPAN
        return _ActiveSpan(self, name, cat, args or None)

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            with self._lock:
                self._thread_stacks[threading.get_ident()] = stack
        return stack

    def active_stacks(self) -> dict[int, tuple[str, ...]]:
        """Snapshot of every thread's live span-name stack.

        This is the sampling profiler's read path: a point-in-time copy
        of each registered thread's stack (threads that never opened a
        span do not appear; finished threads may linger with an empty
        stack).  The copy is taken without the tracer lock — the GIL
        makes ``list(stack)`` safe against concurrent append/pop, and a
        sample that straddles a push/pop is off by at most one frame.
        """
        return {
            tid: tuple(name for _, name in list(stack))
            for tid, stack in list(self._thread_stacks.items())
        }

    def _record(self, rec: SpanRecord) -> None:
        with self._lock:
            self._records.append(rec)

    def records(self) -> list[SpanRecord]:
        with self._lock:
            return list(self._records)

    # -- reporting ----------------------------------------------------------

    def rollup(self) -> dict[str, dict[str, float]]:
        """Per-span-name totals: ``{name: {count, total_s}}`` — the manifest's
        condensed view of where the run spent its time."""
        out: dict[str, dict[str, float]] = {}
        for rec in self.records():
            slot = out.setdefault(rec.name, {"count": 0, "total_s": 0.0})
            slot["count"] += 1
            slot["total_s"] += rec.dur_us / 1e6
        return out

    def to_chrome_trace(self) -> dict:
        """The run as a Chrome ``trace_event`` object (Perfetto-loadable).

        Every span becomes a complete (``ph: "X"``) event, after one
        metadata event naming the process.
        """
        records = self.records()
        events: list[dict] = []
        if records:
            events.append(
                {
                    "ph": "M",
                    "name": "process_name",
                    "pid": records[0].pid,
                    "tid": 0,
                    "args": {"name": "repro"},
                }
            )
        for rec in records:
            events.append(
                {
                    "name": rec.name,
                    "cat": rec.cat,
                    "ph": "X",
                    "ts": rec.start_us,
                    "dur": rec.dur_us,
                    "pid": rec.pid,
                    "tid": rec.tid,
                    "args": rec.args,
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_chrome_trace(), fh, default=str)


# -- module-level current tracer -------------------------------------------

_tracer: Tracer | None = None


def get_tracer() -> Tracer | None:
    return _tracer


def set_tracer(tracer: Tracer | None) -> Tracer | None:
    """Install ``tracer`` as the process-wide current tracer; returns the
    previous one (restore it in a ``finally``)."""
    global _tracer
    prev = _tracer
    _tracer = tracer
    return prev


def install_tracer(enabled: bool = True) -> Tracer:
    """Create and install a fresh tracer (the common run-scoped setup)."""
    tracer = Tracer(enabled=enabled)
    set_tracer(tracer)
    return tracer


def tracing_enabled() -> bool:
    t = _tracer
    return t is not None and t.enabled


def span(name: str, cat: str = "flow", **args) -> "_ActiveSpan | NullSpan":
    """Open a span on the current tracer — the one call every
    instrumentation site makes.  When tracing is off this is a global
    load, a truth test, and a shared no-op object."""
    t = _tracer
    if t is None or not t.enabled:
        return NULL_SPAN
    return t.span(name, cat, **args)
