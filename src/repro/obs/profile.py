"""Performance intelligence: sampling profiler, resource timelines,
progress heartbeats.

Three always-optional signals on top of the span tracer, all costing
nothing when not installed (every hook site is a module-global load and
a ``None`` test):

* :class:`Profiler` — a background-thread **wall-clock sampler** that
  attributes each sample to the current :func:`repro.obs.span` stack of
  every live thread (via :meth:`Tracer.active_stacks
  <repro.obs.trace.Tracer.active_stacks>`), accumulating collapsed-stack
  ("folded") counts loadable by any flamegraph tool
  (``flamegraph.pl``, speedscope, inferno).  Enabled via ``repro run
  --profile out.folded`` or ``REPRO_PROFILE=1`` (or
  ``REPRO_PROFILE=path``).
* :class:`ResourceSampler` — a coarse (default 250 ms) sampler of the
  process's RSS and CPU utilization: each tick updates the
  ``proc.rss_bytes`` / ``proc.rss_peak_bytes`` / ``proc.cpu_percent``
  gauges in the metrics registry and appends to an in-memory timeline
  the run manifest archives, so a long ``huge``-preset run leaves a
  memory/CPU-over-time record next to its span roll-up.
* :class:`Heartbeat` — periodic **progress events** for long runs: the
  pipeline reports stage starts/finishes, stages report work progress
  (subproblems solved, dirty registers), and a ticker thread emits one
  event per interval carrying the current stage, elapsed time, work
  done/total, and an ETA estimated from :class:`StageTrace
  <repro.engine.stage.StageTrace>` history (earlier executions of the
  same stages — a second composition pass predicts from the first).
  Events go to the structured log, optionally to a stream
  (``--progress`` / ``REPRO_PROGRESS=1``), and into the manifest.
"""

from __future__ import annotations

import os
import sys
import threading
import time

from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.trace import Tracer, get_tracer

PROFILE_ENV = "REPRO_PROFILE"
PROGRESS_ENV = "REPRO_PROGRESS"

#: Default wall-clock sampling period.  2 ms resolves a 100 ms stage
#: into ~50 samples while keeping the sampler thread's own CPU share
#: well under 1%.
DEFAULT_PROFILE_INTERVAL_S = 0.002

DEFAULT_RESOURCE_INTERVAL_S = 0.25
DEFAULT_HEARTBEAT_INTERVAL_S = 5.0

_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def default_profile_path() -> str:
    """Where ``REPRO_PROFILE=1`` writes when no path was given."""
    value = os.environ.get(PROFILE_ENV, "")
    if value not in ("", "0", "1"):
        return value
    return "repro_profile.folded"


def profile_env_enabled() -> bool:
    return os.environ.get(PROFILE_ENV, "") not in ("", "0")


def progress_env_enabled() -> bool:
    return os.environ.get(PROGRESS_ENV, "") not in ("", "0")


class Profiler:
    """Wall-clock sampling profiler over the span tracer's live stacks.

    ``start()`` launches a daemon thread that, every ``interval_s``,
    snapshots each thread's open-span stack and increments that stack's
    sample count.  ``folded()`` renders the counts in collapsed-stack
    format (``frame;frame;frame count`` per line).  Samples taken while
    no span is open are counted separately (``idle_samples``) so the
    flamegraph's total width reflects attributed time only.

    The profiler never samples Python frames — span stacks are the unit
    of attribution, which keeps sampling O(open spans).
    """

    def __init__(
        self,
        tracer: Tracer | None = None,
        interval_s: float = DEFAULT_PROFILE_INTERVAL_S,
    ) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval_s must be positive, got {interval_s}")
        self.tracer = tracer if tracer is not None else get_tracer()
        if self.tracer is None or not self.tracer.enabled:
            raise ValueError("Profiler requires an enabled tracer")
        self.interval_s = interval_s
        self.samples: dict[tuple[str, ...], int] = {}
        self.idle_samples = 0
        self.total_samples = 0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._own_tid: int | None = None

    # -- sampling -----------------------------------------------------------

    def start(self) -> "Profiler":
        if self._thread is not None:
            raise RuntimeError("profiler already started")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._thread = None

    def _run(self) -> None:
        self._own_tid = threading.get_ident()
        while not self._stop.wait(self.interval_s):
            self.sample_once()

    def sample_once(self) -> None:
        """Take one sample of every live thread's span stack."""
        stacks = self.tracer.active_stacks()
        with self._lock:
            for tid, names in stacks.items():
                if tid == self._own_tid:
                    continue
                self.total_samples += 1
                if names:
                    self.samples[names] = self.samples.get(names, 0) + 1
                else:
                    self.idle_samples += 1

    # -- output -------------------------------------------------------------

    def folded_counts(self) -> dict[tuple[str, ...], int]:
        with self._lock:
            return dict(self.samples)

    def folded(self) -> str:
        """Collapsed-stack text: one ``a;b;c count`` line per stack."""
        with self._lock:
            items = sorted(self.samples.items())
        return "".join(f"{';'.join(names)} {count}\n" for names, count in items)

    def write_folded(self, path: str) -> int:
        """Write the folded profile; returns the number of stack lines."""
        text = self.folded()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return len(text.splitlines())


class ResourceSampler:
    """Periodic RSS/CPU sampler feeding the metrics registry a timeline.

    Each tick reads the process's resident set (``/proc/self/statm``;
    falls back to ``resource.getrusage`` peak-RSS where /proc is
    unavailable) and the CPU utilization since the previous tick
    (``os.times`` user+system delta over wall delta — >100% means
    worker threads), updates the ``proc.*`` gauges, and appends one
    point to :attr:`timeline`.  The run manifest archives the timeline
    under its ``resources`` section.
    """

    def __init__(
        self,
        interval_s: float = DEFAULT_RESOURCE_INTERVAL_S,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval_s must be positive, got {interval_s}")
        self.interval_s = interval_s
        self._registry = registry
        self.timeline: list[dict] = []
        self.peak_rss_bytes = 0
        self._t0 = time.monotonic()
        self._last_cpu = self._cpu_seconds()
        self._last_wall = self._t0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    @property
    def registry(self) -> MetricsRegistry:
        return self._registry if self._registry is not None else get_registry()

    @staticmethod
    def _cpu_seconds() -> float:
        t = os.times()
        return t.user + t.system

    @staticmethod
    def read_rss_bytes() -> int:
        """Current resident set size in bytes (0 when unreadable)."""
        try:
            with open("/proc/self/statm", "rb") as fh:
                return int(fh.read().split()[1]) * _PAGE_SIZE
        except (OSError, IndexError, ValueError):
            try:
                import resource

                # ru_maxrss is the *peak*, in KiB on Linux — a usable
                # upper bound where /proc is missing (e.g. macOS: bytes).
                peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                return peak * 1024 if sys.platform != "darwin" else peak
            except Exception:
                return 0

    def start(self) -> "ResourceSampler":
        if self._thread is not None:
            raise RuntimeError("resource sampler already started")
        self._stop.clear()
        self.sample_once()
        self._thread = threading.Thread(
            target=self._run, name="repro-resources", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._thread = None
        self.sample_once()

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.sample_once()

    def sample_once(self) -> dict:
        """Take one sample; updates gauges and returns the timeline point."""
        now = time.monotonic()
        rss = self.read_rss_bytes()
        cpu = self._cpu_seconds()
        wall_delta = now - self._last_wall
        cpu_percent = (
            100.0 * (cpu - self._last_cpu) / wall_delta if wall_delta > 1e-6 else 0.0
        )
        self._last_cpu, self._last_wall = cpu, now
        point = {
            "t_s": round(now - self._t0, 3),
            "rss_bytes": rss,
            "cpu_percent": round(cpu_percent, 1),
        }
        with self._lock:
            self.timeline.append(point)
            self.peak_rss_bytes = max(self.peak_rss_bytes, rss)
        reg = self.registry
        reg.gauge("proc.rss_bytes").set(rss)
        reg.gauge("proc.rss_peak_bytes").set(self.peak_rss_bytes)
        reg.gauge("proc.cpu_percent").set(point["cpu_percent"])
        return point

    def as_dict(self) -> dict:
        """The manifest's ``resources`` section."""
        with self._lock:
            timeline = list(self.timeline)
        return {
            "interval_s": self.interval_s,
            "peak_rss_bytes": self.peak_rss_bytes,
            "samples": len(timeline),
            "timeline": timeline,
        }


class Heartbeat:
    """Progress events for long runs: stage transitions + periodic beats.

    The pipeline drives :meth:`run_started` / :meth:`stage_started` /
    :meth:`stage_finished`; work loops call :meth:`advance` (monotonic
    done/total within the current stage) and :meth:`update` (freeform
    context fields such as ``dirty_registers``).  A ticker thread emits
    one ``heartbeat`` event per ``interval_s`` while work is running.

    ETA: finished stages record their durations into :attr:`history`
    (seedable from a prior run's ``StageTrace.aggregated()``); the
    estimate is the historical time of the not-yet-run stages plus the
    remainder of the current stage — scaled by done/total when the stage
    reports work progress, else by its own history.  Stages with no
    history contribute nothing (the ETA is a floor, never a guess).
    """

    def __init__(
        self,
        interval_s: float = DEFAULT_HEARTBEAT_INTERVAL_S,
        history: dict[str, float] | None = None,
        stream=None,
        emit=None,
    ) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval_s must be positive, got {interval_s}")
        self.interval_s = interval_s
        self.history: dict[str, float] = dict(history or {})
        self.stream = stream
        self._emit_fn = emit
        self.events: list[dict] = []
        self._lock = threading.Lock()
        self._t0 = time.monotonic()
        self._planned: list[str] = []
        self._stage: str | None = None
        self._stage_t0 = 0.0
        self._done: int | float | None = None
        self._total: int | float | None = None
        self._unit = "items"
        self._context: dict = {}
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "Heartbeat":
        if self._thread is not None:
            raise RuntimeError("heartbeat already started")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-heartbeat", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._thread = None

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.beat()

    # -- pipeline hooks -----------------------------------------------------

    def run_started(self, stage_names: list[str]) -> None:
        with self._lock:
            self._planned = list(stage_names)

    def stage_started(self, name: str) -> None:
        with self._lock:
            self._stage = name
            self._stage_t0 = time.monotonic()
            self._done = self._total = None
            self._unit = "items"
        self._record(
            {"event": "stage_started", "stage": name, "eta_s": self.eta_s()}
        )

    def stage_finished(self, name: str, seconds: float) -> None:
        with self._lock:
            self.history[name] = seconds
            if self._stage == name:
                self._stage = None
                self._done = self._total = None
        self._record(
            {
                "event": "stage_finished",
                "stage": name,
                "seconds": round(seconds, 6),
                "eta_s": self.eta_s(),
            }
        )

    # -- work-loop hooks ----------------------------------------------------

    def advance(
        self,
        done: int | float,
        total: int | float | None = None,
        unit: str = "items",
    ) -> None:
        """Report work progress inside the current stage (monotonic)."""
        with self._lock:
            self._done = done
            if total is not None:
                self._total = total
            self._unit = unit

    def update(self, **fields) -> None:
        """Merge context fields into every subsequent beat (e.g.
        ``dirty_registers=412``)."""
        with self._lock:
            self._context.update(fields)

    # -- emission -----------------------------------------------------------

    def eta_s(self) -> float | None:
        """Estimated seconds to finish the planned stages (None: no data)."""
        with self._lock:
            stage = self._stage
            planned = self._planned
            history = self.history
            done, total = self._done, self._total
            stage_elapsed = (
                time.monotonic() - self._stage_t0 if stage is not None else 0.0
            )
        known = False
        eta = 0.0
        if stage is not None:
            if done and total and done > 0:
                eta += stage_elapsed * max(0.0, float(total) / float(done) - 1.0)
                known = True
            elif stage in history:
                eta += max(0.0, history[stage] - stage_elapsed)
                known = True
        if stage is not None and stage in planned:
            for name in planned[planned.index(stage) + 1:]:
                if name in history:
                    eta += history[name]
                    known = True
        return round(eta, 3) if known else None

    def beat(self) -> dict | None:
        """Emit one heartbeat event (None when no stage is running)."""
        with self._lock:
            stage = self._stage
            if stage is None:
                return None
            event = {
                "event": "heartbeat",
                "stage": stage,
                "elapsed_s": round(time.monotonic() - self._t0, 3),
                "stage_elapsed_s": round(time.monotonic() - self._stage_t0, 3),
            }
            if self._done is not None:
                event["done"] = self._done
                if self._total is not None:
                    event["total"] = self._total
                event["unit"] = self._unit
            event.update(self._context)
        event["eta_s"] = self.eta_s()
        self._record(event)
        return event

    def _record(self, event: dict) -> None:
        with self._lock:
            self.events.append(event)
        from repro.obs.logs import log

        log(
            f"progress.{event.get('event', 'beat')}",
            **{k: v for k, v in event.items() if k != "event"},
        )
        if self.stream is not None:
            parts = [f"{k}={v}" for k, v in event.items() if v is not None]
            print("[progress] " + " ".join(parts), file=self.stream, flush=True)
        if self._emit_fn is not None:
            self._emit_fn(event)

    def as_dict(self) -> dict:
        """The manifest's ``progress`` section."""
        with self._lock:
            return {"interval_s": self.interval_s, "events": list(self.events)}


# -- module-level current instances ------------------------------------------

_profiler: Profiler | None = None
_heartbeat: Heartbeat | None = None


def get_profiler() -> Profiler | None:
    return _profiler


def set_profiler(profiler: Profiler | None) -> Profiler | None:
    """Install ``profiler`` as the process-wide profiler; returns the
    previous one (restore it in a ``finally``)."""
    global _profiler
    prev = _profiler
    _profiler = profiler
    return prev


def install_profiler(
    tracer: Tracer | None = None,
    interval_s: float = DEFAULT_PROFILE_INTERVAL_S,
) -> Profiler:
    """Create, install, and start a profiler over the current tracer."""
    profiler = Profiler(tracer=tracer, interval_s=interval_s)
    set_profiler(profiler)
    return profiler.start()


def get_heartbeat() -> Heartbeat | None:
    return _heartbeat


def set_heartbeat(heartbeat: Heartbeat | None) -> Heartbeat | None:
    """Install ``heartbeat`` process-wide; returns the previous one."""
    global _heartbeat
    prev = _heartbeat
    _heartbeat = heartbeat
    return prev


def install_heartbeat(
    interval_s: float = DEFAULT_HEARTBEAT_INTERVAL_S,
    history: dict[str, float] | None = None,
    stream=None,
) -> Heartbeat:
    """Create, install, and start a heartbeat emitter."""
    heartbeat = Heartbeat(interval_s=interval_s, history=history, stream=stream)
    set_heartbeat(heartbeat)
    return heartbeat.start()
