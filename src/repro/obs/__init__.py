"""``repro.obs`` — the unified observability layer.

One subsystem, three signals, one artifact:

* :mod:`repro.obs.trace` — hierarchical **span tracing** (context-manager
  API, thread-safe, near-zero overhead when disabled) with Chrome
  ``trace_event`` export, so any run opens directly in Perfetto;
* :mod:`repro.obs.metrics` — the **metrics registry** (counters, gauges,
  fixed-bucket histograms) every subsystem reports into: ILP node/pivot
  counts, cache hit rates, incremental-timing effort;
* :mod:`repro.obs.logs` — **structured run logs** over stdlib
  ``logging`` (JSON-lines via ``REPRO_LOG_JSON=1``);
* :mod:`repro.obs.manifest` — the **run manifest**: config + metrics +
  span roll-ups serialized to one validated JSON;
* :mod:`repro.obs.sentinel` — the **bench record** (``repro bench
  record``: one ``repro.bench.run/1`` line per perfbench workload) and the
  regression sentinel that judges its trajectories (``repro bench
  report``).

Instrumentation sites call :func:`span`, :func:`get_registry`, and
:func:`log`; runners (CLI, benchmarks, tests) install a tracer/registry
pair via :func:`install_tracer` / :func:`set_registry` and export with
:func:`build_manifest` / :meth:`Tracer.write_chrome_trace`.
"""

from repro.obs.logs import configure_logging, get_logger, log
from repro.obs.manifest import (
    MANIFEST_REQUIRED_KEYS,
    MANIFEST_SCHEMA,
    build_manifest,
    validate_manifest,
    write_manifest,
)
from repro.obs.metrics import (
    COUNT_BUCKETS,
    FRACTION_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    set_registry,
)
from repro.obs.profile import (
    Heartbeat,
    Profiler,
    ResourceSampler,
    get_heartbeat,
    get_profiler,
    install_heartbeat,
    install_profiler,
    set_heartbeat,
    set_profiler,
)
from repro.obs.trace import (
    NULL_SPAN,
    NullSpan,
    SpanRecord,
    Tracer,
    get_tracer,
    install_tracer,
    set_tracer,
    span,
    tracing_enabled,
)

__all__ = [
    "COUNT_BUCKETS",
    "Counter",
    "FRACTION_BUCKETS",
    "Gauge",
    "Heartbeat",
    "Histogram",
    "MANIFEST_REQUIRED_KEYS",
    "MANIFEST_SCHEMA",
    "MetricsRegistry",
    "NULL_SPAN",
    "NullSpan",
    "Profiler",
    "ResourceSampler",
    "SpanRecord",
    "Tracer",
    "build_manifest",
    "configure_logging",
    "get_heartbeat",
    "get_logger",
    "get_profiler",
    "get_registry",
    "get_tracer",
    "install_heartbeat",
    "install_profiler",
    "install_tracer",
    "log",
    "set_heartbeat",
    "set_profiler",
    "set_registry",
    "set_tracer",
    "span",
    "tracing_enabled",
    "validate_manifest",
    "write_manifest",
]
