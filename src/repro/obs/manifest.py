"""Run manifests: one JSON per run with config, metrics, and span roll-ups.

A manifest is the durable record of "what did this run do and where did
the time go": the flow configuration, the full metrics-registry snapshot
(ILP node/pivot counts, cache hit rates, timer retime stats, ...), the
tracer's per-span-name roll-up, and the flow's headline results.  The
schema is versioned and validated (:func:`validate_manifest`).  The
benchmark trajectory is a separate record, ``repro.bench.run/1``, built
and judged by :mod:`repro.obs.sentinel`.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from dataclasses import asdict, is_dataclass

from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.trace import Tracer, get_tracer

MANIFEST_SCHEMA = "repro.obs.manifest/1"

#: Top-level keys every manifest must carry (CI fails the run otherwise).
MANIFEST_REQUIRED_KEYS = (
    "schema",
    "generated_unix",
    "environment",
    "design",
    "config",
    "metrics",
    "spans",
    "flow",
)


def _plain(value):
    """Config objects → JSON-ready plain data (dataclasses recurse)."""
    if is_dataclass(value) and not isinstance(value, type):
        return {k: _plain(v) for k, v in asdict(value).items()}
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def build_manifest(
    design: dict,
    config: object = None,
    flow: dict | None = None,
    registry: MetricsRegistry | None = None,
    tracer: Tracer | None = None,
    resources: dict | None = None,
    progress: dict | None = None,
) -> dict:
    """Assemble one run's manifest.

    ``design`` names what ran (at least a ``name``); ``config`` is any
    dataclass/dict describing the knobs; ``flow`` carries the headline
    results (runtimes, register counts, QoR).  ``registry`` and
    ``tracer`` default to the process-wide current ones.  ``resources``
    (a :meth:`ResourceSampler.as_dict` RSS/CPU timeline) and ``progress``
    (a :meth:`Heartbeat.as_dict` event log) are archived verbatim when a
    run collected them.
    """
    registry = registry if registry is not None else get_registry()
    tracer = tracer if tracer is not None else get_tracer()
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "generated_unix": round(time.time(), 3),
        "environment": {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
        },
        "design": _plain(design),
        "config": _plain(config) if config is not None else {},
        "metrics": registry.snapshot(),
        "spans": tracer.rollup() if tracer is not None else {},
        "flow": _plain(flow) if flow is not None else {},
    }
    if resources is not None:
        manifest["resources"] = _plain(resources)
    if progress is not None:
        manifest["progress"] = _plain(progress)
    return manifest


def validate_manifest(manifest: dict) -> list[str]:
    """Schema check; returns a list of problems (empty = valid)."""
    errors: list[str] = []
    if not isinstance(manifest, dict):
        return [f"manifest must be an object, got {type(manifest).__name__}"]
    for key in MANIFEST_REQUIRED_KEYS:
        if key not in manifest:
            errors.append(f"missing required key {key!r}")
    if manifest.get("schema") not in (None, MANIFEST_SCHEMA):
        errors.append(
            f"schema mismatch: {manifest.get('schema')!r} != {MANIFEST_SCHEMA!r}"
        )
    metrics = manifest.get("metrics")
    if metrics is not None:
        for section in ("counters", "gauges", "histograms"):
            if section not in metrics:
                errors.append(f"metrics missing section {section!r}")
    return errors


def write_manifest(path: str, manifest: dict) -> None:
    problems = validate_manifest(manifest)
    if problems:
        raise ValueError("refusing to write invalid manifest: " + "; ".join(problems))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=False, default=str)
        fh.write("\n")
