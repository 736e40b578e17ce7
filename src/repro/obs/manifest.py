"""Run manifests: one JSON per run with config, metrics, and span roll-ups.

A manifest is the durable record of "what did this run do and where did
the time go": the flow configuration, the full metrics-registry snapshot
(ILP node/pivot counts, cache hit rates, timer retime stats, ...), the
tracer's per-span-name roll-up, and the flow's headline results.  The
schema is versioned and validated (:func:`validate_manifest`), so CI can
track the perf trajectory across PRs — ``benchmarks/emit_bench.py``
builds on this to emit ``BENCH_flow.json``.
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
BENCH_SCHEMA = "repro.bench.flow/2"
BENCH_HISTORY_SCHEMA = "repro.bench.history/1"
BENCH_MEM_SCHEMA = "repro.bench.mem/1"
BENCH_SERVE_SCHEMA = "repro.bench.serve/1"

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

#: Top-level keys of the ``BENCH_flow.json`` trajectory file.  ``/2``
#: adds ``git_sha`` (which commit produced the numbers) and the
#: per-design ``eco`` block (the incremental-recompose demo).
BENCH_REQUIRED_KEYS = ("schema", "generated_unix", "git_sha", "scale", "designs")

#: Keys every per-design entry of a bench file must carry.
BENCH_DESIGN_KEYS = (
    "runtime_seconds",
    "stage_seconds",
    "registers_before",
    "registers_after",
    "register_reduction",
    "wns",
    "tns",
    "eco",
    "metrics",
)

#: Top-level keys of one ``BENCH_history.jsonl`` line — the compact
#: per-commit trajectory record ``benchmarks/emit_bench.py`` appends.
BENCH_HISTORY_KEYS = ("schema", "generated_unix", "git_sha", "scale", "designs")

#: Keys of one design's summary inside a history line.
BENCH_HISTORY_DESIGN_KEYS = (
    "runtime_seconds",
    "compose_seconds",
    "registers_after",
    "tns",
)

#: Keys of one ``benchmarks/mem_budget.py`` history line — the memory
#: trajectory of the scale path (``repro.bench.mem/1``).  Records live in
#: the same ``BENCH_history.jsonl`` as the flow summaries; the ``schema``
#: field tells the two record kinds apart.
BENCH_MEM_KEYS = (
    "schema",
    "generated_unix",
    "git_sha",
    "n_registers",
    "baseline_registers",
    "peak_rss_bytes",
    "bytes_per_register",
    "marginal_bytes_per_register",
    "budget_bytes_per_register",
    "phase_seconds",
)

#: Keys of one ``benchmarks/load_gen.py`` history line — the service-layer
#: trajectory (``repro.bench.serve/1``): the deterministic load generator's
#: throughput, tail latency, and cross-request cache hit-ratio.  Lives in
#: the same ``BENCH_history.jsonl``, told apart by its ``schema`` field.
BENCH_SERVE_KEYS = (
    "schema",
    "generated_unix",
    "git_sha",
    "workload",
    "designs",
    "clients",
    "jobs",
    "throughput_jobs_per_s",
    "p50_ms",
    "p99_ms",
    "cache_hit_ratio",
)

#: Expected value shapes inside a bench design entry, enforced by
#: :func:`validate_bench` — a present-but-mistyped value (a stringified
#: runtime, a list where the metrics snapshot belongs) corrupts the
#: trajectory diffs just as silently as a missing key.
_BENCH_NUMBER_KEYS = ("runtime_seconds", "register_reduction", "wns", "tns")
_BENCH_INT_KEYS = ("registers_before", "registers_after")
_BENCH_DICT_KEYS = ("stage_seconds", "eco", "metrics")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


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


def validate_bench(data: dict) -> list[str]:
    """Schema check of a ``BENCH_flow.json`` payload (empty = valid)."""
    errors: list[str] = []
    if not isinstance(data, dict):
        return [f"bench file must be an object, got {type(data).__name__}"]
    for key in BENCH_REQUIRED_KEYS:
        if key not in data:
            errors.append(f"missing required key {key!r}")
    if data.get("schema") not in (None, BENCH_SCHEMA):
        errors.append(f"schema mismatch: {data.get('schema')!r} != {BENCH_SCHEMA!r}")
    for key in ("generated_unix", "scale"):
        if key in data and not _is_number(data[key]):
            errors.append(
                f"{key!r} must be a number, got {type(data[key]).__name__}"
            )
    if "git_dirty" in data and not isinstance(data["git_dirty"], bool):
        errors.append(
            f"'git_dirty' must be a boolean, got {type(data['git_dirty']).__name__}"
        )
    designs = data.get("designs")
    if not isinstance(designs, dict) or not designs:
        errors.append("'designs' must be a non-empty object")
        return errors
    for name, entry in designs.items():
        if not isinstance(entry, dict):
            errors.append(
                f"design {name!r} must be an object, got {type(entry).__name__}"
            )
            continue
        for key in BENCH_DESIGN_KEYS:
            if key not in entry:
                errors.append(f"design {name!r} missing key {key!r}")
        for key in _BENCH_NUMBER_KEYS:
            if key in entry and not _is_number(entry[key]):
                errors.append(
                    f"design {name!r} key {key!r} must be a number, "
                    f"got {type(entry[key]).__name__}"
                )
        for key in _BENCH_INT_KEYS:
            if key in entry and (
                not isinstance(entry[key], int) or isinstance(entry[key], bool)
            ):
                errors.append(
                    f"design {name!r} key {key!r} must be an integer, "
                    f"got {type(entry[key]).__name__}"
                )
        for key in _BENCH_DICT_KEYS:
            if key in entry and not isinstance(entry[key], dict):
                errors.append(
                    f"design {name!r} key {key!r} must be an object, "
                    f"got {type(entry[key]).__name__}"
                )
    return errors


def validate_bench_history(record: dict) -> list[str]:
    """Schema check of one ``BENCH_history.jsonl`` line (empty = valid)."""
    errors: list[str] = []
    if not isinstance(record, dict):
        return [f"history record must be an object, got {type(record).__name__}"]
    for key in BENCH_HISTORY_KEYS:
        if key not in record:
            errors.append(f"missing required key {key!r}")
    if record.get("schema") not in (None, BENCH_HISTORY_SCHEMA):
        errors.append(
            f"schema mismatch: {record.get('schema')!r} != {BENCH_HISTORY_SCHEMA!r}"
        )
    for key in ("generated_unix", "scale"):
        if key in record and not _is_number(record[key]):
            errors.append(f"{key!r} must be a number, got {type(record[key]).__name__}")
    if "git_sha" in record and not isinstance(record["git_sha"], str):
        errors.append(f"'git_sha' must be a string, got {type(record['git_sha']).__name__}")
    if "git_dirty" in record and not isinstance(record["git_dirty"], bool):
        errors.append(
            f"'git_dirty' must be a boolean, got {type(record['git_dirty']).__name__}"
        )
    designs = record.get("designs")
    if not isinstance(designs, dict) or not designs:
        errors.append("'designs' must be a non-empty object")
        return errors
    for name, entry in designs.items():
        if not isinstance(entry, dict):
            errors.append(
                f"design {name!r} must be an object, got {type(entry).__name__}"
            )
            continue
        for key in BENCH_HISTORY_DESIGN_KEYS:
            if key not in entry:
                errors.append(f"design {name!r} missing key {key!r}")
            elif not _is_number(entry[key]):
                errors.append(
                    f"design {name!r} key {key!r} must be a number, "
                    f"got {type(entry[key]).__name__}"
                )
    return errors


def validate_bench_mem(record: dict) -> list[str]:
    """Schema check of one ``repro.bench.mem/1`` history line (empty = valid)."""
    errors: list[str] = []
    if not isinstance(record, dict):
        return [f"mem record must be an object, got {type(record).__name__}"]
    for key in BENCH_MEM_KEYS:
        if key not in record:
            errors.append(f"missing required key {key!r}")
    if record.get("schema") not in (None, BENCH_MEM_SCHEMA):
        errors.append(
            f"schema mismatch: {record.get('schema')!r} != {BENCH_MEM_SCHEMA!r}"
        )
    for key in (
        "generated_unix",
        "n_registers",
        "baseline_registers",
        "peak_rss_bytes",
        "bytes_per_register",
        "marginal_bytes_per_register",
        "budget_bytes_per_register",
    ):
        if key in record and not _is_number(record[key]):
            errors.append(f"{key!r} must be a number, got {type(record[key]).__name__}")
    if "git_sha" in record and not isinstance(record["git_sha"], str):
        errors.append(
            f"'git_sha' must be a string, got {type(record['git_sha']).__name__}"
        )
    if "git_dirty" in record and not isinstance(record["git_dirty"], bool):
        errors.append(
            f"'git_dirty' must be a boolean, got {type(record['git_dirty']).__name__}"
        )
    phases = record.get("phase_seconds")
    if phases is not None:
        if not isinstance(phases, dict):
            errors.append(
                f"'phase_seconds' must be an object, got {type(phases).__name__}"
            )
        else:
            for name, seconds in phases.items():
                if not _is_number(seconds):
                    errors.append(
                        f"phase {name!r} must be a number, "
                        f"got {type(seconds).__name__}"
                    )
    return errors


def validate_bench_serve(record: dict) -> list[str]:
    """Schema check of one ``repro.bench.serve/1`` history line (empty = valid)."""
    errors: list[str] = []
    if not isinstance(record, dict):
        return [f"serve record must be an object, got {type(record).__name__}"]
    for key in BENCH_SERVE_KEYS:
        if key not in record:
            errors.append(f"missing required key {key!r}")
    if record.get("schema") not in (None, BENCH_SERVE_SCHEMA):
        errors.append(
            f"schema mismatch: {record.get('schema')!r} != {BENCH_SERVE_SCHEMA!r}"
        )
    for key in (
        "generated_unix",
        "throughput_jobs_per_s",
        "p50_ms",
        "p99_ms",
        "cache_hit_ratio",
    ):
        if key in record and not _is_number(record[key]):
            errors.append(f"{key!r} must be a number, got {type(record[key]).__name__}")
    for key in ("designs", "clients", "jobs"):
        if key in record and (
            not isinstance(record[key], int) or isinstance(record[key], bool)
        ):
            errors.append(
                f"{key!r} must be an integer, got {type(record[key]).__name__}"
            )
    if "workload" in record and not isinstance(record["workload"], str):
        errors.append(
            f"'workload' must be a string, got {type(record['workload']).__name__}"
        )
    if "git_sha" in record and not isinstance(record["git_sha"], str):
        errors.append(
            f"'git_sha' must be a string, got {type(record['git_sha']).__name__}"
        )
    if "git_dirty" in record and not isinstance(record["git_dirty"], bool):
        errors.append(
            f"'git_dirty' must be a boolean, got {type(record['git_dirty']).__name__}"
        )
    if "deterministic" in record and not isinstance(record["deterministic"], bool):
        errors.append(
            f"'deterministic' must be a boolean, "
            f"got {type(record['deterministic']).__name__}"
        )
    ratio = record.get("cache_hit_ratio")
    if _is_number(ratio) and not 0.0 <= ratio <= 1.0:
        errors.append(f"'cache_hit_ratio' must be within [0, 1], got {ratio}")
    return errors


def write_manifest(path: str, manifest: dict) -> None:
    problems = validate_manifest(manifest)
    if problems:
        raise ValueError("refusing to write invalid manifest: " + "; ".join(problems))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=False, default=str)
        fh.write("\n")
