"""The bench record and its regression sentinel.

``repro bench record`` runs every workload of ``BENCHMARK.json`` through
``perfbench/run.py`` twice, each run in its own subprocess from the
repository root: once untraced for the end-to-end metrics and once traced
for the per-layer ones.  It appends one ``repro.bench.run/1`` line per
workload to ``BENCH_history.jsonl`` (:func:`build_record`).  This module
builds and validates that record, fans each line out into
``<workload>.<metric>`` trajectories (``flow-d1d5.work_s``,
``window-20k.compose.apply_s``, ...), and flags the latest point against a
robust rolling baseline:

* baseline = median of the previous ``window`` points;
* noise band = ``mad_scale`` x MAD (median absolute deviation), floored
  at ``max_regress`` x |median| — so a metric whose history is flat to
  the microsecond still gets a sane relative band, and a noisy one is
  judged against its own scatter;
* direction-aware: ``lower_better`` (runtimes, bytes), ``higher_better``
  (TNS), or ``ignore``.

perfbench rescales its end-to-end seconds (and ``check.p50_ms``) to a
fixed interpreter speed; its other per-layer seconds are raw wall time.
The record divides those by the traced run's ``slowness``, so per-layer
trajectories compare across machines the way ``work_s`` does.

Policy lives in a checked-in ``bench_policy.json`` (schema
``repro.bench.policy/1``): a ``defaults`` block plus per-metric
overrides keyed by ``fnmatch`` patterns over series names — one file owns
every performance threshold in the repo.

``repro bench report`` renders the verdict table (``--json`` for the
machine view); ``--check`` exits nonzero on any regression, which is the
CI gate (`perf-trajectory` job).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from statistics import median

POLICY_SCHEMA = "repro.bench.policy/1"
RUN_SCHEMA = "repro.bench.run/1"

#: The benchmark entry script and its spec, relative to the repository root.
PERFBENCH_SCRIPT = os.path.join("perfbench", "run.py")
BENCHMARK_SPEC = "BENCHMARK.json"

#: Every record is taken at this perfbench seed, so baselines compare like
#: with like (eco-serve's move storm is the only seeded input).
RECORD_SEED = 1

#: Directions a metric can be judged in.
DIRECTIONS = ("lower_better", "higher_better", "ignore")


@dataclass(frozen=True)
class MetricPolicy:
    """How one trajectory is judged."""

    direction: str = "lower_better"
    max_regress: float = 0.35
    """Relative band floor: a regression must exceed this fraction of the
    baseline magnitude even when the history is noiseless."""
    mad_scale: float = 4.0
    """Noise-band multiplier: latest must leave median ± k*MAD."""
    min_samples: int = 1
    """Prior points required before the metric can be gated at all."""
    window: int = 8
    """Rolling-baseline width (prior points, newest first)."""

    def __post_init__(self) -> None:
        if self.direction not in DIRECTIONS:
            raise ValueError(
                f"direction must be one of {DIRECTIONS}, got {self.direction!r}"
            )
        if self.max_regress < 0 or self.mad_scale < 0:
            raise ValueError("max_regress and mad_scale must be non-negative")
        if self.min_samples < 1 or self.window < 1:
            raise ValueError("min_samples and window must be >= 1")


@dataclass(frozen=True)
class Policy:
    """The parsed ``bench_policy.json``: defaults + pattern overrides."""

    defaults: MetricPolicy = field(default_factory=MetricPolicy)
    patterns: tuple[tuple[str, dict], ...] = ()

    def for_metric(self, name: str) -> MetricPolicy:
        """The effective policy for one series: defaults overlaid with
        every matching pattern, in file order (later patterns win)."""
        merged = {
            "direction": self.defaults.direction,
            "max_regress": self.defaults.max_regress,
            "mad_scale": self.defaults.mad_scale,
            "min_samples": self.defaults.min_samples,
            "window": self.defaults.window,
        }
        for pattern, overrides in self.patterns:
            if fnmatchcase(name, pattern):
                merged.update(overrides)
        return MetricPolicy(**merged)


def load_policy(path: str) -> Policy:
    """Parse and sanity-check a ``bench_policy.json``."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: policy must be an object")
    schema = data.get("schema")
    if schema not in (None, POLICY_SCHEMA):
        raise ValueError(f"{path}: schema mismatch: {schema!r} != {POLICY_SCHEMA!r}")
    allowed = {"direction", "max_regress", "mad_scale", "min_samples", "window"}
    defaults_raw = data.get("defaults", {})
    unknown = set(defaults_raw) - allowed
    if unknown:
        raise ValueError(f"{path}: unknown defaults keys {sorted(unknown)}")
    defaults = MetricPolicy(**defaults_raw)
    patterns: list[tuple[str, dict]] = []
    for pattern, overrides in data.get("metrics", {}).items():
        if not isinstance(overrides, dict):
            raise ValueError(f"{path}: metric {pattern!r} must map to an object")
        unknown = set(overrides) - allowed
        if unknown:
            raise ValueError(
                f"{path}: metric {pattern!r} has unknown keys {sorted(unknown)}"
            )
        patterns.append((pattern, dict(overrides)))
    return Policy(defaults=defaults, patterns=tuple(patterns))


def default_policy_path() -> str:
    """The checked-in policy next to this repo's BENCH files."""
    here = os.path.dirname(os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))))
    return os.path.join(here, "bench_policy.json")


# -- the record ----------------------------------------------------------------


def _git(root: str, *args: str) -> subprocess.CompletedProcess | None:
    try:
        return subprocess.run(
            ["git", *args], capture_output=True, text=True, cwd=root, timeout=10
        )
    except OSError:  # pragma: no cover - no git binary
        return None


def git_sha(root: str) -> str:
    """The checkout's commit, short form; ``"unknown"`` outside git."""
    out = _git(root, "rev-parse", "--short=12", "HEAD")
    sha = out.stdout.strip() if out is not None and out.returncode == 0 else ""
    return sha or "unknown"


def git_dirty(root: str) -> bool:
    """Whether the working tree differs from HEAD (``False`` outside git).

    A point recorded from uncommitted code cannot be reproduced from its
    ``git_sha``, so every record carries this stamp.
    """
    out = _git(root, "status", "--porcelain")
    return out is not None and out.returncode == 0 and bool(out.stdout.strip())


class RecordError(RuntimeError):
    """A perfbench run failed, or printed no record or result."""


def run_perfbench(root: str, workload: str, seconds: float, trace: int) -> tuple:
    """Run ``perfbench/run.py`` on one workload in a fresh process.

    Returns the run's ``(record, result)``: the ``record {...}`` line and
    the last-line result object.  A fresh process per run keeps each run's
    ``peak_rss_mb`` (its ``ru_maxrss``) its own.  Raises
    :class:`RecordError` unless the run exits 0 with ``correct: true`` and
    no failed operation.
    """
    argv = [
        sys.executable, PERFBENCH_SCRIPT, "--workload", workload,
        "--seed", str(RECORD_SEED), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=root)
    what = f"perfbench {workload} --trace {trace}"
    if proc.returncode != 0:
        raise RecordError(f"{what} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    try:
        record = next(
            json.loads(ln[len("record "):]) for ln in lines if ln.startswith("record ")
        )
        result = json.loads(lines[-1])
    except (StopIteration, IndexError, json.JSONDecodeError) as exc:
        raise RecordError(f"{what}: unreadable output ({exc!r})") from None
    if result.get("correct") is not True or result.get("failed") != 0:
        raise RecordError(
            f"{what}: correct={result.get('correct')} failed={result.get('failed')}"
            f"\n{proc.stderr[-2000:]}"
        )
    return record, result


def build_record(
    workload: str, untraced: tuple, traced: tuple, sha: str, dirty: bool
) -> dict:
    """One ``repro.bench.run/1`` line from a workload's two perfbench runs.

    ``untraced`` and ``traced`` are :func:`run_perfbench` results.  The
    metrics map holds the untraced run's end-to-end metrics, its
    ``qor.tns_ns`` and its ``counts``, then the traced run's per-layer
    metrics with every seconds value divided by that run's ``slowness``.
    ``passes`` counts the end-to-end run's passes; ``slowness`` is the
    traced run's.
    """
    (plain_record, plain), (traced_record, layers) = untraced, traced
    slowness = traced_record["slowness"]
    metrics = {name: m["value"] for name, m in plain["metrics"].items()}
    metrics["tns_ns"] = plain_record["qor"]["tns_ns"]
    metrics.update(plain_record["counts"])
    for name, m in layers["metrics"].items():
        metrics[name] = m["value"] / slowness if m["unit"] == "s" else m["value"]
    return {
        "schema": RUN_SCHEMA,
        "generated_unix": round(time.time(), 3),
        "git_sha": sha,
        "git_dirty": dirty,
        "workload": workload,
        "passes": plain_record["passes"],
        "slowness": slowness,
        "attempted": plain["attempted"] + layers["attempted"],
        "failed": plain["failed"] + layers["failed"],
        "metrics": metrics,
    }


def record_benchmark(root: str) -> list[dict]:
    """Record every workload of ``root``'s ``BENCHMARK.json``.

    Raises ``FileNotFoundError`` when ``perfbench/run.py`` or
    ``BENCHMARK.json`` is missing and :class:`RecordError` on the first
    failed run; returns one validated record per workload otherwise.
    """
    for name in (PERFBENCH_SCRIPT, BENCHMARK_SPEC):
        if not os.path.isfile(os.path.join(root, name)):
            raise FileNotFoundError(f"{name} not found under {root}")
    with open(os.path.join(root, BENCHMARK_SPEC), encoding="utf-8") as fh:
        spec = json.load(fh)
    sha, dirty = git_sha(root), git_dirty(root)
    records = []
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [
            run_perfbench(root, workload, spec["run_seconds"], trace)
            for trace in (0, 1)
        ]
        record = build_record(workload, *runs, sha, dirty)
        problems = validate_record(record)
        if problems:
            raise RecordError(f"{workload}: invalid record: " + "; ".join(problems))
        records.append(record)
    return records


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


#: The record's fields besides ``schema`` and ``metrics``, with the check
#: each value must pass.
_RECORD_FIELDS = {
    "generated_unix": ("a number", _is_number),
    "git_sha": ("a string", lambda v: isinstance(v, str)),
    "git_dirty": ("a boolean", lambda v: isinstance(v, bool)),
    "workload": ("a non-empty string", lambda v: isinstance(v, str) and v != ""),
    "passes": ("an integer", _is_int),
    "slowness": ("a positive number", lambda v: _is_number(v) and v > 0),
    "attempted": ("an integer", _is_int),
    "failed": ("an integer", _is_int),
}


def validate_record(record) -> list[str]:
    """Schema check of one ``repro.bench.run/1`` line (empty = valid)."""
    if not isinstance(record, dict):
        return [f"record must be an object, got {type(record).__name__}"]
    if record.get("schema") != RUN_SCHEMA:
        return [f"schema {record.get('schema')!r} is not {RUN_SCHEMA!r}"]
    errors = []
    for key, (kind, ok) in _RECORD_FIELDS.items():
        if key not in record:
            errors.append(f"missing key {key!r}")
        elif not ok(record[key]):
            errors.append(f"{key!r} must be {kind}, got {record[key]!r}")
    metrics = record.get("metrics")
    if not isinstance(metrics, dict) or not metrics:
        errors.append("'metrics' must be a non-empty object")
    else:
        bad = sorted(k for k, v in metrics.items() if not _is_number(v))
        if bad:
            errors.append(f"non-numeric metrics {bad}")
    return errors


# -- history parsing ---------------------------------------------------------


@dataclass(frozen=True)
class Point:
    """One observation of one metric."""

    value: float
    git_sha: str
    generated_unix: float


def load_history(path: str) -> list[dict]:
    """Parse ``BENCH_history.jsonl``, validating every line.

    Raises ``ValueError`` listing every problem — the sentinel refuses to
    compute baselines over a corrupt log (a single mistyped line would
    silently skew every verdict after it).
    """
    records: list[dict] = []
    problems: list[str] = []
    with open(path, encoding="utf-8") as fh:
        for i, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                problems.append(f"line {i}: not JSON ({exc})")
                continue
            line_problems = validate_record(record)
            if line_problems:
                problems.extend(f"line {i}: {p}" for p in line_problems)
            else:
                records.append(record)
    if problems:
        raise ValueError(f"{path}: invalid history — " + "; ".join(problems))
    return records


def series_from_history(records: list[dict]) -> dict[str, list[Point]]:
    """Per-metric trajectories ``<workload>.<metric>``, in log order
    (oldest first)."""
    series: dict[str, list[Point]] = {}
    for record in records:
        sha, when = record["git_sha"], float(record["generated_unix"])
        for metric, value in record["metrics"].items():
            series.setdefault(f"{record['workload']}.{metric}", []).append(
                Point(float(value), sha, when)
            )
    return series


# -- evaluation --------------------------------------------------------------

STATUS_OK = "ok"
STATUS_REGRESSION = "regression"
STATUS_IMPROVED = "improved"
STATUS_INSUFFICIENT = "insufficient-history"
STATUS_SKIPPED = "skipped"


@dataclass(frozen=True)
class MetricVerdict:
    """One trajectory's judgment."""

    name: str
    status: str
    latest: float
    latest_sha: str
    baseline: float | None = None
    band: float | None = None
    prior_samples: int = 0
    direction: str = "lower_better"

    @property
    def delta(self) -> float | None:
        return None if self.baseline is None else self.latest - self.baseline


@dataclass
class SentinelReport:
    """Every trajectory's verdict plus the headline answer."""

    verdicts: list[MetricVerdict]
    history_lines: int = 0

    @property
    def regressions(self) -> list[MetricVerdict]:
        return [v for v in self.verdicts if v.status == STATUS_REGRESSION]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def to_dict(self) -> dict:
        return {
            "schema": "repro.bench.report/1",
            "ok": self.ok,
            "history_lines": self.history_lines,
            "regressions": len(self.regressions),
            "metrics": [
                {
                    "name": v.name,
                    "status": v.status,
                    "latest": v.latest,
                    "latest_sha": v.latest_sha,
                    "baseline": v.baseline,
                    "band": v.band,
                    "delta": v.delta,
                    "prior_samples": v.prior_samples,
                    "direction": v.direction,
                }
                for v in self.verdicts
            ],
        }

    def format(self) -> str:
        """The human table: one line per trajectory, regressions first."""
        order = {
            STATUS_REGRESSION: 0,
            STATUS_IMPROVED: 1,
            STATUS_OK: 2,
            STATUS_INSUFFICIENT: 3,
            STATUS_SKIPPED: 4,
        }
        rows = sorted(self.verdicts, key=lambda v: (order[v.status], v.name))
        name_w = max([len(v.name) for v in rows] + [len("metric")])
        lines = [
            f"{'metric':<{name_w}} {'status':<20} {'latest':>12} "
            f"{'baseline':>12} {'band':>10}  n",
            f"{'-' * name_w} {'-' * 20} {'-' * 12} {'-' * 12} {'-' * 10}  -",
        ]
        for v in rows:
            baseline = f"{v.baseline:.6g}" if v.baseline is not None else "-"
            band = f"±{v.band:.3g}" if v.band is not None else "-"
            lines.append(
                f"{v.name:<{name_w}} {v.status:<20} {v.latest:>12.6g} "
                f"{baseline:>12} {band:>10}  {v.prior_samples}"
            )
        verdict = (
            "OK — no regressions"
            if self.ok
            else f"REGRESSION — {len(self.regressions)} metric(s) out of band"
        )
        lines.append(verdict)
        return "\n".join(lines)


def evaluate_series(name: str, points: list[Point], policy: MetricPolicy) -> MetricVerdict:
    """Judge one trajectory's newest point against its rolling baseline."""
    latest = points[-1]
    if policy.direction == "ignore":
        return MetricVerdict(
            name,
            STATUS_SKIPPED,
            latest.value,
            latest.git_sha,
            prior_samples=len(points) - 1,
            direction=policy.direction,
        )
    prior = points[:-1][-policy.window:]
    if len(prior) < policy.min_samples:
        return MetricVerdict(
            name,
            STATUS_INSUFFICIENT,
            latest.value,
            latest.git_sha,
            prior_samples=len(prior),
            direction=policy.direction,
        )
    values = [p.value for p in prior]
    base = median(values)
    mad = median(abs(v - base) for v in values)
    band = max(policy.mad_scale * mad, policy.max_regress * abs(base))
    # A metric whose baseline is exactly zero has no relative scale; any
    # MAD-derived band still applies, else every change would flag.
    worse = latest.value - base if policy.direction == "lower_better" else base - latest.value
    if worse > band:
        status = STATUS_REGRESSION
    elif worse < -band:
        status = STATUS_IMPROVED
    else:
        status = STATUS_OK
    return MetricVerdict(
        name,
        status,
        latest.value,
        latest.git_sha,
        baseline=base,
        band=band,
        prior_samples=len(prior),
        direction=policy.direction,
    )


def evaluate_history(records: list[dict], policy: Policy) -> SentinelReport:
    """Judge every trajectory in a parsed history log."""
    series = series_from_history(records)
    verdicts = [
        evaluate_series(name, points, policy.for_metric(name))
        for name, points in sorted(series.items())
    ]
    return SentinelReport(verdicts=verdicts, history_lines=len(records))
