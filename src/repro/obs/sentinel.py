"""The bench-trajectory regression sentinel.

``BENCH_history.jsonl`` accumulates one line per ``emit_bench.py`` run
(schema ``repro.bench.flow``'s history summary) interleaved with
``mem_budget.py`` lines (``repro.bench.mem/1``).  This module turns that
log into per-metric *trajectories* — ``flow.D1.compose_seconds``,
``mem.100000.marginal_bytes_per_register``, ... — and flags the latest
point against a robust rolling baseline:

* baseline = median of the previous ``window`` points;
* noise band = ``mad_scale`` x MAD (median absolute deviation), floored
  at ``max_regress`` x |median| — so a metric whose history is flat to
  the microsecond still gets a sane relative band, and a noisy one is
  judged against its own scatter;
* direction-aware: ``lower_better`` (runtimes, bytes), ``higher_better``
  (TNS, throughput, hit ratios), or ``ignore``.

Policy lives in a checked-in ``bench_policy.json`` (schema
``repro.bench.policy/1``): a ``defaults`` block plus per-metric
overrides keyed by ``fnmatch`` patterns, and the ``perf_smoke`` block
``benchmarks/perf_smoke.py`` reads its band from — one file owns every
performance threshold in the repo.

``repro bench report`` renders the verdict table (``--json`` for the
machine view); ``--check`` exits nonzero on any regression, which is the
CI gate (`perf-trajectory` job).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from statistics import median

from repro.obs.manifest import (
    BENCH_HISTORY_SCHEMA,
    BENCH_MEM_SCHEMA,
    BENCH_SERVE_SCHEMA,
    validate_bench_history,
    validate_bench_mem,
    validate_bench_serve,
)

POLICY_SCHEMA = "repro.bench.policy/1"

#: Directions a metric can be judged in.
DIRECTIONS = ("lower_better", "higher_better", "ignore")

#: Flow-history metrics that become per-design series (``flow.<design>.<k>``).
FLOW_SERIES_KEYS = (
    "runtime_seconds",
    "compose_seconds",
    "registers_after",
    "tns",
)

#: Mem-history metrics that become per-size series (``mem.<n>.<k>``).
MEM_SERIES_KEYS = (
    "peak_rss_bytes",
    "bytes_per_register",
    "marginal_bytes_per_register",
)

#: Serve-history metrics that become per-workload series
#: (``serve.<workload>.<k>``), from ``benchmarks/load_gen.py``.
SERVE_SERIES_KEYS = (
    "throughput_jobs_per_s",
    "p50_ms",
    "p99_ms",
    "cache_hit_ratio",
)


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
    perf_smoke: dict = field(default_factory=dict)

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
    return Policy(
        defaults=defaults,
        patterns=tuple(patterns),
        perf_smoke=dict(data.get("perf_smoke", {})),
    )


def default_policy_path() -> str:
    """The checked-in policy next to this repo's BENCH files."""
    here = os.path.dirname(os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))))
    return os.path.join(here, "bench_policy.json")


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
            schema = record.get("schema") if isinstance(record, dict) else None
            if schema == BENCH_MEM_SCHEMA:
                validate = validate_bench_mem
            elif schema == BENCH_SERVE_SCHEMA:
                validate = validate_bench_serve
            else:
                validate = validate_bench_history
            line_problems = validate(record)
            if line_problems:
                problems.extend(f"line {i}: {p}" for p in line_problems)
            else:
                records.append(record)
    if problems:
        raise ValueError(f"{path}: invalid history — " + "; ".join(problems))
    return records


def series_from_history(records: list[dict]) -> dict[str, list[Point]]:
    """Per-metric trajectories, in log order (oldest first).

    Flow lines fan out per design (``flow.D1.compose_seconds``); mem
    lines fan out per register count (``mem.100000.bytes_per_register``)
    so differently-sized runs never share a baseline.
    """
    series: dict[str, list[Point]] = {}
    for record in records:
        sha = record.get("git_sha", "unknown")
        when = float(record.get("generated_unix", 0.0))
        if record.get("schema") == BENCH_MEM_SCHEMA:
            size = record.get("n_registers", 0)
            for key in MEM_SERIES_KEYS:
                if key in record:
                    series.setdefault(f"mem.{size}.{key}", []).append(
                        Point(float(record[key]), sha, when)
                    )
        elif record.get("schema") == BENCH_SERVE_SCHEMA:
            workload = record.get("workload", "unknown")
            for key in SERVE_SERIES_KEYS:
                if key in record:
                    series.setdefault(f"serve.{workload}.{key}", []).append(
                        Point(float(record[key]), sha, when)
                    )
        elif record.get("schema") in (None, BENCH_HISTORY_SCHEMA):
            for design, entry in record.get("designs", {}).items():
                for key in FLOW_SERIES_KEYS:
                    if key in entry:
                        series.setdefault(f"flow.{design}.{key}", []).append(
                            Point(float(entry[key]), sha, when)
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
