"""Unit tests for the bench record and its regression sentinel."""

from __future__ import annotations

import json
import os
from fnmatch import fnmatchcase

import pytest

from repro.obs.sentinel import (
    RUN_SCHEMA,
    STATUS_IMPROVED,
    STATUS_INSUFFICIENT,
    STATUS_OK,
    STATUS_REGRESSION,
    STATUS_SKIPPED,
    MetricPolicy,
    Point,
    Policy,
    build_record,
    default_policy_path,
    evaluate_history,
    evaluate_series,
    load_history,
    load_policy,
    series_from_history,
    validate_record,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
COMMITTED_HISTORY = os.path.join(REPO_ROOT, "BENCH_history.jsonl")

#: ``compose.enumerate_s`` and every flow-d1d5 series whose time contains it.
ENUMERATE_AND_CONTAINERS = (
    "compose.enumerate_s",
    "flow.compose_s",
    "eco.recompose_s",
    "work_s",
    "op_p50_ms",
    "op_p90_ms",
)


def run_line(workload="flow-d1d5", sha="aaaaaaaaaaaa", when=1000.0, **metrics):
    """One valid ``repro.bench.run/1`` line."""
    return {
        "schema": RUN_SCHEMA,
        "generated_unix": when,
        "git_sha": sha,
        "git_dirty": False,
        "workload": workload,
        "passes": 1,
        "slowness": 1.0,
        "attempted": 10,
        "failed": 0,
        "metrics": metrics or {"work_s": 1.0, "tns_ns": -1.5, "D1.registers": 97},
    }


def _points(*values):
    return [Point(float(v), "c" * 12, 100.0 + i) for i, v in enumerate(values)]


class TestMetricPolicy:
    def test_defaults(self):
        p = MetricPolicy()
        assert p.direction == "lower_better"
        assert p.max_regress == 0.35
        assert p.window == 8

    def test_rejects_bad_direction(self):
        with pytest.raises(ValueError, match="direction"):
            MetricPolicy(direction="sideways")

    def test_rejects_negative_bands(self):
        with pytest.raises(ValueError, match="non-negative"):
            MetricPolicy(max_regress=-0.1)

    def test_rejects_zero_window(self):
        with pytest.raises(ValueError, match=">= 1"):
            MetricPolicy(window=0)


class TestPolicyOverlay:
    def test_defaults_when_no_pattern_matches(self):
        policy = Policy(patterns=(("mem.*", {"max_regress": 0.1}),))
        assert policy.for_metric("flow.D1.compose_seconds").max_regress == 0.35

    def test_matching_pattern_overrides(self):
        policy = Policy(patterns=(("mem.*", {"max_regress": 0.1}),))
        assert policy.for_metric("mem.100000.peak_rss_bytes").max_regress == 0.1

    def test_later_patterns_win(self):
        policy = Policy(
            patterns=(
                ("flow.*", {"max_regress": 0.2}),
                ("flow.D1.*", {"max_regress": 0.05}),
            )
        )
        assert policy.for_metric("flow.D1.tns").max_regress == 0.05
        assert policy.for_metric("flow.D2.tns").max_regress == 0.2


class TestLoadPolicy:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "policy.json"
        path.write_text(
            json.dumps(
                {
                    "schema": "repro.bench.policy/1",
                    "defaults": {"max_regress": 0.5},
                    "metrics": {"flow.*.tns": {"direction": "higher_better"}},
                }
            )
        )
        policy = load_policy(str(path))
        assert policy.defaults.max_regress == 0.5
        assert policy.for_metric("flow.D1.tns").direction == "higher_better"

    def test_rejects_unknown_defaults_key(self, tmp_path):
        path = tmp_path / "policy.json"
        path.write_text(json.dumps({"defaults": {"max_regres": 0.5}}))
        with pytest.raises(ValueError, match="unknown defaults keys"):
            load_policy(str(path))

    def test_rejects_unknown_metric_key(self, tmp_path):
        path = tmp_path / "policy.json"
        path.write_text(json.dumps({"metrics": {"flow.*": {"bogus": 1}}}))
        with pytest.raises(ValueError, match="unknown keys"):
            load_policy(str(path))

    def test_rejects_schema_mismatch(self, tmp_path):
        path = tmp_path / "policy.json"
        path.write_text(json.dumps({"schema": "something/else"}))
        with pytest.raises(ValueError, match="schema mismatch"):
            load_policy(str(path))

    def test_shipped_policy_loads(self):
        path = default_policy_path()
        assert os.path.abspath(path) == os.path.join(REPO_ROOT, "bench_policy.json")
        policy = load_policy(path)
        # Only the series the policy names are gated.
        assert policy.for_metric("flow-d1d5.tns_ns").direction == "higher_better"
        assert policy.for_metric("flow-d1d5.work_s").direction == "lower_better"
        assert policy.for_metric("flow-d1d5.D3.registers").direction == "lower_better"
        assert policy.for_metric("eco-serve.ilp.solves").direction == "ignore"
        assert policy.for_metric("window-20k.bench.generate_s").direction == "ignore"

    def test_every_shipped_pattern_matches_the_committed_history(self):
        # A mistyped pattern would silently gate nothing.
        policy = load_policy(default_policy_path())
        names = series_from_history(load_history(COMMITTED_HISTORY))
        unmatched = [
            pattern
            for pattern, _ in policy.patterns
            if not any(fnmatchcase(name, pattern) for name in names)
        ]
        assert unmatched == []


class TestLoadHistory:
    def test_loads_records_and_skips_blank_lines(self, tmp_path):
        path = tmp_path / "h.jsonl"
        with open(path, "w") as fh:
            fh.write(json.dumps(run_line()) + "\n")
            fh.write("\n")  # blank lines are fine
            fh.write(json.dumps(run_line(workload="eco-serve")) + "\n")
        records = load_history(str(path))
        assert [r["workload"] for r in records] == ["flow-d1d5", "eco-serve"]

    def test_collects_every_problem_with_line_numbers(self, tmp_path):
        path = tmp_path / "h.jsonl"
        bad = run_line()
        del bad["metrics"]
        with open(path, "w") as fh:
            fh.write("not json\n")
            fh.write(json.dumps(bad) + "\n")
        with pytest.raises(ValueError) as exc:
            load_history(str(path))
        message = str(exc.value)
        assert "line 1: not JSON" in message
        assert "line 2:" in message and "metrics" in message

    def test_legacy_schemas_are_rejected(self, tmp_path):
        path = tmp_path / "h.jsonl"
        legacy = {"schema": "repro.bench.history/1", "git_sha": "x", "designs": {}}
        path.write_text(json.dumps(legacy) + "\n")
        with pytest.raises(ValueError, match="repro.bench.history/1"):
            load_history(str(path))


class TestValidateRecord:
    def test_good_record(self):
        assert validate_record(run_line()) == []

    def test_non_object_rejected(self):
        assert validate_record([1, 2]) != []

    def test_missing_keys_reported_by_name(self):
        record = run_line()
        del record["git_sha"], record["slowness"]
        errors = validate_record(record)
        assert any("'git_sha'" in e for e in errors)
        assert any("'slowness'" in e for e in errors)

    def test_wrong_typed_values_rejected(self):
        record = run_line()
        record.update(git_dirty="no", passes=1.5, failed=True, slowness=0.0)
        errors = validate_record(record)
        for key in ("git_dirty", "passes", "failed", "slowness"):
            assert any(f"'{key}'" in e for e in errors), key

    def test_non_numeric_metrics_rejected(self):
        errors = validate_record(run_line(work_s="1.0", ok=True, tns_ns=-1.0))
        assert any("['ok', 'work_s']" in e for e in errors)

    def test_empty_metrics_rejected(self):
        record = run_line()
        record["metrics"] = {}
        assert any("'metrics'" in e for e in validate_record(record))


def perfbench_run(metrics, slowness=2.0, passes=1, qor=None, counts=None):
    """A ``(record, result)`` pair as :func:`run_perfbench` returns it."""
    record = {
        "passes": passes,
        "slowness": slowness,
        "qor": qor or {"tns_ns": -4.0, "regs_after": 90},
        "counts": counts or {},
    }
    result = {
        "correct": True,
        "attempted": 5,
        "failed": 0,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    return record, result


class TestBuildRecord:
    def test_rescales_per_layer_seconds_only(self):
        untraced = perfbench_run(
            {"work_s": (6.0, "s"), "peak_rss_mb": (120.0, "MB")},
            slowness=1.5,
            counts={"D1.registers": 97},
        )
        traced = perfbench_run(
            {
                "compose.enumerate_s": (3.0, "s"),
                "check.p50_ms": (40.0, "ms"),
                "ilp.solves": (12, "count"),
                "trace.overhead_pct": (8.0, "%"),
            },
            slowness=2.0,
        )
        record = build_record("flow-d1d5", untraced, traced, "abc", True)
        assert validate_record(record) == []
        assert record["slowness"] == 2.0
        assert (record["attempted"], record["failed"]) == (10, 0)
        assert record["metrics"] == {
            # End-to-end metrics are already rescaled by perfbench.
            "work_s": 6.0,
            "peak_rss_mb": 120.0,
            "tns_ns": -4.0,
            "D1.registers": 97,
            "compose.enumerate_s": 1.5,
            "check.p50_ms": 40.0,
            "ilp.solves": 12,
            "trace.overhead_pct": 8.0,
        }


class TestSeries:
    def test_records_fan_out_per_workload(self):
        records = [run_line(work_s=1.0), run_line(workload="window-20k", work_s=1.1)]
        series = series_from_history(records)
        assert [p.value for p in series["flow-d1d5.work_s"]] == [1.0]
        assert [p.value for p in series["window-20k.work_s"]] == [1.1]

    def test_flow_lines_fan_out_per_design(self):
        # flow-d1d5's per-design register counts become their own series.
        line = run_line(**{"D1.registers": 97, "D5.registers": 310, "work_s": 7.0})
        series = series_from_history([line])
        assert [p.value for p in series["flow-d1d5.D5.registers"]] == [310.0]
        assert set(series) == {
            "flow-d1d5.D1.registers",
            "flow-d1d5.D5.registers",
            "flow-d1d5.work_s",
        }

    def test_points_keep_log_order(self):
        records = [run_line(work_s=v) for v in (1.0, 2.0, 3.0)]
        series = series_from_history(records)
        assert [p.value for p in series["flow-d1d5.work_s"]] == [1.0, 2.0, 3.0]


class TestEvaluateSeries:
    def test_ok_within_band(self):
        v = evaluate_series("m", _points(1.0, 1.0, 1.05), MetricPolicy())
        assert v.status == STATUS_OK
        assert v.baseline == 1.0
        assert v.prior_samples == 2

    def test_regression_lower_better(self):
        v = evaluate_series("m", _points(1.0, 1.0, 3.0), MetricPolicy())
        assert v.status == STATUS_REGRESSION
        assert v.delta == pytest.approx(2.0)

    def test_improvement_flagged(self):
        v = evaluate_series("m", _points(1.0, 1.0, 0.3), MetricPolicy())
        assert v.status == STATUS_IMPROVED

    def test_higher_better_flips_direction(self):
        policy = MetricPolicy(direction="higher_better")
        assert evaluate_series("m", _points(10, 10, 3), policy).status == (
            STATUS_REGRESSION
        )
        assert evaluate_series("m", _points(10, 10, 30), policy).status == (
            STATUS_IMPROVED
        )

    def test_ignore_direction_skips(self):
        policy = MetricPolicy(direction="ignore")
        v = evaluate_series("m", _points(1.0, 99.0), policy)
        assert v.status == STATUS_SKIPPED

    def test_insufficient_history(self):
        v = evaluate_series("m", _points(1.0), MetricPolicy(min_samples=1))
        assert v.status == STATUS_INSUFFICIENT
        assert v.prior_samples == 0

    def test_flat_history_uses_relative_band_floor(self):
        # MAD = 0, so the band is max_regress * |median| — a +20% move on
        # a 35% floor stays ok; a +50% move regresses.
        policy = MetricPolicy(max_regress=0.35, mad_scale=4.0)
        assert evaluate_series("m", _points(2.0, 2.0, 2.0, 2.4), policy).status == (
            STATUS_OK
        )
        assert evaluate_series("m", _points(2.0, 2.0, 2.0, 3.0), policy).status == (
            STATUS_REGRESSION
        )

    def test_noisy_history_widens_band(self):
        # Scatter 1..9 (MAD=2, median=5): +80% on the 35% floor would
        # regress, but 4*MAD=8 covers it.
        policy = MetricPolicy(max_regress=0.35, mad_scale=4.0)
        v = evaluate_series("m", _points(1, 3, 5, 7, 9, 9.0), policy)
        assert v.status == STATUS_OK
        assert v.band == pytest.approx(8.0)

    def test_window_limits_baseline(self):
        # Old cheap points age out of a window of 2; baseline is the
        # recent expensive regime, so the latest point is unremarkable.
        policy = MetricPolicy(window=2)
        v = evaluate_series("m", _points(1.0, 1.0, 10.0, 10.0, 10.0), policy)
        assert v.status == STATUS_OK
        assert v.baseline == 10.0


class TestEvaluateHistory:
    def test_stable_history_is_ok(self):
        records = [run_line(work_s=1.0, when=float(i)) for i in range(4)]
        report = evaluate_history(records, Policy())
        assert report.ok
        assert report.history_lines == 4
        assert all(v.status == STATUS_OK for v in report.verdicts)

    def test_doubled_enumerate_flags_only_its_containing_series(self):
        # ROADMAP's "done when" for the sentinel, on the shipped policy: the
        # committed flow-d1d5 records, then one whose enumerate stage and
        # every series containing its time doubled.
        policy = load_policy(default_policy_path())
        baseline = [
            r for r in load_history(COMMITTED_HISTORY) if r["workload"] == "flow-d1d5"
        ]
        assert len(baseline) >= 5
        latest = json.loads(json.dumps(baseline[-1]))
        latest["git_sha"] = "dddddddddddd"
        for name in ENUMERATE_AND_CONTAINERS:
            latest["metrics"][name] *= 2
        report = evaluate_history(baseline + [latest], policy)
        assert not report.ok
        assert sorted(v.name for v in report.regressions) == sorted(
            f"flow-d1d5.{name}" for name in ENUMERATE_AND_CONTAINERS
        )

    def test_real_repo_history_is_clean(self):
        records = load_history(COMMITTED_HISTORY)
        policy = load_policy(default_policy_path())
        report = evaluate_history(records, policy)
        assert report.ok, report.format()

    def test_report_format_and_dict(self):
        records = [run_line(work_s=1.0, tns_ns=-1.5, when=float(i)) for i in range(3)]
        records.append(run_line(work_s=5.0, tns_ns=-1.5, when=99.0))
        report = evaluate_history(records, Policy())
        text = report.format()
        assert "REGRESSION" in text.splitlines()[-1]
        # Regressions sort to the top of the table.
        assert "regression" in text.splitlines()[2]
        data = report.to_dict()
        assert data["schema"] == "repro.bench.report/1"
        assert data["ok"] is False
        assert data["regressions"] >= 1
        assert {m["name"] for m in data["metrics"]} >= {
            "flow-d1d5.work_s",
            "flow-d1d5.tns_ns",
        }

    def test_ok_report_format(self):
        report = evaluate_history([run_line()], Policy())
        assert report.format().splitlines()[-1] == "OK — no regressions"
