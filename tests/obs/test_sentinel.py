"""Unit tests for the bench-trajectory regression sentinel."""

from __future__ import annotations

import json
import os

import pytest

from repro.obs.sentinel import (
    STATUS_IMPROVED,
    STATUS_INSUFFICIENT,
    STATUS_OK,
    STATUS_REGRESSION,
    STATUS_SKIPPED,
    MetricPolicy,
    Point,
    Policy,
    default_policy_path,
    evaluate_history,
    evaluate_series,
    load_history,
    load_policy,
    series_from_history,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def flow_line(compose=1.0, sha="aaaaaaaaaaaa", when=1000.0, design="D1"):
    """One valid ``repro.bench.history/1`` line."""
    return {
        "schema": "repro.bench.history/1",
        "generated_unix": when,
        "git_sha": sha,
        "scale": 1.0,
        "designs": {
            design: {
                "runtime_seconds": compose * 2,
                "compose_seconds": compose,
                "registers_after": 500,
                "tns": -1.5,
            }
        },
    }


def mem_line(peak=1e8, sha="bbbbbbbbbbbb", when=2000.0, n=100000):
    """One valid ``repro.bench.mem/1`` line."""
    return {
        "schema": "repro.bench.mem/1",
        "generated_unix": when,
        "git_sha": sha,
        "n_registers": n,
        "baseline_registers": n // 5,
        "peak_rss_bytes": peak,
        "bytes_per_register": peak / n,
        "marginal_bytes_per_register": 1200.0,
        "budget_bytes_per_register": 1536,
        "phase_seconds": {"generate": 1.0},
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
                    "perf_smoke": {"max_regress": 0.25},
                }
            )
        )
        policy = load_policy(str(path))
        assert policy.defaults.max_regress == 0.5
        assert policy.for_metric("flow.D1.tns").direction == "higher_better"
        assert policy.perf_smoke == {"max_regress": 0.25}

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
        # The repo policy flips direction for throughput-style metrics.
        assert policy.for_metric("flow.D1.tns").direction == "higher_better"
        assert policy.for_metric("flow.D1.compose_seconds").direction == "lower_better"
        assert "max_regress" in policy.perf_smoke


class TestLoadHistory:
    def test_loads_mixed_schemas(self, tmp_path):
        path = tmp_path / "h.jsonl"
        with open(path, "w") as fh:
            fh.write(json.dumps(flow_line()) + "\n")
            fh.write("\n")  # blank lines are fine
            fh.write(json.dumps(mem_line()) + "\n")
        records = load_history(str(path))
        assert len(records) == 2

    def test_collects_every_problem_with_line_numbers(self, tmp_path):
        path = tmp_path / "h.jsonl"
        bad_flow = flow_line()
        del bad_flow["designs"]
        with open(path, "w") as fh:
            fh.write("not json\n")
            fh.write(json.dumps(bad_flow) + "\n")
        with pytest.raises(ValueError) as exc:
            load_history(str(path))
        message = str(exc.value)
        assert "line 1: not JSON" in message
        assert "line 2:" in message and "designs" in message


class TestSeries:
    def test_flow_lines_fan_out_per_design(self):
        records = [flow_line(compose=1.0), flow_line(compose=1.1, design="D2")]
        # Older committed lines still carry the retired warm-start count;
        # it validates but no longer becomes a series.
        records[0]["designs"]["D1"]["warmstart_hits"] = 8
        series = series_from_history(records)
        assert [p.value for p in series["flow.D1.compose_seconds"]] == [1.0]
        assert [p.value for p in series["flow.D2.compose_seconds"]] == [1.1]
        assert "flow.D1.tns" in series and "flow.D1.registers_after" in series
        assert not any(name.endswith(".warmstart_hits") for name in series)

    def test_mem_lines_fan_out_per_size(self):
        records = [mem_line(n=100000), mem_line(n=1000000)]
        series = series_from_history(records)
        assert "mem.100000.peak_rss_bytes" in series
        assert "mem.1000000.peak_rss_bytes" in series
        assert len(series["mem.100000.peak_rss_bytes"]) == 1

    def test_points_keep_log_order(self):
        records = [flow_line(compose=v) for v in (1.0, 2.0, 3.0)]
        series = series_from_history(records)
        assert [p.value for p in series["flow.D1.compose_seconds"]] == [1.0, 2.0, 3.0]


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
        records = [flow_line(compose=1.0, when=float(i)) for i in range(4)]
        report = evaluate_history(records, Policy())
        assert report.ok
        assert report.history_lines == 4
        assert all(v.status == STATUS_OK for v in report.verdicts)

    def test_injected_3x_compose_regression_fails(self):
        # The acceptance scenario: a 3x compose_seconds spike on the
        # latest line must flip the report to not-ok.
        records = [flow_line(compose=1.0, when=float(i)) for i in range(4)]
        records.append(flow_line(compose=3.0, sha="dddddddddddd", when=99.0))
        report = evaluate_history(records, Policy())
        assert not report.ok
        names = [v.name for v in report.regressions]
        assert "flow.D1.compose_seconds" in names
        assert "flow.D1.runtime_seconds" in names

    def test_real_repo_history_is_clean(self):
        records = load_history(os.path.join(REPO_ROOT, "BENCH_history.jsonl"))
        policy = load_policy(default_policy_path())
        report = evaluate_history(records, policy)
        assert report.ok, report.format()

    def test_report_format_and_dict(self):
        records = [flow_line(compose=1.0, when=float(i)) for i in range(3)]
        records.append(flow_line(compose=5.0, when=99.0))
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
            "flow.D1.compose_seconds",
            "flow.D1.tns",
        }

    def test_ok_report_format(self):
        report = evaluate_history([flow_line()], Policy())
        assert report.format().splitlines()[-1] == "OK — no regressions"
