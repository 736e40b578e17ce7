"""``perf_smoke.py``: the CI gate on stage-time regressions.

The gate compares a fresh bench emit against the committed baseline and
must (a) pass within the band, (b) fail loudly past it, and (c) refuse
to compare snapshots that do not validate — a corrupted baseline must
not silently wave a regression through.
"""

from __future__ import annotations

import json

import pytest

from benchmarks.perf_smoke import (
    FALLBACK_MAX_REGRESS,
    compare,
    load_bench,
    main,
    policy_max_regress,
)
from repro.obs.manifest import BENCH_SCHEMA


def _payload(compose: float, sha: str = "abc123abc123") -> dict:
    return {
        "schema": BENCH_SCHEMA,
        "generated_unix": 1754000000.0,
        "git_sha": sha,
        "scale": 0.25,
        "designs": {
            "D1": {
                "runtime_seconds": compose + 0.1,
                "stage_seconds": {"analyze": 0.05, "compose": compose},
                "registers_before": 120,
                "registers_after": 70,
                "register_reduction": 0.4167,
                "wns": -0.05,
                "tns": -0.8,
                "eco": {
                    "prime_seconds": 0.5,
                    "recompose_seconds": 0.1,
                    "incremental": True,
                },
                "metrics": {"counters": {}, "gauges": {}, "histograms": {}},
            }
        },
    }


def _write(tmp_path, name: str, payload: dict) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload) + "\n")
    return str(path)


class TestCompare:
    def test_within_band_passes(self):
        code, msg = compare(_payload(1.0), _payload(1.2), "D1", "compose", 0.25)
        assert code == 0
        assert "ok" in msg and "ratio 1.200" in msg

    def test_past_band_fails(self):
        code, msg = compare(_payload(1.0), _payload(1.3), "D1", "compose", 0.25)
        assert code == 1
        assert "REGRESSION" in msg

    def test_speedup_passes(self):
        code, _ = compare(_payload(1.0), _payload(0.5), "D1", "compose", 0.25)
        assert code == 0

    def test_zero_baseline_is_not_gated(self):
        code, msg = compare(_payload(0.0), _payload(9.9), "D1", "compose", 0.25)
        assert code == 0
        assert "nothing to gate" in msg

    def test_missing_design_errors(self):
        with pytest.raises(SystemExit, match="design 'D9'"):
            compare(_payload(1.0), _payload(1.0), "D9", "compose", 0.25)

    def test_missing_stage_errors(self):
        with pytest.raises(SystemExit, match="stage 'route'"):
            compare(_payload(1.0), _payload(1.0), "D1", "route", 0.25)


class TestCli:
    def test_pass_and_fail_exit_codes(self, tmp_path, capsys):
        base = _write(tmp_path, "base.json", _payload(1.0, "aaa111aaa111"))
        good = _write(tmp_path, "good.json", _payload(1.1, "bbb222bbb222"))
        bad = _write(tmp_path, "bad.json", _payload(2.0, "ccc333ccc333"))
        assert main([base, good]) == 0
        assert "aaa111aaa111" in capsys.readouterr().out
        assert main([base, bad]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_custom_band(self, tmp_path):
        base = _write(tmp_path, "base.json", _payload(1.0))
        cand = _write(tmp_path, "cand.json", _payload(1.4))
        assert main([base, cand, "--max-regress", "0.5"]) == 0
        assert main([base, cand, "--max-regress", "0.1"]) == 1

    def test_invalid_snapshot_refused(self, tmp_path):
        broken = _payload(1.0)
        del broken["git_sha"]
        base = _write(tmp_path, "base.json", broken)
        cand = _write(tmp_path, "cand.json", _payload(1.0))
        with pytest.raises(SystemExit, match="INVALID"):
            load_bench(base)
        with pytest.raises(SystemExit, match="INVALID"):
            main([base, cand])


class TestPolicyBand:
    def _policy(self, tmp_path, perf_smoke) -> str:
        path = tmp_path / "policy.json"
        path.write_text(json.dumps({"perf_smoke": perf_smoke}))
        return str(path)

    def test_band_read_from_policy_file(self, tmp_path):
        path = self._policy(tmp_path, {"max_regress": 0.1})
        assert policy_max_regress(path) == 0.1

    def test_missing_policy_falls_back(self, tmp_path):
        assert policy_max_regress(str(tmp_path / "nope.json")) == (
            FALLBACK_MAX_REGRESS
        )

    def test_policy_without_block_falls_back(self, tmp_path):
        path = self._policy(tmp_path, {})
        assert policy_max_regress(path) == FALLBACK_MAX_REGRESS

    def test_bad_band_value_refused(self, tmp_path):
        for bogus in ("wide", -0.5, True):
            path = self._policy(tmp_path, {"max_regress": bogus})
            with pytest.raises(SystemExit, match="non-negative number"):
                policy_max_regress(path)

    def test_shipped_policy_drives_default_band(self):
        # The repo's checked-in policy owns the CI band.
        assert policy_max_regress() == 0.25

    def test_cli_uses_policy_band(self, tmp_path):
        base = _write(tmp_path, "base.json", _payload(1.0))
        cand = _write(tmp_path, "cand.json", _payload(1.4))
        loose = self._policy(tmp_path, {"max_regress": 0.5})
        assert main([base, cand, "--policy", loose]) == 0
        tight = self._policy(tmp_path, {"max_regress": 0.1})
        assert main([base, cand, "--policy", tight]) == 1

    def test_explicit_flag_overrides_policy(self, tmp_path):
        base = _write(tmp_path, "base.json", _payload(1.0))
        cand = _write(tmp_path, "cand.json", _payload(1.4))
        tight = self._policy(tmp_path, {"max_regress": 0.1})
        assert main([base, cand, "--policy", tight, "--max-regress", "0.5"]) == 0
