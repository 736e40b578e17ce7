"""``emit_bench.py --validate``: the CI gate on the trajectory artifact.

CI archives ``BENCH_flow.json`` per commit and diffs it across PRs; a
corrupted file (truncated upload, hand-edited entry, schema drift) must
fail validation loudly, not poison the perf history.  These tests drive
the real CLI entry point against deliberately corrupted payloads.
"""

from __future__ import annotations

import json

import pytest

import benchmarks.emit_bench as emit_bench
from benchmarks.emit_bench import append_history, history_record, main
from repro.obs.manifest import BENCH_HISTORY_SCHEMA, BENCH_SCHEMA


def _valid_payload() -> dict:
    entry = {
        "runtime_seconds": 3.5,
        "stage_seconds": {"analyze": 0.4, "compose": 2.0},
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
    return {
        "schema": BENCH_SCHEMA,
        "generated_unix": 1754000000.0,
        "git_sha": "0123456789ab",
        "scale": 0.25,
        "designs": {"D1": entry},
    }


def _write(tmp_path, payload) -> str:
    path = tmp_path / "BENCH_flow.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return str(path)


class TestValidateCli:
    def test_valid_file_exits_zero(self, tmp_path, capsys):
        path = _write(tmp_path, _valid_payload())
        assert main(["--validate", path]) == 0
        assert "valid" in capsys.readouterr().out

    def test_missing_design_key_exits_nonzero(self, tmp_path, capsys):
        payload = _valid_payload()
        del payload["designs"]["D1"]["tns"]
        path = _write(tmp_path, payload)
        assert main(["--validate", path]) == 1
        out = capsys.readouterr().out
        assert "INVALID" in out and "'tns'" in out

    def test_missing_top_level_key_exits_nonzero(self, tmp_path, capsys):
        payload = _valid_payload()
        del payload["scale"]
        path = _write(tmp_path, payload)
        assert main(["--validate", path]) == 1
        assert "'scale'" in capsys.readouterr().out

    def test_wrong_typed_value_exits_nonzero(self, tmp_path, capsys):
        payload = _valid_payload()
        payload["designs"]["D1"]["runtime_seconds"] = "3.5s"
        path = _write(tmp_path, payload)
        assert main(["--validate", path]) == 1
        out = capsys.readouterr().out
        assert "'runtime_seconds'" in out and "number" in out

    def test_wrong_schema_exits_nonzero(self, tmp_path, capsys):
        payload = _valid_payload()
        payload["schema"] = "repro.bench.flow/99"
        path = _write(tmp_path, payload)
        assert main(["--validate", path]) == 1
        assert "schema mismatch" in capsys.readouterr().out

    def test_unreadable_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            main(["--validate", str(tmp_path / "missing.json")])


class TestValidateHistoryCli:
    def _record(self) -> dict:
        return history_record(_valid_payload())

    def _write(self, tmp_path, records) -> str:
        path = tmp_path / "BENCH_history.jsonl"
        path.write_text(
            "".join(json.dumps(r) + "\n" for r in records)
        )
        return str(path)

    def test_history_record_matches_schema(self):
        record = self._record()
        assert record["schema"] == BENCH_HISTORY_SCHEMA
        assert record["git_sha"] == "0123456789ab"
        assert record["designs"]["D1"]["compose_seconds"] == 2.0
        assert record["designs"]["D1"]["tns"] == -0.8
        assert "warmstart_hits" not in record["designs"]["D1"]

    def test_valid_history_exits_zero(self, tmp_path, capsys):
        path = self._write(tmp_path, [self._record(), self._record()])
        assert main(["--validate", path]) == 0
        assert "valid" in capsys.readouterr().out

    def test_corrupt_line_reported_with_line_number(self, tmp_path, capsys):
        path = self._write(tmp_path, [self._record()])
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("{not json\n")
        assert main(["--validate", path]) == 1
        out = capsys.readouterr().out
        assert "line 2" in out and "not JSON" in out

    def test_bad_record_reported_with_line_number(self, tmp_path, capsys):
        bad = self._record()
        del bad["git_sha"]
        path = self._write(tmp_path, [self._record(), bad])
        assert main(["--validate", path]) == 1
        out = capsys.readouterr().out
        assert "line 2" in out and "'git_sha'" in out

    def test_empty_history_rejected(self, tmp_path, capsys):
        path = self._write(tmp_path, [])
        assert main(["--validate", path]) == 1
        assert "empty history" in capsys.readouterr().out


class TestProvenanceStamps:
    def test_history_record_carries_git_dirty(self):
        payload = _valid_payload()
        payload["git_dirty"] = True
        assert history_record(payload)["git_dirty"] is True
        # Pre-PR payloads without the stamp default to clean.
        assert history_record(_valid_payload())["git_dirty"] is False

    def test_git_dirty_reflects_porcelain_output(self, monkeypatch):
        class Done:
            def __init__(self, stdout, returncode=0):
                self.stdout = stdout
                self.returncode = returncode

        monkeypatch.setattr(
            emit_bench.subprocess, "run", lambda *a, **k: Done(" M file.py\n")
        )
        assert emit_bench.git_dirty() is True
        monkeypatch.setattr(
            emit_bench.subprocess, "run", lambda *a, **k: Done("")
        )
        assert emit_bench.git_dirty() is False


class TestAppendHistoryStaleGuard:
    def test_refuses_stale_sha(self, tmp_path, monkeypatch):
        # The payload was emitted at some older commit; appending it would
        # poison the sentinel baselines with unreproducible numbers.
        monkeypatch.setattr(emit_bench, "git_sha", lambda: "fffffffffff0")
        path = tmp_path / "h.jsonl"
        with pytest.raises(SystemExit, match="stale history line"):
            append_history(_valid_payload(), str(path))
        assert not path.exists()

    def test_force_overrides_guard(self, tmp_path, monkeypatch):
        monkeypatch.setattr(emit_bench, "git_sha", lambda: "fffffffffff0")
        path = tmp_path / "h.jsonl"
        record = append_history(_valid_payload(), str(path), force=True)
        assert record["git_sha"] == "0123456789ab"
        line = json.loads(path.read_text().strip())
        assert line["git_sha"] == "0123456789ab"

    def test_matching_sha_appends(self, tmp_path, monkeypatch):
        monkeypatch.setattr(emit_bench, "git_sha", lambda: "0123456789ab")
        path = tmp_path / "h.jsonl"
        append_history(_valid_payload(), str(path))
        assert len(path.read_text().splitlines()) == 1

    def test_outside_git_checkout_appends(self, tmp_path, monkeypatch):
        monkeypatch.setattr(emit_bench, "git_sha", lambda: "unknown")
        path = tmp_path / "h.jsonl"
        append_history(_valid_payload(), str(path))
        assert len(path.read_text().splitlines()) == 1
