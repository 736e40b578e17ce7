"""Tests for the command-line driver."""

import json

import pytest

from repro import obs
from repro.cli import main
from repro.obs.manifest import MANIFEST_REQUIRED_KEYS, validate_manifest


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "d1"
    rc = main(["generate", "--preset", "D1", "--scale", "0.08", "--out-prefix", str(out)])
    assert rc == 0
    return out


class TestCli:
    def test_generate_writes_files(self, generated):
        for suffix in (".lib", ".v", ".def"):
            assert generated.with_suffix(suffix).exists()

    def test_report(self, generated, capsys):
        rc = main([
            "report",
            "--lib", str(generated) + ".lib",
            "--verilog", str(generated) + ".v",
            "--def", str(generated) + ".def",
            "--period", "1.0",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "registers" in out and "clock capacitance" in out

    def test_compose_roundtrip(self, generated, tmp_path, capsys):
        out_prefix = tmp_path / "composed"
        rc = main([
            "compose",
            "--lib", str(generated) + ".lib",
            "--verilog", str(generated) + ".v",
            "--def", str(generated) + ".def",
            "--period", "0.5",
            "--out-prefix", str(out_prefix),
        ])
        assert rc == 0
        text = capsys.readouterr().out
        assert "Base" in text and "Ours" in text
        assert out_prefix.with_suffix(".v").exists()
        assert out_prefix.with_suffix(".def").exists()

    def test_compose_trace_and_workers(self, generated, capsys):
        rc = main([
            "compose",
            "--lib", str(generated) + ".lib",
            "--verilog", str(generated) + ".v",
            "--def", str(generated) + ".def",
            "--period", "0.5",
            "--workers", "2",
            "--trace",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        # The stage-runtime table and the nested trace both print.
        assert "Total(s)" in out
        assert "base-metrics" in out and "compose" in out
        assert "solve" in out and "workers=2" in out

    def test_compose_heuristic_mode(self, generated, capsys):
        rc = main([
            "compose",
            "--lib", str(generated) + ".lib",
            "--verilog", str(generated) + ".v",
            "--def", str(generated) + ".def",
            "--period", "0.5",
            "--heuristic",
        ])
        assert rc == 0

    def test_default_library_used_without_lib(self, generated, capsys):
        rc = main([
            "report",
            "--verilog", str(generated) + ".v",
            "--def", str(generated) + ".def",
            "--period", "1.0",
        ])
        assert rc == 0

    def test_eco_storm(self, capsys):
        rc = main([
            "eco",
            "--preset", "D1",
            "--scale", "0.1",
            "--moves", "3",
            "--audit",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "prime:" in out
        assert out.count("[audit ok]") == 3
        assert "components" in out and "recomputed" in out

    def test_missing_required_args(self):
        with pytest.raises(SystemExit):
            main(["compose", "--period", "1.0"])


class TestObservability:
    """The run/trace subcommands and their exported artifacts."""

    @pytest.fixture(autouse=True)
    def _restore_obs(self):
        yield
        obs.set_tracer(None)
        obs.set_registry(obs.MetricsRegistry())

    def test_run_exports_trace_and_manifest(self, tmp_path, capsys):
        trace_out = tmp_path / "t.json"
        manifest_out = tmp_path / "m.json"
        rc = main([
            "run",
            "--preset", "D1",
            "--scale", "0.1",
            "--workers", "2",
            "--trace-out", str(trace_out),
            "--manifest-out", str(manifest_out),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Base" in out and "Ours" in out

        trace = json.loads(trace_out.read_text())
        assert trace["displayTimeUnit"] == "ms"
        events = trace["traceEvents"]
        spans = [e for e in events if e["ph"] == "X"]
        names = {e["name"] for e in spans}
        assert "flow.run" in names
        assert "stage.solve" in names
        assert "ilp.solve" in names
        # Parallel ILP workers contribute spans from their own processes.
        assert len({e["pid"] for e in events}) > 1
        # Worker ilp.solve spans nest under the parent's timeline
        # (adopted, not floating): every event has valid ts/dur.
        assert all(e["dur"] >= 0 for e in spans)

        manifest = json.loads(manifest_out.read_text())
        assert validate_manifest(manifest) == []
        assert set(MANIFEST_REQUIRED_KEYS) <= set(manifest)
        counters = manifest["metrics"]["counters"]
        # ILP effort and timer retime stats made it into the registry.
        assert counters.get("ilp.setpart.solves", 0) > 0
        assert counters.get("ilp.setpart.nodes_explored", 0) > 0
        assert counters.get("sta.full_timings", 0) > 0
        assert manifest["flow"]["registers_before"] > 0
        assert manifest["spans"]["ilp.solve"]["count"] > 0

    def test_run_without_artifacts_leaves_tracing_disabled(self, capsys):
        rc = main(["run", "--preset", "D1", "--scale", "0.1"])
        assert rc == 0
        assert not obs.tracing_enabled()

    def test_trace_subcommand_writes_chrome_trace(self, tmp_path, capsys):
        out = tmp_path / "run.json"
        rc = main(["trace", str(out), "--preset", "D1", "--scale", "0.1"])
        assert rc == 0
        data = json.loads(out.read_text())
        assert any(e.get("name") == "flow.run" for e in data["traceEvents"])

    def test_compose_accepts_trace_out(self, generated, tmp_path, capsys):
        trace_out = tmp_path / "c.json"
        rc = main([
            "compose",
            "--lib", str(generated) + ".lib",
            "--verilog", str(generated) + ".v",
            "--def", str(generated) + ".def",
            "--period", "0.5",
            "--trace-out", str(trace_out),
        ])
        assert rc == 0
        assert json.loads(trace_out.read_text())["traceEvents"]

    def test_eco_prints_cache_efficiency_line(self, capsys):
        rc = main(["eco", "--preset", "D1", "--scale", "0.1", "--moves", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        cache_lines = [ln for ln in out.splitlines() if ln.startswith("cache:")]
        assert len(cache_lines) == 1
        line = cache_lines[0]
        assert "component hits" in line and "evictions" in line
        assert "runtime saved" in line


def _history_line(compose=1.0, sha="aaaaaaaaaaaa", when=1000.0):
    return {
        "schema": "repro.bench.history/1",
        "generated_unix": when,
        "git_sha": sha,
        "scale": 1.0,
        "designs": {
            "D1": {
                "runtime_seconds": compose * 2,
                "compose_seconds": compose,
                "registers_after": 500,
                "tns": -1.5,
            }
        },
    }


class TestPerformanceIntelligence:
    """--profile/--progress, bench report, and the obs analytics commands."""

    @pytest.fixture(autouse=True)
    def _restore_obs(self):
        yield
        obs.set_tracer(None)
        obs.set_registry(obs.MetricsRegistry())
        for stale in (obs.set_profiler(None), obs.set_heartbeat(None)):
            if stale is not None:
                stale.stop()

    def test_run_profile_writes_folded_with_worker_samples(
        self, tmp_path, capsys
    ):
        # The acceptance criterion: a profiled parallel run produces a
        # non-empty folded profile whose stacks include the compose stage
        # and the worker ILP solves merged under the fan-out site.
        folded_out = tmp_path / "out.folded"
        manifest_out = tmp_path / "m.json"
        rc = main([
            "run",
            "--preset", "D1",
            "--scale", "0.1",
            "--workers", "2",
            "--profile", str(folded_out),
            "--manifest-out", str(manifest_out),
        ])
        assert rc == 0
        assert "wrote folded profile" in capsys.readouterr().out

        text = folded_out.read_text()
        assert text.strip()
        stacks = {}
        for line in text.splitlines():
            frames, count = line.rsplit(" ", 1)
            stacks[frames] = int(count)
            assert int(count) >= 1
        assert any("stage.compose" in frames for frames in stacks)
        # Worker ilp.solve samples nest under the parent solve stage.
        assert any(
            "stage.solve;ilp.solve" in frames for frames in stacks
        )

        # The same run's manifest archives resources and progress.
        manifest = json.loads(manifest_out.read_text())
        assert validate_manifest(manifest) == []
        assert manifest["resources"]["samples"] >= 1
        assert manifest["resources"]["peak_rss_bytes"] > 0
        progress_events = [e["event"] for e in manifest["progress"]["events"]]
        assert "stage_started" in progress_events
        assert "stage_finished" in progress_events

    def test_run_progress_streams_to_stderr(self, capsys):
        rc = main([
            "run", "--preset", "D1", "--scale", "0.1", "--progress",
        ])
        assert rc == 0
        err = capsys.readouterr().err
        assert "[progress]" in err
        assert "stage=" in err

    def test_profile_env_enables_profiling(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "env.folded"
        monkeypatch.setenv("REPRO_PROFILE", str(out))
        rc = main(["run", "--preset", "D1", "--scale", "0.1"])
        assert rc == 0
        assert out.read_text().strip()

    def test_bench_report_ok_and_check_gate(self, tmp_path, capsys):
        history = tmp_path / "h.jsonl"
        lines = [_history_line(compose=1.0, when=float(i)) for i in range(4)]
        history.write_text("".join(json.dumps(r) + "\n" for r in lines))
        rc = main(["bench", "report", "--history", str(history), "--check"])
        assert rc == 0
        assert "OK — no regressions" in capsys.readouterr().out

        # Inject the acceptance scenario: a 3x compose_seconds spike.
        with open(history, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(_history_line(compose=3.0, when=99.0)) + "\n")
        rc = main(["bench", "report", "--history", str(history), "--check"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "flow.D1.compose_seconds" in out
        assert "REGRESSION" in out

        # Without --check the regression is reported but not fatal.
        assert main(["bench", "report", "--history", str(history)]) == 0

    def test_bench_report_json_output(self, tmp_path, capsys):
        history = tmp_path / "h.jsonl"
        history.write_text(json.dumps(_history_line()) + "\n")
        report_out = tmp_path / "report.json"
        rc = main([
            "bench", "report",
            "--history", str(history),
            "--json", str(report_out),
        ])
        assert rc == 0
        data = json.loads(report_out.read_text())
        assert data["schema"] == "repro.bench.report/1"
        assert data["ok"] is True

    def test_bench_report_real_repo_history_is_clean(self, capsys):
        rc = main(["bench", "report", "--check"])
        assert rc == 0, capsys.readouterr().out

    def test_bench_report_missing_or_corrupt_history_exits_two(
        self, tmp_path, capsys
    ):
        assert main([
            "bench", "report", "--history", str(tmp_path / "nope.jsonl"),
        ]) == 2
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json\n")
        assert main(["bench", "report", "--history", str(bad)]) == 2
        assert main([
            "bench", "report",
            "--history", str(bad),
            "--policy", str(tmp_path / "missing_policy.json"),
        ]) == 2

    def test_obs_critical_path(self, tmp_path, capsys):
        trace = tmp_path / "t.json"
        trace.write_text(json.dumps({
            "traceEvents": [
                {"ph": "X", "name": "flow.run", "ts": 0, "dur": 100,
                 "pid": 1, "tid": 1},
                {"ph": "X", "name": "stage.compose", "ts": 10, "dur": 80,
                 "pid": 1, "tid": 1},
            ]
        }))
        rc = main(["obs", "critical-path", str(trace)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "critical path: 2 spans" in out
        assert "stage.compose" in out

    def test_obs_critical_path_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"traceEvents": "nope"}))
        assert main(["obs", "critical-path", str(bad)]) == 2
        assert main([
            "obs", "critical-path", str(tmp_path / "missing.json"),
        ]) == 2

    def _write_manifest(self, tmp_path, name, compose_s):
        from repro.obs.manifest import build_manifest

        prev_tracer = obs.set_tracer(None)
        prev_registry = obs.set_registry(obs.MetricsRegistry())
        try:
            tracer = obs.install_tracer()
            with obs.span("stage.compose"):
                pass
            manifest = build_manifest(
                design={"name": "unit"},
                config={},
                flow={"tns": -1.0, "compose_seconds": compose_s},
                tracer=tracer,
            )
        finally:
            obs.set_tracer(prev_tracer)
            obs.set_registry(prev_registry)
        path = tmp_path / name
        path.write_text(json.dumps(manifest))
        return str(path)

    def test_obs_diff(self, tmp_path, capsys):
        a = self._write_manifest(tmp_path, "a.json", 1.0)
        b = self._write_manifest(tmp_path, "b.json", 3.0)
        json_out = tmp_path / "diff.json"
        rc = main(["obs", "diff", a, b, "--json", str(json_out)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "flow (" in out and "compose_seconds" in out
        diff = json.loads(json_out.read_text())
        rows = {r["name"]: r for r in diff["flow"]}
        assert rows["compose_seconds"]["delta"] == 2.0

    def test_obs_diff_rejects_invalid_manifest(self, tmp_path, capsys):
        a = self._write_manifest(tmp_path, "a.json", 1.0)
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["obs", "diff", a, str(bad)]) == 2
