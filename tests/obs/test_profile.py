"""Unit tests for the sampling profiler, resource sampler, and heartbeat."""

from __future__ import annotations

import threading

import pytest

from repro import obs
from repro.obs.profile import (
    Heartbeat,
    Profiler,
    ResourceSampler,
    default_profile_path,
    profile_env_enabled,
    progress_env_enabled,
)
from repro.obs.trace import Tracer


@pytest.fixture(autouse=True)
def _clean_obs():
    prev_tracer = obs.set_tracer(None)
    prev_registry = obs.set_registry(obs.MetricsRegistry())
    prev_profiler = obs.set_profiler(None)
    prev_heartbeat = obs.set_heartbeat(None)
    yield
    obs.set_tracer(prev_tracer)
    obs.set_registry(prev_registry)
    for stale in (obs.set_profiler(prev_profiler), obs.set_heartbeat(prev_heartbeat)):
        if stale is not None:
            stale.stop()


class TestProfilerConstruction:
    def test_requires_enabled_tracer(self):
        with pytest.raises(ValueError, match="enabled tracer"):
            Profiler()
        with pytest.raises(ValueError, match="enabled tracer"):
            Profiler(tracer=Tracer(enabled=False))

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError, match="interval"):
            Profiler(tracer=Tracer(), interval_s=0)


class TestSampling:
    def test_sample_attributes_current_stack(self):
        tracer = obs.install_tracer()
        prof = Profiler(tracer=tracer)
        with obs.span("outer"):
            with obs.span("inner"):
                prof.sample_once()
        assert prof.samples == {("outer", "inner"): 1}
        assert prof.idle_samples == 0
        assert prof.total_samples == 1

    def test_idle_sample_counted_separately(self):
        tracer = obs.install_tracer()
        prof = Profiler(tracer=tracer)
        with obs.span("warmup"):
            pass
        prof.sample_once()  # the registered stack is now empty
        assert prof.samples == {}
        assert prof.idle_samples == 1

    def test_samples_other_threads_stacks(self):
        tracer = obs.install_tracer()
        prof = Profiler(tracer=tracer)
        ready, release = threading.Event(), threading.Event()

        def work():
            with obs.span("thread.work"):
                ready.set()
                release.wait(timeout=5)

        t = threading.Thread(target=work)
        t.start()
        assert ready.wait(timeout=5)
        prof.sample_once()
        release.set()
        t.join()
        assert prof.samples.get(("thread.work",)) == 1

    def test_background_thread_collects(self):
        tracer = obs.install_tracer()
        prof = Profiler(tracer=tracer, interval_s=0.001).start()
        try:
            with obs.span("busy"):
                deadline = threading.Event()
                deadline.wait(0.05)
        finally:
            prof.stop()
        assert prof.samples.get(("busy",), 0) >= 1


class TestFoldedOutput:
    def test_folded_format_and_write(self, tmp_path):
        prof = Profiler(tracer=obs.install_tracer())
        with obs.span("a"):
            prof.sample_once()
            with obs.span("b"):
                for _ in range(3):
                    prof.sample_once()
        text = prof.folded()
        assert "a 1\n" in text and "a;b 3\n" in text
        out = tmp_path / "p.folded"
        assert prof.write_folded(str(out)) == 2
        assert out.read_text() == text


class TestModuleLevel:
    def test_install_and_clear(self):
        obs.install_tracer()
        prof = obs.install_profiler(interval_s=0.01)
        try:
            assert obs.get_profiler() is prof
        finally:
            prof.stop()
            obs.set_profiler(None)
        assert obs.get_profiler() is None

    def test_env_helpers(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        assert not profile_env_enabled()
        monkeypatch.setenv("REPRO_PROFILE", "0")
        assert not profile_env_enabled()
        monkeypatch.setenv("REPRO_PROFILE", "1")
        assert profile_env_enabled()
        assert default_profile_path() == "repro_profile.folded"
        monkeypatch.setenv("REPRO_PROFILE", "custom.folded")
        assert profile_env_enabled()
        assert default_profile_path() == "custom.folded"
        monkeypatch.setenv("REPRO_PROGRESS", "1")
        assert progress_env_enabled()
        monkeypatch.setenv("REPRO_PROGRESS", "")
        assert not progress_env_enabled()


class TestResourceSampler:
    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError, match="interval"):
            ResourceSampler(interval_s=-1)

    def test_sample_updates_gauges_and_timeline(self):
        reg = obs.MetricsRegistry()
        sampler = ResourceSampler(registry=reg)
        point = sampler.sample_once()
        assert point["rss_bytes"] > 0
        assert point["t_s"] >= 0
        snap = reg.snapshot()["gauges"]
        assert snap["proc.rss_bytes"] == point["rss_bytes"]
        assert snap["proc.rss_peak_bytes"] >= point["rss_bytes"]
        assert "proc.cpu_percent" in snap
        assert sampler.timeline == [point]

    def test_as_dict_shape(self):
        sampler = ResourceSampler(registry=obs.MetricsRegistry())
        sampler.sample_once()
        sampler.sample_once()
        d = sampler.as_dict()
        assert d["samples"] == 2 and len(d["timeline"]) == 2
        assert d["peak_rss_bytes"] > 0
        assert d["interval_s"] == sampler.interval_s

    def test_start_stop_collects(self):
        sampler = ResourceSampler(
            interval_s=0.005, registry=obs.MetricsRegistry()
        ).start()
        threading.Event().wait(0.02)
        sampler.stop()
        assert len(sampler.timeline) >= 2  # initial + final at minimum


class TestHeartbeat:
    def test_stage_lifecycle_records_events_and_history(self):
        hb = Heartbeat(interval_s=60)
        hb.run_started(["a", "b"])
        hb.stage_started("a")
        hb.stage_finished("a", 1.5)
        kinds = [e["event"] for e in hb.events]
        assert kinds == ["stage_started", "stage_finished"]
        assert hb.history["a"] == 1.5
        assert hb.beat() is None  # no stage running

    def test_eta_from_history_of_later_stages(self):
        hb = Heartbeat(interval_s=60, history={"a": 1.0, "b": 2.0})
        hb.run_started(["a", "b"])
        hb.stage_started("a")
        eta = hb.eta_s()
        # remainder of a (~1.0 just after start) + history of b (2.0)
        assert eta is not None and 2.0 <= eta <= 3.5

    def test_eta_none_without_any_signal(self):
        hb = Heartbeat(interval_s=60)
        hb.run_started(["x"])
        hb.stage_started("x")
        assert hb.eta_s() is None

    def test_eta_scales_by_work_progress(self):
        hb = Heartbeat(interval_s=60)
        hb.run_started(["x"])
        hb.stage_started("x")
        hb.advance(50, 100, unit="subproblems")
        assert hb.eta_s() is not None

    def test_beat_carries_progress_and_context(self):
        hb = Heartbeat(interval_s=60)
        hb.run_started(["x"])
        hb.stage_started("x")
        hb.advance(3, 10, unit="subproblems")
        hb.update(dirty_registers=42)
        event = hb.beat()
        assert event["stage"] == "x"
        assert event["done"] == 3 and event["total"] == 10
        assert event["unit"] == "subproblems"
        assert event["dirty_registers"] == 42
        assert event["elapsed_s"] >= 0

    def test_stream_output(self):
        import io

        stream = io.StringIO()
        hb = Heartbeat(interval_s=60, stream=stream)
        hb.run_started(["x"])
        hb.stage_started("x")
        assert "[progress]" in stream.getvalue()
        assert "stage=x" in stream.getvalue()

    def test_as_dict(self):
        hb = Heartbeat(interval_s=60)
        hb.run_started(["x"])
        hb.stage_started("x")
        d = hb.as_dict()
        assert d["interval_s"] == 60
        assert len(d["events"]) == 1

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError, match="interval"):
            Heartbeat(interval_s=0)


class TestPipelineIntegration:
    def test_pipeline_drives_heartbeat(self):
        from repro.engine.pipeline import Pipeline
        from repro.engine.stage import FunctionStage

        hb = Heartbeat(interval_s=60)
        obs.set_heartbeat(hb)
        stages = (
            FunctionStage("one", lambda ctx: None),
            FunctionStage("two", lambda ctx: None),
        )
        Pipeline(stages=stages).run(object())
        kinds = [(e["event"], e["stage"]) for e in hb.events]
        assert kinds == [
            ("stage_started", "one"),
            ("stage_finished", "one"),
            ("stage_started", "two"),
            ("stage_finished", "two"),
        ]
        assert set(hb.history) == {"one", "two"}

    def test_solve_subproblems_ticks_heartbeat(self):
        from tests.core.test_subproblem import _spec

        from repro.core.subproblem import solve_subproblems

        hb = Heartbeat(interval_s=60)
        obs.set_heartbeat(hb)
        hb.run_started(["solve"])
        hb.stage_started("solve")
        solve_subproblems([_spec(index=i) for i in range(3)])
        event = hb.beat()
        assert event["done"] == 3 and event["total"] == 3
        assert event["unit"] == "subproblems"
