"""Unit tests for the hierarchical span tracer."""

import json
import threading

import pytest

from repro import obs
from repro.obs.trace import NULL_SPAN, Tracer


@pytest.fixture(autouse=True)
def _clean_tracer():
    prev = obs.set_tracer(None)
    yield
    obs.set_tracer(prev)


class TestModuleSpan:
    def test_disabled_returns_shared_null_span(self):
        assert obs.get_tracer() is None
        s1 = obs.span("anything", cat="x", k=1)
        s2 = obs.span("else")
        assert s1 is NULL_SPAN and s2 is NULL_SPAN
        with s1 as sp:
            sp.set(ignored=True)  # no-op, no error
        assert not obs.tracing_enabled()

    def test_disabled_tracer_also_nulls(self):
        obs.set_tracer(Tracer(enabled=False))
        assert obs.span("x") is NULL_SPAN
        assert not obs.tracing_enabled()

    def test_enabled_records(self):
        tracer = obs.install_tracer()
        with obs.span("work", cat="test", size=3):
            pass
        recs = tracer.records()
        assert len(recs) == 1
        assert recs[0].name == "work"
        assert recs[0].cat == "test"
        assert recs[0].args == {"size": 3}
        assert recs[0].dur_us >= 0


class TestNesting:
    def test_parent_links(self):
        tracer = obs.install_tracer()
        with obs.span("outer"):
            with obs.span("inner"):
                pass
            with obs.span("inner2"):
                pass
        by_name = {r.name: r for r in tracer.records()}
        assert by_name["outer"].parent_id is None
        assert by_name["inner"].parent_id == by_name["outer"].id
        assert by_name["inner2"].parent_id == by_name["outer"].id

    def test_set_updates_args_mid_span(self):
        tracer = obs.install_tracer()
        with obs.span("s", a=1) as sp:
            sp.set(b=2)
            sp.set(a=3)
        assert tracer.records()[0].args == {"a": 3, "b": 2}

    def test_threads_nest_independently(self):
        tracer = obs.install_tracer()
        barrier = threading.Barrier(2)

        def work(name):
            with obs.span(name):
                barrier.wait(timeout=5)
                with obs.span(f"{name}.child"):
                    pass

        threads = [threading.Thread(target=work, args=(n,)) for n in ("t1", "t2")]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        by_name = {r.name: r for r in tracer.records()}
        assert by_name["t1.child"].parent_id == by_name["t1"].id
        assert by_name["t2.child"].parent_id == by_name["t2"].id
        assert by_name["t1"].parent_id is None
        assert by_name["t2"].parent_id is None


class TestActiveStacks:
    def test_current_stack_names(self):
        tracer = obs.install_tracer()
        me = threading.get_ident()
        with obs.span("a"):
            with obs.span("b"):
                assert tracer.active_stacks()[me] == ("a", "b")
            assert tracer.active_stacks()[me] == ("a",)
        assert tracer.active_stacks()[me] == ()

    def test_active_stacks_sees_other_threads(self):
        tracer = obs.install_tracer()
        ready, release = threading.Event(), threading.Event()

        def work():
            with obs.span("bg"):
                ready.set()
                release.wait(timeout=5)

        t = threading.Thread(target=work)
        t.start()
        assert ready.wait(timeout=5)
        with obs.span("fg"):
            stacks = tracer.active_stacks()
        release.set()
        t.join()
        assert ("bg",) in stacks.values()
        assert ("fg",) in stacks.values()


class TestChromeExport:
    def test_chrome_trace_shape(self, tmp_path):
        tracer = obs.install_tracer()
        with obs.span("outer", cat="flow", n=1):
            with obs.span("inner", cat="stage"):
                pass
        data = tracer.to_chrome_trace()
        assert data["displayTimeUnit"] == "ms"
        events = data["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        spans = [e for e in events if e["ph"] == "X"]
        assert len(meta) == 1 and meta[0]["name"] == "process_name"
        assert {e["name"] for e in spans} == {"outer", "inner"}
        for e in spans:
            assert {"name", "cat", "ph", "ts", "dur", "pid", "tid", "args"} <= set(e)

        path = tmp_path / "trace.json"
        tracer.write_chrome_trace(str(path))
        reloaded = json.loads(path.read_text())
        assert len(reloaded["traceEvents"]) == len(events)


class TestRollup:
    def test_rollup_totals_by_name(self):
        tracer = obs.install_tracer()
        for _ in range(3):
            with obs.span("a"):
                pass
        with obs.span("b"):
            pass
        roll = tracer.rollup()
        assert roll["a"]["count"] == 3
        assert roll["b"]["count"] == 1
        assert roll["a"]["total_s"] >= 0
