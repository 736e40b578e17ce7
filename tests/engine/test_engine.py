"""Unit tests for the stage-pipeline engine."""

import dataclasses

import pytest

from repro import obs
from repro.engine import (
    FunctionStage,
    Pipeline,
    Stage,
    StageOutput,
    StageTrace,
    format_counter_value,
    stage,
)
from repro.engine.pipeline import _merge_timing_counters
from repro.sta.timer import TimerStats


class TestStage:
    def test_function_stage_runs(self):
        st = FunctionStage("double", lambda ctx: {"value": ctx["x"] * 2})
        assert st.name == "double"
        assert st.run({"x": 3}) == {"value": 6}

    def test_stage_decorator(self):
        @stage("named")
        def my_stage(ctx):
            return None

        assert isinstance(my_stage, FunctionStage)
        assert my_stage.name == "named"
        assert isinstance(my_stage, Stage)

    def test_protocol_accepts_custom_class(self):
        class Custom:
            name = "custom"

            def run(self, ctx):
                return None

        assert isinstance(Custom(), Stage)


class TestPipeline:
    def test_runs_stages_in_order(self):
        order = []
        pipe = Pipeline(
            (
                FunctionStage("a", lambda ctx: order.append("a")),
                FunctionStage("b", lambda ctx: order.append("b")),
                FunctionStage("c", lambda ctx: order.append("c")),
            )
        )
        trace = pipe.run({})
        assert order == ["a", "b", "c"]
        assert [r.name for r in trace.records] == ["a", "b", "c"]
        assert all(r.seconds >= 0 for r in trace.records)

    def test_counters_recorded(self):
        pipe = Pipeline((FunctionStage("count", lambda ctx: {"n": 7}),))
        trace = pipe.run({})
        assert trace.records[0].counters == {"n": 7}

    def test_stage_output_nests_children(self):
        child = StageTrace()
        child.record("inner", 0.5)
        pipe = Pipeline(
            (FunctionStage("outer", lambda ctx: StageOutput({"k": 1}, child)),)
        )
        trace = pipe.run({})
        rec = trace.records[0]
        assert rec.counters == {"k": 1}
        assert rec.children is child
        # Children do not double-count into the top-level total.
        assert trace.total_seconds == pytest.approx(rec.seconds)

    def test_repeated_runs_accumulate_into_one_trace(self):
        pipe = Pipeline((FunctionStage("s", lambda ctx: None),))
        trace = StageTrace()
        pipe.run({}, trace)
        pipe.run({}, trace)
        assert [r.name for r in trace.records] == ["s", "s"]
        assert trace.aggregated() == {"s": pytest.approx(trace.total_seconds)}

    def test_duplicate_stage_names_rejected(self):
        with pytest.raises(ValueError):
            Pipeline(
                (
                    FunctionStage("same", lambda ctx: None),
                    FunctionStage("same", lambda ctx: None),
                )
            )

    def test_stage_exception_propagates(self):
        def boom(ctx):
            raise RuntimeError("boom")

        pipe = Pipeline((FunctionStage("boom", boom),))
        with pytest.raises(RuntimeError, match="boom"):
            pipe.run({})

    def test_context_shared_across_stages(self):
        pipe = Pipeline(
            (
                FunctionStage("write", lambda ctx: ctx.__setitem__("k", 1)),
                FunctionStage("read", lambda ctx: {"seen": ctx["k"]}),
            )
        )
        trace = pipe.run({})
        assert trace.records[1].counters == {"seen": 1}


    def test_pipeline_spans_match_its_stagetrace(self):
        # Every stage.* span carries its stage's counters as args.
        tracer = obs.install_tracer()
        try:
            pipe = Pipeline(
                (
                    FunctionStage("a", lambda ctx: {"n": 1}),
                    FunctionStage("b", lambda ctx: None),
                )
            )
            direct = pipe.run({})
        finally:
            obs.set_tracer(None)
        spans = [r for r in tracer.records() if r.cat == "stage"]
        assert [r.name for r in spans] == [f"stage.{r.name}" for r in direct.records]
        assert [r.args for r in spans] == [{"n": 1}, {}]


class TestStageTrace:
    def test_aggregated_folds_repeats_in_first_seen_order(self):
        trace = StageTrace()
        trace.record("a", 1.0)
        trace.record("b", 2.0)
        trace.record("a", 3.0)
        assert trace.aggregated() == {"a": 4.0, "b": 2.0}
        assert trace.stage_names() == ["a", "b"]
        assert trace.total_seconds == 6.0

    def test_counter_total(self):
        trace = StageTrace()
        trace.record("a", 0.0, counters={"n": 2})
        trace.record("b", 0.0, counters={"n": 3, "m": 1})
        assert trace.counter_total("n") == 5
        assert trace.counter_total("missing") == 0

    def test_format_lists_stages_and_total(self):
        trace = StageTrace()
        trace.record("solve", 1.25, counters={"ilp_nodes": 42})
        child = StageTrace()
        child.record("inner", 0.5)
        trace.record("apply", 0.75, children=child)
        text = trace.format()
        assert "solve" in text and "ilp_nodes=42" in text
        assert "inner" in text
        assert "total" in text and "2.0000" in text


class TestIntCounters:
    """Integer counters stay ints end-to-end: recording, totalling,
    formatting."""

    def test_format_counter_value(self):
        assert format_counter_value(2) == "2"
        assert format_counter_value(1500000) == "1500000"
        assert format_counter_value(0.25) == "0.25"
        assert format_counter_value(2.0) == "2"

    def test_counter_total_preserves_int(self):
        trace = StageTrace()
        trace.record("a", 0.0, counters={"n": 2})
        trace.record("b", 0.0, counters={"n": 3})
        total = trace.counter_total("n")
        assert total == 5 and isinstance(total, int)
        missing = trace.counter_total("missing")
        assert missing == 0 and isinstance(missing, int)

    def test_format_renders_ints_without_decimal_point(self):
        trace = StageTrace()
        trace.record("solve", 0.1, counters={"workers": 2, "frac": 0.5})
        text = trace.format()
        assert "workers=2" in text and "workers=2.0" not in text
        assert "frac=0.5" in text


class TestTimingCounterNames:
    """Satellite (a): the pipeline's timer-effort counters use the
    canonical TimerStats field names — no drifted aliases like the old
    ``incr_timings``."""

    def test_merged_names_are_timerstats_fields(self):
        before = TimerStats()
        after = TimerStats(
            full_timings=1,
            incremental_timings=2,
            changes_applied=3,
            retimed_nodes=40,
            graph_nodes=100,
        )
        merged = _merge_timing_counters(None, before, after)
        field_names = {f.name for f in dataclasses.fields(TimerStats)}
        assert set(merged) <= field_names
        assert merged == {
            "changes_applied": 3,
            "incremental_timings": 2,
            "full_timings": 1,
            "retimed_nodes": 40,
            "graph_nodes": 100,
        }

    def test_merged_deltas_stay_ints(self):
        merged = _merge_timing_counters(
            {"seconds": 0.5},
            TimerStats(),
            TimerStats(incremental_timings=1, retimed_nodes=7, graph_nodes=9),
        )
        for key in ("incremental_timings", "retimed_nodes", "graph_nodes"):
            assert isinstance(merged[key], int)
        assert merged["seconds"] == 0.5

    def test_zero_deltas_keep_counters_untouched(self):
        counters = {"n": 1}
        stats = TimerStats(graph_nodes=50)
        assert _merge_timing_counters(counters, stats, stats) is counters


class TestReuseSummary:
    """Satellite (c): reuse aggregation across flow -> compose -> solve
    nesting."""

    def _nested_trace(self):
        solve = StageTrace()
        solve.record(
            "partition", 0.1,
            counters={"components_reused": 4, "components_recomputed": 1},
        )
        compose = StageTrace()
        compose.record(
            "analyze", 0.2,
            counters={"registers_reused": 30, "registers_recomputed": 5},
        )
        compose.record("solve", 0.3, children=solve)
        flow = StageTrace()
        flow.record("base-metrics", 0.1)
        flow.record("compose", 0.6, children=compose)
        return flow

    def test_folds_pairs_across_all_nesting_levels(self):
        summary = self._nested_trace().reuse_summary()
        assert summary == {
            "components": (4, 1),
            "registers": (30, 5),
        }
        for reused, recomputed in summary.values():
            assert isinstance(reused, int) and isinstance(recomputed, int)

    def test_repeated_passes_accumulate(self):
        trace = self._nested_trace()
        trace.record(
            "compose", 0.1,
            counters={"registers_reused": 10, "registers_recomputed": 0},
        )
        assert trace.reuse_summary()["registers"] == (40, 5)

    def test_unpaired_counters_ignored(self):
        trace = StageTrace()
        trace.record("a", 0.0, counters={"n": 3, "registers_reused": 1})
        assert trace.reuse_summary() == {"registers": (1, 0)}
