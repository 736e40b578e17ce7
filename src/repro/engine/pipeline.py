"""The pipeline runner: timed, traced, sequential stage execution.

Every stage execution opens a ``repro.obs`` span (category ``"stage"``)
carrying the stage's counters as args, and is recorded into the run's
:class:`~repro.engine.stage.StageTrace`, the in-process structured view
stages and reports consume.  The pipeline times each stage with its own
``perf_counter`` inside the span, so a trace record's seconds and its
span's duration are two clocks over the same call.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Generic

from repro import obs
from repro.engine.stage import Counters, CtxT, Stage, StageOutput, StageTrace


def _timer_stats(ctx) -> "object | None":
    """The context's ``timer.stats`` snapshot, when the context has one."""
    timer = getattr(ctx, "timer", None)
    stats = getattr(timer, "stats", None)
    if stats is None:
        return None
    return stats.snapshot()


def _merge_timing_counters(
    counters: Counters | None, before, after
) -> Counters | None:
    """Fold the stage's timer-effort deltas into its counter dict.

    Only nonzero deltas appear, so stages that never touched the timer keep
    their trace lines clean; ``retimed_nodes`` vs ``graph_nodes`` is the
    dirty-cone size the stage actually paid for.  Counter names match the
    :class:`~repro.sta.timer.TimerStats` field names exactly (asserted by
    ``tests/engine/test_engine.py``), and the integer stats stay ints.
    """
    if before is None or after is None:
        return counters
    deltas = {
        "changes_applied": after.changes_applied - before.changes_applied,
        "incremental_timings": after.incremental_timings
        - before.incremental_timings,
        "full_timings": after.full_timings - before.full_timings,
        "retimed_nodes": after.retimed_nodes - before.retimed_nodes,
        "kernel_sweeps": after.kernel_sweeps - before.kernel_sweeps,
    }
    extra = {k: v for k, v in deltas.items() if v}
    if extra and (after.incremental_timings > before.incremental_timings):
        extra["graph_nodes"] = after.graph_nodes
    if not extra:
        return counters
    merged = dict(counters or {})
    for k, v in extra.items():
        merged.setdefault(k, v)
    return merged


@dataclass(frozen=True)
class Pipeline(Generic[CtxT]):
    """An ordered sequence of stages sharing one context.

    ``run`` executes every stage in order, timing each into the trace.
    Passing the same trace to repeated ``run`` calls (the composer's
    incremental passes, the heuristic's rounds) accumulates records.
    """

    stages: tuple[Stage[CtxT], ...]

    def __post_init__(self) -> None:
        names = [s.name for s in self.stages]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate stage names in pipeline: {names}")

    def run(self, ctx: CtxT, trace: StageTrace | None = None) -> StageTrace:
        trace = trace if trace is not None else StageTrace()
        hb = obs.get_heartbeat()
        if hb is not None:
            hb.run_started(self.stage_names())
        for st in self.stages:
            before = _timer_stats(ctx)
            if hb is not None:
                hb.stage_started(st.name)
            with obs.span(f"stage.{st.name}", cat="stage") as sp:
                t0 = time.perf_counter()
                out = st.run(ctx)
                seconds = time.perf_counter() - t0
                counters: Counters | None
                children = None
                if isinstance(out, StageOutput):
                    counters, children = out.counters, out.children
                else:
                    counters = out
                counters = _merge_timing_counters(
                    counters, before, _timer_stats(ctx)
                )
                if counters:
                    sp.set(**counters)
            trace.record(st.name, seconds, counters=counters, children=children)
            if hb is not None:
                hb.stage_finished(st.name, seconds)
        return trace

    def stage_names(self) -> list[str]:
        return [s.name for s in self.stages]
