"""The stage-pipeline engine.

Re-expresses the paper's Fig. 4 flow and the Section 3-4 composition
engine as pipelines of first-class, individually timed stages over a
shared :class:`FlowContext`:

* :mod:`repro.engine.stage` — the :class:`Stage` protocol,
  :class:`StageTrace` / :class:`StageRecord` runtime accounting, and the
  :func:`stage` decorator;
* :mod:`repro.engine.pipeline` — the sequential :class:`Pipeline` runner;
* :mod:`repro.engine.context` — the shared design/timer/scan context.

Making each phase an explicit, individually timed unit is what lets a
trace say where a run spent its time, and it is the seam the
incremental ECO recompose (:mod:`repro.flow.session`) plugs into.
"""

from repro.engine.context import FlowContext
from repro.engine.pipeline import Pipeline
from repro.engine.stage import (
    Counters,
    FunctionStage,
    Stage,
    StageOutput,
    StageRecord,
    StageTrace,
    format_counter_value,
    stage,
)

__all__ = [
    "Counters",
    "FlowContext",
    "FunctionStage",
    "Pipeline",
    "Stage",
    "StageOutput",
    "StageRecord",
    "StageTrace",
    "format_counter_value",
    "stage",
]
