"""Typed stages and per-stage execution traces.

Both the Fig. 4 flow and the composition engine are expressed as
sequences of first-class :class:`Stage` objects run by
:class:`repro.engine.pipeline.Pipeline`.  Every stage execution is
timed and recorded into a :class:`StageTrace` — the flow-level trace
nests the composer's own trace as the children of its ``compose``
stage, so one record tree accounts for the whole run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generic, Protocol, TypeVar, runtime_checkable

CtxT = TypeVar("CtxT", contravariant=True)

#: Numeric side-facts a stage reports alongside its runtime
#: (register counts, ILP nodes, worker counts, ...).  Integer-valued
#: counters stay ``int`` end-to-end — recording, totalling, and
#: formatting never coerce them to ``float``.
Counters = dict[str, int | float]


def format_counter_value(value: int | float) -> str:
    """Render one counter: ints exactly (``1500000``), floats compactly
    (``0.25``) — the one place int-vs-float display policy lives."""
    if isinstance(value, int):
        return format(value, "d")
    return format(value, "g")


@dataclass
class StageOutput:
    """Optional rich return value of a stage.

    Plain stages return ``None`` or a bare counter dict; stages that ran a
    nested pipeline (e.g. the flow's ``compose`` stage) attach the child
    trace here so the records nest instead of flattening.
    """

    counters: Counters = field(default_factory=dict)
    children: "StageTrace | None" = None


@runtime_checkable
class Stage(Protocol[CtxT]):
    """One schedulable unit of work over a shared context.

    A stage reads and mutates the pipeline context and optionally returns
    counters (or a :class:`StageOutput`) for its trace record.  Stages must
    not time themselves — the pipeline owns the clock.
    """

    name: str

    def run(self, ctx: CtxT) -> StageOutput | Counters | None: ...


@dataclass(frozen=True)
class FunctionStage(Generic[CtxT]):
    """A :class:`Stage` wrapping a plain function."""

    name: str
    fn: Callable[[CtxT], StageOutput | Counters | None]

    def run(self, ctx: CtxT) -> StageOutput | Counters | None:
        return self.fn(ctx)


def stage(name: str) -> Callable[[Callable[[CtxT], StageOutput | Counters | None]], FunctionStage[CtxT]]:
    """Decorator turning a context function into a named stage."""

    def wrap(fn: Callable[[CtxT], StageOutput | Counters | None]) -> FunctionStage[CtxT]:
        return FunctionStage(name, fn)

    return wrap


@dataclass
class StageRecord:
    """One timed stage execution."""

    name: str
    seconds: float = 0.0
    counters: Counters = field(default_factory=dict)
    children: "StageTrace | None" = None


@dataclass
class StageTrace:
    """The ordered record of every stage a pipeline ran.

    A pipeline that loops (the composer's incremental passes) appends one
    record per execution, so the same stage name may appear repeatedly;
    :meth:`aggregated` folds them for per-stage reporting.
    """

    records: list[StageRecord] = field(default_factory=list)

    def record(
        self,
        name: str,
        seconds: float,
        counters: Counters | None = None,
        children: "StageTrace | None" = None,
    ) -> StageRecord:
        rec = StageRecord(name, seconds, dict(counters or {}), children)
        self.records.append(rec)
        return rec

    @property
    def total_seconds(self) -> float:
        """Wall clock of all top-level records (children are contained in
        their parent's time and are not double-counted)."""
        return sum(r.seconds for r in self.records)

    def aggregated(self) -> dict[str, float]:
        """Per-stage total seconds, in first-execution order."""
        out: dict[str, float] = {}
        for rec in self.records:
            out[rec.name] = out.get(rec.name, 0.0) + rec.seconds
        return out

    def counter_total(self, name: str) -> int | float:
        """Sum of one counter across all top-level records.

        Int-preserving: a counter that every record reports as ``int``
        totals to an ``int`` (the zero default is ``0``, not ``0.0``)."""
        return sum(r.counters.get(name, 0) for r in self.records)

    def stage_names(self) -> list[str]:
        return list(self.aggregated())

    def reuse_summary(self) -> dict[str, tuple[int | float, int | float]]:
        """Per-metric ``(reused, recomputed)`` totals.

        Stages that support incremental operation report matched counter
        pairs (``registers_reused``/``registers_recomputed``, ...); this
        folds every such pair across all records, recursing into children —
        the one-line answer to "how much work did the cache save".
        Int counters total as ints.
        """
        totals: dict[str, list[int | float]] = {}

        def visit(trace: "StageTrace") -> None:
            for rec in trace.records:
                for key, value in rec.counters.items():
                    for suffix, slot in (("_reused", 0), ("_recomputed", 1)):
                        if key.endswith(suffix):
                            base = key[: -len(suffix)]
                            totals.setdefault(base, [0, 0])[slot] += value
                if rec.children is not None:
                    visit(rec.children)

        visit(self)
        return {k: (v[0], v[1]) for k, v in totals.items()}

    def format(self, indent: int = 0) -> str:
        """Human-readable trace: one line per record, children indented."""
        lines: list[str] = []
        if indent == 0:
            lines.append(f"{'stage':<24} {'seconds':>9}  counters")
            lines.append(f"{'-' * 24} {'-' * 9}  {'-' * 30}")
        pad = "  " * indent
        for rec in self.records:
            counters = " ".join(
                f"{k}={format_counter_value(v)}" for k, v in rec.counters.items()
            )
            lines.append(f"{pad + rec.name:<24} {rec.seconds:>9.4f}  {counters}")
            if rec.children is not None:
                lines.append(rec.children.format(indent + 1))
        if indent == 0:
            lines.append(f"{'-' * 24} {'-' * 9}")
            lines.append(f"{'total':<24} {self.total_seconds:>9.4f}")
        return "\n".join(lines)
