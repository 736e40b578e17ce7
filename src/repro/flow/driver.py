"""The Fig. 4 flow as a stage pipeline: placement -> MBR composition ->
useful skew -> sizing.

``run_flow`` takes a placed design (typically a
:class:`repro.bench.generator.DesignBundle`) and executes the paper's
incremental restructuring as a :class:`repro.engine.Pipeline` of
first-class stages:

1. **base-metrics** — measure the Table 1 "Base" row;
2. **decompose** — (optional) split pre-existing MBRs so composition can
   regroup their bits (the paper's future-work extension);
3. **compose** — MBR composition + optimization with the placement-aware
   ILP (Section 3) or the heuristic baseline (Fig. 6); its own stage
   trace nests under this record;
4. **legalize-bits** — legalize decomposed bits that survived as singles;
5. **skew** — useful skew on the newly composed MBRs — "benefiting from
   their timing compatible smaller counterparts" (Section 5);
6. **sizing** — MBR sizing: downsizing drives where the improved slack
   allows, reducing area and clock pin capacitance;
7. **final-metrics** — measure the Table 1 "Ours" row.

Every stage is timed into :class:`FlowReport.trace`; the top-level stage
times sum to :class:`FlowReport.runtime_seconds` (within pipeline
bookkeeping noise).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro import obs
from repro.core.composer import ComposerConfig, CompositionResult
from repro.core.decompose import DecomposeResult, decompose_registers
from repro.core.heuristic import compose_design_heuristic
from repro.core.sizing import SizingResult, size_registers
from repro.engine import FlowContext, Pipeline, StageOutput, StageTrace, stage
from repro.flow.session import EcoSession
from repro.metrics.collect import DesignMetrics, collect_metrics, compare_metrics
from repro.netlist.design import Design
from repro.scan.model import ScanModel
from repro.skew.assign import SkewAssignment, assign_useful_skew
from repro.sta.timer import Timer


@dataclass
class FlowConfig:
    """Flow-level knobs (Fig. 4 stages)."""

    composer: ComposerConfig = field(default_factory=ComposerConfig)
    algorithm: str = "ilp"  # "ilp" (the paper) or "heuristic" (Fig. 6 baseline)
    decompose_widths: tuple[int, ...] = ()
    """Widths of pre-existing MBRs to decompose before composition — the
    paper's future-work extension for 8-bit-rich designs like D4 (pass
    ``(8,)`` to split the initial 8-bit MBRs and let the ILP regroup)."""
    run_skew: bool = True
    skew_window: float = 0.05
    run_sizing: bool = True
    sizing_margin: float = 0.0
    cts_max_fanout: int = 16
    congestion_bins: int = 24


@dataclass
class FlowReport:
    """Everything one flow run measured and did."""

    design_name: str
    base: DesignMetrics
    final: DesignMetrics
    composition: CompositionResult
    skew: SkewAssignment | None
    sizing: SizingResult | None
    runtime_seconds: float
    decomposition: DecomposeResult | None = None
    trace: StageTrace | None = None
    session: EcoSession | None = None
    """The live composition session of an ILP run — feed it further
    :class:`~repro.netlist.change.ChangeRecord` s and call
    :meth:`~repro.flow.session.EcoSession.recompose` to continue ECOing the
    flow's output without a from-scratch compose."""

    @property
    def savings(self) -> dict[str, float]:
        """The 'Save' row: relative reductions of every Table 1 column."""
        return compare_metrics(self.base, self.final)


@dataclass
class FlowState(FlowContext):
    """Shared context of one flow run."""

    config: FlowConfig = field(default_factory=FlowConfig)
    base: DesignMetrics | None = None
    final: DesignMetrics | None = None
    composition: CompositionResult | None = None
    skew: SkewAssignment | None = None
    sizing: SizingResult | None = None
    decomposition: DecomposeResult | None = None
    pending_bit_cells: list[str] = field(default_factory=list)
    new_cells: list = field(default_factory=list)
    session: EcoSession | None = None


def _measure(state: FlowState) -> DesignMetrics:
    return collect_metrics(
        state.design,
        state.timer,
        state.scan_model,
        cts_max_fanout=state.config.cts_max_fanout,
        congestion_bins=state.config.congestion_bins,
    )


@stage("base-metrics")
def _stage_base_metrics(state: FlowState):
    """Measure the Table 1 'Base' row."""
    state.base = _measure(state)
    return state.base.as_counters()


@stage("decompose")
def _stage_decompose(state: FlowState):
    """Optionally split pre-existing MBRs before composition."""
    if not state.config.decompose_widths:
        return {"decomposed": 0}
    with state.design.track() as tracker:
        state.decomposition = decompose_registers(
            state.design, state.scan_model, widths=state.config.decompose_widths
        )
        # Deliberately NOT legalized yet: the bit cells sit (overlapping) at
        # their source MBR's location, so recomposition sees perfectly clean
        # adjacent groups and can re-pack them; only the bits that survive
        # composition as singles get legalized below.
        state.pending_bit_cells = [
            n for names in state.decomposition.decomposed.values() for n in names
        ]
        if state.scan_model is not None:
            state.scan_model.restitch(state.design)
    state.timer.apply_change(tracker.record())
    return {"decomposed": len(state.decomposition.decomposed)}


@stage("compose")
def _stage_compose(state: FlowState):
    """Run the composition engine; nest its stage trace under this record."""
    config = state.config
    if config.algorithm == "ilp":
        # The flow runs on a session so the caller can keep ECOing the
        # result (FlowReport.session); passing the configured pass count
        # requests exact compose_design semantics for this priming run.
        state.session = EcoSession(
            state.design, state.timer, state.scan_model, config=config.composer
        )
        state.composition = state.session.recompose(
            passes=config.composer.passes
        ).result
    elif config.algorithm == "heuristic":
        state.composition = compose_design_heuristic(
            state.design, state.timer, state.scan_model, config.composer
        )
    else:
        raise ValueError(f"unknown algorithm {config.algorithm!r}")
    state.new_cells = [
        state.design.cells[g.new_cell]
        for g in state.composition.composed
        if g.new_cell in state.design.cells
    ]
    return StageOutput(
        counters={
            "composed": len(state.composition.composed),
            "register_reduction": state.composition.register_reduction,
        },
        children=state.composition.trace,
    )


@stage("legalize-bits")
def _stage_legalize_bits(state: FlowState):
    """Legalize decomposed bit cells that survived composition as singles."""
    leftover = [
        state.design.cells[n]
        for n in state.pending_bit_cells
        if n in state.design.cells
    ]
    if not leftover:
        return {"legalized": 0}
    from repro.placement.legalize import PlacementRows, legalize

    rows = PlacementRows(
        state.design.die,
        state.design.library.technology.row_height,
        state.design.library.technology.site_width,
    )
    with state.design.track() as tracker:
        legalize(state.design, rows, movable=leftover)
    record = tracker.record()
    if state.session is not None:
        state.session.absorb(record)
    else:
        state.timer.apply_change(record)
    return {"legalized": len(leftover)}


@stage("skew")
def _stage_skew(state: FlowState):
    """Useful skew on the newly composed MBRs."""
    if not (state.config.run_skew and state.new_cells):
        return {"skewed": 0}
    state.skew = assign_useful_skew(
        state.timer, state.new_cells, window=state.config.skew_window
    )
    return {"skewed": len(state.skew.offsets)}


@stage("sizing")
def _stage_sizing(state: FlowState):
    """Downsize drives where the improved slack allows."""
    if not (state.config.run_sizing and state.new_cells):
        return {"swapped": 0}
    if state.session is not None:
        # Sizing applies its own scoped changes to the timer; the session
        # only needs the record to mark the swapped registers dirty.
        with state.design.track() as tracker:
            state.sizing = size_registers(
                state.design,
                state.timer,
                state.new_cells,
                margin=state.config.sizing_margin,
            )
        state.session.observe(tracker.record())
    else:
        state.sizing = size_registers(
            state.design,
            state.timer,
            state.new_cells,
            margin=state.config.sizing_margin,
        )
    return {"swapped": state.sizing.num_swapped}


@stage("final-metrics")
def _stage_final_metrics(state: FlowState):
    """Measure the Table 1 'Ours' row."""
    state.final = _measure(state)
    return state.final.as_counters()


FLOW_PIPELINE: Pipeline[FlowState] = Pipeline(
    (
        _stage_base_metrics,
        _stage_decompose,
        _stage_compose,
        _stage_legalize_bits,
        _stage_skew,
        _stage_sizing,
        _stage_final_metrics,
    )
)


def run_flow(
    design: Design,
    timer: Timer,
    scan_model: ScanModel | None = None,
    config: FlowConfig | None = None,
) -> FlowReport:
    """Run the incremental MBR composition flow on a placed design."""
    config = config or FlowConfig()
    t0 = time.perf_counter()
    state = FlowState(design, timer, scan_model, config=config)
    obs.log("flow.start", design=design.name, algorithm=config.algorithm)
    with obs.span(
        "flow.run", cat="flow", design=design.name, algorithm=config.algorithm
    ) as sp:
        trace = FLOW_PIPELINE.run(state)
        sp.set(
            registers_before=state.base.total_regs if state.base else 0,
            registers_after=state.final.total_regs if state.final else 0,
        )

    state.base.exec_time_s = 0.0
    state.final.exec_time_s = time.perf_counter() - t0
    obs.log(
        "flow.done",
        design=design.name,
        runtime_seconds=round(state.final.exec_time_s, 6),
    )

    return FlowReport(
        design_name=design.name,
        base=state.base,
        final=state.final,
        composition=state.composition,
        skew=state.skew,
        sizing=state.sizing,
        runtime_seconds=state.final.exec_time_s,
        decomposition=state.decomposition,
        trace=trace,
        session=state.session,
    )
