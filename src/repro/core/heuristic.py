"""The heuristic baseline of Fig. 6: agglomerative pairwise merging.

Section 5 compares the ILP against "a heuristic-algorithm-based approach,
similar to that performed in [8] and [12]".  Those mergers work bottom-up:
repeatedly merge two compatible registers whose combined width exists in
the library (1+1 -> 2, 2+2 -> 4, ... ), nearest pairs first, until no merge
applies.  The baseline shares this reproduction's entire analysis stack —
compatibility predicates, mapping, wire-length-optimal placement,
legalization, scan tracking — and runs the *same stage pipeline* as the
ILP engine (analyze → graph → solve → apply, then scan → legalize); it
differs *only* in the solve stage:

* local pairwise agglomeration instead of the global set-partitioning ILP;
* no placement-aware weights (pairs merge blindly with respect to
  intervening registers);
* no incomplete MBRs and no odd-width packing (a 5-bit group cannot become
  4+1 in one step the way the ILP's clique candidates can).

The fragmentation this causes — stranded odd registers at each level — is
precisely the ~12% register-count gap Fig. 6 attributes to the ILP.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.composer import (
    FINALIZE_PIPELINE,
    ComposedGroup,
    ComposerConfig,
    ComposeState,
    CompositionResult,
    _bit_map,
    _bit_order,
    _placement_window,
    _stage_analyze,
    _stage_graph,
)
from repro.core.mapping import MappingChoice, select_library_cell
from repro.core.mbr_placement import place_mbr
from repro.engine import Pipeline, StageTrace, stage
from repro.geometry.region import FeasibleRegion
from repro.library.functional import ScanStyle
from repro.netlist.design import Design
from repro.netlist.edit import ComposeError, compose_mbr
from repro.scan.model import ScanModel
from repro.sta.timer import Timer


@dataclass(frozen=True)
class _PlannedMerge:
    """One pair the greedy matcher decided to merge this round."""

    u: str
    v: str
    width: int
    choice: MappingChoice
    region: FeasibleRegion


@dataclass
class HeuristicState(ComposeState):
    """The heuristic's pipeline context: ComposeState plus planned pairs."""

    planned: list[_PlannedMerge] = field(default_factory=list)


def _match_pairs(graph) -> list[tuple[str, str]]:
    """Greedy nearest-first matching over compatibility edges."""
    edges = []
    for u, v in graph.edges:
        cu = graph.nodes[u]["info"].center
        cv = graph.nodes[v]["info"].center
        edges.append((cu.manhattan_to(cv), min(u, v), max(u, v)))
    edges.sort()
    matched: set[str] = set()
    pairs: list[tuple[str, str]] = []
    for _, u, v in edges:
        if u in matched or v in matched:
            continue
        matched.add(u)
        matched.add(v)
        pairs.append((u, v))
    return pairs


@stage("solve")
def _stage_match(state: HeuristicState):
    """The baseline's allocation: greedy nearest-pair matching (no ILP)."""
    state.result.subgraphs = max(state.result.subgraphs, 1)
    design, infos = state.design, state.infos
    planned: list[_PlannedMerge] = []
    for u, v in _match_pairs(state.graph):
        a, b = infos[u], infos[v]
        width = a.bits + b.bits
        if width not in design.library.widths_for(a.func_class):
            continue
        common = a.region.intersect(b.region)
        if common is None:
            continue
        choice = select_library_cell(design.library, [a, b], width, state.scan_model)
        if choice is None:
            continue
        if choice.cell.scan_style is ScanStyle.MULTI:
            # Same mapping policy as the ILP flow (Section 4.1):
            # external-scan cells only when unavoidable — a pairwise
            # merger simply skips such pairs.
            continue
        state.result.candidates_considered += 1
        planned.append(_PlannedMerge(u, v, width, choice, common))
    state.planned = planned
    return {"pairs": len(planned)}


@stage("apply")
def _stage_merge(state: HeuristicState):
    """Place and commit every planned pair merge (mutates the design)."""
    design, infos, scan_model = state.design, state.infos, state.scan_model
    merged = []
    with design.track() as tracker:
        for plan in state.planned:
            a, b = infos[plan.u], infos[plan.v]
            bit_order = _bit_order([a, b], scan_model)
            window = _placement_window(design, plan.region.rect, plan.choice.cell)
            origin = place_mbr(window, plan.choice.cell, bit_order)
            try:
                new_cell = compose_mbr(
                    design,
                    [a.cell, b.cell],
                    plan.choice.cell,
                    origin,
                    bit_order=bit_order,
                ).new_cell
            except ComposeError as exc:
                state.result.rejected.append(((plan.u, plan.v), str(exc)))
                continue
            if scan_model is not None:
                scan_model.replace_group(
                    [plan.u, plan.v], new_cell.name, bit_map=_bit_map(bit_order)
                )
            merged.append(new_cell)
            state.result.composed.append(
                ComposedGroup(
                    new_cell=new_cell.name,
                    libcell=plan.choice.cell.name,
                    members=(plan.u, plan.v),
                    bits=plan.width,
                    weight=0.0,
                    incomplete=False,
                )
            )
    state.new_cells.extend(merged)
    state.pass_cells = merged
    state.timer.apply_change(tracker.record())
    return {"composed": len(merged)}


ROUND_PIPELINE: Pipeline[HeuristicState] = Pipeline(
    (_stage_analyze, _stage_graph, _stage_match, _stage_merge)
)


def compose_design_heuristic(
    design: Design,
    timer: Timer,
    scan_model: ScanModel | None = None,
    config: ComposerConfig | None = None,
    max_rounds: int = 8,
) -> CompositionResult:
    """Run the agglomerative baseline (same signature as
    :func:`repro.core.composer.compose_design`).

    Each round re-analyzes compatibility (merged registers have new
    positions and slacks), matches nearest compatible pairs whose width sum
    is an available library width, and applies the merges.  Rounds repeat
    until a fixed point (at most ``max_rounds``).
    """
    config = config or ComposerConfig()
    t0 = time.perf_counter()
    result = CompositionResult(registers_before=design.total_register_count())
    trace = StageTrace()
    state = HeuristicState(design, timer, scan_model, config=config, result=result)

    for round_index in range(max_rounds):
        state.pass_index = round_index
        ROUND_PIPELINE.run(state, trace)
        if not state.pass_cells:
            break

    FINALIZE_PIPELINE.run(state, trace)

    result.registers_after = design.total_register_count()
    result.runtime_seconds = time.perf_counter() - t0
    result.trace = trace
    return result
