"""Change-record replay: a merged edit history patches a TimingGraph to
the exact state a from-scratch build produces.

``Design.track`` scopes nest — every active tracker sees every event — so
an outer scope around a decompose → compose → legalize sequence captures
one merged :class:`~repro.netlist.change.ChangeRecord` equivalent to the
concatenation of the inner scopes' records.  Replaying either onto a
timing graph snapshotted *before* the edits must reproduce, arc for arc
and seed for seed, the graph built fresh from the edited netlist — the
invariant ``Timer.apply_change`` and :class:`~repro.flow.session.EcoSession`
lean on.
"""

from __future__ import annotations

from repro.bench import generate_design, preset
from repro.core.composer import compose_design
from repro.core.decompose import decompose_registers
from repro.netlist.change import ChangeRecord
from repro.placement.legalize import PlacementRows, legalize
from repro.sta.graph import TimingGraph


def _key(graph: TimingGraph, tid: int) -> str:
    """A stable identity for a graph node: its name, read from the store."""
    return graph.design.store.terminal_name(tid)


def _arcs(graph: TimingGraph):
    src, dst, delay = graph.src, graph.dst, graph.delay
    return sorted(
        (_key(graph, src[row]), _key(graph, dst[row]), delay[row])
        for row, alive in enumerate(graph.alive)
        if alive
    )


def _seeds(graph: TimingGraph):
    cell_name = graph.design.store.cell_name
    return {
        "launch": {
            (cell_name[c], _key(graph, t)) for t, c in graph.launch_by_id.items()
        },
        "capture": {
            (cell_name[c], _key(graph, t)) for t, c in graph.capture_by_id.items()
        },
        "launch_delay": sorted(
            (_key(graph, t), d) for t, d in graph.launch_delay.items()
        ),
        "inputs": {_key(graph, t) for t in graph.input_ports},
        "outputs": {_key(graph, t) for t in graph.output_ports},
    }


def test_nested_scopes_replay_to_identical_timing_graph(lib):
    bundle = generate_design(preset("D1", scale=0.15), lib)
    design, timer, scan = bundle.design, bundle.timer, bundle.scan_model

    # Two pre-edit snapshots: one replays the outer scope's record, the
    # other the merge of the inner scopes' records.
    snap_outer = TimingGraph(design)
    snap_merged = TimingGraph(design)

    inner: list[ChangeRecord] = []
    with design.track() as outer:
        # 1. Decompose the pre-existing 4-bit MBRs (bits land unlegalized
        #    on their source MBR, exactly as the flow driver stages it).
        with design.track() as t_decompose:
            decomposition = decompose_registers(design, scan, widths=(4,))
            scan.restitch(design)
        inner.append(t_decompose.record())
        timer.apply_change(inner[-1])

        # 2. Recompose — the composer tracks and applies its own scoped
        #    changes to the timer; the outer tracker still sees them all.
        with design.track() as t_compose:
            compose_design(design, timer, scan)
        inner.append(t_compose.record())

        # 3. Legalize the decomposed bits that survived as singles.
        leftover = [
            design.cells[n]
            for names in decomposition.decomposed.values()
            for n in names
            if n in design.cells
        ]
        tech = design.library.technology
        rows = PlacementRows(design.die, tech.row_height, tech.site_width)
        with design.track() as t_legalize:
            legalize(design, rows, movable=leftover)
        inner.append(t_legalize.record())

    assert decomposition.decomposed, "D1 must offer 4-bit MBRs to split"
    merged_outer = outer.record()
    merged_inner = ChangeRecord.merge(inner)
    assert not merged_outer.is_empty

    snap_outer.apply_change(merged_outer)
    snap_merged.apply_change(merged_inner)
    fresh = TimingGraph(design)

    assert _arcs(snap_outer) == _arcs(fresh)
    assert _arcs(snap_merged) == _arcs(fresh)
    assert _seeds(snap_outer) == _seeds(fresh)
    assert _seeds(snap_merged) == _seeds(fresh)


def test_outer_scope_equals_merge_of_inner_scopes(lib):
    """The outer tracker's record and the inner merge agree on content."""
    bundle = generate_design(preset("D1", scale=0.1), lib)
    design, scan = bundle.design, bundle.scan_model

    inner: list[ChangeRecord] = []
    with design.track() as outer:
        with design.track() as t1:
            decomposition = decompose_registers(design, scan, widths=(4,))
        inner.append(t1.record())
        with design.track() as t2:
            scan.restitch(design)
        inner.append(t2.record())

    assert decomposition.decomposed
    a, b = outer.record(), ChangeRecord.merge(inner)
    assert set(a.cells_added) == set(b.cells_added)
    assert set(a.removed) == set(b.removed)
    assert set(a.moved) == set(b.moved)
    assert set(a.touched) == set(b.touched)
    assert set(a.rewired_nets) == set(b.rewired_nets)
