"""Composable-only analysis against the analyze-everything reference.

D1 with every register outside one die corner frozen (``dont_touch``),
and every third one inside it, so that frozen registers also block
candidates: the composer analyzes only the corner's composable registers
and builds its blocker field from the netlist store, and both must see
exactly what the full analysis sees.
"""

import networkx as nx
import numpy as np
import pytest

from repro.bench import generate_design, preset
from repro.core.candidates import enumerate_candidates
from repro.core.compatibility import (
    analyze_composable_registers,
    analyze_registers,
    info_signature,
)
from repro.core.composer import component_digest
from repro.core.graph import build_compatibility_graph
from repro.core.partition import partition_graph
from repro.core.weights import RegisterField
from repro.metrics import collect_metrics


@pytest.fixture(scope="module")
def corner(lib):
    bundle = generate_design(preset("D1", scale=0.12), lib)
    design = bundle.design
    die = design.die
    xhi = die.xlo + 0.5 * die.width
    yhi = die.ylo + 0.5 * die.height
    for k, cell in enumerate(sorted(design.registers(), key=lambda c: c.name)):
        if cell.origin.x > xhi or cell.origin.y > yhi or k % 3 == 0:
            cell.dont_touch = True
    everything = analyze_registers(design, bundle.timer, bundle.scan_model)
    composable = analyze_composable_registers(design, bundle.timer)
    return bundle, everything, composable


def _field_points(field: RegisterField) -> dict[str, tuple[float, ...]]:
    return {
        name: (
            field.xs[j],
            field.ys[j],
            field._fxlo[j],
            field._fylo[j],
            field._fxhi[j],
            field._fyhi[j],
        )
        for j, name in enumerate(field.names)
    }


def test_window_is_a_minority(corner):
    _, everything, composable = corner
    frozen = [i for i in everything.values() if i.reason.endswith("(dont_touch)")]
    assert composable and len(frozen) > len(composable)


def test_composable_analysis_equals_the_filtered_full_one(corner):
    _, everything, composable = corner
    expected = {n: i for n, i in everything.items() if i.composable}
    assert list(composable) == list(expected)
    for name, info in composable.items():
        assert info_signature(info) == info_signature(expected[name])


def test_store_field_holds_the_analyzed_points(corner):
    bundle, everything, composable = corner
    reference = RegisterField(list(everything.values()))
    store = RegisterField.from_design(bundle.design, composable)
    assert store.names == reference.names
    assert _field_points(store) == _field_points(reference)
    for arr in ("xs", "ys", "_fxlo", "_fylo", "_fxhi", "_fyhi"):
        assert np.array_equal(getattr(store, arr), getattr(reference, arr))


def test_blockers_and_digests_agree_for_every_candidate(corner):
    bundle, everything, composable = corner
    design, scan = bundle.design, bundle.scan_model
    reference = RegisterField(list(everything.values()))
    store = RegisterField.from_design(design, composable)
    graph = build_compatibility_graph(composable, scan)
    multi = frozen_blockers = 0
    for part in partition_graph(graph):
        cands = enumerate_candidates(part, store, design.library, scan)
        ref_cands = enumerate_candidates(part, reference, design.library, scan)
        assert [(c.members, c.bits, c.weight, c.blockers) for c in cands] == [
            (c.members, c.bits, c.weight, c.blockers) for c in ref_cands
        ]
        for cand in cands:
            if len(cand.members) < 2:
                continue
            multi += 1
            blockers = store.blockers([composable[m] for m in cand.members])
            assert blockers == reference.blockers(
                [everything[m] for m in cand.members]
            )
            frozen_blockers += sum(name not in composable for name in blockers)
    assert multi and frozen_blockers
    for component in nx.connected_components(graph):
        nodes = sorted(component)
        assert component_digest(nodes, graph, composable, store, scan) == (
            component_digest(nodes, graph, everything, reference, scan)
        )


def test_collect_metrics_counts_the_composable_registers(corner):
    bundle, everything, composable = corner
    metrics = collect_metrics(bundle.design, bundle.timer, bundle.scan_model)
    assert metrics.comp_regs == sum(i.composable for i in everything.values())
    assert metrics.comp_regs == len(composable)
