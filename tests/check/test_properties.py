"""Property-based correctness: differential oracles under Hypothesis.

Every fast path in the repo promises bit-identical results to a slow
reference; these properties hammer that promise over generated designs
and edit sequences instead of hand-picked fixtures:

* incremental (dirty-cone) STA == a fresh timer rebuild;
* ``EcoSession.recompose`` == from-scratch ``compose_design``;
* compose then decompose preserves per-bit register connectivity;
* the placement-aware ILP objective is invariant under rigid
  translation of the whole placement.

Example budgets come from the profiles in ``tests/conftest.py``
(``dev`` 6 examples by default, ``HYPOTHESIS_PROFILE=ci`` 30,
derandomized).  Strategies draw plain data (spec fields, ``(kind,
seed)`` edit pairs) so shrunk counterexamples stay small and replayable.
"""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.check import (  # noqa: E402
    assert_clean,
    bit_connectivity_signature,
    compare_session_to_reference,
    diff_timer_vs_fresh,
    scratch_compose,
)
from repro.check.fuzz import EditWorld  # noqa: E402
from repro.check.strategies import (  # noqa: E402
    apply_edit_sequence,
    build_bundle,
    design_specs,
    edit_sequences,
)
from repro.core.candidates import enumerate_candidates  # noqa: E402
from repro.core.compatibility import analyze_registers  # noqa: E402
from repro.core.composer import compose_design  # noqa: E402
from repro.core.decompose import decompose_mbr  # noqa: E402
from repro.core.graph import build_compatibility_graph  # noqa: E402
from repro.core.partition import partition_graph  # noqa: E402
from repro.core.subproblem import make_spec, solve_subproblem  # noqa: E402
from repro.core.weights import RegisterField  # noqa: E402
from repro.flow.session import EcoSession  # noqa: E402
from repro.geometry import Point, Rect  # noqa: E402
from repro.geometry.region import FeasibleRegion  # noqa: E402


def _session_world(spec) -> EditWorld:
    """A primed EcoSession over a generated bundle, ready for edits."""
    bundle = build_bundle(spec)
    session = EcoSession(bundle.design, bundle.timer, bundle.scan_model)
    session.recompose()
    return EditWorld(session)


@given(spec=design_specs(), edits=edit_sequences(max_size=6))
def test_incremental_sta_matches_fresh_rebuild(spec, edits):
    """Dirty-cone retiming after arbitrary edits == cold full rebuild."""
    world = _session_world(spec)
    apply_edit_sequence(world, edits)
    assert_clean(diff_timer_vs_fresh(world.timer))


@given(spec=design_specs(), edits=edit_sequences(max_size=6))
def test_eco_recompose_matches_scratch_compose(spec, edits):
    """Incremental recompose lands exactly where a from-scratch run does."""
    world = _session_world(spec)
    apply_edit_sequence(world, edits)
    ref_result, ref_design, ref_timer = scratch_compose(world.session)
    stats = world.session.recompose()
    assert_clean(
        compare_session_to_reference(
            world.session, stats.result, ref_result, ref_design, ref_timer
        )
    )


@given(spec=design_specs())
def test_compose_decompose_round_trip(spec):
    """Composing and then decomposing preserves every bit's connectivity.

    The signature is cell-name-free (d/q/clock/control *net* names per
    connected bit, scan excluded), so it survives both directions: merge
    into MBRs, then split every multi-bit register back out.
    """
    bundle = build_bundle(spec)
    design = bundle.design
    sig0 = bit_connectivity_signature(design)
    compose_design(design, bundle.timer, bundle.scan_model)
    assert bit_connectivity_signature(design) == sig0
    wide = [
        c
        for c in design.registers()
        if c.register_cell.width_bits > 1 and not (c.dont_touch or c.fixed)
    ]
    for cell in wide:
        decompose_mbr(design, cell, bundle.scan_model)
    assert bit_connectivity_signature(design) == sig0


def _translate_world(design, infos, dx: float, dy: float) -> None:
    """Rigidly shift the placement and the cached analysis geometry."""
    design.die = Rect(
        design.die.xlo + dx,
        design.die.ylo + dy,
        design.die.xhi + dx,
        design.die.yhi + dy,
    )
    for cell in design.cells.values():
        cell.move_to(Point(cell.origin.x + dx, cell.origin.y + dy))
    for port in design.ports.values():
        port.location = Point(port.location.x + dx, port.location.y + dy)
    for info in infos.values():
        info.center_xy = (info.center_xy[0] + dx, info.center_xy[1] + dy)
        r = info.region.rect
        info.region = FeasibleRegion(
            Rect(r.xlo + dx, r.ylo + dy, r.xhi + dx, r.yhi + dy),
            pinned=info.region.pinned,
        )


@given(
    spec=design_specs(),
    # Even offsets: the serpentine window order rounds center-y to a row
    # index, and banker's rounding of half-integer centers only commutes
    # with translation for even shifts.
    dx=st.integers(min_value=1, max_value=15).map(lambda k: 2.0 * k),
    dy=st.integers(min_value=0, max_value=15).map(lambda k: 2.0 * k),
)
def test_ilp_objective_translation_invariant(spec, dx, dy):
    """The placement-aware ILP objective only sees *relative* geometry.

    Candidate weights (test-polygon blockers), candidate sets, and the
    per-subgraph ILP solutions must be identical after rigidly shifting
    the entire placement — the analysis (slacks, graph, partitions) is
    computed once and its geometry shifted, isolating the objective layer
    from last-ulp float noise in recomputed wire delays.
    """
    bundle = build_bundle(spec)
    design, scan = bundle.design, bundle.scan_model
    infos = analyze_registers(design, bundle.timer, scan)
    graph = build_compatibility_graph(infos, scan)
    parts = partition_graph(graph)
    field = RegisterField(list(infos.values()))

    before = []
    for i, part in enumerate(parts):
        cands = enumerate_candidates(part, field, design.library, scan)
        result = solve_subproblem(make_spec(i, list(part.nodes), cands))
        before.append((cands, result))

    _translate_world(design, infos, dx, dy)
    shifted_field = RegisterField(list(infos.values()))

    for i, part in enumerate(parts):
        cands, result = before[i]
        shifted = enumerate_candidates(part, shifted_field, design.library, scan)
        assert [(c.members, c.bits, c.weight, c.blockers) for c in shifted] == [
            (c.members, c.bits, c.weight, c.blockers) for c in cands
        ]
        again = solve_subproblem(make_spec(i, list(part.nodes), shifted))
        assert again.chosen == result.chosen
        assert again.objective == result.objective
