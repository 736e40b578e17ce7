"""Equivalence tests: vectorized RegisterField vs reference blocking path."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.compatibility import RegisterInfo
from repro.core.weights import RegisterField, blocking_registers, candidate_weight
from repro.geometry import Point, Rect
from repro.library.functional import DFF_R


class _FakeCell:
    """Just enough of a Cell for the weighting code paths."""

    def __init__(self, name, x, y, w=2.0, h=1.0):
        self.name = name
        self._rect = Rect(x, y, x + w, y + h)

    @property
    def footprint(self):
        return self._rect


def _info(name, x, y, w=2.0, bits=1):
    cell = _FakeCell(name, x, y, w)
    center = cell.footprint.center
    return RegisterInfo(
        cell=cell,
        func_class=DFF_R,
        bits=bits,
        composable=True,
        reason="",
        center_xy=(center.x, center.y),
    )


coords = st.integers(min_value=0, max_value=40).map(float)


@st.composite
def register_sets(draw):
    n = draw(st.integers(4, 16))
    infos = [
        _info(f"r{i}", draw(coords), draw(coords)) for i in range(n)
    ]
    k = draw(st.integers(2, min(5, n)))
    member_idx = draw(
        st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True)
    )
    return infos, [infos[i] for i in member_idx]


class TestFieldEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(register_sets())
    def test_field_matches_reference(self, data):
        infos, members = data
        field = RegisterField(infos)
        ref = set(blocking_registers(members, infos))
        fast = set(blocking_registers(members, field))
        assert fast == ref

    @settings(max_examples=40, deadline=None)
    @given(register_sets())
    def test_weight_identical_via_field(self, data):
        infos, members = data
        field = RegisterField(infos)
        w_ref, n_ref = candidate_weight(members, infos)
        w_fast, n_fast = candidate_weight(members, field)
        assert n_fast == n_ref
        assert w_fast == pytest.approx(w_ref)

    def test_members_never_block_themselves(self):
        infos = [_info(f"r{i}", 4.0 * i, 0.0) for i in range(4)]
        field = RegisterField(infos)
        assert blocking_registers(infos, field) == []

    def test_known_blocking_configuration(self):
        # Register m sits dead-center between the four corner members.
        corners = [_info("a", 0, 0), _info("b", 10, 0), _info("c", 10, 10), _info("d", 0, 10)]
        mid = _info("m", 5, 5)
        field = RegisterField(corners + [mid])
        assert blocking_registers(corners, field) == ["m"]

    def test_empty_field(self):
        field = RegisterField([])
        assert field.blockers([_info("a", 0, 0)]) == []


class TestWindowEnumeration:
    def test_windows_cover_adjacent_runs(self):
        from repro.core.candidates import _window_subcliques

        members = [_info(f"r{i}", 2.0 * i, 0.0, bits=1) for i in range(16)]
        bits_of = {m.name: 1 for m in members}
        subs = _window_subcliques(members, bits_of, {2, 4, 8}, 8, allow_incomplete=False)
        as_sets = {tuple(sorted(s, key=lambda n: int(n[1:]))) for s in subs}
        # Every adjacent pair, quad, and oct appears.
        assert ("r0", "r1") in as_sets
        assert tuple(f"r{i}" for i in range(4)) in as_sets
        assert tuple(f"r{i}" for i in range(8)) in as_sets
        # Non-contiguous groups do not (they would be blocked anyway).
        assert ("r0", "r2") not in as_sets

    def test_windows_respect_bit_sums(self):
        from repro.core.candidates import _window_subcliques

        members = [_info(f"r{i}", 2.0 * i, 0.0, bits=2) for i in range(6)]
        bits_of = {m.name: 2 for m in members}
        subs = _window_subcliques(members, bits_of, {2, 4, 8}, 8, allow_incomplete=False)
        sums = {sum(bits_of[n] for n in s) for s in subs}
        assert sums <= {4, 8}  # 6-bit windows have no exact cell

    def test_windows_incomplete_allowed(self):
        from repro.core.candidates import _window_subcliques

        members = [_info(f"r{i}", 2.0 * i, 0.0, bits=2) for i in range(4)]
        bits_of = {m.name: 2 for m in members}
        subs = _window_subcliques(members, bits_of, {2, 4, 8}, 8, allow_incomplete=True)
        sums = {sum(bits_of[n] for n in s) for s in subs}
        assert 6 in sums  # 6 bits -> incomplete 8

    def test_large_clique_candidates_stay_quadratic(self, lib):
        from repro.core.candidates import CandidateConfig, enumerate_candidates
        from repro.core.compatibility import analyze_registers
        from repro.core.graph import build_compatibility_graph
        from repro.sta import Timer

        from tests.conftest import make_flop_row
        from repro.geometry import Rect

        d = make_flop_row(lib, n_flops=26, spacing=2.0, die=Rect(0, 0, 200, 100), name="big")
        timer = Timer(d, clock_period=10.0)
        infos = analyze_registers(d, timer)
        graph = build_compatibility_graph(infos)
        cands = enumerate_candidates(graph, list(infos.values()), lib)
        # 26 singletons + O(k^2) windows, far below the subset explosion.
        assert len(cands) < 26 + 26 * 26
