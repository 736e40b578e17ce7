"""Equivalence: batched blocker counting vs the scalar field path."""

from hypothesis import given, settings, strategies as st

from repro.core.compatibility import RegisterInfo
from repro.core.weights import (
    RegisterField,
    blocking_registers,
    candidate_weight,
    candidate_weights_batch,
)
from repro.geometry import Rect
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

# Placement-grid coordinates: 0.2 um sites, 1.0 um rows, behind an offset
# that no binary fraction spells exactly, so hull cross products round.
SITE, ROW = 0.2, 1.0
OFFSETS = st.sampled_from([0.0, 0.1, 37.3, 1234.567])
WIDTHS = st.sampled_from([2.0, 2.3, 3.56, 6.68, 12.92])


@st.composite
def group_batches(draw):
    """A field of registers plus several multi-member candidate groups."""
    n = draw(st.integers(4, 14))
    infos = [_info(f"r{i}", draw(coords), draw(coords)) for i in range(n)]
    return infos, draw(_groups(infos))


@st.composite
def site_grid_batches(draw):
    """Registers of mixed widths on a few rows of a site grid; most
    groups span several rows, so their test polygons are true hulls."""
    ox, oy = draw(OFFSETS), draw(OFFSETS)
    n = draw(st.integers(4, 16))
    infos = [
        _info(
            f"r{i}",
            ox + draw(st.integers(0, 60)) * SITE,
            oy + draw(st.integers(0, 4)) * ROW,
            w=draw(WIDTHS),
        )
        for i in range(n)
    ]
    return infos, draw(_groups(infos))


@st.composite
def _groups(draw, infos):
    n = len(infos)
    n_groups = draw(st.integers(1, 6))
    groups = []
    for _ in range(n_groups):
        k = draw(st.integers(2, min(5, n)))
        idx = draw(
            st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True)
        )
        groups.append([infos[i] for i in idx])
    return groups


class TestBlockersCountBatch:
    @settings(max_examples=60, deadline=None)
    @given(group_batches())
    def test_counts_match_scalar_blockers(self, data):
        infos, groups = data
        field = RegisterField(infos)
        bits = [sum(m.bits for m in g) for g in groups]
        batch = field.blockers_count_batch(groups, bits)
        for count, members, cap in zip(batch, groups, bits):
            assert count == min(len(field.blockers(members)), cap)

    @settings(max_examples=60, deadline=None)
    @given(group_batches())
    def test_weights_match_saturating_candidate_weight(self, data):
        infos, groups = data
        field = RegisterField(infos)
        bits = [sum(m.bits for m in g) for g in groups]
        batch = candidate_weights_batch(field, groups, bits)
        for pair, members in zip(batch, groups):
            assert pair == candidate_weight(members, field, saturate=True)

    @settings(max_examples=80, deadline=None)
    @given(site_grid_batches(), st.sampled_from([None, 64]))
    def test_site_grid_counts_match_scalar_blockers(self, data, cap):
        # The batch hulls only band-extreme corners; the scalar path and
        # the list reference hull every corner.
        infos, groups = data
        field = RegisterField(infos)
        caps = [cap or sum(m.bits for m in g) for g in groups]
        batch = field.blockers_count_batch(groups, caps)
        for count, members, c in zip(batch, groups, caps):
            assert count == min(len(field.blockers(members)), c)
            assert count == min(len(blocking_registers(members, infos)), c)

    def test_foreign_members_fall_back_to_scalar_path(self):
        infos = [_info(f"r{i}", 4.0 * i, 10.0) for i in range(8)]
        field = RegisterField(infos)
        # A member the field has never indexed: batch must still answer,
        # through the per-candidate scalar path.
        alien = _info("alien", 9.0, 10.0)
        alien.field_index = None
        groups = [[infos[0], alien, infos[5]], [infos[1], infos[6]]]
        bits = [sum(m.bits for m in g) for g in groups]
        batch = field.blockers_count_batch(groups, bits)
        for count, members, cap in zip(batch, groups, bits):
            assert count == min(len(field.blockers(members)), cap)

    def test_empty_batch(self):
        infos = [_info(f"r{i}", 4.0 * i, 10.0) for i in range(4)]
        field = RegisterField(infos)
        assert field.blockers_count_batch([], []) == []

    def test_collinear_single_row_groups(self):
        # All members on one placement row: the batch path must take the
        # same rectangle shortcut the scalar path does.
        infos = [_info(f"r{i}", 3.0 * i, 20.0) for i in range(10)]
        field = RegisterField(infos)
        groups = [[infos[0], infos[4]], [infos[2], infos[9]], [infos[1], infos[3]]]
        bits = [8, 8, 8]  # caps high enough to never saturate
        batch = field.blockers_count_batch(groups, bits)
        for count, members in zip(batch, groups):
            assert count == len(field.blockers(members))
