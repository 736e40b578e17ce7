"""Column-based group validation equals the view-based reference.

Candidate enumeration validates every sub-clique with ``_check_group``,
which reads one flat tuple per register.  ``_validate_group`` keeps the
same filters written over :class:`RegisterInfo` views and the mapping and
region helpers; for every group the two must return the same names, bits,
mapping and region, spelled exactly.

Coordinates sit on a 0.2 um site / 1.0 um row grid behind a non-dyadic
offset, so coordinate differences round; the spread cap is drawn from the
groups' own untranslated spreads, so some groups sit exactly on it.
"""

from __future__ import annotations

import itertools
import math

from hypothesis import given, settings, strategies as st

from repro.core.candidates import (
    CandidateConfig,
    _check_group,
    _MappingMemo,
    _register_columns,
    _validate_group,
)
from repro.core.compatibility import RegisterInfo
from repro.geometry import Rect
from repro.geometry.region import FeasibleRegion
from repro.library import default_library
from repro.library.default_lib import DefaultLibraryParams
from repro.library.functional import DFF_R, DFF_R_S
from repro.scan.model import ScanChain, ScanModel

LIB = default_library()
# Per-bit area grows with width here, so incomplete MBRs fail the
# area-per-bit rule instead of passing it.
WIDE_COSTLY = default_library(DefaultLibraryParams(area_sharing=-0.1))
SITE, ROW = 0.2, 1.0
OFFSETS = st.sampled_from([0.0, 0.1, 37.3, 1234.567, 98765.4321])


class _FakeCell:
    """Just enough of a Cell for both validation paths."""

    def __init__(self, name, libcell):
        self.name = name
        self.libcell = libcell
        self.register_cell = libcell


@st.composite
def scenarios(draw):
    lib = draw(st.sampled_from([LIB, WIDE_COSTLY]))
    func_class = draw(st.sampled_from([DFF_R, DFF_R_S]))
    cells = [c for w in (1, 2, 4) for c in lib.register_cells(func_class, w)]
    ox, oy = draw(OFFSETS), draw(OFFSETS)
    n = draw(st.integers(2, 7))
    infos: dict[str, RegisterInfo] = {}
    grid: dict[str, tuple[int, int]] = {}
    for i in range(n):
        name = f"r{i}"
        libcell = draw(st.sampled_from(cells))
        col, row = draw(st.integers(0, 60)), draw(st.integers(0, 5))
        grid[name] = (col, row)
        x, y = ox + col * SITE, oy + row * ROW
        if draw(st.integers(0, 3)) == 0:  # pinned: the footprint itself
            region = FeasibleRegion(
                Rect(x, y, x + libcell.width, y + libcell.height), pinned=True
            )
        else:
            lo_x, hi_x = draw(st.integers(0, 40)), draw(st.integers(0, 40))
            lo_y, hi_y = draw(st.integers(0, 4)), draw(st.integers(0, 4))
            region = FeasibleRegion(
                Rect(x - lo_x * SITE, y - lo_y * ROW, x + hi_x * SITE, y + hi_y * ROW)
            )
        infos[name] = RegisterInfo(
            cell=_FakeCell(name, libcell),
            func_class=func_class,
            bits=libcell.width_bits,
            composable=True,
            reason="",
            region=region,
            center_xy=(x + libcell.width / 2.0, y + libcell.height / 2.0),
        )

    scan = None
    if draw(st.booleans()):
        # Two ordered chains and an unordered one; some registers on none.
        scan = ScanModel()
        lanes = {name: draw(st.sampled_from(["o1", "o2", "u", None])) for name in infos}
        for chain, ordered in (("o1", True), ("o2", True), ("u", False)):
            on = [name for name, lane in lanes.items() if lane == chain]
            order = draw(st.permutations(on))
            scan.add_chain(
                ScanChain(name=chain, partition="P0", cells=list(order), ordered=ordered)
            )

    # Spread caps: the default, or one group's own spread on the grid
    # before translation (the translated spread may round either side).
    sample = draw(st.lists(st.sampled_from(sorted(infos)), min_size=2, max_size=n, unique=True))
    cols = [grid[s][0] for s in sample]
    rows = [grid[s][1] for s in sample]
    exact = (max(cols) - min(cols)) * SITE + (max(rows) - min(rows)) * ROW
    config = CandidateConfig(
        allow_incomplete=draw(st.booleans()),
        max_incomplete_area_overhead=draw(st.sampled_from([0.05, 0.3, math.inf])),
        max_group_spread=draw(st.sampled_from([18.0, exact, 4.0])),
    )
    return lib, infos, scan, config


def _spelled(group):
    if group is None:
        return None
    names, members, bits, choice, region = group
    r = region.rect
    return (
        names,
        [m.name for m in members],
        bits,
        choice,
        tuple(float(v).hex() for v in (r.xlo, r.ylo, r.xhi, r.yhi)),
        region.pinned,
    )


class TestColumnCheckMatchesReference:
    @settings(max_examples=80, deadline=None)
    @given(scenarios())
    def test_every_group_matches(self, data):
        lib, infos, scan, config = data
        memo = _MappingMemo(lib)
        columns = _register_columns(infos, scan, memo)
        names = sorted(infos)
        for k in range(2, len(names) + 1):
            for group in itertools.combinations(names, k):
                got = _check_group(group, [columns[n] for n in group], memo, config)
                want = _validate_group([infos[n] for n in group], lib, scan, config)
                assert _spelled(got) == _spelled(want), group

    def test_ordered_chain_span_picks_the_scan_style(self):
        # r0, r1 consecutive on an ordered chain: internal scan allowed.
        # r0, r2 skip r1: only a multi-SI/SO cell keeps the order.
        libcell = LIB.register_cells(DFF_R_S, 1)[0]
        infos = {}
        for i in range(3):
            infos[f"r{i}"] = RegisterInfo(
                cell=_FakeCell(f"r{i}", libcell),
                func_class=DFF_R_S,
                bits=1,
                composable=True,
                reason="",
                region=FeasibleRegion(Rect(0.0, 0.0, 10.0, 10.0)),
                center_xy=(2.0 * i + 1.0, 0.5),
            )
        scan = ScanModel()
        scan.add_chain(
            ScanChain(name="o", partition="P0", cells=["r0", "r1", "r2"], ordered=True)
        )
        memo = _MappingMemo(LIB)
        columns = _register_columns(infos, scan, memo)
        config = CandidateConfig()
        styles = {}
        for group in (("r0", "r1"), ("r0", "r2")):
            got = _check_group(group, [columns[n] for n in group], memo, config)
            assert _spelled(got) == _spelled(
                _validate_group([infos[n] for n in group], LIB, scan, config)
            )
            styles[group] = got[3].cell.scan_style.name
        assert styles == {("r0", "r1"): "INTERNAL", ("r0", "r2"): "MULTI"}
