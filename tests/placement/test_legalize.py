"""Tests for the Tetris legalizer."""

import pytest

from repro.geometry import Point, Rect
from repro.library.functional import DFF_R
from repro.netlist import Design
from repro.placement import PlacementRows, legalize


@pytest.fixture
def rows() -> PlacementRows:
    return PlacementRows(Rect(0, 0, 50, 20), row_height=1.0, site_width=0.2)


def _no_overlaps(design: Design) -> bool:
    cells = list(design.cells.values())
    for i, a in enumerate(cells):
        for b in cells[i + 1 :]:
            inter = a.footprint.intersect(b.footprint)
            if inter is not None and inter.area > 1e-9:
                return False
    return True


def _on_grid(design: Design, rows: PlacementRows) -> bool:
    for c in design.cells.values():
        snapped = rows.snap(c.origin)
        if abs(snapped.x - c.origin.x) > 1e-9 or abs(snapped.y - c.origin.y) > 1e-9:
            return False
    return True


class TestLegalize:
    def test_already_legal_design_unchanged(self, lib, rows):
        d = Design("t", lib, Rect(0, 0, 50, 20))
        d.add_cell("a", "BUF_X1", Point(1.0, 5.0))
        d.add_cell("b", "BUF_X1", Point(10.0, 5.0))
        res = legalize(d, rows)
        assert res.ok
        assert res.num_moved == 0

    def test_overlapping_cells_separated(self, lib, rows):
        d = Design("t", lib, Rect(0, 0, 50, 20))
        for i in range(5):
            d.add_cell(f"c{i}", "BUF_X2", Point(10.0, 5.0))  # all stacked
        res = legalize(d, rows)
        assert res.ok
        assert _no_overlaps(d)
        assert _on_grid(d, rows)

    def test_off_grid_cells_snapped(self, lib, rows):
        d = Design("t", lib, Rect(0, 0, 50, 20))
        d.add_cell("a", "BUF_X1", Point(3.37, 5.49))
        res = legalize(d, rows)
        assert res.ok
        assert _on_grid(d, rows)

    def test_fixed_cells_are_obstacles(self, lib, rows):
        d = Design("t", lib, Rect(0, 0, 50, 20))
        obstacle = d.add_cell("fix", "BUF_X4", Point(10.0, 5.0), fixed=True)
        mover = d.add_cell("mv", "BUF_X1", Point(10.0, 5.0))
        res = legalize(d, rows)
        assert res.ok
        assert obstacle.origin == Point(10.0, 5.0)
        assert _no_overlaps(d)

    def test_incremental_subset_leaves_rest_alone(self, lib, rows):
        d = Design("t", lib, Rect(0, 0, 50, 20))
        stay = d.add_cell("stay", "BUF_X1", Point(5.0, 5.0))
        mbr_cell = lib.register_cells(DFF_R, 8)[0]
        mbr = d.add_cell("mbr", mbr_cell, Point(5.0, 5.0))
        res = legalize(d, rows, movable=[mbr])
        assert res.ok
        assert stay.origin == Point(5.0, 5.0)  # untouched
        assert _no_overlaps(d)

    def test_wide_mbr_seated_first(self, lib, rows):
        d = Design("t", lib, Rect(0, 0, 50, 20))
        mbr_cell = lib.register_cells(DFF_R, 8)[0]
        d.add_cell("mbr", mbr_cell, Point(20.0, 10.0))
        for i in range(10):
            d.add_cell(f"b{i}", "BUF_X1", Point(20.0 + 0.1 * i, 10.0))
        res = legalize(d, rows)
        assert res.ok
        assert _no_overlaps(d)
        # The MBR (processed first) should be at or very near its target.
        assert d.cell("mbr").origin.manhattan_to(Point(20.0, 10.0)) < 2.0

    def test_max_displacement_can_fail(self, lib):
        tiny = PlacementRows(Rect(0, 0, 4, 2), row_height=1.0, site_width=0.2)
        d = Design("t", lib, Rect(0, 0, 4, 2))
        d.add_cell("fix", "BUF_X4", Point(0.0, 0.0), fixed=True)
        d.add_cell("fix2", "BUF_X4", Point(0.0, 1.0), fixed=True)
        mv = d.add_cell("mv", "BUF_X4", Point(0.0, 0.0))
        res = legalize(d, tiny, movable=[mv], max_displacement=0.5)
        assert not res.ok and res.failed == ["mv"]

    def test_displacement_metrics(self, lib, rows):
        d = Design("t", lib, Rect(0, 0, 50, 20))
        d.add_cell("a", "BUF_X1", Point(10.0, 5.0))
        d.add_cell("b", "BUF_X1", Point(10.0, 5.0))
        res = legalize(d, rows)
        assert res.total_displacement >= res.max_displacement >= 0.0
        assert res.num_moved >= 1

    def test_dense_row_spills_to_neighbor_rows(self, lib, rows):
        d = Design("t", lib, Rect(0, 0, 50, 20))
        # More cells than fit on one row at x in [0, 2]: must spread.
        for i in range(30):
            d.add_cell(f"c{i}", "BUF_X4", Point(1.0, 10.0))
        res = legalize(d, rows)
        assert res.ok
        assert _no_overlaps(d)
        used_rows = {c.origin.y for c in d.cells.values()}
        assert len(used_rows) > 1

    def test_last_site_of_the_top_row_ends_on_the_die(self, lib):
        # 408 * 0.2 == 81.60000000000001 and 91.98 + 141 == 232.98000000000002:
        # the last site of a 0.4 um cell and the top row both round up, and
        # the seated footprint must still end on the die.
        die = Rect(0.0, 91.98, 82.0, 233.98)
        grid = PlacementRows(die, row_height=1.0, site_width=0.2)
        d = Design("t", lib, die)
        cell = d.add_cell("edge", "INV_X1", Point(81.9, 233.5))
        res = legalize(d, grid)
        assert res.ok
        assert die.contains_rect(cell.footprint), cell.footprint
        assert _on_grid(d, grid)
