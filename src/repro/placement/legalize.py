"""Tetris-style row legalization.

The composition flow places each new MBR at its LP-optimal location
(Section 4.2), which may overlap other cells; this legalizer snaps cells to
rows/sites and resolves overlaps with minimal displacement.  It supports the
*incremental* usage the paper relies on: legalize only the new MBRs (and any
cells they displace) while everything else acts as fixed obstacles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.geometry.gridindex import RowIntervals
from repro.geometry.point import Point
from repro.geometry.rect import last_origin
from repro.netlist.db import Cell
from repro.netlist.design import Design
from repro.netlist.store import FIXED, NetlistStore
from repro.placement.rows import PlacementRows


@dataclass
class LegalizeResult:
    """Outcome of a legalization pass."""

    moved: dict[str, tuple[Point, Point]] = field(default_factory=dict)
    failed: list[str] = field(default_factory=list)

    @property
    def total_displacement(self) -> float:
        return sum(a.manhattan_to(b) for a, b in self.moved.values())

    @property
    def max_displacement(self) -> float:
        return max((a.manhattan_to(b) for a, b in self.moved.values()), default=0.0)

    @property
    def num_moved(self) -> int:
        return sum(1 for a, b in self.moved.values() if a != b)

    @property
    def ok(self) -> bool:
        return not self.failed


def legalize(
    design: Design,
    rows: PlacementRows,
    movable: list[Cell] | None = None,
    max_displacement: float | None = None,
    obstacles: list[Cell] | None = None,
) -> LegalizeResult:
    """Legalize ``movable`` cells (default: all non-fixed cells) onto rows.

    Cells outside ``movable`` — and all ``fixed`` cells — are obstacles.
    Passing ``obstacles`` overrides that default with an explicit obstacle
    set (the generator's register-first pass uses it to legalize registers
    on a canvas where unplaced combinational cells don't block).  Movable
    cells are processed in decreasing width (big MBRs first, since they are
    hardest to seat; the paper notes registers "are larger and often have
    higher placement priority").  Each cell lands at the free location
    nearest its current position; cells that cannot be seated within
    ``max_displacement`` (when given) are reported in ``failed``.
    """
    result = LegalizeResult()
    spaces = [RowIntervals() for _ in range(rows.num_rows)]
    occupy = _occupier(spaces, rows)
    store = design.store
    flags = store.cell_flags
    movable_set = (
        {c.name for c in movable if not c.fixed}
        if movable is not None
        else {n for n, cid in store.cell_ids.items() if not flags[cid] & FIXED}
    )

    if obstacles is not None:
        for cell in obstacles:
            if cell.name not in movable_set:
                _occupy_cell(occupy, cell)
    else:
        _occupy_store(occupy, store, movable_set)

    order = sorted(
        (design.cells[name] for name in movable_set),
        key=lambda c: (-c.libcell.width, c.name),
    )
    for cell in order:
        target = _seat(spaces, rows, cell, max_displacement)
        if target is None:
            result.failed.append(cell.name)
            _occupy_cell(occupy, cell)  # stays put, still blocks others
            continue
        old = cell.origin
        design.move_cell(cell, target)
        _occupy_cell(occupy, cell)
        result.moved[cell.name] = (old, target)
    return result


def _occupier(spaces: list[RowIntervals], rows: PlacementRows):
    """``occupy(xlo, ylo, xhi, yhi)``: mark a footprint's sites occupied in
    every row it touches."""
    core_x, core_y = rows.core.xlo, rows.core.ylo
    site_w, row_h = rows.site_width, rows.row_height
    last_row, n_sites = rows.num_rows - 1, rows.sites_per_row

    def occupy(xlo: float, ylo: float, xhi: float, yhi: float) -> None:
        lo_site = int((xlo - core_x) / site_w)
        hi_site = max(lo_site + 1, int(-(-(xhi - core_x) // site_w)))
        r0 = max(0, int((ylo - core_y) / row_h))
        r1 = min(last_row, int((yhi - core_y - 1e-9) / row_h))
        for r in range(r0, r1 + 1):
            spaces[r].occupy(max(lo_site, 0), min(hi_site, n_sites))

    return occupy


def _occupy_cell(occupy, cell: Cell) -> None:
    fp = cell.footprint
    occupy(fp.xlo, fp.ylo, fp.xhi, fp.yhi)


def _occupy_store(occupy, store: NetlistStore, movable: set[str]) -> None:
    """Occupy every cell outside ``movable`` from the store columns.

    The footprint is ``Cell.footprint``'s: origin plus library width and
    height, in the same float arithmetic, so the occupancy is the one the
    cell views would give, without making them.
    """
    xs, ys, lids = store.cell_x.tolist(), store.cell_y.tolist(), store.cell_lib.tolist()
    sizes = [(rec.libcell.width, rec.libcell.height) for rec in store.libs]
    for name, cid in store.cell_ids.items():
        if name not in movable:
            x, y = xs[cid], ys[cid]
            w, h = sizes[lids[cid]]
            occupy(x, y, x + w, y + h)


def _seat(
    spaces: list[RowIntervals],
    rows: PlacementRows,
    cell: Cell,
    max_displacement: float | None,
) -> Point | None:
    """Best legal origin for ``cell`` near its current origin.

    A site origin is ``core.xlo + site * site_width``, which can round up:
    on an 82 um core, the last 0.2 um site of a 0.4 um cell starts at
    81.60000000000001 and ends past the edge.  Such an origin (and a top
    row's y, likewise) is pulled back to :func:`last_origin`, so the
    footprint stays on the core.
    """
    width, height = cell.libcell.width, cell.libcell.height
    width_sites = rows.sites_for_width(width)
    desired_site = int(round((cell.origin.x - rows.core.xlo) / rows.site_width))
    desired_row = rows.nearest_row(cell.origin.y)

    best: tuple[float, Point] | None = None
    for delta in range(rows.num_rows):
        candidates = {desired_row - delta, desired_row + delta}
        row_cost = delta * rows.row_height
        if best is not None and row_cost >= best[0]:
            break
        if max_displacement is not None and row_cost > max_displacement:
            break
        for r in candidates:
            if not 0 <= r < rows.num_rows:
                continue
            site = spaces[r].nearest_gap(desired_site, width_sites, rows.sites_per_row)
            if site is None:
                continue
            x = rows.core.xlo + site * rows.site_width
            if x + width > rows.core.xhi:
                x = last_origin(rows.core.xhi, width)
            y = rows.row_y(r)
            if y + height > rows.core.yhi:
                y = last_origin(rows.core.yhi, height)
            cost = abs(x - cell.origin.x) + abs(y - cell.origin.y)
            if max_displacement is not None and cost > max_displacement:
                continue
            if best is None or cost < best[0]:
                best = (cost, Point(x, y))
    return best[1] if best is not None else None
