"""MBR placement: wire-length-optimal location for a new MBR (Section 4.2).

For each D/Q pin of the new cell we form the bounding box of the pins it
will connect to (the old register's own pin excluded), reference the new
pin's coordinates as the cell corner plus a fixed in-cell offset, and
minimize the summed half-perimeter wire length

    wl_i = (max(xh, x+dx_i) - min(xl, x+dx_i))
         + (max(yh, y+dy_i) - min(yl, y+dy_i))

subject to (x, y) lying in the group's common timing-feasible region.  The
paper solves this as an LP with helper variables replacing max/min; we
implement exactly that LP on our simplex, plus a direct piecewise-linear
minimizer (x and y decouple; each axis objective is convex PWL).  The flow
places with the minimizer; the LP is its independent cross-check in tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.ilp.simplex import solve_lp
from repro.library.cells import RegisterCell
from repro.netlist.registers import RegisterBit


@dataclass(frozen=True, slots=True)
class PinConnection:
    """One new-cell pin: its in-cell offset and the box of its peers."""

    dx: float
    dy: float
    box: Rect


def pin_connections(
    target: RegisterCell,
    bit_order: list[RegisterBit],
) -> list[PinConnection]:
    """Build the per-pin connection boxes for a candidate composition.

    ``bit_order[k]`` is the old register bit that the new cell's bit ``k``
    will take over; its D/Q nets (minus the old pin itself) define the
    boxes.  Bits and nets without remaining terminals are skipped.
    """
    conns: list[PinConnection] = []
    for new_index, old_bit in enumerate(bit_order):
        for old_pin, new_pin_name in (
            (old_bit.d_pin, target.d_pin(new_index)),
            (old_bit.q_pin, target.q_pin(new_index)),
        ):
            if old_pin.net is None:
                continue
            box = old_pin.net.bbox(exclude=old_pin)
            if box is None:
                continue
            desc = target.pin(new_pin_name)
            conns.append(PinConnection(desc.dx, desc.dy, box))
    return conns


def wirelength_at(origin: Point, conns: list[PinConnection]) -> float:
    """Total HPWL of the connections with the cell at ``origin``."""
    total = 0.0
    for c in conns:
        px, py = origin.x + c.dx, origin.y + c.dy
        total += max(c.box.xhi, px) - min(c.box.xlo, px)
        total += max(c.box.yhi, py) - min(c.box.ylo, py)
    return total


# ---------------------------------------------------------------------------
# Exact axis-decoupled piecewise-linear minimization
# ---------------------------------------------------------------------------


def _axis_minimum(
    lo: float,
    hi: float,
    spans: list[tuple[float, float]],
) -> float:
    """Minimize sum of ``max(h, t) - min(l, t)`` over t in [lo, hi].

    Each term is convex piecewise-linear in t with breakpoints at l and h;
    so is the sum.  The minimum over the interval is attained at a clamped
    breakpoint or an interval end — evaluate and pick.
    """

    def value(t: float) -> float:
        return sum(max(h, t) - min(l, t) for l, h in spans)

    candidates = {lo, hi}
    for l, h in spans:
        candidates.add(min(max(l, lo), hi))
        candidates.add(min(max(h, lo), hi))
    return min(candidates, key=lambda t: (value(t), t))


def place_mbr_pwl(region: Rect, conns: list[PinConnection]) -> Point:
    """The exact optimum via per-axis PWL minimization."""
    if not conns:
        return region.center
    x = _axis_minimum(
        region.xlo, region.xhi, [(c.box.xlo - c.dx, c.box.xhi - c.dx) for c in conns]
    )
    y = _axis_minimum(
        region.ylo, region.yhi, [(c.box.ylo - c.dy, c.box.yhi - c.dy) for c in conns]
    )
    return Point(x, y)


# ---------------------------------------------------------------------------
# The paper's LP formulation
# ---------------------------------------------------------------------------


def place_mbr_lp(region: Rect, conns: list[PinConnection]) -> Point:
    """Solve the Section 4.2 LP with helper variables on our simplex.

    Variables: x, y, then per connection i the helpers
    (ax_i >= max terms, bx_i <= min terms, ay_i, by_i); the objective sums
    ax_i - bx_i + ay_i - by_i.
    """
    if not conns:
        return region.center
    k = len(conns)
    n = 2 + 4 * k  # x, y, then [ax, bx, ay, by] per connection

    def ax(i: int) -> int:
        return 2 + 4 * i

    def bx(i: int) -> int:
        return 2 + 4 * i + 1

    def ay(i: int) -> int:
        return 2 + 4 * i + 2

    def by(i: int) -> int:
        return 2 + 4 * i + 3

    c = [0.0] * n
    for i in range(k):
        c[ax(i)] = 1.0
        c[bx(i)] = -1.0
        c[ay(i)] = 1.0
        c[by(i)] = -1.0

    A_ub: list[list[float]] = []
    b_ub: list[float] = []

    def add_row(entries: dict[int, float], rhs: float) -> None:
        r = [0.0] * n
        for idx, v in entries.items():
            r[idx] = v
        A_ub.append(r)
        b_ub.append(rhs)

    X, Y = 0, 1
    for i, conn in enumerate(conns):
        # ax_i >= x + dx   <=>  x - ax_i <= -dx
        add_row({X: 1.0, ax(i): -1.0}, -conn.dx)
        # ax_i >= xh       <=>  -ax_i <= -xh
        add_row({ax(i): -1.0}, -conn.box.xhi)
        # bx_i <= x + dx   <=>  bx_i - x <= dx
        add_row({bx(i): 1.0, X: -1.0}, conn.dx)
        # bx_i <= xl
        add_row({bx(i): 1.0}, conn.box.xlo)
        # Same structure on the y axis.
        add_row({Y: 1.0, ay(i): -1.0}, -conn.dy)
        add_row({ay(i): -1.0}, -conn.box.yhi)
        add_row({by(i): 1.0, Y: -1.0}, conn.dy)
        add_row({by(i): 1.0}, conn.box.ylo)

    bounds: list[tuple[float | None, float | None]] = [
        (region.xlo, region.xhi),
        (region.ylo, region.yhi),
    ] + [(None, None)] * (4 * k)

    res = solve_lp(c, A_ub=A_ub, b_ub=b_ub, bounds=bounds)
    if not res.ok:  # pragma: no cover - the LP is feasible by construction
        raise RuntimeError(f"MBR placement LP failed: {res.status}")
    return Point(float(res.x[0]), float(res.x[1]))


def place_mbr(
    region: Rect, target: RegisterCell, bit_order: list[RegisterBit]
) -> Point:
    """Optimal origin for the new MBR inside its feasible region.

    Uses the exact decoupled minimizer; :func:`place_mbr_lp` solves the
    paper's LP to the same optimum and is kept as its test reference.
    """
    return place_mbr_pwl(region, pin_connections(target, bit_order))
