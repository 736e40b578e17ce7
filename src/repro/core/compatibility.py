"""Register compatibility analysis (paper Section 2).

A group of registers may merge into an MBR only when they are compatible in
four independent senses:

* **functionally** — same functional class, same clock net (including any
  gating), control pins driven by the same nets, not excluded by the
  designer, and a larger cell of the class exists in the library;
* **scan** — same scan partition; ordered scan sections impose ordering
  constraints resolved at clique/mapping time;
* **placement** — their timing-feasible regions overlap;
* **timing** — similar D slacks and similar Q slacks, with no opposing
  useful-skew pressure (no positive-D/negative-Q register merged with a
  negative-D/positive-Q one).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

from repro.geometry.point import Point
from repro.geometry.rect import Rect, intersect_all
from repro.geometry.region import FeasibleRegion, SlackToDistance
from repro.library.cells import RegisterCell
from repro.library.functional import FunctionalClass
from repro.library.library import CellLibrary
from repro.netlist.db import Cell
from repro.netlist.design import Design
from repro.netlist.registers import RegisterView
from repro.netlist.store import DONT_TOUCH, FIXED, NO_ID, NetlistStore
from repro.scan.model import ScanModel
from repro.sta.timer import Timer


@dataclass(frozen=True, slots=True)
class CompatibilityConfig:
    """Tunables of the compatibility analysis.

    ``slack_similarity``
        Maximum difference between two registers' D slacks (and separately Q
        slacks) for timing compatibility — "the magnitude of the observed
        slacks is similar" (Section 2).  Expressed in ns.
    ``max_region_distance``
        Cap on the slack-derived move distance, so huge-slack registers do
        not become compatible with the entire die; this also bounds the
        compatibility graph's degree.
    ``clip_similarity_at``
        Slacks above this value are treated as "comfortably positive" and
        compared as equal — two registers with 1 ns and 2 ns of margin are
        both simply uncritical.
    ``min_region_margin``
        Guard band (um) added around every pin's feasible region.  A
        violating pin's region is its net bounding box, which can degenerate
        to a point; physically, an in-place merge that moves the pin by a
        cell width is noise.  The margin makes abutting registers placement
        compatible while the TNS/failing-endpoint QoR checks remain the
        authoritative guard against real degradation.
    """

    slack_similarity: float = 0.15
    max_region_distance: float = 30.0
    clip_similarity_at: float = 0.5
    min_region_margin: float = 2.5


@dataclass
class RegisterInfo:
    """Everything the composition engine needs to know about one register."""

    cell: Cell
    func_class: FunctionalClass
    bits: int
    composable: bool
    reason: str  # why not composable, "" when composable
    d_slack: float = math.inf
    q_slack: float = math.inf
    region: FeasibleRegion = field(
        default_factory=lambda: FeasibleRegion(Rect(0, 0, 0, 0), pinned=True)
    )
    clock_net: str | None = None
    control_key: tuple[tuple[str, str | None], ...] = ()
    center_xy: tuple[float, float] = (0.0, 0.0)  # cached cell center
    field_index: int | None = None  # position in the RegisterField arrays

    @property
    def name(self) -> str:
        return self.cell.name

    @property
    def center(self) -> Point:
        return Point(*self.center_xy)


# ---------------------------------------------------------------------------
# Per-register analysis
# ---------------------------------------------------------------------------


def _control_key(view: RegisterView) -> tuple[tuple[str, str | None], ...]:
    """Canonical (pin, net-name) tuple: functional compatibility requires
    the same nets on the same control pins."""
    nets = view.control_nets()
    return tuple(sorted((pin, net.name if net else None) for pin, net in nets.items()))


def feasible_region(
    design: Design,
    cell: Cell,
    timer: Timer,
    config: CompatibilityConfig,
) -> FeasibleRegion:
    """The timing-feasible placement region of a register's *origin*.

    Each connected D/Q pin constrains the cell: positive slack lets the pin
    move up to the slack-equivalent Manhattan distance from its current
    location (diamond, approximated by its bounding rectangle); a violating
    pin restricts the cell to the bounding box of its net (where moving does
    not lengthen the net).  All pin constraints are translated to origin
    coordinates and intersected, then clipped to the die.  If the
    intersection is empty the cell is pinned to its footprint — it cannot
    move, but other registers may still move next to it (Section 2).
    """
    if cell.fixed:
        return FeasibleRegion(Rect.point(cell.origin), pinned=True)
    lc = cell.register_cell
    conv = SlackToDistance(
        delay_per_micron=timer.tech.wire_delay_per_um,
        max_distance=config.max_region_distance,
    )

    constraints: list[Rect] = []
    for bit in range(lc.width_bits):
        for pin_name in (lc.d_pin(bit), lc.q_pin(bit)):
            pin = cell.pins.get(pin_name)
            if pin is None or pin.net is None:
                continue
            s = timer.slack_at(pin)
            if s is None:
                continue
            offset = Point(pin.desc.dx, pin.desc.dy)
            if s > 0.0:
                dist = conv.distance(s)
                pin_region = Rect.from_center(pin.location, 2 * dist, 2 * dist)
            else:
                # Violating pin: the pin may move within the net's bounding
                # box (the net does not lengthen there), nowhere else.
                box = pin.net.bbox()
                pin_region = box if box is not None else Rect.point(pin.location)
            pin_region = pin_region.expanded(config.min_region_margin)
            # Translate: the cell origin must satisfy origin = pin - offset.
            constraints.append(
                Rect(
                    pin_region.xlo - offset.x,
                    pin_region.ylo - offset.y,
                    pin_region.xhi - offset.x,
                    pin_region.yhi - offset.y,
                )
            )

    die_limit = Rect(
        design.die.xlo,
        design.die.ylo,
        max(design.die.xlo, design.die.xhi - lc.width),
        max(design.die.ylo, design.die.yhi - lc.height),
    )
    constraints.append(die_limit)
    rect = intersect_all(constraints)
    if rect is None:
        # Conflicting constraints: the cell cannot move at all, but its own
        # footprint remains a region other registers may move into.
        return FeasibleRegion(cell.footprint, pinned=True)
    # A region no larger than the footprint also cannot host a real move.
    pinned = rect.width <= lc.width and rect.height <= lc.height
    return FeasibleRegion(rect, pinned=pinned)


def composability(store: NetlistStore, cid: int, library: CellLibrary) -> str:
    """Why register cell ``cid`` cannot be composed, or ``""`` when it can.

    These are the exclusions of Section 5 — designer excluded
    (``dont_touch``/``fixed``), no larger functionally-equivalent MBR in
    the library, already the largest MBR of its class — plus an unclocked
    register.  None of them depends on timing or geometry, so the test
    reads the store's flag, libcell and pin-net columns and builds no
    view: the composer and :func:`~repro.metrics.collect.collect_metrics`
    run it over every register and pay for views and timing only on the
    registers that pass.
    """
    flags = store.cell_flags[cid]
    if flags & DONT_TOUCH:
        return "designer excluded (dont_touch)"
    if flags & FIXED:
        return "designer excluded (fixed)"
    rec = store.libs[store.cell_lib[cid]]
    lc: RegisterCell = rec.libcell
    max_width = library.max_width_for(lc.func_class)
    if max_width <= lc.width_bits:
        if max_width == 0:
            return "no equivalent MBR in library"
        return "already largest MBR of its class"
    clock_slot = int(store.cell_pin0[cid]) + rec.pin_index[lc.clock_pin_name]
    if store.pin_net[clock_slot] == NO_ID:
        return "unclocked register"
    return ""


def composable_cell_ids(design: Design) -> Iterator[tuple[str, int]]:
    """``(name, cell id)`` of every register that passes
    :func:`composability`, in design order."""
    store, library = design.store, design.library
    for name, cid in store.cell_ids.items():
        if store.cell_is_register(cid) and not composability(store, cid, library):
            yield name, cid


def analyze_register(
    design: Design,
    cell: Cell,
    timer: Timer,
    config: CompatibilityConfig | None = None,
) -> RegisterInfo:
    """Build the :class:`RegisterInfo` of one register cell.

    This is the per-register refresh unit of the incremental recompose path
    (:class:`repro.flow.session.EcoSession`): feeding it only the registers
    whose context changed is what keeps an ECO edit from paying a
    whole-design re-analysis.  :func:`analyze_registers` is the loop over
    every register of the design.
    """
    config = config or CompatibilityConfig()
    lc: RegisterCell = cell.register_cell
    view = RegisterView(cell)
    store = design.store
    reason = composability(store, store.cell_ids[cell.name], design.library)
    composable = not reason

    center = cell.center
    info = RegisterInfo(
        cell=cell,
        func_class=lc.func_class,
        bits=view.connected_bit_count if composable else lc.width_bits,
        composable=composable,
        reason=reason,
        clock_net=view.clock_net.name if view.clock_net else None,
        control_key=_control_key(view),
        center_xy=(center.x, center.y),
    )
    if composable:
        rs = timer.register_slack(cell)
        info.d_slack = rs.d_slack
        info.q_slack = rs.q_slack
        info.region = feasible_region(design, cell, timer, config)
    return info


def analyze_registers(
    design: Design,
    timer: Timer,
    scan_model: ScanModel | None = None,
    config: CompatibilityConfig | None = None,
) -> dict[str, RegisterInfo]:
    """Build a :class:`RegisterInfo` for every register in the design.

    Registers are marked non-composable when (a) the designer excluded them
    (``dont_touch``/``fixed``), (b) no larger functionally-equivalent MBR
    exists in the library, or (c) they are already the largest MBR of their
    class — the three exclusion reasons of Section 5.  The composition
    engine analyzes only the composable ones
    (:func:`analyze_composable_registers`).
    """
    config = config or CompatibilityConfig()
    return {
        cell.name: analyze_register(design, cell, timer, config)
        for cell in design.registers()
    }


def analyze_composable_registers(
    design: Design,
    timer: Timer,
    config: CompatibilityConfig | None = None,
) -> dict[str, RegisterInfo]:
    """:func:`analyze_registers` restricted to the composable registers.

    Equal to ``{n: i for n, i in analyze_registers(...).items() if
    i.composable}``, but registers that fail :func:`composability` are
    never viewed or timed — on a design whose registers are mostly frozen
    this is the difference between analyzing the design and analyzing
    the window.
    """
    config = config or CompatibilityConfig()
    store = design.store
    return {
        name: analyze_register(design, store.cell_view(cid), timer, config)
        for name, cid in composable_cell_ids(design)
    }


def info_signature(info: RegisterInfo) -> tuple:
    """Identity-free content fingerprint of one register's analysis.

    Two infos with equal signatures are interchangeable for everything
    downstream of the analyze stage (graph edges, partitioning, candidate
    enumeration, weights, placement windows): every field those consumers
    read is included.  ``field_index`` is deliberately excluded — it is
    per-pass bookkeeping of :class:`repro.core.weights.RegisterField`.
    Floats go through :func:`repr` (exact round-trip), so the comparison is
    bit-level.
    """
    r = info.region.rect
    return (
        info.cell.name,
        info.cell.libcell.name,
        info.func_class.name,
        info.bits,
        info.composable,
        info.reason,
        repr(info.d_slack),
        repr(info.q_slack),
        (repr(r.xlo), repr(r.ylo), repr(r.xhi), repr(r.yhi)),
        info.region.pinned,
        info.clock_net,
        info.control_key,
        (repr(info.center_xy[0]), repr(info.center_xy[1])),
    )


# ---------------------------------------------------------------------------
# Pairwise predicates
# ---------------------------------------------------------------------------


def functionally_compatible(a: RegisterInfo, b: RegisterInfo) -> bool:
    """Same class, same clock (incl. gating), same control nets (Section 2)."""
    return (
        a.composable
        and b.composable
        and a.func_class == b.func_class
        and a.clock_net == b.clock_net
        and a.control_key == b.control_key
    )


def scan_compatible(
    a: RegisterInfo, b: RegisterInfo, scan_model: ScanModel | None
) -> bool:
    """Same scan partition (Section 2).

    Ordering constraints within ordered sections are clique-level (an MBR's
    internal chain must keep the section order) and are enforced during
    candidate enumeration; the pairwise test only requires that merging the
    two registers into *some* MBR is not ruled out — which additionally
    excludes members of two different ordered sections.
    """
    if scan_model is None:
        return True
    if not scan_model.same_partition(a.name, b.name):
        return False
    return scan_model.ordered_positions([a.name, b.name]) is not None


def placement_compatible(a: RegisterInfo, b: RegisterInfo) -> bool:
    """Overlapping timing-feasible regions (Section 2)."""
    return a.region.overlaps(b.region)


def _clip(value: float, config: CompatibilityConfig) -> float:
    if math.isinf(value):
        return config.clip_similarity_at
    return min(value, config.clip_similarity_at)


def timing_compatible(
    a: RegisterInfo, b: RegisterInfo, config: CompatibilityConfig
) -> bool:
    """Similar D slacks, similar Q slacks, no opposing skew pressure.

    The sign rule (Section 2): a register with negative D slack wants a
    *later* clock, one with negative Q slack wants an *earlier* clock;
    merging a (D>0, Q<0) register with a (D<0, Q>0) register would make the
    shared useful-skew assignment a tug of war.
    """
    a_wants_later = a.d_slack < 0.0 <= a.q_slack
    a_wants_earlier = a.q_slack < 0.0 <= a.d_slack
    b_wants_later = b.d_slack < 0.0 <= b.q_slack
    b_wants_earlier = b.q_slack < 0.0 <= b.d_slack
    if (a_wants_later and b_wants_earlier) or (a_wants_earlier and b_wants_later):
        return False

    if abs(_clip(a.d_slack, config) - _clip(b.d_slack, config)) > config.slack_similarity:
        return False
    if abs(_clip(a.q_slack, config) - _clip(b.q_slack, config)) > config.slack_similarity:
        return False
    return True


def compatible(
    a: RegisterInfo,
    b: RegisterInfo,
    scan_model: ScanModel | None,
    config: CompatibilityConfig,
) -> bool:
    """The conjunction of all four Section 2 compatibility senses."""
    return (
        functionally_compatible(a, b)
        and scan_compatible(a, b, scan_model)
        and placement_compatible(a, b)
        and timing_compatible(a, b, config)
    )
