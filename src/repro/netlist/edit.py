"""Netlist restructuring: merging registers into an MBR instance.

:func:`compose_mbr` is the single structural edit the composition flow
performs.  It replaces a group of compatible registers with one MBR library
cell, carrying over per-bit data nets, shared control nets, and the scan
chain, then removes the old cells and any nets that die with them (e.g. the
scan-stitch nets between two registers that are now chained inside the MBR).

It returns a :class:`~repro.netlist.change.ChangeRecord` describing the
edit — the new cell is ``record.new_cell`` — so callers can hand it to
:meth:`repro.sta.timer.Timer.apply_change` instead of blanket-invalidating.
"""

from __future__ import annotations

from typing import Iterable

from repro.geometry.point import Point
from repro.library.cells import RegisterCell
from repro.library.functional import ScanStyle
from repro.netlist.change import ChangeRecord
from repro.netlist.db import Cell, Net
from repro.netlist.design import Design
from repro.netlist.registers import RegisterBit, RegisterView


class ComposeError(ValueError):
    """Raised when a group of registers cannot legally merge into the target
    MBR cell — the composition engine treats this as a rejected candidate."""


def _shared_net(views: list[RegisterView], getter, what: str) -> Net | None:
    # Hold strong references before comparing identities: net views are
    # flyweights in a WeakValueDictionary, so an unreferenced view dies the
    # moment id() returns and the next lookup builds a fresh object whose
    # address may or may not coincide with the old one.
    nets = [getter(v) for v in views]
    if len({id(n) for n in nets}) != 1:
        raise ComposeError(
            f"registers {[v.cell.name for v in views]} disagree on {what}"
        )
    return nets[0]


def compose_mbr(
    design: Design,
    group: list[Cell],
    target: RegisterCell,
    origin: Point,
    name: str | None = None,
    bit_order: list[RegisterBit] | None = None,
) -> ChangeRecord:
    """Replace ``group`` with a single instance of ``target`` at ``origin``.

    ``bit_order`` fixes the mapping of old bits onto the new cell's bit
    indices (defaults to group order then bit order), which also defines the
    internal scan order for ``ScanStyle.INTERNAL`` targets.  Bits beyond
    ``len(bit_order)`` are left unconnected (incomplete MBR).

    Returns the :class:`~repro.netlist.change.ChangeRecord` of the edit;
    the new cell is ``record.new_cell``.  Raises :class:`ComposeError` when
    the group's control nets or bit count cannot map onto ``target``.
    """
    if not group:
        raise ComposeError("cannot compose an empty register group")
    views = [RegisterView(c) for c in group]

    for v in views:
        if v.cell.dont_touch:
            raise ComposeError(f"register {v.cell.name} is dont_touch")
        if v.libcell.func_class != target.func_class:
            raise ComposeError(
                f"register {v.cell.name} class {v.libcell.func_class.name} "
                f"does not match target class {target.func_class.name}"
            )

    bits = bit_order if bit_order is not None else [
        b for v in views for b in v.connected_bits()
    ]
    if len(bits) > target.width_bits:
        raise ComposeError(
            f"{len(bits)} bits do not fit in {target.name} ({target.width_bits} bits)"
        )

    clock_net = _shared_net(views, lambda v: v.clock_net, "clock net")
    control_nets: dict[str, Net | None] = {}
    for ctrl in target.control_pins():
        control_nets[ctrl] = _shared_net(
            views, lambda v, c=ctrl: v.control_nets().get(c), f"control net {ctrl}"
        )

    new_name = name or design.unique_name("mbr")
    with design.track() as tracker:
        new_cell = design.add_cell(new_name, target, origin)

        if clock_net is not None:
            design.connect(new_cell.pin(target.clock_pin_name), clock_net)
        for ctrl, net in control_nets.items():
            if net is not None:
                design.connect(new_cell.pin(ctrl), net)

        # Per-bit data connections.  Capture the old nets first: removing the
        # old cells later must not race with rewiring.
        for new_index, old_bit in enumerate(bits):
            if old_bit.d_net is not None:
                design.connect(new_cell.pin(target.d_pin(new_index)), old_bit.d_net)
            if old_bit.q_net is not None:
                design.connect(new_cell.pin(target.q_pin(new_index)), old_bit.q_net)

        _stitch_scan(design, views, new_cell, target, bits)

        # Only nets that lose a terminal with the old cells can go dead:
        # capture them before removal so the sweep inspects nothing else.
        # Insertion-ordered (dict) so the removal order is deterministic.
        affected: dict[str, None] = {}
        for v in views:
            for pin in v.cell.pins.values():
                if pin.net is not None:
                    affected[pin.net.name] = None
        for v in views:
            design.remove_cell(v.cell)
        _sweep_dead_nets(design, affected)
    return tracker.record()


def _stitch_scan(
    design: Design,
    views: list[RegisterView],
    new_cell: Cell,
    target: RegisterCell,
    bits: list[RegisterBit],
) -> None:
    """Reconnect the scan chain through the new MBR.

    ``INTERNAL`` targets chain all bits inside the cell: the new SI takes the
    scan-in net of the first bit's source register, the new SO takes the
    scan-out net of the last bit's source register, and the old stitch nets
    between merged registers die (swept afterwards).  ``MULTI`` targets carry
    each source register's SI/SO through per-bit pins.
    """
    if not target.func_class.is_scan:
        return

    if target.scan_style is ScanStyle.MULTI:
        view_of = {v.cell.name: v for v in views}
        for new_index, old_bit in enumerate(bits):
            src = view_of[old_bit.cell.name]
            # Old internal-scan cells expose SI only at bit 0 and SO only at
            # the last bit; multi-scan cells expose one pair per bit.
            if src.scan_style is ScanStyle.MULTI:
                si = src.scan_in_net(old_bit.index)
                so = src.scan_out_net(old_bit.index)
            else:
                si = src.scan_in_net() if old_bit.index == 0 else None
                last = src.libcell.width_bits - 1
                so = src.scan_out_net() if old_bit.index == last else None
            if si is not None:
                design.connect(new_cell.pin(target.si_pin(new_index)), si)
            if so is not None:
                design.connect(new_cell.pin(target.so_pin(new_index)), so)
        return

    # INTERNAL target: single SI/SO pair.
    first_src = RegisterView(design.cells[bits[0].cell.name])
    last_src = RegisterView(design.cells[bits[-1].cell.name])
    si_net = first_src.scan_in_net()
    so_net = last_src.scan_out_net()
    if si_net is not None:
        design.connect(new_cell.pin(target.si_pin()), si_net)
    if so_net is not None:
        design.connect(new_cell.pin(target.so_pin()), so_net)


def _sweep_dead_nets(design: Design, candidates: Iterable[str]) -> None:
    """Remove nets whose terminals all vanished with the replaced registers
    (typically scan-stitch nets now absorbed inside an MBR), and nets left
    with a driver but no sink that used to feed only removed scan-ins.

    ``candidates`` names the nets that could have lost a terminal in the
    current edit (a superset of the dead ones); only those nets are
    inspected, so one sweep costs O(candidates), not O(all nets).  Each
    net's test starts from the store's terminal count (``Net.num_pins``):
    the candidates include the clock, reset and scan-enable nets, whose
    terminal lists hold thousands of sinks, so only a net down to one
    terminal ever has that list built.
    """
    nets = design.nets
    pool = [nets[name] for name in candidates if name in nets]
    dead = [
        net
        for net in pool
        if net.num_pins == 0
        or (
            net.num_pins == 1
            and not net.is_clock
            and net.driver is not None
            and not net.sinks
            and _only_feeds_scan(net)
        )
    ]
    for net in dead:
        design.remove_net(net)


def _only_feeds_scan(net: Net) -> bool:
    """True when the net's lone remaining terminal is a scan-out pin."""
    t = net.terminals[0]
    return getattr(t, "name", "").startswith("SO")
