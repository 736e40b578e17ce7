"""The design container: cell/net/port namespaces and editing primitives.

Since the slotted-storage refactor a ``Design`` owns a
:class:`repro.netlist.store.NetlistStore` and its ``cells``/``nets``/``ports``
attributes are read-only mapping views over the store's name tables: lookups
and iteration materialize flyweight :class:`~repro.netlist.db.Cell` /
``Net`` / ``Port`` objects on demand.  All structural edits still go through
the ``Design`` primitives below, which now translate to store operations —
the observable behavior (ordering, notifications, error messages) is
unchanged.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Mapping

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.library.cells import LibCell, PinDirection
from repro.library.library import CellLibrary
from repro.netlist.change import ChangeTracker
from repro.netlist.db import Cell, Net, Port, Terminal, _DetachedPin
from repro.netlist.store import NO_ID, NetlistStore


class _CellMap(Mapping):
    """Read-only ``name -> Cell`` view over the store's live-cell table."""

    __slots__ = ("_store",)

    def __init__(self, store: NetlistStore) -> None:
        self._store = store

    def __getitem__(self, name: str) -> Cell:
        return self._store.cell_view(self._store.cell_ids[name])

    def __iter__(self) -> Iterator[str]:
        return iter(self._store.cell_ids)

    def __len__(self) -> int:
        return len(self._store.cell_ids)

    def __contains__(self, name) -> bool:
        return name in self._store.cell_ids

    def values(self):
        store = self._store
        return (store.cell_view(cid) for cid in store.cell_ids.values())

    def items(self):
        store = self._store
        return ((name, store.cell_view(cid)) for name, cid in store.cell_ids.items())


class _NetMap(Mapping):
    """Read-only ``name -> Net`` view over the store's live-net table."""

    __slots__ = ("_store",)

    def __init__(self, store: NetlistStore) -> None:
        self._store = store

    def __getitem__(self, name: str) -> Net:
        return self._store.net_view(self._store.net_ids[name])

    def __iter__(self) -> Iterator[str]:
        return iter(self._store.net_ids)

    def __len__(self) -> int:
        return len(self._store.net_ids)

    def __contains__(self, name) -> bool:
        return name in self._store.net_ids

    def values(self):
        store = self._store
        return (store.net_view(nid) for nid in store.net_ids.values())

    def items(self):
        store = self._store
        return ((name, store.net_view(nid)) for name, nid in store.net_ids.items())


class _PortMap(Mapping):
    """Read-only ``name -> Port`` view over the store's port table."""

    __slots__ = ("_store",)

    def __init__(self, store: NetlistStore) -> None:
        self._store = store

    def __getitem__(self, name: str) -> Port:
        return self._store.port_view(self._store.port_ids[name])

    def __iter__(self) -> Iterator[str]:
        return iter(self._store.port_ids)

    def __len__(self) -> int:
        return len(self._store.port_ids)

    def __contains__(self, name) -> bool:
        return name in self._store.port_ids

    def values(self):
        store = self._store
        return (store.port_view(pid) for pid in store.port_ids.values())

    def items(self):
        store = self._store
        return ((name, store.port_view(pid)) for name, pid in store.port_ids.items())


class Design:
    """A placed design: cells, nets, and ports over a cell library.

    All structural edits go through this class so name uniqueness and
    pin/net cross-references stay consistent.  The MBR composition flow
    edits designs exclusively via these primitives (plus
    :func:`repro.netlist.edit.compose_mbr` built on top of them).

    Edits can be observed: ``with design.track() as tracker:`` installs a
    :class:`~repro.netlist.change.ChangeTracker` that every primitive
    notifies, and ``tracker.record()`` yields the
    :class:`~repro.netlist.change.ChangeRecord` the incremental timer
    consumes.  Trackers nest; with none installed the hooks are free.
    """

    def __init__(self, name: str, library: CellLibrary, die: Rect) -> None:
        self.name = name
        self.library = library
        self.die = die
        self.store = NetlistStore()
        self.cells = _CellMap(self.store)
        self.nets = _NetMap(self.store)
        self.ports = _PortMap(self.store)
        self._uniq = 0
        self._trackers: list[ChangeTracker] = []

    # -- change tracking --------------------------------------------------------

    @contextmanager
    def track(self) -> Iterator[ChangeTracker]:
        """Record every edit made inside the ``with`` block."""
        tracker = ChangeTracker()
        self._trackers.append(tracker)
        try:
            yield tracker
        finally:
            self._trackers.remove(tracker)

    def _notify(self, event: str, *args) -> None:
        for tracker in self._trackers:
            getattr(tracker, event)(*args)

    # -- copying ----------------------------------------------------------------

    def clone(self) -> "Design":
        """A deep, independent copy of the design (same library objects).

        Cells, nets (terminal order preserved), ports, placements, and the
        unique-name counter all carry over, so edits replayed on the clone
        generate the same generated names (``mbr_N``, stitch nets) as on the
        original — the property the ECO audit mode relies on to compare an
        incremental recompose against a from-scratch one.

        Copies store-to-store without materializing views, so cloning a
        million-register design costs arrays, not objects.
        """
        other = Design(self.name, self.library, self.die)
        src = self.store
        dst = other.store
        for name, pid in src.port_ids.items():
            dst.new_port(
                name,
                bool(src.port_out[pid]),
                float(src.port_x[pid]),
                float(src.port_y[pid]),
                float(src.port_cap[pid]),
            )
        for name, cid in src.cell_ids.items():
            new_cid = dst.new_cell(
                name,
                src.libs[src.cell_lib[cid]].libcell,
                float(src.cell_x[cid]),
                float(src.cell_y[cid]),
            )
            dst.cell_flags[new_cid] = src.cell_flags[cid]
            attrs = src.cell_attrs.get(cid)
            if attrs:
                dst.cell_attrs[new_cid] = dict(attrs)
        for name, nid in src.net_ids.items():
            new_nid = dst.new_net(name, is_clock=bool(src.net_clock[nid]))
            for tid in src.net_terminal_ids(nid):
                if tid & 1:
                    new_tid = (dst.port_ids[src.port_name[tid >> 1]] << 1) | 1
                else:
                    slot = tid >> 1
                    cid = int(src.pin_cell[slot])
                    offset = slot - int(src.cell_pin0[cid])
                    new_cid = dst.cell_ids[src.cell_name[cid]]
                    new_tid = (int(dst.cell_pin0[new_cid]) + offset) << 1
                dst.link(new_tid, new_nid)
        other._uniq = self._uniq
        return other

    # -- naming ---------------------------------------------------------------

    def unique_name(self, prefix: str) -> str:
        """A fresh name with the given prefix (used for composed MBRs)."""
        while True:
            self._uniq += 1
            name = f"{prefix}_{self._uniq}"
            if name not in self.cells and name not in self.nets:
                return name

    # -- cells ------------------------------------------------------------------

    def add_cell(
        self,
        name: str,
        libcell: LibCell | str,
        origin: Point = Point(0.0, 0.0),
        fixed: bool = False,
        dont_touch: bool = False,
    ) -> Cell:
        cid = self.add_cell_raw(
            name, libcell, origin.x, origin.y, fixed=fixed, dont_touch=dont_touch
        )
        return self.store.cell_view(cid)

    def add_cell_raw(
        self,
        name: str,
        libcell: LibCell | str,
        x: float,
        y: float,
        fixed: bool = False,
        dont_touch: bool = False,
    ) -> int:
        """`add_cell` without materializing a view; returns the cell id.

        The bulk-construction path for parsers and generators.  Change
        trackers are still notified (which does materialize the view), so
        the two entry points are observationally identical.
        """
        if name in self.store.cell_ids:
            raise ValueError(f"duplicate cell name {name!r}")
        if isinstance(libcell, str):
            libcell = self.library.cell(libcell)
        cid = self.store.new_cell(name, libcell, x, y, fixed=fixed, dont_touch=dont_touch)
        if self._trackers:
            self._notify("on_add_cell", self.store.cell_view(cid))
        return cid

    def remove_cell(self, cell: Cell | str) -> None:
        """Remove a cell, disconnecting all of its pins."""
        if isinstance(cell, str):
            cell = self.cells[cell]
        store = self.store
        cid = cell._cid
        if self._trackers:
            for pin in list(cell.pins.values()):
                if pin.net is not None:
                    self.disconnect(pin)
        else:
            pin0 = int(store.cell_pin0[cid])
            for slot in range(pin0, pin0 + store.libs[store.cell_lib[cid]].n_pins):
                if store.pin_net[slot] != NO_ID:
                    store.unlink(slot << 1)
        store.free_cell(cid)  # detaches `cell` and any live pin views
        if self._trackers:
            self._notify("on_remove_cell", cell)

    def move_cell(self, cell: Cell | str, origin: Point) -> None:
        """Move a cell, notifying change trackers (pin locations shift, so
        every attached net's wire delays change)."""
        if isinstance(cell, str):
            cell = self.cells[cell]
        if cell.origin == origin:
            return
        cell.move_to(origin)
        if self._trackers:
            self._notify("on_move_cell", cell)

    def cell(self, name: str) -> Cell:
        try:
            return self.cells[name]
        except KeyError:
            raise KeyError(f"design {self.name!r} has no cell {name!r}") from None

    def swap_libcell(self, cell: Cell, new_libcell: LibCell | str) -> None:
        """Re-map a cell to a pin-compatible library cell (sizing).

        Every connected pin of the old cell must exist on the new cell; the
        connections carry over by pin name.  Used by MBR sizing to move
        between drive strengths of the same register family.
        """
        if isinstance(new_libcell, str):
            new_libcell = self.library.cell(new_libcell)
        saved = [(p.name, p.net) for p in cell.pins.values() if p.net is not None]
        for pin_name, _ in saved:
            if not new_libcell.has_pin(pin_name):
                raise ValueError(
                    f"cannot swap {cell.name} to {new_libcell.name}: "
                    f"no pin {pin_name!r} on the new cell"
                )
        for pin in cell.pins.values():
            if pin.net is not None:
                self.disconnect(pin)
        self.store.rebind_pins(cell._cid, new_libcell)
        for pin_name, net in saved:
            self.connect(cell.pin(pin_name), net)
        if self._trackers:
            self._notify("on_swap_libcell", cell)

    # -- nets --------------------------------------------------------------------

    def add_net(self, name: str, is_clock: bool = False) -> Net:
        nid = self.add_net_raw(name, is_clock=is_clock)
        return self.store.net_view(nid)

    def add_net_raw(self, name: str, is_clock: bool = False) -> int:
        """`add_net` without materializing a view; returns the net id."""
        if name in self.store.net_ids:
            raise ValueError(f"duplicate net name {name!r}")
        nid = self.store.new_net(name, is_clock=is_clock)
        if self._trackers:
            self._notify("on_add_net", self.store.net_view(nid))
        return nid

    def net(self, name: str) -> Net:
        try:
            return self.nets[name]
        except KeyError:
            raise KeyError(f"design {self.name!r} has no net {name!r}") from None

    def remove_net(self, net: Net | str) -> None:
        """Remove a net; all its terminals become unconnected."""
        if isinstance(net, str):
            net = self.nets[net]
        if self._trackers:
            self._notify("on_remove_net", net)  # terminals still attached
        self.store.free_net(net._nid)  # clears terminal back-refs, detaches view

    # -- ports -------------------------------------------------------------------

    def add_port(
        self,
        name: str,
        direction: PinDirection,
        location: Point,
        cap: float = 0.002,
    ) -> Port:
        pid = self.add_port_raw(
            name, direction is PinDirection.OUTPUT, location.x, location.y, cap
        )
        return self.store.port_view(pid)

    def add_port_raw(
        self, name: str, is_output: bool, x: float, y: float, cap: float = 0.002
    ) -> int:
        """`add_port` without materializing a view; returns the port id."""
        if name in self.store.port_ids:
            raise ValueError(f"duplicate port name {name!r}")
        return self.store.new_port(name, is_output, x, y, cap)

    # -- connectivity ------------------------------------------------------------

    def connect(self, terminal: Terminal, net: Net | str) -> None:
        if isinstance(net, str):
            net = self.nets[net]
        if isinstance(terminal, _DetachedPin):
            raise ValueError("cannot connect a pin of a removed cell")
        current = terminal.net
        if current is net:
            return
        if current is not None:
            self.disconnect(terminal)
        self.store.link(terminal._tid, net._nid)
        if self._trackers:
            self._notify("on_connect", terminal, net)

    def disconnect(self, terminal: Terminal) -> None:
        net = terminal.net  # None for unconnected and for detached pins
        if net is None:
            return
        self.store.unlink(terminal._tid)
        if self._trackers:
            self._notify("on_disconnect", terminal, net)

    # -- views --------------------------------------------------------------------

    def registers(self) -> list[Cell]:
        """All register cells (single-bit flops, latches, and MBRs)."""
        store = self.store
        return [
            store.cell_view(cid)
            for cid in store.cell_ids.values()
            if store.cell_is_register(cid)
        ]

    def iter_terminals(self) -> Iterator[Terminal]:
        for cell in self.cells.values():
            yield from cell.pins.values()
        yield from self.ports.values()

    def clock_nets(self) -> list[Net]:
        store = self.store
        return [
            store.net_view(nid)
            for nid in store.net_ids.values()
            if store.net_clock[nid]
        ]

    # -- aggregate metrics ---------------------------------------------------------

    def total_cell_area(self) -> float:
        store = self.store
        return sum(
            store.libs[store.cell_lib[cid]].libcell.area
            for cid in store.cell_ids.values()
        )

    def total_register_count(self) -> int:
        """Number of register *cells* — each MBR counts as one register,
        matching the paper's Table 1 'Total Regs' convention."""
        store = self.store
        return sum(1 for cid in store.cell_ids.values() if store.cell_is_register(cid))

    def total_register_bits(self) -> int:
        """Number of *connected* register bits — invariant under MBR
        composition (an incomplete MBR's spare bits do not count)."""
        from repro.netlist.registers import RegisterView

        return sum(RegisterView(c).connected_bit_count for c in self.registers())

    def total_hpwl(self) -> float:
        store = self.store
        total = 0.0
        for nid in store.net_ids.values():
            box = store.net_bbox(nid)
            if box is not None:
                total += (box[2] - box[0]) + (box[3] - box[1])
        return total

    def hpwl_split(self) -> tuple[float, float]:
        """(clock wirelength, other wirelength) — Table 1's two WL columns."""
        store = self.store
        clk = 0.0
        other = 0.0
        for nid in store.net_ids.values():
            box = store.net_bbox(nid)
            if box is None:
                continue
            hpwl = (box[2] - box[0]) + (box[3] - box[1])
            if store.net_clock[nid]:
                clk += hpwl
            else:
                other += hpwl
        return clk, other

    def width_histogram(self) -> dict[int, int]:
        """Register count per bit width — the data behind the paper's Fig. 5."""
        store = self.store
        hist: dict[int, int] = {}
        for cid in store.cell_ids.values():
            rec = store.libs[store.cell_lib[cid]]
            if rec.is_register:
                width = rec.libcell.width_bits
                hist[width] = hist.get(width, 0) + 1
        return dict(sorted(hist.items()))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Design({self.name}: {len(self.cells)} cells, "
            f"{len(self.nets)} nets, {len(self.ports)} ports)"
        )
