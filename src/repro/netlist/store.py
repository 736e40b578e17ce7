"""Slotted array-of-struct storage backing the netlist object model.

`NetlistStore` keeps every cell, pin, net, and port of a design in flat
columns — interned name tables, integer ids, numpy-backed origin/flag/libcell
columns, and linked-list terminal connectivity — instead of one Python object
per entity.  The classes in :mod:`repro.netlist.db` (`Cell`, `Net`, `Pin`,
`Port`) are thin flyweight *views* over these columns: at most one live view
exists per entity (a per-store weak cache canonicalizes them), so object
identity, hashing, and ``is`` comparisons behave exactly as they did when the
views owned their data.

Why: per-instance objects with dict fan-out cap the repo at paper-scale
inputs.  At 10^6 registers a design holds tens of millions of pins; at ~200
bytes per Python object plus per-cell pin dicts that is tens of gigabytes.
The slotted columns bring steady-state storage down to a few dozen bytes per
pin, and views are only materialized while someone is looking at them.

Layout summary (all ids are dense ints; dead slots go to free-lists):

* cells   — ``name``, ``libcell id``, ``x``, ``y``, ``flags`` (fixed /
  dont_touch), ``pin0`` (first pin slot); a cell's pins occupy the
  contiguous block ``[pin0, pin0 + len(libcell.pins))`` in pin order.
* pins    — ``net id`` (-1 unconnected), ``owner cell id``, ``next``
  terminal in the net's ordered list.
* nets    — ``name``, ``is_clock`` flag, ``head``/``tail`` terminal ids and
  a terminal count; terminals form a singly linked list in *connection
  order* (appends at the tail), preserving the terminal ordering the old
  per-net Python lists had.
* ports   — ``name``, direction, location, cap, ``net id``, ``next``.

Terminal ids ("tid") encode pins and ports uniformly:
``tid = pin_slot << 1`` for pins, ``tid = (port_id << 1) | 1`` for ports.

Library cells are interned once per store (`LibRecord`): the pin-descriptor
tuple, a ``pin name -> index`` map, an ``is_register`` flag and a register's
D/Q pin indices are resolved a single time instead of per instance — parsers
and hot paths look pins up by integer index.

Deletion discipline: freed cell/pin/net slots are recycled, so a stale view
must never read the store again after its entity dies.  `free_cell`,
`free_net`, and `rebind_pins` therefore *detach* any live cached views
(snapshotting their final state into the view, exactly the state the old
detached objects kept) and evict them from the weak cache before the slots
return to the free-lists.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator
from weakref import WeakValueDictionary

import numpy as np

from repro.library.cells import LibCell, PinDesc, RegisterCell

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (db imports nothing
    from repro.netlist.db import Cell, Net, Pin, Port  # from this module)

NO_ID = -1

# cell_flags bits
FIXED = 1
DONT_TOUCH = 2


class LibRecord:
    """Per-store interned data of one library cell.

    Resolving pin descriptors and the name->index map once per library cell
    (not once per instance, and not once per lookup) is what makes slotted
    pin blocks possible: a pin is identified by ``(cell id, desc index)``.
    """

    __slots__ = ("libcell", "pins", "pin_index", "n_pins", "is_register", "dq_pins")

    def __init__(self, libcell: LibCell) -> None:
        self.libcell = libcell
        self.pins: tuple[PinDesc, ...] = libcell.pins
        self.pin_index: dict[str, int] = {d.name: i for i, d in enumerate(libcell.pins)}
        self.n_pins = len(libcell.pins)
        self.is_register = isinstance(libcell, RegisterCell)
        # Pin indices of a register's data pins (every D and Q bit): the
        # only pins whose timing and net geometry register analysis reads.
        self.dq_pins: frozenset[int] = (
            frozenset(
                self.pin_index[name]
                for bit in range(libcell.width_bits)
                for name in (libcell.d_pin(bit), libcell.q_pin(bit))
            )
            if self.is_register
            else frozenset()
        )


def _grow(arr: np.ndarray, need: int, fill) -> np.ndarray:
    """Amortized-doubling growth for a column (returns the new array)."""
    cap = len(arr)
    if need <= cap:
        return arr
    out = np.full(max(need, cap * 2, 64), fill, arr.dtype)
    out[:cap] = arr
    return out


class NetlistStore:
    """Columnar storage for one design's cells, pins, nets, and ports."""

    def __init__(self) -> None:
        # -- library interning ------------------------------------------------
        self._lib_by_obj: dict[int, int] = {}  # id(libcell) -> lid
        self.libs: list[LibRecord] = []

        # -- cells ------------------------------------------------------------
        self.cell_ids: dict[str, int] = {}  # live cells, insertion-ordered
        self.cell_name: list[str | None] = []
        self.cell_lib = np.empty(0, np.int32)
        self.cell_x = np.empty(0, np.float64)
        self.cell_y = np.empty(0, np.float64)
        self.cell_flags = np.empty(0, np.uint8)
        self.cell_pin0 = np.empty(0, np.int64)
        self.cell_attrs: dict[int, dict] = {}  # sparse: most cells carry none
        self._cell_free: list[int] = []

        # -- pins -------------------------------------------------------------
        self.pin_net = np.empty(0, np.int64)
        self.pin_cell = np.empty(0, np.int64)
        self.pin_next = np.empty(0, np.int64)  # tid of next terminal on net
        self.pin_prev = np.empty(0, np.int64)  # tid of previous terminal on net
        self._pin_free: dict[int, list[int]] = {}  # block size -> block starts
        self._pin_top = 0

        # -- nets -------------------------------------------------------------
        self.net_ids: dict[str, int] = {}
        self.net_name: list[str | None] = []
        self.net_clock = np.empty(0, np.uint8)
        self.net_head = np.empty(0, np.int64)
        self.net_tail = np.empty(0, np.int64)
        self.net_count = np.empty(0, np.int64)
        self._net_free: list[int] = []

        # -- ports (never deleted) -------------------------------------------
        self.port_ids: dict[str, int] = {}
        self.port_name: list[str] = []
        self.port_out = np.empty(0, np.uint8)  # 1 = design output
        self.port_x = np.empty(0, np.float64)
        self.port_y = np.empty(0, np.float64)
        self.port_cap = np.empty(0, np.float64)
        self.port_net = np.empty(0, np.int64)
        self.port_next = np.empty(0, np.int64)
        self.port_prev = np.empty(0, np.int64)

        # -- canonical flyweight views ---------------------------------------
        self._cell_views: WeakValueDictionary[int, "Cell"] = WeakValueDictionary()
        self._pin_views: WeakValueDictionary[int, "Pin"] = WeakValueDictionary()
        self._net_views: WeakValueDictionary[int, "Net"] = WeakValueDictionary()
        self._port_views: WeakValueDictionary[int, "Port"] = WeakValueDictionary()

    # -- library interning ----------------------------------------------------

    def intern_libcell(self, libcell: LibCell) -> int:
        lid = self._lib_by_obj.get(id(libcell))
        if lid is None:
            lid = len(self.libs)
            self.libs.append(LibRecord(libcell))
            self._lib_by_obj[id(libcell)] = lid
        return lid

    # -- cells ----------------------------------------------------------------

    def new_cell(
        self,
        name: str,
        libcell: LibCell,
        x: float,
        y: float,
        fixed: bool = False,
        dont_touch: bool = False,
    ) -> int:
        """Allocate a cell slot plus its contiguous pin block; returns cid."""
        lid = self.intern_libcell(libcell)
        n_pins = self.libs[lid].n_pins
        if self._cell_free:
            cid = self._cell_free.pop()
        else:
            cid = len(self.cell_name)
            self.cell_name.append(None)
            need = cid + 1
            self.cell_lib = _grow(self.cell_lib, need, 0)
            self.cell_x = _grow(self.cell_x, need, 0.0)
            self.cell_y = _grow(self.cell_y, need, 0.0)
            self.cell_flags = _grow(self.cell_flags, need, 0)
            self.cell_pin0 = _grow(self.cell_pin0, need, NO_ID)
        pin0 = self._alloc_pin_block(n_pins, cid)
        self.cell_name[cid] = name
        self.cell_ids[name] = cid
        self.cell_lib[cid] = lid
        self.cell_x[cid] = x
        self.cell_y[cid] = y
        self.cell_flags[cid] = (FIXED if fixed else 0) | (DONT_TOUCH if dont_touch else 0)
        self.cell_pin0[cid] = pin0
        return cid

    def _alloc_pin_block(self, n_pins: int, cid: int) -> int:
        if n_pins == 0:
            return 0
        blocks = self._pin_free.get(n_pins)
        if blocks:
            pin0 = blocks.pop()
        else:
            pin0 = self._pin_top
            self._pin_top += n_pins
            need = self._pin_top
            self.pin_net = _grow(self.pin_net, need, NO_ID)
            self.pin_cell = _grow(self.pin_cell, need, NO_ID)
            self.pin_next = _grow(self.pin_next, need, NO_ID)
            self.pin_prev = _grow(self.pin_prev, need, NO_ID)
        self.pin_net[pin0 : pin0 + n_pins] = NO_ID
        self.pin_next[pin0 : pin0 + n_pins] = NO_ID
        self.pin_prev[pin0 : pin0 + n_pins] = NO_ID
        self.pin_cell[pin0 : pin0 + n_pins] = cid
        return pin0

    def free_cell(self, cid: int) -> None:
        """Retire a cell: detach live views, recycle its slot and pin block.

        The caller (``Design.remove_cell``) must already have disconnected
        every pin, so detached pin views correctly read as unconnected.
        """
        rec = self.libs[self.cell_lib[cid]]
        pin0 = int(self.cell_pin0[cid])
        self._detach_cell_views(cid, pin0, rec)
        name = self.cell_name[cid]
        del self.cell_ids[name]
        self.cell_name[cid] = None
        self.cell_attrs.pop(cid, None)
        if rec.n_pins:
            self._pin_free.setdefault(rec.n_pins, []).append(pin0)
        self.cell_pin0[cid] = NO_ID
        self._cell_free.append(cid)

    def rebind_pins(self, cid: int, new_libcell: LibCell) -> None:
        """Swap a cell to a new library cell: fresh pin block, old one freed.

        Mirrors the old model, where a libcell swap replaced every `Pin`
        object: stale pin views are detached (they read as unconnected — the
        caller disconnects them first) and new pin slots are allocated.
        """
        old_rec = self.libs[self.cell_lib[cid]]
        old_pin0 = int(self.cell_pin0[cid])
        self._detach_pin_views(old_pin0, old_rec.n_pins)
        cell = self._cell_views.get(cid)
        if cell is not None:
            cell._pins = None  # cached pin map points at the dead block
        if old_rec.n_pins:
            self._pin_free.setdefault(old_rec.n_pins, []).append(old_pin0)
        lid = self.intern_libcell(new_libcell)
        self.cell_lib[cid] = lid
        self.cell_pin0[cid] = self._alloc_pin_block(self.libs[lid].n_pins, cid)

    # -- nets -----------------------------------------------------------------

    def new_net(self, name: str, is_clock: bool = False) -> int:
        if self._net_free:
            nid = self._net_free.pop()
        else:
            nid = len(self.net_name)
            self.net_name.append(None)
            need = nid + 1
            self.net_clock = _grow(self.net_clock, need, 0)
            self.net_head = _grow(self.net_head, need, NO_ID)
            self.net_tail = _grow(self.net_tail, need, NO_ID)
            self.net_count = _grow(self.net_count, need, 0)
        self.net_name[nid] = name
        self.net_ids[name] = nid
        self.net_clock[nid] = 1 if is_clock else 0
        self.net_head[nid] = NO_ID
        self.net_tail[nid] = NO_ID
        self.net_count[nid] = 0
        return nid

    def free_net(self, nid: int) -> None:
        """Retire a net, clearing every terminal's net reference first."""
        self._detach_net_view(nid)
        tid = int(self.net_head[nid])
        while tid != NO_ID:
            nxt = self._get_next(tid)
            self._set_terminal_net(tid, NO_ID)
            self._set_next(tid, NO_ID)
            self._set_prev(tid, NO_ID)
            tid = nxt
        name = self.net_name[nid]
        del self.net_ids[name]
        self.net_name[nid] = None
        self.net_head[nid] = NO_ID
        self.net_tail[nid] = NO_ID
        self.net_count[nid] = 0
        self._net_free.append(nid)

    # -- ports ----------------------------------------------------------------

    def new_port(self, name: str, is_output: bool, x: float, y: float, cap: float) -> int:
        pid = len(self.port_name)
        self.port_name.append(name)
        self.port_ids[name] = pid
        need = pid + 1
        self.port_out = _grow(self.port_out, need, 0)
        self.port_x = _grow(self.port_x, need, 0.0)
        self.port_y = _grow(self.port_y, need, 0.0)
        self.port_cap = _grow(self.port_cap, need, 0.0)
        self.port_net = _grow(self.port_net, need, NO_ID)
        self.port_next = _grow(self.port_next, need, NO_ID)
        self.port_prev = _grow(self.port_prev, need, NO_ID)
        self.port_out[pid] = 1 if is_output else 0
        self.port_x[pid] = x
        self.port_y[pid] = y
        self.port_cap[pid] = cap
        return pid

    # -- terminal connectivity ------------------------------------------------
    # tid = pin_slot << 1  |  (port_id << 1) | 1

    def _get_next(self, tid: int) -> int:
        if tid & 1:
            return int(self.port_next[tid >> 1])
        return int(self.pin_next[tid >> 1])

    def _set_next(self, tid: int, value: int) -> None:
        if tid & 1:
            self.port_next[tid >> 1] = value
        else:
            self.pin_next[tid >> 1] = value

    def _get_prev(self, tid: int) -> int:
        if tid & 1:
            return int(self.port_prev[tid >> 1])
        return int(self.pin_prev[tid >> 1])

    def _set_prev(self, tid: int, value: int) -> None:
        if tid & 1:
            self.port_prev[tid >> 1] = value
        else:
            self.pin_prev[tid >> 1] = value

    def terminal_net(self, tid: int) -> int:
        if tid & 1:
            return int(self.port_net[tid >> 1])
        return int(self.pin_net[tid >> 1])

    def _set_terminal_net(self, tid: int, nid: int) -> None:
        if tid & 1:
            self.port_net[tid >> 1] = nid
        else:
            self.pin_net[tid >> 1] = nid

    def link(self, tid: int, nid: int) -> None:
        """Append a terminal to a net's ordered terminal list.

        The caller guarantees the terminal is currently unconnected
        (``Design.connect`` disconnects first), so appending at the tail
        reproduces the old ``list.append`` ordering exactly.
        """
        tail = int(self.net_tail[nid])
        if tail == NO_ID:
            self.net_head[nid] = tid
        else:
            self._set_next(tail, tid)
        self.net_tail[nid] = tid
        self._set_next(tid, NO_ID)
        self._set_prev(tid, tail)
        self._set_terminal_net(tid, nid)
        self.net_count[nid] += 1

    def unlink(self, tid: int) -> None:
        """Remove a terminal from its net's list (no-op when unconnected).

        O(1): the terminal list is doubly linked, so disconnecting one CK
        pin from a clock net with 10⁵ sinks costs the same as from a
        two-terminal data net — the difference between a linear and a
        quadratic composition pass on clock-dense designs.
        """
        nid = self.terminal_net(tid)
        if nid == NO_ID:
            return
        prev = self._get_prev(tid)
        nxt = self._get_next(tid)
        if prev == NO_ID:
            self.net_head[nid] = nxt
        else:
            self._set_next(prev, nxt)
        if nxt == NO_ID:
            self.net_tail[nid] = prev
        else:
            self._set_prev(nxt, prev)
        self._set_next(tid, NO_ID)
        self._set_prev(tid, NO_ID)
        self._set_terminal_net(tid, NO_ID)
        self.net_count[nid] -= 1

    def net_terminal_ids(self, nid: int) -> Iterator[int]:
        """Terminal ids of a net in connection order."""
        tid = int(self.net_head[nid])
        while tid != NO_ID:
            yield tid
            tid = self._get_next(tid)

    @property
    def tid_space(self) -> int:
        """One past the largest terminal id any pin or port can have."""
        return max(2 * self._pin_top, 2 * len(self.port_name))

    def terminal_name(self, tid: int) -> str:
        """A terminal's ``Pin.full_name``/``Port.name`` without a view
        (``<free pin slot N>`` for a pin slot no live cell owns)."""
        if tid & 1:
            return self.port_name[tid >> 1]
        slot = tid >> 1
        cid = int(self.pin_cell[slot])
        rec = self.libs[self.cell_lib[cid]]
        index = slot - int(self.cell_pin0[cid])
        if self.cell_name[cid] is None or not 0 <= index < rec.n_pins:
            return f"<free pin slot {slot}>"
        return f"{self.cell_name[cid]}/{rec.pins[index].name}"

    def terminal_xy(self, tid: int) -> tuple[float, float]:
        """A terminal's location without materializing a view."""
        if tid & 1:
            pid = tid >> 1
            return float(self.port_x[pid]), float(self.port_y[pid])
        slot = tid >> 1
        cid = int(self.pin_cell[slot])
        desc = self.libs[self.cell_lib[cid]].pins[slot - int(self.cell_pin0[cid])]
        return float(self.cell_x[cid]) + desc.dx, float(self.cell_y[cid]) + desc.dy

    def net_bbox(self, nid: int, exclude_tid: int = NO_ID):
        """Terminal bounding box ``(xlo, ylo, xhi, yhi)``; None when empty."""
        xlo = ylo = np.inf
        xhi = yhi = -np.inf
        seen = False
        for tid in self.net_terminal_ids(nid):
            if tid == exclude_tid:
                continue
            x, y = self.terminal_xy(tid)
            seen = True
            if x < xlo:
                xlo = x
            if x > xhi:
                xhi = x
            if y < ylo:
                ylo = y
            if y > yhi:
                yhi = y
        if not seen:
            return None
        return xlo, ylo, xhi, yhi

    # -- views ----------------------------------------------------------------

    def cell_view(self, cid: int) -> "Cell":
        view = self._cell_views.get(cid)
        if view is not None:
            return view
        from repro.netlist.db import Cell

        view = Cell.__new__(Cell)
        view._store = self
        view._cid = cid
        view.name = self.cell_name[cid]
        view._pins = None
        view._dead = None
        self._cell_views[cid] = view
        return view

    def pin_view(self, slot: int, cell: "Cell | None" = None, desc: PinDesc | None = None) -> "Pin":
        view = self._pin_views.get(slot)
        if view is not None:
            return view
        from repro.netlist.db import Pin

        if cell is None:
            cell = self.cell_view(int(self.pin_cell[slot]))
        if desc is None:
            rec = self.libs[self.cell_lib[cell._cid]]
            desc = rec.pins[slot - int(self.cell_pin0[cell._cid])]
        view = Pin.__new__(Pin)
        view._store = self
        view._slot = slot
        view.cell = cell
        view.desc = desc
        view._dead = None
        self._pin_views[slot] = view
        return view

    def net_view(self, nid: int) -> "Net":
        view = self._net_views.get(nid)
        if view is not None:
            return view
        from repro.netlist.db import Net

        view = Net.__new__(Net)
        view._store = self
        view._nid = nid
        view.name = self.net_name[nid]
        view.is_clock = bool(self.net_clock[nid])
        view._dead = None
        self._net_views[nid] = view
        return view

    def port_view(self, pid: int) -> "Port":
        view = self._port_views.get(pid)
        if view is not None:
            return view
        from repro.netlist.db import Port

        view = Port.__new__(Port)
        view._store = self
        view._pid = pid
        view.name = self.port_name[pid]
        self._port_views[pid] = view
        return view

    # -- detach (stale-view safety) -------------------------------------------

    def _detach_pin_views(self, pin0: int, n_pins: int) -> None:
        from repro.netlist.db import _DetachedPin

        for slot in range(pin0, pin0 + n_pins):
            view = self._pin_views.get(slot)
            if view is not None:
                view.__class__ = _DetachedPin
                del self._pin_views[slot]

    def _detach_cell_views(self, cid: int, pin0: int, rec: LibRecord) -> None:
        from repro.netlist.db import _DetachedCell

        view = self._cell_views.get(cid)
        if view is not None:
            # Materialize the pin map while the cell is still live: a
            # detached cell keeps (dead) pin views, just like removed cells
            # kept their Pin objects.  The fresh views enter the cache and
            # are converted by the detach pass below.
            pins = view.pins
        self._detach_pin_views(pin0, rec.n_pins)
        if view is not None:
            view._dead = (
                rec.libcell,
                float(self.cell_x[cid]),
                float(self.cell_y[cid]),
                int(self.cell_flags[cid]),
                pins,
                self.cell_attrs.get(cid, {}),
            )
            view.__class__ = _DetachedCell
            del self._cell_views[cid]

    def _detach_net_view(self, nid: int) -> None:
        from repro.netlist.db import _DetachedNet

        view = self._net_views.get(nid)
        if view is not None:
            # Removed nets kept their terminal list in the old model; the
            # change tracker reads it during the removal notification.
            view._dead = [self.terminal_view(tid) for tid in self.net_terminal_ids(nid)]
            view.__class__ = _DetachedNet
            del self._net_views[nid]

    def terminal_view(self, tid: int):
        if tid & 1:
            return self.port_view(tid >> 1)
        return self.pin_view(tid >> 1)

    # -- aggregate helpers ----------------------------------------------------

    def live_cell_ids(self) -> Iterator[int]:
        return iter(self.cell_ids.values())

    def cell_is_register(self, cid: int) -> bool:
        return self.libs[self.cell_lib[cid]].is_register

    @property
    def num_cells(self) -> int:
        return len(self.cell_ids)

    @property
    def num_nets(self) -> int:
        return len(self.net_ids)

    @property
    def num_ports(self) -> int:
        return len(self.port_ids)
