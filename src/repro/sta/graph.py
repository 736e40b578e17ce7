"""Timing graph construction and in-place patching.

Nodes are netlist terminals (cell pins and design ports); edges are

* *net arcs* — net driver to each sink, delayed by Manhattan wire delay;
* *cell arcs* — input to output through combinational cells, delayed by the
  linear drive model (the output's load includes sink pin caps plus wire
  capacitance from the net's HPWL);
* *launch arcs* — register CK to Q (clock-to-q plus drive delay), realized
  as arrival seeds rather than explicit edges.

Register D pins, register control pins, and output ports terminate paths;
register Q pins, input ports, and CK pins originate them.  Clock nets do not
propagate as data: clock arrival at each register is modelled separately
(ideal clock + per-register useful-skew offset).

The graph reads the netlist straight from the
:class:`~repro.netlist.store.NetlistStore` columns: one walk per net
(:meth:`_NetReader.walk`) yields the driver, each sink with its location,
and the driver's load, and per-library-cell pin-index tables
(:class:`_LibArcs`) place the cell arcs and register seeds.  A node's id
is its store terminal id (``tid``: ``pin_slot << 1`` for a pin,
``(port_id << 1) | 1`` for a port), so building and patching the graph
make no views; :meth:`~repro.netlist.store.NetlistStore.terminal_name`
names a node.

An arc is a *row* of four columns — ``src``, ``dst``, ``delay`` and
``alive`` — which the :class:`~repro.sta.arraygraph.ArrayKernel` sweeps
directly.  Two more row columns chain each node's outgoing and incoming
rows into lists headed by per-terminal-id arrays, and a per-terminal-id
count array holds each node's arc ends plus seed roles.  A dropped row goes
onto a free list and the next added arc reuses it, so rows never move;
row order changes no value, since every sweep reduces with max/min and
every output is sorted by name or terminal id.

The graph is *patchable*: :meth:`TimingGraph.apply_change` consumes a
:class:`~repro.netlist.change.ChangeRecord` and patches only the arcs the
edit changed — a rewired net that kept its driver keeps the rows to the
sinks that stayed, and a moved cell's sink pins have just their own rows
re-delayed in place — returning a :class:`GraphPatch` with the terminal
ids whose timing became stale.  Ownership indexes (`net name -> driver`,
`cell name -> arc rows/seed pins`) make each patch O(edited
neighborhood), and node refcounts retire terminals exactly when their last
arc or seed role disappears — the patched graph matches a fresh build row
for row (:meth:`TimingGraph.differences`).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

import numpy as np

from repro.library.cells import (
    ClockBufferCell,
    ClockGateCell,
    CombCell,
    LibCell,
    PinDirection,
    RegisterCell,
)
from repro.library.library import Technology
from repro.netlist.change import ChangeRecord
from repro.netlist.db import Terminal
from repro.netlist.design import Design
from repro.netlist.store import NO_ID, NetlistStore

_INPUT = PinDirection.INPUT
_COMB_TYPES = (CombCell, ClockBufferCell, ClockGateCell)


@dataclass
class GraphPatch:
    """The fallout of one :meth:`TimingGraph.apply_change`.

    ``dirty`` holds terminal ids whose arrival/required values may have
    changed (new seeds, re-delayed or re-routed arcs); the timer
    re-propagates their forward and backward cones.  ``removed`` holds
    terminal ids that left the graph, and the timer purges their cached
    state.  The store recycles a freed pin block for the next cell of the
    same pin count, so a removed id may name a new node again by the end of
    the same patch; its state is stale all the same.
    """

    dirty: set[int] = field(default_factory=set)
    removed: set[int] = field(default_factory=set)


@dataclass(frozen=True, slots=True)
class _LibArcs:
    """Pin indices of one library cell's timing roles, resolved once.

    ``inputs``/``outputs`` order a combinational cell's arcs (library pin
    order); ``bits`` holds a register's ``(D, Q)`` pin index per bit.
    """

    libcell: LibCell
    inputs: tuple[int, ...] = ()
    outputs: tuple[int, ...] = ()
    bits: tuple[tuple[int, int], ...] = ()

    @classmethod
    def of(cls, libcell: LibCell, pin_index: dict[str, int]) -> "_LibArcs":
        if isinstance(libcell, RegisterCell):
            return cls(
                libcell,
                bits=tuple(
                    (pin_index[libcell.d_pin(b)], pin_index[libcell.q_pin(b)])
                    for b in range(libcell.width_bits)
                ),
            )
        if isinstance(libcell, _COMB_TYPES):
            return cls(
                libcell,
                inputs=tuple(pin_index[p.name] for p in libcell.input_pins),
                outputs=tuple(pin_index[p.name] for p in libcell.output_pins),
            )
        return cls(libcell)


@dataclass(slots=True)
class _NetWalk:
    """One net as the timer sees it: driver, sinks and driver load.

    ``driver`` is the first output pin or input port in connection order
    (``NO_ID`` when undriven) at ``(x, y)``; ``sinks`` lists every input
    pin and output port as ``(tid, x, y)``; ``load`` is the sink pin caps
    plus the wire cap of the net's HPWL.
    """

    driver: int
    x: float
    y: float
    sinks: list[tuple[int, float, float]]
    load: float


class _NetReader:
    """Store-column reads for one build or patch (the netlist is frozen
    while it lives).

    Every float is computed with the expressions of the view layer —
    ``Pin.location``, ``Net.driver``, ``Net.sinks``, ``Net.sink_cap`` and
    ``Net.hpwl`` — so the graph is bit-identical to one built from views.
    Walked loads are cached, so a net is walked once per build or patch.
    """

    def __init__(self, store: NetlistStore, tech: Technology) -> None:
        self.store = store
        self.libs = store.libs
        self.wire_cap = tech.wire_cap_per_um
        self.net_head = store.net_head.item
        self.net_clock = store.net_clock.item
        self.pin_net = store.pin_net.item
        self.pin_cell = store.pin_cell.item
        self.pin_next = store.pin_next.item
        self.cell_lib = store.cell_lib.item
        self.cell_pin0 = store.cell_pin0.item
        self.cell_x = store.cell_x.item
        self.cell_y = store.cell_y.item
        self.port_out = store.port_out.item
        self.port_x = store.port_x.item
        self.port_y = store.port_y.item
        self.port_cap = store.port_cap.item
        self.port_net = store.port_net.item
        self.port_next = store.port_next.item
        self.loads: dict[int, float] = {}

    def is_data_net(self, nid: int) -> bool:
        return nid != NO_ID and not self.net_clock(nid)

    def walk(self, nid: int) -> _NetWalk:
        """The one routine that reads a net's terminal list."""
        libs = self.libs
        driver = NO_ID
        dx = dy = 0.0
        sinks: list[tuple[int, float, float]] = []
        caps: list[float] = []
        xlo = ylo = float("inf")
        xhi = yhi = float("-inf")
        tid = self.net_head(nid)
        while tid != NO_ID:
            if tid & 1:
                pid = tid >> 1
                x = self.port_x(pid)
                y = self.port_y(pid)
                if self.port_out(pid):
                    sinks.append((tid, x, y))
                    caps.append(self.port_cap(pid))
                elif driver == NO_ID:
                    driver, dx, dy = tid, x, y
                nxt = self.port_next(pid)
            else:
                slot = tid >> 1
                cid = self.pin_cell(slot)
                desc = libs[self.cell_lib(cid)].pins[slot - self.cell_pin0(cid)]
                x = self.cell_x(cid) + desc.dx
                y = self.cell_y(cid) + desc.dy
                if desc.direction is _INPUT:
                    sinks.append((tid, x, y))
                    caps.append(desc.cap)
                elif driver == NO_ID:
                    driver, dx, dy = tid, x, y
                nxt = self.pin_next(slot)
            if x < xlo:
                xlo = x
            if x > xhi:
                xhi = x
            if y < ylo:
                ylo = y
            if y > yhi:
                yhi = y
            tid = nxt
        hpwl = (xhi - xlo) + (yhi - ylo) if xlo <= xhi else 0.0
        load = sum(caps) + self.wire_cap * hpwl
        self.loads[nid] = load
        return _NetWalk(driver, dx, dy, sinks, load)

    def load(self, nid: int) -> float:
        """Capacitive load on net ``nid``'s driver."""
        load = self.loads.get(nid)
        return self.walk(nid).load if load is None else load



def _levelize(src: np.ndarray, dst: np.ndarray, n: int) -> np.ndarray:
    """Longest-path level per terminal id, by frontier Kahn over arc arrays.

    Frontier ``k`` holds the nodes whose last predecessor left frontier
    ``k - 1``, so a node's frontier index is its longest-path level.
    Nodes still holding in-arcs when the frontier empties sit on, or
    behind, a combinational loop.
    """
    order = np.argsort(src, kind="stable")
    out_dst = dst[order]
    count = np.bincount(src, minlength=n)
    start = np.cumsum(count) - count
    indeg = np.bincount(dst, minlength=n)
    level = np.zeros(n, dtype=np.int64)
    frontier = np.nonzero((indeg == 0) & (count > 0))[0]
    k = 0
    while len(frontier):
        level[frontier] = k
        c = count[frontier]
        offsets = np.repeat(start[frontier] - (np.cumsum(c) - c), c)
        arcs = np.arange(len(offsets)) + offsets
        nxt, hits = np.unique(out_dst[arcs], return_counts=True)
        indeg[nxt] -= hits
        frontier = nxt[indeg[nxt] == 0]
        k += 1
    stuck = int(np.count_nonzero(indeg))
    if stuck:
        raise ValueError(
            "combinational loop detected: "
            f"{stuck} nodes unreachable in topological sort"
        )
    return level


class TimingGraph:
    """The levelized timing graph of a design, keyed by terminal id.

    Build is O(pins + nets).  After netlist edits the graph is either
    rebuilt from scratch (:class:`repro.sta.timer.Timer.dirty`) or patched
    in place via :meth:`apply_change`; both yield the same alive rows,
    seeds and refcounts.
    """

    def __init__(self, design: Design, technology: Technology | None = None) -> None:
        self.design = design
        self.tech = technology or design.library.technology
        # One row per arc; dead rows (alive 0) wait on the free list.
        self.src = array("q")
        self.dst = array("q")
        self.delay = array("d")
        self.alive = array("b")
        self._free: list[int] = []
        # Per-node row lists: a head row per terminal id, chained through
        # the next row with the same source (out) or destination (in).
        self._next_out = array("q")
        self._next_in = array("q")
        self._out_head = array("q")
        self._in_head = array("q")
        self._refs = array("i")  # node -> its arc ends + seed roles
        self._nodes = 0  # terminal ids with a nonzero refcount
        self._grow(design.store.tid_space)
        self.launch_by_id: dict[int, int] = {}  # Q pin -> register cell id
        self.capture_by_id: dict[int, int] = {}  # D pin -> register cell id
        self.launch_delay: dict[int, float] = {}  # Q pin -> ck->q delay
        self.input_ports: set[int] = set()
        self.output_ports: set[int] = set()
        # A net's arcs are exactly its driver's out rows: a driver (output
        # pin or input port) sits on one net and sources no cell arc.
        self._net_driver: dict[str, int] = {}
        self._cell_arcs: dict[str, list[int]] = {}
        self._cell_seeds: dict[str, list[int]] = {}
        self._lib_arcs: dict[int, _LibArcs] = {}
        self._topo: list[int] | None = None
        self._levels: np.ndarray | None = None
        self._build()

    @property
    def node_count(self) -> int:
        return self._nodes

    def contains(self, tid: int) -> bool:
        """True while the id names a live node or seeded terminal."""
        return self._refs[tid] > 0 or tid in self.input_ports or tid in self.output_ports

    def seed_pins(self, cell_name: str) -> list[int]:
        """The registered D/Q pins of a cell (empty if none connected)."""
        return list(self._cell_seeds.get(cell_name, ()))

    def out_rows(self, tid: int):
        """The alive rows leaving node ``tid``."""
        nxt = self._next_out
        row = self._out_head[tid]
        while row >= 0:
            yield row
            row = nxt[row]

    def arc_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(src, dst, delay)`` of the alive rows, as numpy arrays."""
        rows = np.flatnonzero(np.array(self.alive, dtype=bool))
        return (
            np.array(self.src, dtype=np.int64)[rows],
            np.array(self.dst, dtype=np.int64)[rows],
            np.array(self.delay, dtype=np.float64)[rows],
        )

    def differences(self, fresh: "TimingGraph") -> list[tuple[str, str]]:
        """How this graph differs from ``fresh``, a from-scratch build of
        the same netlist: ``(part, detail)`` pairs, ``part`` being
        ``"arcs"`` (the sorted alive ``(src, dst, delay)`` rows),
        ``"seeds"`` (launch/capture pins, ports and launch delays) or
        ``"refcounts"``.  Empty when the two agree.
        """
        out: list[tuple[str, str]] = []
        mine, theirs = self.arc_arrays(), fresh.arc_arrays()
        by_src, fresh_by_src = np.lexsort(mine[::-1]), np.lexsort(theirs[::-1])
        if not all(
            np.array_equal(a[by_src], b[fresh_by_src]) for a, b in zip(mine, theirs)
        ):
            out.append(
                ("arcs", f"{len(mine[0])} arcs, a fresh build has {len(theirs[0])}")
            )
        for label, live, ref in (
            ("launch pins", self.launch_by_id, fresh.launch_by_id),
            ("capture pins", self.capture_by_id, fresh.capture_by_id),
            ("input ports", self.input_ports, fresh.input_ports),
            ("output ports", self.output_ports, fresh.output_ports),
            ("launch delays", self.launch_delay, fresh.launch_delay),
        ):
            if live != ref:
                out.append(("seeds", f"{label} differ ({len(live)} vs {len(ref)})"))
        n = max(len(self._refs), len(fresh._refs))
        counts = np.zeros((2, n), dtype=np.int64)
        counts[0, : len(self._refs)] = self._refs
        counts[1, : len(fresh._refs)] = fresh._refs
        diff = np.flatnonzero(counts[0] != counts[1]).tolist()
        if diff:
            names = sorted(self.design.store.terminal_name(t) for t in diff)
            out.append(
                (
                    "refcounts",
                    f"{len(diff)} node refcount(s) differ: " + ", ".join(names[:8]),
                )
            )
        return out

    # -- delay model --------------------------------------------------------

    def _reader(self) -> _NetReader:
        return _NetReader(self.design.store, self.tech)

    def output_load(self, pin: Terminal) -> float:
        """Capacitive load on a driver: sink pin caps + wire capacitance."""
        net = pin.net
        if net is None:
            return 0.0
        return self._reader().load(net._nid)

    def _wire_delay(self, x0: float, y0: float, x1: float, y1: float) -> float:
        """Manhattan-distance wire delay between two terminal locations."""
        return self.tech.wire_delay_per_um * (abs(x0 - x1) + abs(y0 - y1))

    def _lib(self, reader: _NetReader, cid: int) -> _LibArcs:
        lid = reader.cell_lib(cid)
        arcs = self._lib_arcs.get(lid)
        if arcs is None:
            rec = reader.libs[lid]
            arcs = self._lib_arcs[lid] = _LibArcs.of(rec.libcell, rec.pin_index)
        return arcs

    # -- node/row bookkeeping ----------------------------------------------

    def _grow(self, tid_space: int) -> None:
        """Extend the per-terminal-id arrays to ``tid_space`` ids."""
        k = tid_space - len(self._refs)
        if k > 0:
            self._refs.extend(array("i", [0]) * k)
            self._out_head.extend(array("q", [-1]) * k)
            self._in_head.extend(array("q", [-1]) * k)

    def _ensure(self, t: int) -> None:
        refs = self._refs
        if refs[t]:
            refs[t] += 1
        else:
            refs[t] = 1
            self._nodes += 1
            if self._levels is not None:
                self._levels[t] = 0  # a new node has no arcs yet

    def _release(self, t: int, patch: GraphPatch) -> None:
        refs = self._refs[t]
        if refs <= 1:
            self._nodes -= refs
            self._refs[t] = 0
            patch.removed.add(t)
        else:
            self._refs[t] = refs - 1

    def _add_arc(self, src: int, dst: int, delay: float, patch: GraphPatch) -> int:
        """Store an arc in a free row, or a new one; returns the row."""
        if self._free:
            row = self._free.pop()
            self.src[row] = src
            self.dst[row] = dst
            self.delay[row] = delay
            self.alive[row] = 1
            self._next_out[row] = self._out_head[src]
            self._next_in[row] = self._in_head[dst]
        else:
            row = len(self.src)
            self.src.append(src)
            self.dst.append(dst)
            self.delay.append(delay)
            self.alive.append(1)
            self._next_out.append(self._out_head[src])
            self._next_in.append(self._in_head[dst])
        self._out_head[src] = row
        self._in_head[dst] = row
        self._ensure(src)
        self._ensure(dst)
        patch.dirty.add(src)
        patch.dirty.add(dst)
        if self._levels is not None:
            self._bump_level(src, dst)
        return row

    def _redelay(self, row: int, delay: float, patch: GraphPatch) -> None:
        """Give an arc a new delay in its own row (a no-op when bit-equal)."""
        if self.delay[row] != delay:
            self.delay[row] = delay
            patch.dirty.add(self.src[row])
            patch.dirty.add(self.dst[row])

    def _bump_level(self, src: int, dst: int) -> None:
        """Restore the level invariant after inserting arc src -> dst.

        :meth:`levels` only needs a valid topological numbering (every arc
        strictly ascends), not tight longest-path values — so insertions
        push the destination (and, cascading, its fanout) up instead of
        invalidating the whole cache, and removals cost nothing: deleting
        an arc cannot break strict ascent on the arcs that remain.  The
        cascade is bounded; a runaway (a cycle just formed, or levels
        crept loose across many patches) drops the cache so the next
        :meth:`levels` rebuilds tight values from scratch — and the full
        levelization is where real loops get diagnosed.
        """
        lv = self._levels
        ls = lv[src]
        if lv[dst] > ls:
            return
        lv[dst] = ls + 1
        stack = [dst]
        budget = 4 * self._nodes + 64
        dsts = self.dst
        while stack:
            budget -= 1
            if budget < 0:
                self._levels = None
                return
            n = stack.pop()
            base = lv[n] + 1
            for row in self.out_rows(n):
                d = dsts[row]
                if lv[d] < base:
                    lv[d] = base
                    stack.append(d)

    def _drop_rows(self, src: int, gone: set[int] | None, patch: GraphPatch) -> None:
        """Drop rows leaving ``src`` — those in ``gone``, or all of them
        when it is ``None`` — in one pass over its out-list."""
        nxt = self._next_out
        prev = -1
        row = self._out_head[src]
        while row >= 0:
            after = nxt[row]
            if gone is None or row in gone:
                if prev < 0:
                    self._out_head[src] = after
                else:
                    nxt[prev] = after
                self._free_row(row, src, patch)
            else:
                prev = row
            row = after

    def _free_row(self, row: int, src: int, patch: GraphPatch) -> None:
        """Unlink a row from its destination's in-list (a short list: a
        sink pin has one net arc, an output pin one arc per cell input)
        and put it on the free list."""
        dst = self.dst[row]
        nxt = self._next_in
        r = self._in_head[dst]
        if r == row:
            self._in_head[dst] = nxt[row]
        else:
            while nxt[r] != row:
                r = nxt[r]
            nxt[r] = nxt[row]
        self.alive[row] = 0
        self._free.append(row)
        patch.dirty.add(src)
        patch.dirty.add(dst)
        self._release(src, patch)
        self._release(dst, patch)

    # -- construction -------------------------------------------------------

    def _build(self) -> None:
        patch = GraphPatch()  # discarded: a fresh build has no stale state
        store = self.design.store
        reader = self._reader()

        # Net arcs (data nets only — the clock network is ideal here).
        for name, nid in store.net_ids.items():
            if not reader.net_clock(nid):
                self._add_net(name, reader.walk(nid), patch)

        # Cell arcs and register launch/capture seeds.
        for name, cid in store.cell_ids.items():
            self._add_cell_entries(name, cid, reader, patch)

        for pid in store.port_ids.values():
            self._register_port(pid, reader)

    def _add_net(self, name: str, walk: _NetWalk, patch: GraphPatch) -> None:
        driver = walk.driver
        if driver == NO_ID:
            return
        self._ensure(driver)
        patch.dirty.add(driver)
        x, y = walk.x, walk.y
        for tid, sx, sy in walk.sinks:
            self._add_arc(driver, tid, self._wire_delay(x, y, sx, sy), patch)
        self._net_driver[name] = driver

    def _drop_net(self, name: str, patch: GraphPatch) -> None:
        driver = self._net_driver.pop(name, None)
        if driver is None:
            return
        self._drop_rows(driver, None, patch)
        patch.dirty.add(driver)
        self._release(driver, patch)

    def _patch_sinks(self, walk: _NetWalk, patch: GraphPatch) -> None:
        """Bring a rewired net whose driver stayed up to date, sink by sink.

        The row to a sink that stayed is kept and re-delayed in place; the
        row to a sink that left is dropped, and a sink that arrived gets a
        new row.  A sink that stayed never leaves the graph and keeps its
        cached timing.
        """
        driver = walk.driver
        dsts = self.dst
        old = {dsts[row]: row for row in self.out_rows(driver)}
        x, y = walk.x, walk.y
        for tid, sx, sy in walk.sinks:
            delay = self._wire_delay(x, y, sx, sy)
            row = old.pop(tid, None)
            if row is None:
                self._add_arc(driver, tid, delay, patch)
            else:
                self._redelay(row, delay, patch)
        if old:
            self._drop_rows(driver, set(old.values()), patch)

    def _redelay_sink(
        self, driver: int, pin: int, reader: _NetReader, patch: GraphPatch
    ) -> None:
        """Re-derive the wire delay of the one arc into a moved sink pin.

        The row is found through the pin's in-list and re-delayed in
        place, so the sink stays in the graph, keeps its cached timing,
        and only the arc's two endpoints are dirtied.  A moved pin that is
        no sink of the net (a second output pin on it) has no arc to
        re-delay.
        """
        row = self._in_head[pin]
        while row >= 0:
            if self.src[row] == driver:
                xy = reader.store.terminal_xy
                self._redelay(row, self._wire_delay(*xy(driver), *xy(pin)), patch)
                return
            row = self._next_in[row]

    def _add_cell_entries(
        self, name: str, cid: int, reader: _NetReader, patch: GraphPatch
    ) -> None:
        lib = self._lib(reader, cid)
        if lib.bits:
            self._register_entries(name, cid, lib, reader, patch)
        elif lib.outputs:
            self._comb_entries(name, cid, lib, reader, patch)

    def _comb_entries(
        self, name: str, cid: int, lib: _LibArcs, reader: _NetReader, patch: GraphPatch
    ) -> None:
        pin0 = reader.cell_pin0(cid)
        rows: list[int] = []
        for o in lib.outputs:
            onet = reader.pin_net(pin0 + o)
            if not reader.is_data_net(onet):
                continue
            delay = lib.libcell.delay(reader.load(onet))
            for i in lib.inputs:
                if reader.is_data_net(reader.pin_net(pin0 + i)):
                    rows.append(
                        self._add_arc((pin0 + i) << 1, (pin0 + o) << 1, delay, patch)
                    )
        if rows:
            self._cell_arcs[name] = rows
    def _register_entries(
        self, name: str, cid: int, lib: _LibArcs, reader: _NetReader, patch: GraphPatch
    ) -> None:
        lc = lib.libcell
        pin0 = reader.cell_pin0(cid)
        seeds: list[int] = []
        for d_idx, q_idx in lib.bits:
            if reader.pin_net(pin0 + d_idx) != NO_ID:
                d = (pin0 + d_idx) << 1
                self._ensure(d)
                seeds.append(d)
                self.capture_by_id[d] = cid
                patch.dirty.add(d)
            qnet = reader.pin_net(pin0 + q_idx)
            if qnet != NO_ID:
                q = (pin0 + q_idx) << 1
                self._ensure(q)
                seeds.append(q)
                self.launch_by_id[q] = cid
                # The Timer seeds arrival(Q) = clk_arrival + this delay.
                self.launch_delay[q] = (
                    lc.clk_to_q + lc.drive_resistance * reader.load(qnet)
                )
                patch.dirty.add(q)
        if seeds:
            self._cell_seeds[name] = seeds

    def _drop_cell_entries(self, name: str, patch: GraphPatch) -> None:
        rows = self._cell_arcs.pop(name, None)
        if rows:
            gone = set(rows)
            for src in dict.fromkeys(self.src[row] for row in rows):
                self._drop_rows(src, gone, patch)
        for t in self._cell_seeds.pop(name, ()):
            patch.dirty.add(t)
            self.capture_by_id.pop(t, None)
            if self.launch_by_id.pop(t, None) is not None:
                self.launch_delay.pop(t, None)
            self._release(t, patch)

    def _register_port(self, pid: int, reader: _NetReader) -> None:
        if reader.is_data_net(reader.port_net(pid)):
            ports = self.output_ports if reader.port_out(pid) else self.input_ports
            ports.add((pid << 1) | 1)

    def _refresh_port(self, name: str, reader: _NetReader, patch: GraphPatch) -> None:
        pid = reader.store.port_ids.get(name)
        if pid is None:
            return
        tid = (pid << 1) | 1
        self.input_ports.discard(tid)
        self.output_ports.discard(tid)
        self._register_port(pid, reader)
        patch.dirty.add(tid)

    # -- incremental patching ----------------------------------------------

    def apply_change(self, record: ChangeRecord) -> GraphPatch:
        """Patch the graph after a netlist edit, in place.

        Only arcs the edit changed are touched.  A rewired net — or a net
        a moved cell drives — is re-walked: if its driver stayed, rows to
        sinks that stayed are kept and re-delayed in place, rows to
        departed sinks are dropped and new sinks get rows; a new driver
        rebuilds the net.  On a net a moved cell only sinks, just the rows
        into its pins are re-delayed.  Cells the edit added, touched, resized or moved
        get their cell arcs and seeds rebuilt, and drivers of rewired nets
        and of nets with a moved sink have their delay model refreshed
        (their load changed even when their own connectivity did not).
        Returns the :class:`GraphPatch` seeding the timer's dirty cones.
        """
        patch = GraphPatch()
        store = self.design.store
        reader = self._reader()
        self._topo = None
        self._grow(store.tid_space)
        lv = self._levels
        if lv is not None and len(lv) < store.tid_space:
            self._levels = np.zeros(max(store.tid_space, 2 * len(lv)), dtype=np.int64)
            self._levels[: len(lv)] = lv

        # Nets to re-walk: explicitly rewired ones, plus every net a moved
        # cell drives (all its wire delays start at the moved driver pin).
        # On a net a moved cell only sinks, a wire delay depends on the
        # driver and the one sink, so only the arcs into the moved pins
        # change: those are re-delayed in place (step 4b), leaving the
        # net's other sinks alone — a moved register does not disturb the
        # hundreds of sinks of its reset or scan-enable net.
        walk_nets: dict[str, int] = {}
        for name in record.rewired_nets:
            nid = store.net_ids.get(name)
            if nid is not None and not reader.net_clock(nid):
                walk_nets[name] = nid
        moved_sinks: list[tuple[str, int, int]] = []
        for cname in record.moved:
            cid = store.cell_ids.get(cname)
            if cid is None:
                continue
            pin0 = reader.cell_pin0(cid)
            for slot in range(pin0, pin0 + reader.libs[reader.cell_lib(cid)].n_pins):
                nid = reader.pin_net(slot)
                if not reader.is_data_net(nid):
                    continue
                name = store.net_name[nid]
                driver = self._net_driver.get(name)
                if driver is None or driver == slot << 1:
                    walk_nets.setdefault(name, nid)
                else:
                    moved_sinks.append((name, driver, slot << 1))

        # Cells whose arcs/seeds must be rebuilt.  Resized cells moved to a
        # new pin block; touched cells changed pin connectivity; moved
        # cells changed their output loads; added cells are new.
        rebuild_cells: dict[str, int] = {}
        for cname in (
            *record.touched, *record.resized, *record.moved, *record.cells_added
        ):
            cid = store.cell_ids.get(cname)
            if cid is not None:
                rebuild_cells[cname] = cid

        # 1. Drop arcs of dead nets and of re-walked nets that changed
        #    driver; a net that kept its driver is patched sink by sink.
        for name in record.removed_nets:
            self._drop_net(name, patch)
        walks: dict[str, tuple[_NetWalk, bool]] = {}
        for name, nid in walk_nets.items():
            walk = reader.walk(nid)
            kept = walk.driver != NO_ID and self._net_driver.get(name) == walk.driver
            if not kept:
                self._drop_net(name, patch)
            walks[name] = (walk, kept)

        # 2. Drop entries of dead and rebuilt cells (retires stale pins).
        for cname in record.removed:
            self._drop_cell_entries(cname, patch)
        for cname in rebuild_cells:
            self._drop_cell_entries(cname, patch)

        # 3. Rebuild cell entries against the current netlist.
        for cname, cid in rebuild_cells.items():
            self._add_cell_entries(cname, cid, reader, patch)

        # 4. Patch kept-driver nets sink by sink; rebuild the others.
        for name, (walk, kept) in walks.items():
            if kept:
                self._patch_sinks(walk, patch)
            else:
                self._add_net(name, walk, patch)

        # 4b. Re-delay the arcs into moved sink pins of the other nets.
        refresh: dict[int, None] = {}
        for name in walks:
            driver = self._net_driver.get(name)
            if driver is not None:
                refresh[driver] = None
        for name, driver, pin in moved_sinks:
            if name not in walks:
                self._redelay_sink(driver, pin, reader, patch)
                refresh[driver] = None

        # 5. Refresh drivers whose load changed without their own rebuild.
        for driver in refresh:
            self._refresh_driver(driver, rebuild_cells, reader, patch)

        # 6. Re-register edited ports.
        for pname in record.ports_touched:
            self._refresh_port(pname, reader, patch)

        return patch

    def _refresh_driver(
        self,
        driver: int,
        rebuilt: dict[str, int],
        reader: _NetReader,
        patch: GraphPatch,
    ) -> None:
        """Re-derive the delay model of an edited net's driver cell.

        A net rewire or a moved sink changes the driver's output load
        (sink caps + HPWL), which feeds the comb delay or the register
        clk->q launch delay.
        """
        if driver & 1:
            return  # a port
        cid = reader.pin_cell(driver >> 1)
        name = reader.store.cell_name[cid]
        if name in rebuilt:
            return  # already rebuilt with fresh loads
        lib = self._lib(reader, cid)
        if lib.bits:
            if driver in self.launch_delay:
                lc = lib.libcell
                load = reader.load(reader.pin_net(driver >> 1))
                delay = lc.clk_to_q + lc.drive_resistance * load
                if delay != self.launch_delay[driver]:
                    self.launch_delay[driver] = delay
                    patch.dirty.add(driver)
        elif lib.outputs:
            self._drop_cell_entries(name, patch)
            self._add_cell_entries(name, cid, reader, patch)
            rebuilt[name] = cid

    # -- topology --------------------------------------------------------------

    def topological_order(self) -> list[int]:
        """Kahn topological order over all graph nodes (cached until the
        next patch): the reference sweeps' order."""
        if self._topo is not None:
            return self._topo
        dsts = self.dst
        indeg = dict.fromkeys(np.flatnonzero(np.array(self._refs)).tolist(), 0)
        for row, alive in enumerate(self.alive):
            if alive:
                indeg[dsts[row]] += 1
        ready = [t for t, d in indeg.items() if d == 0]
        order: list[int] = []
        while ready:
            t = ready.pop()
            order.append(t)
            for row in self.out_rows(t):
                d = dsts[row]
                indeg[d] -= 1
                if indeg[d] == 0:
                    ready.append(d)
        if len(order) != len(indeg):
            raise ValueError(
                "combinational loop detected: "
                f"{len(indeg) - len(order)} nodes unreachable in topological sort"
            )
        self._topo = order
        return order

    def levels(self) -> np.ndarray:
        """Level per terminal id (sources at 0, cached), a numpy array.

        Levels order the dirty-cone worklists: every arc goes from a lower
        to a strictly higher level, so draining a min-heap of levels visits
        each dirty node after all of its dirty predecessors.  Computed
        tight (longest path) by :func:`_levelize`, then kept valid across
        patches by :meth:`_bump_level`.
        """
        if self._levels is None:
            src, dst, _ = self.arc_arrays()
            self._levels = _levelize(src, dst, self.design.store.tid_space)
        return self._levels
