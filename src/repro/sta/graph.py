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
(:class:`_LibArcs`) place the cell arcs and register seeds.  Only terminals
that become graph nodes are materialized as views; a node's id is
``id(view)``.

The graph is *patchable*: :meth:`TimingGraph.apply_change` consumes a
:class:`~repro.netlist.change.ChangeRecord` and patches only the arcs the
edit changed — a rewired net that kept its driver keeps the arcs to the
sinks that stayed, and a moved cell's sink pins have just their own arcs
re-delayed — returning a :class:`GraphPatch` with the node ids whose
timing became stale and the exact arcs added and dropped.  Ownership
indexes (`net name -> driver`, `cell name -> arcs/seed pins`) make each
patch O(edited neighborhood), and node refcounts retire terminals exactly
when their last arc or seed role disappears — the patched graph matches a
fresh build arc-for-arc.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
from repro.netlist.db import Cell, Pin, Port, Terminal
from repro.netlist.design import Design
from repro.netlist.store import NO_ID, NetlistStore

_INPUT = PinDirection.INPUT
_COMB_TYPES = (CombCell, ClockBufferCell, ClockGateCell)


@dataclass(eq=False, slots=True)
class TimingArc:
    """A directed delay edge of the timing graph.

    Arcs compare by identity: two arcs between the same pins are still two
    arcs, and unlinking one never compares fields.  ``row`` is the arc's
    row in the graph's :class:`~repro.sta.arraygraph.ArrayKernel` mirror
    (-1 until a kernel compiles it).
    """

    src: Terminal
    dst: Terminal
    delay: float
    row: int = -1


@dataclass
class GraphPatch:
    """The fallout of one :meth:`TimingGraph.apply_change`.

    ``dirty`` holds node ids whose arrival/required values may have changed
    (new seeds, re-delayed or re-routed arcs); the timer re-propagates their
    forward and backward cones.  ``removed`` holds node ids that left the
    graph — the timer must purge their cached state, both for correctness
    and because ``id()`` values can be recycled by later allocations.

    ``added`` (insertion-ordered keys) and ``dropped`` are the patch's net
    arc delta: arcs that exist now and did not before, and arcs that
    existed before and are gone.  An arc added and dropped within one patch
    appears in neither.  The array kernel mirrors exactly this delta.
    """

    dirty: set[int] = field(default_factory=set)
    removed: set[int] = field(default_factory=set)
    added: dict[TimingArc, bool] = field(default_factory=dict)
    dropped: list[TimingArc] = field(default_factory=list)


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
        self.view = store.terminal_view
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


class TimingGraph:
    """The levelized timing graph of a design.

    Build is O(pins + nets).  After netlist edits the graph is either
    rebuilt from scratch (:class:`repro.sta.timer.Timer.dirty`) or patched
    in place via :meth:`apply_change`; both yield identical arcs and seeds.
    """

    def __init__(self, design: Design, technology: Technology | None = None) -> None:
        self.design = design
        self.tech = technology or design.library.technology
        self.fanout: dict[int, list[TimingArc]] = {}
        self.fanin: dict[int, list[TimingArc]] = {}
        self._nodes: dict[int, Terminal] = {}
        self._refs: dict[int, int] = {}
        self.launch_by_id: dict[int, tuple[Cell, Pin]] = {}
        self.capture_by_id: dict[int, tuple[Cell, Pin]] = {}
        self.launch_delay: dict[int, float] = {}  # id(Q pin) -> ck->q delay
        self.input_ports_by_id: dict[int, Port] = {}
        self.output_ports_by_id: dict[int, Port] = {}
        # A net's arcs are exactly its driver's fanout: a driver (output pin
        # or input port) sits on one net and sources no cell arc.
        self._net_driver: dict[str, Terminal] = {}
        self._cell_arcs: dict[str, list[TimingArc]] = {}
        self._cell_seeds: dict[str, list[Pin]] = {}
        self._lib_arcs: dict[int, _LibArcs] = {}
        self._topo: list[Terminal] | None = None
        self._levels: dict[int, int] | None = None
        self._build()

    # -- compatibility views ------------------------------------------------

    @property
    def nodes(self) -> list[Terminal]:
        return list(self._nodes.values())

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    @property
    def launch_q(self) -> list[tuple[Cell, Pin]]:
        return list(self.launch_by_id.values())

    @property
    def capture_d(self) -> list[tuple[Cell, Pin]]:
        return list(self.capture_by_id.values())

    @property
    def input_ports(self) -> list[Port]:
        return list(self.input_ports_by_id.values())

    @property
    def output_ports(self) -> list[Port]:
        return list(self.output_ports_by_id.values())

    def contains(self, node_id: int) -> bool:
        """True while the id names a live node or seeded terminal."""
        return (
            node_id in self._nodes
            or node_id in self.input_ports_by_id
            or node_id in self.output_ports_by_id
        )

    def seed_pins(self, cell_name: str) -> list[Pin]:
        """The registered D/Q pins of a cell (empty if none connected)."""
        return list(self._cell_seeds.get(cell_name, ()))

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

    # -- node/arc bookkeeping ----------------------------------------------

    def _ensure(self, t: Terminal) -> None:
        nid = id(t)
        refs = self._refs.get(nid)
        if refs is None:
            self._refs[nid] = 1
            self._nodes[nid] = t
            self._topo = None
            if self._levels is not None:
                self._levels.setdefault(nid, 0)
        else:
            self._refs[nid] = refs + 1

    def _release(self, t: Terminal, patch: GraphPatch) -> None:
        nid = id(t)
        refs = self._refs.get(nid, 0)
        if refs <= 1:
            self._refs.pop(nid, None)
            self._nodes.pop(nid, None)
            patch.removed.add(nid)
            self._topo = None
            if self._levels is not None:
                self._levels.pop(nid, None)
        else:
            self._refs[nid] = refs - 1

    def _add_arc(
        self, src: Terminal, dst: Terminal, delay: float, patch: GraphPatch
    ) -> TimingArc:
        arc = TimingArc(src, dst, delay)
        self._ensure(src)
        self._ensure(dst)
        self.fanout.setdefault(id(src), []).append(arc)
        self.fanin.setdefault(id(dst), []).append(arc)
        patch.dirty.add(id(src))
        patch.dirty.add(id(dst))
        patch.added[arc] = True
        self._topo = None
        self._bump_level(src, dst)
        return arc

    def _bump_level(self, src: Terminal, dst: Terminal) -> None:
        """Restore the level invariant after inserting arc src -> dst.

        :meth:`levels` only needs a valid topological numbering (every arc
        strictly ascends), not tight longest-path values — so insertions
        push the destination (and, cascading, its fanout) up instead of
        invalidating the whole cache, and removals cost nothing: deleting
        an arc cannot break strict ascent on the arcs that remain.  The
        cascade is bounded; a runaway (a cycle just formed, or levels
        crept loose across many patches) drops the cache so the next
        :meth:`levels` rebuilds tight values from scratch — and the full
        topological sort is where real loops get diagnosed.
        """
        lv = self._levels
        if lv is None:
            return
        ls = lv.setdefault(id(src), 0)
        if lv.setdefault(id(dst), 0) > ls:
            return
        lv[id(dst)] = ls + 1
        stack = [dst]
        budget = 4 * len(self._nodes) + 64
        while stack:
            budget -= 1
            if budget < 0:
                self._levels = None
                return
            n = stack.pop()
            base = lv[id(n)] + 1
            for arc in self.fanout.get(id(n), ()):
                if lv.setdefault(id(arc.dst), 0) < base:
                    lv[id(arc.dst)] = base
                    stack.append(arc.dst)

    def _unlink_from(
        self, src: Terminal, arcs: list[TimingArc], patch: GraphPatch
    ) -> None:
        """Unlink arcs that all leave ``src``, in one pass over its fanout."""
        if not arcs:
            return
        sid = id(src)
        fo = self.fanout[sid]
        if len(arcs) == 1:
            fo.remove(arcs[0])
        else:
            gone = set(arcs)
            fo[:] = [a for a in fo if a not in gone]
        if not fo:
            del self.fanout[sid]
        patch.dirty.add(sid)
        for arc in arcs:
            did = id(arc.dst)
            fi = self.fanin[did]
            fi.remove(arc)
            if not fi:
                del self.fanin[did]
            patch.dirty.add(did)
            # An arc added earlier in this same patch nets out of the delta.
            if not patch.added.pop(arc, False):
                patch.dropped.append(arc)
            self._release(src, patch)
            self._release(arc.dst, patch)
        self._topo = None

    # -- construction -------------------------------------------------------

    def _build(self) -> None:
        patch = GraphPatch()  # discarded: a fresh build has no stale state
        store = self.design.store
        reader = self._reader()

        # Net arcs (data nets only — the clock network is ideal here).
        for name, nid in store.net_ids.items():
            if not reader.net_clock(nid):
                self._add_net(name, reader.walk(nid), reader, patch)

        # Cell arcs and register launch/capture seeds.
        for name, cid in store.cell_ids.items():
            self._add_cell_entries(name, cid, reader, patch)

        for pid in store.port_ids.values():
            self._register_port(pid, reader)

    def _add_net(
        self, name: str, walk: _NetWalk, reader: _NetReader, patch: GraphPatch
    ) -> None:
        if walk.driver == NO_ID:
            return
        driver = reader.view(walk.driver)
        self._ensure(driver)
        patch.dirty.add(id(driver))
        x, y = walk.x, walk.y
        for tid, sx, sy in walk.sinks:
            self._add_arc(
                driver, reader.view(tid), self._wire_delay(x, y, sx, sy), patch
            )
        self._net_driver[name] = driver

    def _drop_net(self, name: str, patch: GraphPatch) -> None:
        driver = self._net_driver.pop(name, None)
        if driver is None:
            return
        self._unlink_from(driver, list(self.fanout.get(id(driver), ())), patch)
        patch.dirty.add(id(driver))
        self._release(driver, patch)

    def _patch_sinks(
        self, driver: Terminal, walk: _NetWalk, reader: _NetReader, patch: GraphPatch
    ) -> None:
        """Bring a rewired net whose driver stayed up to date, sink by sink.

        An arc to a sink that stayed, with a bit-equal delay, is kept; an
        arc to a sink that left is dropped, and a sink that arrived (or
        whose delay changed) gets a new arc.  New arcs are linked before
        stale ones are unlinked, so a re-delayed sink never leaves the
        graph and keeps its node id and cached timing.
        """
        old = list(self.fanout.get(id(driver), ()))
        kept: set[TimingArc] = set()
        fanin = self.fanin
        x, y = walk.x, walk.y
        for tid, sx, sy in walk.sinks:
            sink = reader.view(tid)
            delay = self._wire_delay(x, y, sx, sy)
            for arc in fanin.get(id(sink), ()):
                if arc.src is driver and arc.delay == delay:
                    kept.add(arc)
                    break
            else:
                self._add_arc(driver, sink, delay, patch)
        self._unlink_from(driver, [a for a in old if a not in kept], patch)

    def _redelay_sink(
        self, driver: Terminal, pin: Pin, reader: _NetReader, patch: GraphPatch
    ) -> None:
        """Re-derive the wire delay of the one arc into a moved sink pin.

        The arc is found through the pin's fanin, and kept when its delay
        is bit-equal.  Otherwise the new arc is linked before the old one
        is unlinked, so the sink never drops to zero references: it stays
        in the graph, keeps its node id and its cached timing, and only the
        arc's two endpoints are dirtied.  A moved pin that is no sink of
        the net (a second output pin on it) has no arc to re-delay.
        """
        for old in self.fanin.get(id(pin), ()):
            if old.src is driver:
                xy = reader.store.terminal_xy
                delay = self._wire_delay(*xy(driver._tid), *xy(pin._tid))
                if delay != old.delay:
                    self._add_arc(driver, pin, delay, patch)
                    self._unlink_from(driver, [old], patch)
                return

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
        arcs: list[TimingArc] = []
        for o in lib.outputs:
            onet = reader.pin_net(pin0 + o)
            if not reader.is_data_net(onet):
                continue
            out = reader.view((pin0 + o) << 1)
            delay = lib.libcell.delay(reader.load(onet))
            for i in lib.inputs:
                if reader.is_data_net(reader.pin_net(pin0 + i)):
                    inp = reader.view((pin0 + i) << 1)
                    arcs.append(self._add_arc(inp, out, delay, patch))
        if arcs:
            self._cell_arcs[name] = arcs

    def _register_entries(
        self, name: str, cid: int, lib: _LibArcs, reader: _NetReader, patch: GraphPatch
    ) -> None:
        lc = lib.libcell
        pin0 = reader.cell_pin0(cid)
        seeds: list[Pin] = []
        for d_idx, q_idx in lib.bits:
            if reader.pin_net(pin0 + d_idx) != NO_ID:
                d = reader.view((pin0 + d_idx) << 1)
                self._ensure(d)
                seeds.append(d)
                self.capture_by_id[id(d)] = (d.cell, d)
                patch.dirty.add(id(d))
            qnet = reader.pin_net(pin0 + q_idx)
            if qnet != NO_ID:
                q = reader.view((pin0 + q_idx) << 1)
                self._ensure(q)
                seeds.append(q)
                self.launch_by_id[id(q)] = (q.cell, q)
                # The Timer seeds arrival(Q) = clk_arrival + this delay.
                self.launch_delay[id(q)] = (
                    lc.clk_to_q + lc.drive_resistance * reader.load(qnet)
                )
                patch.dirty.add(id(q))
        if seeds:
            self._cell_seeds[name] = seeds

    def _drop_cell_entries(self, name: str, patch: GraphPatch) -> None:
        for arc in self._cell_arcs.pop(name, ()):
            self._unlink_from(arc.src, [arc], patch)
        for pin in self._cell_seeds.pop(name, ()):
            nid = id(pin)
            patch.dirty.add(nid)
            self.capture_by_id.pop(nid, None)
            if self.launch_by_id.pop(nid, None) is not None:
                self.launch_delay.pop(nid, None)
            self._release(pin, patch)

    def _register_port(self, pid: int, reader: _NetReader) -> None:
        if not reader.is_data_net(reader.port_net(pid)):
            return
        port = reader.store.port_view(pid)
        if reader.port_out(pid):
            self.output_ports_by_id[id(port)] = port
        else:
            self.input_ports_by_id[id(port)] = port

    def _refresh_port(self, name: str, reader: _NetReader, patch: GraphPatch) -> None:
        pid = reader.store.port_ids.get(name)
        if pid is None:
            return
        port = reader.store.port_view(pid)
        self.input_ports_by_id.pop(id(port), None)
        self.output_ports_by_id.pop(id(port), None)
        self._register_port(pid, reader)
        patch.dirty.add(id(port))

    # -- incremental patching ----------------------------------------------

    def apply_change(self, record: ChangeRecord) -> GraphPatch:
        """Patch the graph after a netlist edit, in place.

        Only arcs the edit changed are touched.  A rewired net — or a net
        a moved cell drives — is re-walked: if its driver stayed, arcs to
        sinks that stayed with a bit-equal delay are kept, arcs to departed
        sinks are dropped and new sinks get arcs; a new driver rebuilds the
        net.  On a net a moved cell only sinks, just the arcs into its pins
        are re-delayed.  Cells the edit added, touched, resized or moved
        get their cell arcs and seeds rebuilt, and drivers of rewired nets
        and of nets with a moved sink have their delay model refreshed
        (their load changed even when their own connectivity did not).
        Returns the :class:`GraphPatch` seeding the timer's dirty cones and
        carrying the exact arc delta.
        """
        patch = GraphPatch()
        design = self.design
        store = design.store
        reader = self._reader()

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
        moved_sinks: list[tuple[str, Terminal, Pin]] = []
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
                pin = reader.view(slot << 1)
                if driver is None or driver is pin:
                    walk_nets.setdefault(name, nid)
                else:
                    moved_sinks.append((name, driver, pin))

        # Cells whose arcs/seeds must be rebuilt.  Resized cells replaced
        # every pin object; touched cells changed pin connectivity; moved
        # cells changed their output loads; added cells are new.
        rebuild_cells: dict[str, Cell] = {}
        for cname in (*record.touched, *record.resized, *record.moved):
            cell = design.cells.get(cname)
            if cell is not None:
                rebuild_cells[cname] = cell
        for cell in record.added:
            if design.cells.get(cell.name) is cell:
                rebuild_cells[cell.name] = cell

        # 1. Drop arcs of dead nets and of re-walked nets that changed
        #    driver; a net that kept its driver is patched sink by sink.
        for name in record.removed_nets:
            self._drop_net(name, patch)
        walks: dict[str, tuple[_NetWalk, Terminal | None]] = {}
        for name, nid in walk_nets.items():
            walk = reader.walk(nid)
            driver = reader.view(walk.driver) if walk.driver != NO_ID else None
            if driver is None or self._net_driver.get(name) is not driver:
                self._drop_net(name, patch)
                walks[name] = (walk, None)
            else:
                walks[name] = (walk, driver)

        # 2. Drop entries of dead and rebuilt cells (retires stale pins).
        for cname in record.removed:
            self._drop_cell_entries(cname, patch)
        for cname in rebuild_cells:
            self._drop_cell_entries(cname, patch)

        # 3. Rebuild cell entries against the current netlist.
        for cname, cell in rebuild_cells.items():
            self._add_cell_entries(cname, cell._cid, reader, patch)

        # 4. Patch kept-driver nets sink by sink; rebuild the others.
        for name, (walk, kept_driver) in walks.items():
            if kept_driver is not None:
                self._patch_sinks(kept_driver, walk, reader, patch)
            else:
                self._add_net(name, walk, reader, patch)

        # 4b. Re-delay the arcs into moved sink pins of the other nets.
        refresh: dict[int, Terminal] = {}
        for name in walks:
            driver = self._net_driver.get(name)
            if driver is not None:
                refresh[id(driver)] = driver
        for name, driver, pin in moved_sinks:
            if name not in walks:
                self._redelay_sink(driver, pin, reader, patch)
                refresh[id(driver)] = driver

        # 5. Refresh drivers whose load changed without their own rebuild.
        for driver in refresh.values():
            self._refresh_driver(driver, rebuild_cells, reader, patch)

        # 6. Re-register edited ports.
        for pname in record.ports_touched:
            self._refresh_port(pname, reader, patch)

        return patch

    def _refresh_driver(
        self,
        driver: Terminal,
        rebuilt: dict[str, Cell],
        reader: _NetReader,
        patch: GraphPatch,
    ) -> None:
        """Re-derive the delay model of an edited net's driver cell.

        A net rewire or a moved sink changes the driver's output load
        (sink caps + HPWL), which feeds the comb delay or the register
        clk->q launch delay.
        """
        cell = getattr(driver, "cell", None)
        if cell is None or cell.name in rebuilt:
            return  # a port, or already rebuilt with fresh loads
        lib = self._lib(reader, cell._cid)
        if lib.bits:
            nid = id(driver)
            if nid in self.launch_delay:
                lc = lib.libcell
                load = reader.load(reader.pin_net(driver._slot))
                delay = lc.clk_to_q + lc.drive_resistance * load
                if delay != self.launch_delay[nid]:
                    self.launch_delay[nid] = delay
                    patch.dirty.add(nid)
        elif lib.outputs:
            self._drop_cell_entries(cell.name, patch)
            self._add_cell_entries(cell.name, cell._cid, reader, patch)
            rebuilt[cell.name] = cell

    # -- topology --------------------------------------------------------------

    def topological_order(self) -> list[Terminal]:
        """Kahn topological order over all graph nodes (cached)."""
        if self._topo is not None:
            return self._topo
        nodes = list(self._nodes.values())
        indeg: dict[int, int] = {nid: 0 for nid in self._nodes}
        for arcs in self.fanout.values():
            for arc in arcs:
                indeg[id(arc.dst)] = indeg.get(id(arc.dst), 0) + 1
        ready = [n for n in nodes if indeg[id(n)] == 0]
        order: list[Terminal] = []
        while ready:
            n = ready.pop()
            order.append(n)
            for arc in self.fanout.get(id(n), ()):
                indeg[id(arc.dst)] -= 1
                if indeg[id(arc.dst)] == 0:
                    ready.append(arc.dst)
        if len(order) != len(nodes):
            raise ValueError(
                "combinational loop detected: "
                f"{len(nodes) - len(order)} nodes unreachable in topological sort"
            )
        self._topo = order
        return order

    def levels(self) -> dict[int, int]:
        """Longest-path level per node id (sources at 0, cached).

        Levels order the dirty-cone worklists: every arc goes from a lower
        to a strictly higher level, so draining a min-heap of levels visits
        each dirty node after all of its dirty predecessors.
        """
        if self._levels is None:
            order = self.topological_order()
            levels = {id(n): 0 for n in order}
            for n in order:
                base = levels[id(n)] + 1
                for arc in self.fanout.get(id(n), ()):
                    if levels[id(arc.dst)] < base:
                        levels[id(arc.dst)] = base
            self._levels = levels
        return self._levels
