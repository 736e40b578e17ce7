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

The graph is *patchable*: :meth:`TimingGraph.apply_change` consumes a
:class:`~repro.netlist.change.ChangeRecord` and rebuilds only the arcs owned
by the edited nets and cells (on a net a moved cell only sinks, just the
arcs into its pins), returning a :class:`GraphPatch` with the node ids
whose timing became stale.  Ownership indexes (`net name -> arcs`,
`cell name -> arcs/seed pins`) make each patch O(edited neighborhood), and
node refcounts retire terminals exactly when their last arc or seed role
disappears — the patched graph matches a fresh build arc-for-arc.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.library.cells import ClockBufferCell, ClockGateCell, CombCell, RegisterCell
from repro.library.library import Technology
from repro.netlist.change import ChangeRecord
from repro.netlist.db import Cell, Net, Pin, Port, Terminal
from repro.netlist.design import Design


@dataclass(frozen=True, slots=True)
class TimingArc:
    """A directed delay edge of the timing graph."""

    src: Terminal
    dst: Terminal
    delay: float


@dataclass
class GraphPatch:
    """The fallout of one :meth:`TimingGraph.apply_change`.

    ``dirty`` holds node ids whose arrival/required values may have changed
    (new seeds, re-delayed or re-routed arcs); the timer re-propagates their
    forward and backward cones.  ``removed`` holds node ids that left the
    graph — the timer must purge their cached state, both for correctness
    and because ``id()`` values can be recycled by later allocations.
    """

    dirty: set[int] = field(default_factory=set)
    removed: set[int] = field(default_factory=set)


@dataclass
class _NetEntry:
    """Arcs owned by one net, plus the driver's node reference."""

    driver: Terminal | None
    arcs: list[TimingArc]


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
        self._net_arcs: dict[str, _NetEntry] = {}
        self._cell_arcs: dict[str, list[TimingArc]] = {}
        self._cell_seeds: dict[str, list[Pin]] = {}
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

    def output_load(self, pin: Terminal) -> float:
        """Capacitive load on a driver: sink pin caps + wire capacitance."""
        net = pin.net
        if net is None:
            return 0.0
        return net.sink_cap() + self.tech.wire_cap_per_um * net.hpwl()

    def wire_delay(self, src: Terminal, dst: Terminal) -> float:
        """Manhattan-distance wire delay between two terminals."""
        return self.tech.wire_delay_per_um * src.location.manhattan_to(dst.location)

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

    def _unlink(self, arc: TimingArc, patch: GraphPatch) -> None:
        sid, did = id(arc.src), id(arc.dst)
        fo = self.fanout[sid]
        fo.remove(arc)
        if not fo:
            del self.fanout[sid]
        fi = self.fanin[did]
        fi.remove(arc)
        if not fi:
            del self.fanin[did]
        patch.dirty.add(sid)
        patch.dirty.add(did)
        self._release(arc.src, patch)
        self._release(arc.dst, patch)
        self._topo = None

    # -- construction -------------------------------------------------------

    def _build(self) -> None:
        patch = GraphPatch()  # discarded: a fresh build has no stale state
        design = self.design

        # Net arcs (data nets only — the clock network is ideal here).
        for net in design.nets.values():
            self._add_net_arcs(net, patch)

        # Cell arcs and register launch/capture seeds.
        for cell in design.cells.values():
            self._add_cell_entries(cell, patch)

        for port in design.ports.values():
            self._register_port(port)

    def _add_net_arcs(self, net: Net, patch: GraphPatch) -> None:
        if net.is_clock:
            return
        driver = net.driver
        if driver is None:
            return
        self._ensure(driver)
        patch.dirty.add(id(driver))
        arcs = [
            self._add_arc(driver, sink, self.wire_delay(driver, sink), patch)
            for sink in net.sinks
        ]
        self._net_arcs[net.name] = _NetEntry(driver, arcs)

    def _drop_net_arcs(self, name: str, patch: GraphPatch) -> None:
        entry = self._net_arcs.pop(name, None)
        if entry is None:
            return
        for arc in entry.arcs:
            self._unlink(arc, patch)
        if entry.driver is not None:
            patch.dirty.add(id(entry.driver))
            self._release(entry.driver, patch)

    def _redelay_sink(self, entry: _NetEntry, pin: Pin, patch: GraphPatch) -> None:
        """Re-derive the wire delay of the one arc into a moved sink pin.

        The new arc is linked before the old one is unlinked, so the sink
        never drops to zero references: it stays in the graph, keeps its
        node id and its cached timing, and only the arc's two endpoints
        are dirtied.  A moved pin that is no sink of the net (a second
        output pin on it) has no arc to re-delay.
        """
        arcs = entry.arcs
        for i, old in enumerate(arcs):
            if old.dst is pin:
                driver = entry.driver
                arcs[i] = self._add_arc(
                    driver, pin, self.wire_delay(driver, pin), patch
                )
                self._unlink(old, patch)
                return

    def _add_cell_entries(self, cell: Cell, patch: GraphPatch) -> None:
        lc = cell.libcell
        if isinstance(lc, RegisterCell):
            self._register_entries(cell, lc, patch)
        elif isinstance(lc, (CombCell, ClockBufferCell, ClockGateCell)):
            self._comb_entries(cell, lc, patch)

    def _comb_entries(self, cell: Cell, lc, patch: GraphPatch) -> None:
        arcs: list[TimingArc] = []
        for pout in lc.output_pins:
            out = cell.pin(pout.name)
            if out.net is None or out.net.is_clock:
                continue
            load = self.output_load(out)
            delay = lc.delay(load)
            for pdesc in lc.input_pins:
                inp = cell.pin(pdesc.name)
                if inp.net is None or inp.net.is_clock:
                    continue
                arcs.append(self._add_arc(inp, out, delay, patch))
        if arcs:
            self._cell_arcs[cell.name] = arcs

    def _register_entries(self, cell: Cell, lc: RegisterCell, patch: GraphPatch) -> None:
        seeds: list[Pin] = []
        for bit in range(lc.width_bits):
            d = cell.pin(lc.d_pin(bit))
            q = cell.pin(lc.q_pin(bit))
            if d.net is not None:
                self._ensure(d)
                seeds.append(d)
                self.capture_by_id[id(d)] = (cell, d)
                patch.dirty.add(id(d))
            if q.net is not None:
                self._ensure(q)
                seeds.append(q)
                load = self.output_load(q)
                self.launch_by_id[id(q)] = (cell, q)
                # The Timer seeds arrival(Q) = clk_arrival + this delay.
                self.launch_delay[id(q)] = lc.clk_to_q + lc.drive_resistance * load
                patch.dirty.add(id(q))
        if seeds:
            self._cell_seeds[cell.name] = seeds

    def _drop_cell_entries(self, name: str, patch: GraphPatch) -> None:
        for arc in self._cell_arcs.pop(name, ()):
            self._unlink(arc, patch)
        for pin in self._cell_seeds.pop(name, ()):
            nid = id(pin)
            patch.dirty.add(nid)
            self.capture_by_id.pop(nid, None)
            if self.launch_by_id.pop(nid, None) is not None:
                self.launch_delay.pop(nid, None)
            self._release(pin, patch)

    def _register_port(self, port: Port) -> None:
        if port.net is None or port.net.is_clock:
            return
        if port.is_input:
            self.input_ports_by_id[id(port)] = port
        else:
            self.output_ports_by_id[id(port)] = port

    def _refresh_port(self, name: str, patch: GraphPatch) -> None:
        port = self.design.ports.get(name)
        if port is None:
            return
        pid = id(port)
        self.input_ports_by_id.pop(pid, None)
        self.output_ports_by_id.pop(pid, None)
        self._register_port(port)
        patch.dirty.add(pid)

    # -- incremental patching ----------------------------------------------

    def apply_change(self, record: ChangeRecord) -> GraphPatch:
        """Patch the graph after a netlist edit, in place.

        Only arcs owned by the edited nets/cells are rebuilt; a moved
        cell's sink pins have just their own arcs re-delayed; drivers of
        rewired nets and of nets with a moved sink have their delay model
        refreshed (their load changed even when their own connectivity
        did not).  Returns the :class:`GraphPatch` seeding the timer's
        dirty cones.
        """
        patch = GraphPatch()
        design = self.design

        # Nets whose arcs must be rebuilt: explicitly rewired ones, plus
        # every net a moved cell drives (all its wire delays start at the
        # moved driver pin).  On a net a moved cell only sinks, a wire
        # delay depends on the driver and the one sink, so only the arcs
        # into the moved pins change: those are re-delayed in place (step
        # 4b), leaving the net's other sinks alone — a moved register
        # does not disturb the hundreds of sinks of its reset or
        # scan-enable net.
        rebuild_nets: dict[str, Net] = {}
        for name in record.rewired_nets:
            net = design.nets.get(name)
            if net is not None and not net.is_clock:
                rebuild_nets[name] = net
        moved_sinks: list[tuple[str, Pin]] = []
        for cname in record.moved:
            cell = design.cells.get(cname)
            if cell is None:
                continue
            for pin in cell.pins.values():
                net = pin.net
                if net is None or net.is_clock:
                    continue
                entry = self._net_arcs.get(net.name)
                if entry is None or entry.driver is pin:
                    rebuild_nets.setdefault(net.name, net)
                else:
                    moved_sinks.append((net.name, pin))

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

        # 1. Drop arcs owned by dead and rebuilt nets.
        for name in record.removed_nets:
            self._drop_net_arcs(name, patch)
        for name in rebuild_nets:
            self._drop_net_arcs(name, patch)

        # 2. Drop entries of dead and rebuilt cells (retires stale pins).
        for cname in record.removed:
            self._drop_cell_entries(cname, patch)
        for cname in rebuild_cells:
            self._drop_cell_entries(cname, patch)

        # 3. Rebuild cell entries against the current netlist.
        for cell in rebuild_cells.values():
            self._add_cell_entries(cell, patch)

        # 4. Rebuild net arcs with fresh wire delays.
        for net in rebuild_nets.values():
            self._add_net_arcs(net, patch)

        # 4b. Re-delay the arcs into moved sink pins of the other nets.
        refresh_nets = dict.fromkeys(rebuild_nets)
        for name, pin in moved_sinks:
            if name not in rebuild_nets:
                self._redelay_sink(self._net_arcs[name], pin, patch)
                refresh_nets[name] = None

        # 5. Refresh drivers whose load changed without their own rebuild.
        for name in refresh_nets:
            entry = self._net_arcs.get(name)
            if entry is not None:
                self._refresh_driver(entry.driver, rebuild_cells, patch)

        # 6. Re-register edited ports.
        for pname in record.ports_touched:
            self._refresh_port(pname, patch)

        return patch

    def _refresh_driver(
        self, driver: Terminal, rebuilt: dict[str, Cell], patch: GraphPatch
    ) -> None:
        """Re-derive the delay model of an edited net's driver cell.

        A net rewire or a moved sink changes the driver's output load
        (sink caps + HPWL), which feeds the comb delay or the register
        clk->q launch delay.
        """
        cell = getattr(driver, "cell", None)
        if cell is None or cell.name in rebuilt:
            return  # a port, or already rebuilt with fresh loads
        lc = cell.libcell
        if isinstance(lc, RegisterCell):
            nid = id(driver)
            if nid in self.launch_delay:
                delay = lc.clk_to_q + lc.drive_resistance * self.output_load(driver)
                if delay != self.launch_delay[nid]:
                    self.launch_delay[nid] = delay
                    patch.dirty.add(nid)
        elif isinstance(lc, (CombCell, ClockBufferCell, ClockGateCell)):
            self._drop_cell_entries(cell.name, patch)
            self._add_cell_entries(cell, patch)
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
