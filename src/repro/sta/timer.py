"""The Timer: arrival/required propagation, slacks, and QoR summaries.

Timing is maintained *incrementally*: netlist edits hand the timer a
:class:`~repro.netlist.change.ChangeRecord` via :meth:`Timer.apply_change`,
which patches the cached timing graph in place and re-propagates only the
dirty cones — arrivals forward from the changed nodes, required times
backward — stopping at the frontier where recomputed values stop changing.
Every propagation, full or incremental, runs through the vectorized
:class:`~repro.sta.arraygraph.ArrayKernel`.  Because the incremental pass
recomputes each node with exactly the same arithmetic as a full pass,
results are bit-identical; ``REPRO_STA_AUDIT=1`` (or ``Timer.audit_mode``)
shadow-checks that equivalence after every patch by rebuilding the graph
from scratch, comparing it with the patched one
(:meth:`~repro.sta.graph.TimingGraph.differences`: arc rows, seeds and
refcounts), and re-propagating it with the plain-Python reference sweeps
(:meth:`Timer._full_state`, :meth:`Timer._min_arrivals`), which walk the
same arc rows the kernel sweeps.
:meth:`Timer.dirty` remains the blanket full-rebuild fallback.

State is keyed by store terminal id, like the graph: queries take a
terminal and read its ``_tid``, and endpoint names and register cells come
from the store.  A pin of a removed or re-bound cell reads as absent,
since its slot may belong to another pin by now.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

from repro import obs
from repro.library.cells import RegisterCell
from repro.library.library import Technology
from repro.netlist.change import ChangeRecord
from repro.netlist.db import Cell, Terminal, _DetachedPin
from repro.netlist.design import Design
from repro.netlist.store import NO_ID
from repro.sta.arraygraph import ArrayKernel
from repro.sta.graph import TimingGraph

_NEG_INF = float("-inf")
_POS_INF = float("inf")

AUDIT_ENV = "REPRO_STA_AUDIT"


def _audit_env_enabled() -> bool:
    return os.environ.get(AUDIT_ENV, "") not in ("", "0")


class TimingAuditError(AssertionError):
    """Incremental timing diverged from a from-scratch recompute."""


def _node(terminal: Terminal) -> int:
    """A terminal's node id; ``NO_ID`` for a detached pin."""
    return NO_ID if isinstance(terminal, _DetachedPin) else terminal._tid


@dataclass(frozen=True, slots=True)
class EndpointSlack:
    """Setup slack at one timing endpoint (register D bit or output port)."""

    name: str
    slack: float

    @property
    def failing(self) -> bool:
        return self.slack < 0.0


@dataclass(frozen=True, slots=True)
class RegisterSlack:
    """The D/Q slack pair of one register cell, as Section 2 consumes it.

    ``d_slack``
        Worst setup slack over the register's connected D bits — margin of
        the paths *into* the register.
    ``q_slack``
        Worst downstream slack over the register's connected Q bits — margin
        of the paths *out of* it (the backward-propagated required-minus-
        arrival at Q).
    """

    cell_name: str
    d_slack: float
    q_slack: float


@dataclass(frozen=True, slots=True)
class TimingSummary:
    """Design-level QoR numbers matching Table 1's timing columns."""

    wns: float
    tns: float
    failing_endpoints: int
    total_endpoints: int


@dataclass
class TimerStats:
    """Incremental-timing effort counters (surfaced by ``--trace``).

    ``retimed_nodes`` accumulates across incremental passes;
    ``last_retimed_nodes`` is the most recent pass alone.  ``graph_nodes``
    is the graph size at the last propagation — the denominator that shows
    how small the dirty cones are.
    """

    full_timings: int = 0
    incremental_timings: int = 0
    changes_applied: int = 0
    retimed_nodes: int = 0
    last_retimed_nodes: int = 0
    graph_nodes: int = 0
    kernel_sweeps: int = 0  # vectorized level sweeps run by the array kernel

    def snapshot(self) -> "TimerStats":
        return replace(self)

    def publish(self) -> None:
        """Fold this stats object into the ``repro.obs`` metrics registry
        (gauges mirror the current values; the per-event counters are
        incremented at the propagation sites)."""
        reg = obs.get_registry()
        reg.gauge("sta.graph_nodes").set(self.graph_nodes)
        reg.gauge("sta.last_retimed_nodes").set(self.last_retimed_nodes)


@dataclass
class _TimingState:
    arrival: dict[int, float] = field(default_factory=dict)
    required: dict[int, float] = field(default_factory=dict)
    arrival_min: dict[int, float] | None = None  # computed lazily for hold


class Timer:
    """Setup-mode static timing over a placed design.

    ``clock_period`` is the single clock's period (gated clocks share it).
    ``skew`` maps register cell names to clock-arrival offsets — the useful
    skew of [5]: a positive offset delays the register's clock, relaxing its
    D-side check and tightening its Q-side launches.

    The timer is lazily evaluated.  Netlist edits should flow in through
    :meth:`apply_change` (scoped invalidation + dirty-cone retime on the
    next query); :meth:`dirty` is the coarse fallback that drops the graph
    and state entirely.
    """

    def __init__(
        self,
        design: Design,
        clock_period: float,
        skew: dict[str, float] | None = None,
        input_delay: float = 0.0,
        output_delay: float = 0.0,
        technology: Technology | None = None,
        audit_mode: bool | None = None,
    ) -> None:
        self.design = design
        self.clock_period = clock_period
        self.skew = dict(skew or {})
        self.input_delay = input_delay
        self.output_delay = output_delay
        self.tech = technology or design.library.technology
        self.audit_mode = _audit_env_enabled() if audit_mode is None else audit_mode
        self._kernel: ArrayKernel | None = None
        self.stats = TimerStats()
        self._graph: TimingGraph | None = None
        self._state: _TimingState | None = None
        self._dirty_fwd: set[int] = set()
        self._dirty_bwd: set[int] = set()
        self._audit_pending = False
        self._changed_cells: set[str] = set()
        self._changed_all = True

    # -- lifecycle -------------------------------------------------------------

    def dirty(self) -> None:
        """Invalidate cached timing entirely (full-rebuild fallback)."""
        self._graph = None
        self._kernel = None
        self._state = None
        self._dirty_fwd.clear()
        self._dirty_bwd.clear()
        self._audit_pending = False
        self._changed_all = True
        self._changed_cells.clear()

    def update(self) -> None:
        """Force evaluation now: flush pending dirt into the cached state."""
        self._compute()

    def drain_changed_cells(self) -> set[str] | None:
        """Registers whose D or Q timing changed since the last drain.

        A register is named when the arrival or required time of one of
        its D or Q seed pins (``capture_by_id``/``launch_by_id``) changed
        value — the only nodes :meth:`register_slack` and
        :func:`~repro.core.compatibility.feasible_region` read.  Changes
        elsewhere (combinational pins, or a register's reset and
        scan-enable pins, which no register analysis reads) are not
        reported.

        Forces evaluation first, so pending dirt is realized before the
        answer.  Returns ``None`` after any full (from-scratch) propagation —
        "everything may have changed" — and resets that flag, so consumers
        that react with their own full rebuild start a clean epoch.  The
        composition cache (:class:`repro.flow.session.EcoSession`) drains
        this to turn timing ripples into dirty registers.
        """
        self._compute()
        if self._changed_all:
            self._changed_all = False
            self._changed_cells.clear()
            return None
        out = self._changed_cells
        self._changed_cells = set()
        return out

    def apply_change(self, record: ChangeRecord) -> None:
        """Absorb a netlist edit: patch the graph, dirty the edit's cones.

        Also the authoritative point where skew entries of removed cells
        are purged — otherwise a stale offset could silently re-attach to
        a future cell that reuses the name.
        """
        for name in record.cells_removed:
            self.skew.pop(name, None)
        if record.is_empty:
            return
        self.stats.changes_applied += 1
        obs.get_registry().counter("sta.changes_applied").inc()
        if self._graph is None:
            return  # nothing cached; the next query builds fresh
        patch = self._graph.apply_change(record)
        if self._kernel is not None:
            self._kernel.apply_patch(patch)
        self._audit_pending = True
        if self._state is None:
            return  # graph is current again; state recomputes fully on query
        st = self._state
        for tid in patch.removed:
            st.arrival.pop(tid, None)
            st.required.pop(tid, None)
            if st.arrival_min is not None:
                st.arrival_min.pop(tid, None)
        self._dirty_fwd |= patch.dirty
        self._dirty_bwd |= patch.dirty

    def set_skew(self, cell_name: str, offset: float) -> None:
        """Assign a useful-skew clock offset to one register.

        No-op when the offset equals the installed value (absent entries
        count as 0.0), so speculative zero-assignments cost nothing.
        """
        if self.skew.get(cell_name, 0.0) == offset:
            return
        self.skew[cell_name] = offset
        self._invalidate_skew(cell_name)

    def set_skews(self, offsets: dict[str, float]) -> None:
        """Batch-assign skew offsets, skipping no-op entries."""
        for name, offset in offsets.items():
            self.set_skew(name, offset)

    def _invalidate_skew(self, cell_name: str) -> None:
        """Retime only the launch/capture cones of one register's skew."""
        if self._state is None or self._graph is None:
            return  # next query recomputes fully anyway
        g = self._graph
        pins = g.seed_pins(cell_name)
        if not pins:
            # Not in the graph: either the register has no connected bits
            # (skew is then timing-neutral) or the graph is out of sync —
            # fall back to a full recompute unless provably neutral.
            cid = self.design.store.cell_ids.get(cell_name)
            if cid is not None and self.design.store.cell_is_register(cid):
                self._state = None
                self._dirty_fwd.clear()
                self._dirty_bwd.clear()
            return
        for tid in pins:
            if tid in g.launch_by_id:
                self._dirty_fwd.add(tid)  # arrival seed at Q shifted
            if tid in g.capture_by_id:
                self._dirty_bwd.add(tid)  # required seed at D shifted
        self._audit_pending = True

    @property
    def graph(self) -> TimingGraph:
        if self._graph is None:
            self._graph = TimingGraph(self.design, self.tech)
        return self._graph

    def _ensure_kernel(self, g: TimingGraph) -> ArrayKernel:
        if self._kernel is None or self._kernel.graph is not g:
            self._kernel = ArrayKernel(g)
        return self._kernel

    def _clock_arrival(self, cid: int) -> float:
        return self.skew.get(self.design.store.cell_name[cid], 0.0)

    def _register_cell(self, cid: int) -> RegisterCell:
        store = self.design.store
        return store.libs[store.cell_lib[cid]].libcell

    # -- propagation ----------------------------------------------------------

    def _launch(self, g: TimingGraph, tid: int, cid: int) -> float:
        return self._clock_arrival(cid) + g.launch_delay[tid]

    def _capture(self, cid: int) -> float:
        setup = self._register_cell(cid).setup
        return self.clock_period + self._clock_arrival(cid) - setup

    def _arrival_seed(self, g: TimingGraph, tid: int) -> float | None:
        cid = g.launch_by_id.get(tid)
        if cid is not None:
            return self._launch(g, tid, cid)
        if tid in g.input_ports:
            return self.input_delay
        return None

    def _required_seed(self, g: TimingGraph, tid: int) -> float | None:
        cid = g.capture_by_id.get(tid)
        if cid is not None:
            return self._capture(cid)
        if tid in g.output_ports:
            return self.clock_period - self.output_delay
        return None

    def _full_state(self, g: TimingGraph) -> _TimingState:
        """From-scratch per-node forward/backward propagation in Python
        floats: the reference the audit checks the kernel against."""
        st = _TimingState()

        # Forward: arrivals.
        for q, cid in g.launch_by_id.items():
            st.arrival[q] = self._launch(g, q, cid)
        for port in g.input_ports:
            st.arrival[port] = self.input_delay

        dsts, delays = g.dst, g.delay
        for node in g.topological_order():
            a = st.arrival.get(node, _NEG_INF)
            if a == _NEG_INF:
                continue
            for row in g.out_rows(node):
                cand = a + delays[row]
                if cand > st.arrival.get(dsts[row], _NEG_INF):
                    st.arrival[dsts[row]] = cand

        # Backward: required times.
        for d, cid in g.capture_by_id.items():
            st.required[d] = self._capture(cid)
        for port in g.output_ports:
            st.required[port] = self.clock_period - self.output_delay

        for node in reversed(g.topological_order()):
            r = st.required.get(node, _POS_INF)
            for row in g.out_rows(node):
                r_dst = st.required.get(dsts[row], _POS_INF)
                if r_dst != _POS_INF:
                    r = min(r, r_dst - delays[row])
            if r != _POS_INF:
                st.required[node] = r

        return st

    # -- array-kernel propagation (bit-identical to the reference sweeps) ----

    def _arrival_seeds(self, k: ArrayKernel, g: TimingGraph, sentinel: float = _NEG_INF):
        """Per-slot arrival seeds (``sentinel`` = unseeded: ``-inf`` for the
        max sweep, ``+inf`` for the min sweep), same arithmetic as
        :meth:`_full_state`."""
        seed = k.node_array(sentinel)
        launch = g.launch_by_id
        seed[list(launch)] = [self._launch(g, q, cid) for q, cid in launch.items()]
        seed[list(g.input_ports)] = self.input_delay
        return seed

    def _required_seeds(self, k: ArrayKernel, g: TimingGraph):
        seed = k.node_array(_POS_INF)
        capture = g.capture_by_id
        seed[list(capture)] = [self._capture(cid) for cid in capture.values()]
        seed[list(g.output_ports)] = self.clock_period - self.output_delay
        return seed

    def _full_state_array(self, g: TimingGraph) -> _TimingState:
        """From-scratch propagation through the vectorized array kernel."""
        k = self._ensure_kernel(g)
        st = _TimingState()
        st.arrival = k.full_forward(self._arrival_seeds(k, g))
        st.required = k.full_backward(self._required_seeds(k, g))
        self.stats.kernel_sweeps += 2
        return st

    def _compute(self) -> _TimingState:
        if (
            self._state is not None
            and not self._dirty_fwd
            and not self._dirty_bwd
        ):
            return self._state
        g = self.graph
        if self._state is None:
            with obs.span("sta.full_timing", cat="sta") as sp:
                self._state = self._full_state_array(g)
                sp.set(graph_nodes=g.node_count)
            self._dirty_fwd.clear()
            self._dirty_bwd.clear()
            self._changed_all = True
            self._changed_cells.clear()
            self.stats.full_timings += 1
            self.stats.graph_nodes = g.node_count
            obs.get_registry().counter("sta.full_timings").inc()
            self.stats.publish()
        else:
            with obs.span("sta.retime", cat="sta") as sp:
                self._retime(g)
                sp.set(
                    retimed_nodes=self.stats.last_retimed_nodes,
                    graph_nodes=self.stats.graph_nodes,
                )
        if self._audit_pending:
            if self.audit_mode:
                self._audit(g)
            self._audit_pending = False
        return self._state

    def _retime(self, g: TimingGraph) -> None:
        """Drain the dirty sets: levelized re-propagation of both cones.

        Each node is recomputed from its full fanin (arrival) or fanout
        (required) plus its seed — the same max/min the batch pass
        evaluates — so values match a full recompute bit for bit, and the
        wave stops as soon as recomputed values equal the cached ones.
        The kernel runs the wavefront as masked per-level batches
        (:meth:`~repro.sta.arraygraph.ArrayKernel.retime`).
        """
        touched = self._ensure_kernel(g).retime(self)
        self._dirty_fwd.clear()
        self._dirty_bwd.clear()
        self.stats.incremental_timings += 1
        self.stats.retimed_nodes += touched
        self.stats.last_retimed_nodes = touched
        self.stats.graph_nodes = g.node_count
        reg = obs.get_registry()
        reg.counter("sta.incremental_timings").inc()
        reg.counter("sta.retimed_nodes").inc(touched)
        if g.node_count:
            reg.histogram(
                "sta.retime.cone_fraction", obs.FRACTION_BUCKETS
            ).observe(touched / g.node_count)
        self.stats.publish()

    # -- audit ---------------------------------------------------------------

    def _audit(self, g: TimingGraph) -> None:
        """Shadow-run a from-scratch build+propagation and assert equality."""
        fresh = TimingGraph(self.design, self.tech)
        mismatches = [detail for _, detail in g.differences(fresh)]

        st = self._state
        assert st is not None
        oracle = self._full_state(fresh)
        if st.arrival != oracle.arrival:
            mismatches.append("arrivals")
        if st.required != oracle.required:
            mismatches.append("required times")
        if st.arrival_min is not None:
            if st.arrival_min != self._min_arrivals(fresh):
                mismatches.append("min arrivals")
        if mismatches:
            raise TimingAuditError(
                "incremental timing diverged from full recompute: "
                + ", ".join(mismatches)
            )

    # -- queries ------------------------------------------------------------------

    def slack_at(self, terminal: Terminal) -> float | None:
        """Setup slack at a terminal, ``None`` when unconstrained."""
        st = self._compute()
        tid = _node(terminal)
        a = st.arrival.get(tid)
        r = st.required.get(tid)
        if a is None or r is None:
            return None
        return r - a

    def arrival_at(self, terminal: Terminal) -> float | None:
        return self._compute().arrival.get(_node(terminal))

    def endpoint_slacks(self) -> list[EndpointSlack]:
        """Slack at every constrained endpoint (register D bits, output ports)."""
        st = self._compute()
        g = self.graph
        name = self.design.store.terminal_name
        out: list[EndpointSlack] = []
        for tid in (*g.capture_by_id, *g.output_ports):
            a = st.arrival.get(tid)
            if a is None:
                continue  # D tied off / undriven: unconstrained
            out.append(EndpointSlack(name(tid), st.required[tid] - a))
        # Name order, not graph order: keeps TNS summation bit-identical
        # between a fresh build and an incrementally patched graph.
        out.sort(key=lambda e: e.name)
        return out

    def summary(self) -> TimingSummary:
        slacks = self.endpoint_slacks()
        neg = [e.slack for e in slacks if e.failing]
        return TimingSummary(
            wns=min((e.slack for e in slacks), default=0.0),
            tns=sum(neg),
            failing_endpoints=len(neg),
            total_endpoints=len(slacks),
        )

    # -- hold (min-delay) analysis ------------------------------------------------------

    def _min_arrivals(self, g: TimingGraph) -> dict[int, float]:
        """Earliest arrivals (shortest paths) over one graph, per node in
        Python floats: the audit's reference for the kernel's min sweep."""
        arrival_min: dict[int, float] = {}
        for q, cid in g.launch_by_id.items():
            arrival_min[q] = self._launch(g, q, cid)
        for port in g.input_ports:
            arrival_min[port] = self.input_delay
        dsts, delays = g.dst, g.delay
        for node in g.topological_order():
            a = arrival_min.get(node)
            if a is None:
                continue
            for row in g.out_rows(node):
                cand = a + delays[row]
                prev = arrival_min.get(dsts[row])
                if prev is None or cand < prev:
                    arrival_min[dsts[row]] = cand
        return arrival_min

    def _compute_min_arrivals(self) -> dict[int, float]:
        """Earliest arrivals, cached on the state (and retimed with it)."""
        st = self._compute()
        if st.arrival_min is not None:
            return st.arrival_min
        g = self.graph
        k = self._ensure_kernel(g)
        st.arrival_min = k.full_forward(
            self._arrival_seeds(k, g, _POS_INF), minimize=True
        )
        self.stats.kernel_sweeps += 1
        return st.arrival_min

    def hold_slacks(self) -> list[EndpointSlack]:
        """Hold slack at every register D bit.

        With an ideal clock plus per-register skew, data launched at the
        capturing edge must arrive no earlier than the capture clock plus
        the hold requirement: ``slack = min_arrival(D) - skew(capture) -
        t_hold``.  Composition and useful skew must not create hold
        violations; the flow benchmarks check this stays clean.
        """
        arrival_min = self._compute_min_arrivals()
        name = self.design.store.terminal_name
        out: list[EndpointSlack] = []
        for d, cid in self.graph.capture_by_id.items():
            a = arrival_min.get(d)
            if a is None:
                continue
            slack = a - self._clock_arrival(cid) - self._register_cell(cid).hold
            out.append(EndpointSlack(name(d), slack))
        out.sort(key=lambda e: e.name)  # order-independent TNS (see above)
        return out

    def hold_summary(self) -> TimingSummary:
        """WNS/TNS/violation counts for the hold (min-delay) check."""
        slacks = self.hold_slacks()
        neg = [e.slack for e in slacks if e.failing]
        return TimingSummary(
            wns=min((e.slack for e in slacks), default=0.0),
            tns=sum(neg),
            failing_endpoints=len(neg),
            total_endpoints=len(slacks),
        )

    # -- register-centric queries ----------------------------------------------------

    def register_slack(self, cell: Cell) -> RegisterSlack:
        """The (D, Q) slack pair of a register cell (Section 2's inputs).

        Unconstrained sides report +inf; the compatibility logic treats them
        as "anything goes" on that side.
        """
        if not isinstance(cell.libcell, RegisterCell):
            raise TypeError(f"{cell.name} is not a register")
        st = self._compute()
        lc = cell.libcell
        d_slack = _POS_INF
        q_slack = _POS_INF
        for bit in range(lc.width_bits):
            d = cell.pins.get(lc.d_pin(bit))
            if d is not None and d.net is not None:
                a = st.arrival.get(d._tid)
                r = st.required.get(d._tid)
                if a is not None and r is not None:
                    d_slack = min(d_slack, r - a)
            q = cell.pins.get(lc.q_pin(bit))
            if q is not None and q.net is not None:
                a = st.arrival.get(q._tid)
                r = st.required.get(q._tid)
                if a is not None and r is not None:
                    q_slack = min(q_slack, r - a)
        return RegisterSlack(cell.name, d_slack, q_slack)

    def register_slacks(self) -> dict[str, RegisterSlack]:
        """D/Q slack pairs for every register in the design."""
        return {
            c.name: self.register_slack(c)
            for c in self.design.cells.values()
            if c.is_register
        }
