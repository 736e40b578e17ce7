"""NLDM-style table lookup timing (slew-aware).

Production flows (the paper uses CCS models, of which NLDM is the
table-lookup ancestor) compute cell delay from two-dimensional lookup
tables indexed by input slew and output load, propagating slew along every
path.  The main :class:`repro.sta.Timer` uses the linear drive-resistance
model — the approximation Section 4.1 itself describes — and this module
provides the table-driven counterpart:

* :class:`LookupTable2D` — bilinear interpolation with clamped
  extrapolation, the standard Liberty semantics;
* :func:`synthesize_tables` — NLDM tables generated from a cell's linear
  model plus a slew-sensitivity term, so the default library gets
  plausible tables without hand-authored data (and with sensitivity 0 the
  table model reproduces the linear model exactly — property-tested);
* :func:`nldm_arrivals` — a slew-propagating forward pass over the same
  :class:`repro.sta.TimingGraph` the linear timer uses.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from repro.library.cells import LibCell, RegisterCell
from repro.netlist.design import Design
from repro.sta.graph import TimingGraph
from repro.sta.timer import Timer


@dataclass(frozen=True)
class LookupTable2D:
    """A Liberty-style 2D table: rows = input slew, columns = load."""

    slews: tuple[float, ...]
    loads: tuple[float, ...]
    values: tuple[tuple[float, ...], ...]  # values[i][j] at (slews[i], loads[j])

    def __post_init__(self) -> None:
        if len(self.values) != len(self.slews):
            raise ValueError("row count must match slew axis")
        if any(len(row) != len(self.loads) for row in self.values):
            raise ValueError("column count must match load axis")
        if list(self.slews) != sorted(self.slews) or list(self.loads) != sorted(self.loads):
            raise ValueError("table axes must be ascending")

    @staticmethod
    def _bracket(axis: tuple[float, ...], x: float) -> tuple[int, int, float]:
        """Indices (lo, hi) and interpolation fraction, clamped at the ends."""
        if x <= axis[0]:
            return 0, 0, 0.0
        if x >= axis[-1]:
            last = len(axis) - 1
            return last, last, 0.0
        hi = bisect.bisect_right(axis, x)
        lo = hi - 1
        frac = (x - axis[lo]) / (axis[hi] - axis[lo])
        return lo, hi, frac

    def lookup(self, slew: float, load: float) -> float:
        """Bilinear interpolation (clamped beyond the table corners)."""
        i0, i1, fi = self._bracket(self.slews, slew)
        j0, j1, fj = self._bracket(self.loads, load)
        v00 = self.values[i0][j0]
        v01 = self.values[i0][j1]
        v10 = self.values[i1][j0]
        v11 = self.values[i1][j1]
        top = v00 + (v01 - v00) * fj
        bot = v10 + (v11 - v10) * fj
        return top + (bot - top) * fi

    @staticmethod
    def _bracket_batch(
        axis: tuple[float, ...], x: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized :meth:`_bracket`: element-wise identical indices and
        fractions.  ``np.searchsorted(side="right")`` is ``bisect_right``,
        and the fraction uses the same subtract/divide expression, so every
        element matches the scalar path bit for bit."""
        ax = np.asarray(axis, dtype=np.float64)
        last = len(ax) - 1
        lo = np.zeros(x.shape, dtype=np.intp)
        hi = np.zeros(x.shape, dtype=np.intp)
        frac = np.zeros(x.shape, dtype=np.float64)
        interior = (x > ax[0]) & (x < ax[-1])
        if interior.any():
            xi = x[interior]
            h = np.searchsorted(ax, xi, side="right")
            lo[interior] = h - 1
            hi[interior] = h
            frac[interior] = (xi - ax[h - 1]) / (ax[h] - ax[h - 1])
        high = x >= ax[-1]
        lo[high] = last
        hi[high] = last
        return lo, hi, frac

    def lookup_batch(self, slews, loads) -> np.ndarray:
        """Vectorized :meth:`lookup` over parallel slew/load arrays.

        Bit-identical to the scalar path element by element: bracketing,
        clamping, and the bilinear expression use the same float64
        operations in the same order.
        """
        s = np.asarray(slews, dtype=np.float64)
        ld = np.asarray(loads, dtype=np.float64)
        i0, i1, fi = self._bracket_batch(self.slews, s)
        j0, j1, fj = self._bracket_batch(self.loads, ld)
        vals = np.asarray(self.values, dtype=np.float64)
        v00 = vals[i0, j0]
        v01 = vals[i0, j1]
        v10 = vals[i1, j0]
        v11 = vals[i1, j1]
        top = v00 + (v01 - v00) * fj
        bot = v10 + (v11 - v10) * fj
        return top + (bot - top) * fi


@dataclass(frozen=True)
class TimingTables:
    """The delay and output-slew tables of one cell arc."""

    delay: LookupTable2D
    out_slew: LookupTable2D


DEFAULT_SLEW_AXIS = (0.005, 0.02, 0.08, 0.2)
DEFAULT_LOAD_AXIS = (0.001, 0.005, 0.02, 0.08)


def synthesize_tables(
    cell: LibCell,
    slew_sensitivity: float = 0.15,
    slews: tuple[float, ...] = DEFAULT_SLEW_AXIS,
    loads: tuple[float, ...] = DEFAULT_LOAD_AXIS,
) -> TimingTables:
    """NLDM tables consistent with a cell's linear model.

    ``delay(slew, load) = intrinsic + R*load + sensitivity*slew`` and
    ``out_slew(slew, load) = 2*R*load + 0.3*sensitivity*slew`` — the
    standard first-order shape of library tables.  With sensitivity 0 the
    delay table is exactly the linear model at every lattice point, so
    interpolation reproduces it everywhere.
    """
    intrinsic = cell.intrinsic_delay
    if isinstance(cell, RegisterCell):
        intrinsic += cell.clk_to_q
    delay_rows = tuple(
        tuple(
            intrinsic + cell.drive_resistance * load + slew_sensitivity * slew
            for load in loads
        )
        for slew in slews
    )
    slew_rows = tuple(
        tuple(
            2.0 * cell.drive_resistance * load + 0.3 * slew_sensitivity * slew + 0.002
            for load in loads
        )
        for slew in slews
    )
    return TimingTables(
        delay=LookupTable2D(slews, loads, delay_rows),
        out_slew=LookupTable2D(slews, loads, slew_rows),
    )


def _update(
    state: dict[int, tuple[float, float]],
    dst_id: int,
    new_arrival: float,
    new_slew: float,
) -> None:
    """Worst-case merge: independent maxes of arrival and slew.

    Order-independent — the final entry is ``(max arrivals, max slews)``
    whatever sequence the in-arcs land in, which is what licenses the
    batched path's per-level regrouping.
    """
    prev = state.get(dst_id)
    if prev is None or new_arrival > prev[0]:
        state[dst_id] = (new_arrival, max(new_slew, prev[1] if prev else 0.0))
    elif new_slew > prev[1]:
        state[dst_id] = (prev[0], new_slew)


def nldm_arrivals(
    design: Design,
    timer: Timer,
    slew_sensitivity: float = 0.15,
    input_slew: float = 0.02,
    wire_slew_per_um: float = 0.0002,
    batched: bool = True,
) -> dict[int, tuple[float, float]]:
    """Slew-propagating arrival analysis over the timer's timing graph.

    Returns ``terminal id -> (arrival, slew)``.  Cell arcs use synthesized
    NLDM tables (cached per library cell); wire arcs keep the graph's
    Manhattan delay and degrade slew by ``wire_slew_per_um`` per micron.
    Worst-case (max) semantics on both arrival and slew, as a setup-mode
    STA would propagate.

    ``batched=True`` (the default) sweeps level by level and issues one
    :meth:`LookupTable2D.lookup_batch` call per (libcell, level) group
    instead of a scalar lookup per arc.  The merge rule is an
    order-independent pair of maxes and the batch lookup is element-wise
    identical to the scalar one, so both paths return bit-identical maps
    (property-tested).
    """
    graph: TimingGraph = timer.graph
    store = design.store
    reader = graph._reader()
    tables: dict[str, TimingTables] = {}

    def tables_for(cell: LibCell) -> TimingTables:
        cached = tables.get(cell.name)
        if cached is None:
            cached = synthesize_tables(cell, slew_sensitivity)
            tables[cell.name] = cached
        return cached

    def load(tid: int) -> float:
        return reader.load(store.terminal_net(tid))

    def libcell(cid: int) -> LibCell:
        return store.libs[store.cell_lib[cid]].libcell

    def cell_arc_owner(arc) -> int:
        """The cell of an input -> output cell arc, ``-1`` for a net arc."""
        if (arc.src | arc.dst) & 1:
            return -1
        cid = int(store.pin_cell[arc.src >> 1])
        return cid if cid == store.pin_cell[arc.dst >> 1] else -1

    state: dict[int, tuple[float, float]] = {}
    for q, cid in graph.launch_by_id.items():
        ld = load(q)
        t = tables_for(libcell(cid))
        skew = timer.skew.get(store.cell_name[cid], 0.0)
        arrival = skew + t.delay.lookup(input_slew, ld)
        state[q] = (arrival, t.out_slew.lookup(input_slew, ld))
    for port in graph.input_ports:
        state[port] = (timer.input_delay, input_slew)

    if not batched:
        for node in graph.topological_order():
            here = state.get(node)
            if here is None:
                continue
            arrival, slew = here
            for arc in graph.fanout.get(node, ()):
                cid = cell_arc_owner(arc)
                if cid != -1:
                    # Cell arc (input pin -> output pin of the same cell).
                    ld = load(arc.dst)
                    t = tables_for(libcell(cid))
                    new_arrival = arrival + t.delay.lookup(slew, ld)
                    new_slew = t.out_slew.lookup(slew, ld)
                else:
                    # Net arc: the graph's wire delay, plus slew degradation.
                    distance = (
                        arc.delay / graph.tech.wire_delay_per_um
                        if graph.tech.wire_delay_per_um > 0
                        else 0.0
                    )
                    new_arrival = arrival + arc.delay
                    new_slew = slew + wire_slew_per_um * distance
                _update(state, arc.dst, new_arrival, new_slew)
        return state

    levels = graph.levels()
    order = sorted(graph.topological_order(), key=lambda n: levels[n])
    for _level, group in groupby(order, key=lambda n: levels[n]):
        # Arcs within one level never feed each other (levels strictly
        # ascend along arcs), so the whole level batches safely.
        cell_arcs: dict[str, list[tuple[int, float, float, float]]] = {}
        libcells: dict[str, LibCell] = {}
        for node in group:
            here = state.get(node)
            if here is None:
                continue
            arrival, slew = here
            for arc in graph.fanout.get(node, ()):
                cid = cell_arc_owner(arc)
                if cid != -1:
                    lc = libcell(cid)
                    libcells[lc.name] = lc
                    cell_arcs.setdefault(lc.name, []).append(
                        (arc.dst, arrival, slew, load(arc.dst))
                    )
                else:
                    distance = (
                        arc.delay / graph.tech.wire_delay_per_um
                        if graph.tech.wire_delay_per_um > 0
                        else 0.0
                    )
                    _update(
                        state,
                        arc.dst,
                        arrival + arc.delay,
                        slew + wire_slew_per_um * distance,
                    )
        for name, rows in cell_arcs.items():
            t = tables_for(libcells[name])
            in_slews = np.fromiter((r[2] for r in rows), dtype=np.float64)
            loads = np.fromiter((r[3] for r in rows), dtype=np.float64)
            delays = t.delay.lookup_batch(in_slews, loads)
            out_slews = t.out_slew.lookup_batch(in_slews, loads)
            for (dst, arrival, _slew, _load), d, s in zip(rows, delays, out_slews):
                _update(state, dst, arrival + float(d), float(s))
    return state
