"""Array-backed timing kernel: CSR adjacency + vectorized level sweeps.

:class:`ArrayKernel` sweeps the arc rows a
:class:`~repro.sta.graph.TimingGraph` stores (its ``src``/``dst``/
``delay``/``alive`` columns).  It owns the value arrays indexed by
terminal id (a node's slot *is* its store terminal id, so there is no id
map and no free list) and a level-ordered CSR adjacency over the graph's
alive rows and vectorized levels
(:meth:`~repro.sta.graph.TimingGraph.levels`), and re-expresses
arrival/required propagation as vectorized sweeps over level groups.  It
is the timer's only propagation engine.  Because ``max``/``min`` are
order-independent and every candidate is the same ``arrival[src] +
delay`` float64 expression the per-node reference sweeps
(:meth:`~repro.sta.timer.Timer._full_state`,
:meth:`~repro.sta.timer.Timer._min_arrivals`) evaluate, the kernel's
results are *bit-identical* to them; the ``REPRO_STA_AUDIT`` shadow check
leans on that.

Absent values use infinity sentinels with the same algebra as the
reference's missing keys: an unreached arrival is ``-inf`` (``-inf +
delay`` never wins a max), an unconstrained required is ``+inf`` (``+inf -
delay`` never wins a min), and an unknown min-arrival is ``+inf``.

After a graph patch the kernel grows its value arrays, clears the slots of
removed terminals and drops its CSR, which the next sweep rebuilds from
the graph's rows.  Dirty-cone retiming is a masked sub-level sweep: dirty
slots are bucketed by level, each bucket is recomputed in one vectorized
gather/segment-reduce, and only the fanout of slots whose value actually
changed seeds deeper levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush

import numpy as np

from repro import obs
from repro.sta.graph import GraphPatch, TimingGraph

_NEG_INF = float("-inf")
_POS_INF = float("inf")


@dataclass
class _Csr:
    """Level-ordered CSR views over the alive arcs (rebuilt lazily).

    ``f*`` arrays order arcs by ``(level[dst], dst)`` — every arc with the
    same destination is contiguous, and destinations ascend by level, so a
    single pass of per-level ``reduceat`` segment maxima is a complete
    forward sweep.  ``b*`` arrays order by ``(level[src], src)`` for the
    backward sweep.  ``fanin_*``/``fanout_*`` index the same arrays per
    node slot for the masked retime gathers.
    """

    # forward (fanin-grouped) ordering
    fsrc: np.ndarray
    fdst: np.ndarray
    fdelay: np.ndarray
    fseg_bounds: np.ndarray  # segment boundaries into f*, len = nseg + 1
    fseg_dst: np.ndarray  # destination slot per segment
    flevels: np.ndarray  # distinct destination levels, ascending
    flevel_seg_ptr: np.ndarray  # segment range per level, len = nlevels + 1
    fanin_start: np.ndarray  # per-slot range into f*
    fanin_end: np.ndarray
    # backward (fanout-grouped) ordering
    bsrc: np.ndarray
    bdst: np.ndarray
    bdelay: np.ndarray
    bseg_bounds: np.ndarray
    bseg_src: np.ndarray
    blevels: np.ndarray  # distinct source levels, ascending
    blevel_seg_ptr: np.ndarray
    fanout_start: np.ndarray
    fanout_end: np.ndarray


def _segment_csr(
    keys: np.ndarray, levels: np.ndarray, n_slots: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Segment an arc ordering grouped by ``keys`` (already sorted by
    ``(levels, keys)``) into per-key segments, per-level segment ranges,
    and per-slot start/end lookups."""
    n = len(keys)
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        zeros = np.zeros(n_slots, dtype=np.int64)
        return (
            np.zeros(1, dtype=np.int64),
            empty,
            empty,
            np.zeros(1, dtype=np.int64),
            zeros,
            zeros.copy(),
        )
    change = np.nonzero(keys[1:] != keys[:-1])[0] + 1
    seg_starts = np.concatenate((np.zeros(1, dtype=np.int64), change))
    seg_bounds = np.concatenate((seg_starts, np.array([n], dtype=np.int64)))
    seg_key = keys[seg_starts]
    seg_level = levels[seg_starts]
    uniq_levels = np.unique(seg_level)
    level_ptr = np.concatenate(
        (
            np.searchsorted(seg_level, uniq_levels),
            np.array([len(seg_key)], dtype=np.int64),
        )
    )
    start = np.zeros(n_slots, dtype=np.int64)
    end = np.zeros(n_slots, dtype=np.int64)
    start[seg_key] = seg_starts
    end[seg_key] = seg_bounds[1:]
    return seg_bounds, seg_key, uniq_levels, level_ptr, start, end


def _concat_ranges(
    starts: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concatenate ``[starts[i], starts[i]+counts[i])`` ranges.

    Returns ``(indices, bounds, nz)`` where ``indices`` is the flattened
    index vector, ``bounds`` the reduceat boundaries of the *non-empty*
    ranges, and ``nz`` the positions of those non-empty ranges in the
    input.  Empty ranges are dropped (``reduceat`` cannot express them).
    """
    nz = np.nonzero(counts)[0]
    if len(nz) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, nz
    s = starts[nz]
    c = counts[nz]
    total = int(c.sum())
    bounds = np.zeros(len(c), dtype=np.int64)
    np.cumsum(c[:-1], out=bounds[1:])
    out = np.ones(total, dtype=np.int64)
    out[0] = s[0]
    if len(s) > 1:
        out[bounds[1:]] = s[1:] - (s[:-1] + c[:-1] - 1)
    np.cumsum(out, out=out)
    return out, bounds, nz


class ArrayKernel:
    """Vectorized sweeps over one :class:`TimingGraph`'s arc rows.

    A node's slot is its terminal id, so the value arrays span the store's
    terminal-id space and grow with it; slots that are not graph nodes hold
    the sentinels.  The kernel owns the authoritative float64 value arrays
    (``arrival``, ``required``, ``arrival_min``); the timer's dict state is
    materialized from them after full sweeps and co-updated during
    retimes, always as Python floats, so every query reads the same values
    and types whichever path last wrote them.
    """

    def __init__(self, graph: TimingGraph) -> None:
        self.graph = graph
        self._csr: _Csr | None = None
        cap = graph.design.store.tid_space
        self._arrival = np.full(cap, _NEG_INF)
        self._required = np.full(cap, _POS_INF)
        self._arrival_min = np.full(cap, _POS_INF)

    # -- slots ---------------------------------------------------------------

    def node_array(self, fill: float) -> np.ndarray:
        """A fresh per-slot float array initialized to ``fill``."""
        return np.full(len(self._arrival), fill)

    def _grow_nodes(self, need: int) -> None:
        cap = len(self._arrival)
        if need <= cap:
            return
        new_cap = max(need, 2 * cap)

        def grown(arr: np.ndarray, fill) -> np.ndarray:
            out = np.full(new_cap, fill, dtype=arr.dtype)
            out[:cap] = arr
            return out

        self._arrival = grown(self._arrival, _NEG_INF)
        self._required = grown(self._required, _POS_INF)
        self._arrival_min = grown(self._arrival_min, _POS_INF)

    def _clear(self, tids: list[int]) -> None:
        """Reset slots to the sentinels (their nodes left or went stale)."""
        self._arrival[tids] = _NEG_INF
        self._required[tids] = _POS_INF
        self._arrival_min[tids] = _POS_INF

    def apply_patch(self, patch: GraphPatch) -> None:
        """Follow one :meth:`TimingGraph.apply_change`.

        The value arrays grow to the store's terminal-id space, every
        removed terminal's slot is cleared — also when a cell added in the
        same edit took over its freed pin slot: the timer popped its dict
        state too, and the retime reinstates both from the seeds — and the
        CSR is rebuilt from the graph's rows on the next sweep.
        """
        self._csr = None
        self._grow_nodes(self.graph.design.store.tid_space)
        self._clear(list(patch.removed))

    # -- CSR -----------------------------------------------------------------

    def _ensure_csr(self) -> _Csr:
        if self._csr is not None:
            return self._csr
        level = self.graph.levels()
        src, dst, delay = self.graph.arc_arrays()
        n_slots = len(self._arrival)

        dlv = level[dst]
        order = np.lexsort((dst, dlv))
        fsrc = src[order]
        fdst = dst[order]
        fdelay = delay[order]
        fbounds, fkey, flevels, fptr, fanin_start, fanin_end = _segment_csr(
            fdst, dlv[order], n_slots
        )

        slv = level[src]
        order = np.lexsort((src, slv))
        bsrc = src[order]
        bdst = dst[order]
        bdelay = delay[order]
        bbounds, bkey, blevels, bptr, fanout_start, fanout_end = _segment_csr(
            bsrc, slv[order], n_slots
        )

        self._csr = _Csr(
            fsrc=fsrc,
            fdst=fdst,
            fdelay=fdelay,
            fseg_bounds=fbounds,
            fseg_dst=fkey,
            flevels=flevels,
            flevel_seg_ptr=fptr,
            fanin_start=fanin_start,
            fanin_end=fanin_end,
            bsrc=bsrc,
            bdst=bdst,
            bdelay=bdelay,
            bseg_bounds=bbounds,
            bseg_src=bkey,
            blevels=blevels,
            blevel_seg_ptr=bptr,
            fanout_start=fanout_start,
            fanout_end=fanout_end,
        )
        return self._csr

    # -- full sweeps ---------------------------------------------------------

    def full_forward(self, seed: np.ndarray, minimize: bool = False) -> dict[int, float]:
        """Level-ordered forward sweep from per-slot seeds.

        ``minimize`` selects shortest-path (hold) semantics; the result is
        stored as the kernel's authoritative array and returned as the
        dict the timer state expects.
        """
        csr = self._ensure_csr()
        arr = seed
        op = np.minimum if minimize else np.maximum
        ptr = csr.flevel_seg_ptr
        bounds = csr.fseg_bounds
        for li in range(len(csr.flevels)):
            seg_lo = ptr[li]
            seg_hi = ptr[li + 1]
            a_lo = bounds[seg_lo]
            a_hi = bounds[seg_hi]
            cand = arr[csr.fsrc[a_lo:a_hi]] + csr.fdelay[a_lo:a_hi]
            seg = op.reduceat(cand, bounds[seg_lo:seg_hi] - a_lo)
            dsts = csr.fseg_dst[seg_lo:seg_hi]
            arr[dsts] = op(arr[dsts], seg)
        if minimize:
            self._arrival_min = arr
            sentinel = _POS_INF
        else:
            self._arrival = arr
            sentinel = _NEG_INF
        obs.get_registry().counter("sta.kernel.sweeps").inc()
        return self._as_dict(arr, sentinel)

    def full_backward(self, seed: np.ndarray) -> dict[int, float]:
        """Level-ordered backward sweep (required times) from seeds."""
        csr = self._ensure_csr()
        req = seed
        ptr = csr.blevel_seg_ptr
        bounds = csr.bseg_bounds
        for li in range(len(csr.blevels) - 1, -1, -1):
            seg_lo = ptr[li]
            seg_hi = ptr[li + 1]
            a_lo = bounds[seg_lo]
            a_hi = bounds[seg_hi]
            cand = req[csr.bdst[a_lo:a_hi]] - csr.bdelay[a_lo:a_hi]
            seg = np.minimum.reduceat(cand, bounds[seg_lo:seg_hi] - a_lo)
            srcs = csr.bseg_src[seg_lo:seg_hi]
            req[srcs] = np.minimum(req[srcs], seg)
        self._required = req
        obs.get_registry().counter("sta.kernel.sweeps").inc()
        return self._as_dict(req, _POS_INF)

    @staticmethod
    def _as_dict(arr: np.ndarray, sentinel: float) -> dict[int, float]:
        live = np.nonzero(arr != sentinel)[0]
        return dict(zip(live.tolist(), arr[live].tolist()))

    # -- masked dirty-cone retime ---------------------------------------------

    def _recompute(
        self,
        slots: np.ndarray,
        seed: np.ndarray,
        values: np.ndarray,
        start: np.ndarray,
        end: np.ndarray,
        neighbor: np.ndarray,
        arc_delay: np.ndarray,
        sign: float,
        minimize: bool,
    ) -> np.ndarray:
        """Recompute ``max/min(seed, neighbor value ± delay)`` per slot."""
        counts = end[slots] - start[slots]
        out = seed.copy()
        idx, bounds, nz = _concat_ranges(start[slots], counts)
        if len(nz) == 0:
            return out
        cand = values[neighbor[idx]] + sign * arc_delay[idx]
        if minimize:
            seg = np.minimum.reduceat(cand, bounds)
            out[nz] = np.minimum(out[nz], seg)
        else:
            seg = np.maximum.reduceat(cand, bounds)
            out[nz] = np.maximum(out[nz], seg)
        return out

    def retime(self, timer) -> int:
        """Masked sub-level re-propagation of the timer's dirty cones.

        Dirty slots are drained in level order, each level's batch is
        recomputed in one vectorized gather, and only slots whose value
        changed push their fanout (arrival) or fanin (required) deeper.
        The timer's dict state (as Python floats, like a full sweep's) and
        changed-cell set are co-updated for queries and
        ``drain_changed_cells``.
        """
        g = self.graph
        csr = self._ensure_csr()
        level = g.levels()
        cell_name = g.design.store.cell_name
        st = timer._state
        track_min = st.arrival_min is not None
        touched: set[int] = set()
        batches = 0
        reg = obs.get_registry()

        def note_changed(tid: int) -> None:
            # A register D or Q seed pin whose value actually changed: the
            # only nodes register_slack and feasible_region read.
            cid = g.capture_by_id.get(tid)
            if cid is None:
                cid = g.launch_by_id.get(tid)
            if cid is not None:
                timer._changed_cells.add(cell_name[cid])

        def drop_stale(tid: int) -> None:
            # A dirty terminal that is no node now (a port that left the
            # port sets): forget its values.
            st.arrival.pop(tid, None)
            st.required.pop(tid, None)
            if track_min:
                st.arrival_min.pop(tid, None)
            self._clear([tid])

        # Forward cone: arrivals ascend by level.
        buckets: dict[int, set[int]] = {}
        heap: list[int] = []

        def push_fwd(s: int) -> None:
            lv = int(level[s])
            b = buckets.get(lv)
            if b is None:
                buckets[lv] = b = {s}
                heappush(heap, lv)
            else:
                b.add(s)

        for tid in timer._dirty_fwd:
            if g.contains(tid):
                push_fwd(tid)
            else:
                drop_stale(tid)

        while heap:
            lv = heappop(heap)
            batch = buckets.pop(lv)
            touched |= batch
            batches += 1
            reg.histogram("sta.kernel.batch_nodes", obs.COUNT_BUCKETS).observe(
                len(batch)
            )
            slots = np.fromiter(batch, dtype=np.int64, count=len(batch))
            slots.sort()
            seed = np.full(len(slots), _NEG_INF)
            for i, s in enumerate(slots.tolist()):
                sv = timer._arrival_seed(g, s)
                if sv is not None:
                    seed[i] = sv
            new = self._recompute(
                slots, seed, self._arrival,
                csr.fanin_start, csr.fanin_end, csr.fsrc, csr.fdelay,
                1.0, minimize=False,
            )
            changed = new != self._arrival[slots]
            if track_min:
                seed_min = np.where(seed == _NEG_INF, _POS_INF, seed)
                new_min = self._recompute(
                    slots, seed_min, self._arrival_min,
                    csr.fanin_start, csr.fanin_end, csr.fsrc, csr.fdelay,
                    1.0, minimize=True,
                )
                changed_min = new_min != self._arrival_min[slots]
                changed_any = changed | changed_min
            else:
                changed_any = changed
            idx = np.nonzero(changed_any)[0]
            if len(idx) == 0:
                continue
            self._arrival[slots] = new
            new_vals = new.tolist()
            if track_min:
                self._arrival_min[slots] = new_min
                new_min_vals = new_min.tolist()
            slot_ids = slots.tolist()
            for i in idx.tolist():
                tid = slot_ids[i]
                if changed[i]:
                    v = new_vals[i]
                    if v == _NEG_INF:
                        st.arrival.pop(tid, None)
                    else:
                        st.arrival[tid] = v
                if track_min and changed_min[i]:
                    vm = new_min_vals[i]
                    if vm == _POS_INF:
                        st.arrival_min.pop(tid, None)
                    else:
                        st.arrival_min[tid] = vm
                note_changed(tid)
            ch = slots[idx]
            tidx, _, _ = _concat_ranges(
                csr.fanout_start[ch], csr.fanout_end[ch] - csr.fanout_start[ch]
            )
            if len(tidx):
                for t in np.unique(csr.bdst[tidx]).tolist():
                    push_fwd(int(t))

        # Backward cone: required times descend by level.
        buckets.clear()
        heap.clear()

        def push_bwd(s: int) -> None:
            lv = -int(level[s])
            b = buckets.get(lv)
            if b is None:
                buckets[lv] = b = {s}
                heappush(heap, lv)
            else:
                b.add(s)

        for tid in timer._dirty_bwd:
            if g.contains(tid):
                push_bwd(tid)
            else:
                drop_stale(tid)

        while heap:
            lv = heappop(heap)
            batch = buckets.pop(lv)
            touched |= batch
            batches += 1
            reg.histogram("sta.kernel.batch_nodes", obs.COUNT_BUCKETS).observe(
                len(batch)
            )
            slots = np.fromiter(batch, dtype=np.int64, count=len(batch))
            slots.sort()
            seed = np.full(len(slots), _POS_INF)
            for i, s in enumerate(slots.tolist()):
                sv = timer._required_seed(g, s)
                if sv is not None:
                    seed[i] = sv
            new = self._recompute(
                slots, seed, self._required,
                csr.fanout_start, csr.fanout_end, csr.bdst, csr.bdelay,
                -1.0, minimize=True,
            )
            changed = new != self._required[slots]
            idx = np.nonzero(changed)[0]
            if len(idx) == 0:
                continue
            self._required[slots] = new
            new_vals = new.tolist()
            slot_ids = slots.tolist()
            for i in idx.tolist():
                tid = slot_ids[i]
                v = new_vals[i]
                if v == _POS_INF:
                    st.required.pop(tid, None)
                else:
                    st.required[tid] = v
                note_changed(tid)
            ch = slots[idx]
            tidx, _, _ = _concat_ranges(
                csr.fanin_start[ch], csr.fanin_end[ch] - csr.fanin_start[ch]
            )
            if len(tidx):
                for t in np.unique(csr.fsrc[tidx]).tolist():
                    push_bwd(int(t))

        reg.counter("sta.kernel.retime_batches").inc(batches)
        return len(touched)
