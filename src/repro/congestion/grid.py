"""Directional RUDY congestion grid and overflow-edge counting."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.rect import Rect
from repro.netlist.design import Design


@dataclass(frozen=True, slots=True)
class CongestionReport:
    """Summary of one congestion analysis."""

    overflow_edges: int
    total_edges: int
    max_usage_ratio: float
    mean_usage_ratio: float

    @property
    def overflow_fraction(self) -> float:
        return self.overflow_edges / self.total_edges if self.total_edges else 0.0


class CongestionGrid:
    """A global-routing grid with directional demand estimation.

    The die is cut into ``bins_x`` x ``bins_y`` g-cells.  Vertical grid edges
    (between horizontally adjacent g-cells) carry horizontal wires; their
    capacity is ``tracks_per_um * bin_height``.  A net whose bounding box
    spans a vertical edge contributes crossing demand equal to the fraction
    of its box height overlapping that edge's g-cell row (and symmetrically
    for horizontal edges / vertical wires).  Overflow edges are those whose
    demand exceeds capacity — the paper's Table 1 metric.
    """

    def __init__(
        self,
        die: Rect,
        bins_x: int = 24,
        bins_y: int = 24,
        tracks_per_um: float = 8.0,
    ) -> None:
        if bins_x < 2 or bins_y < 2:
            raise ValueError("need at least a 2x2 grid to have edges")
        self.die = die
        self.bins_x = bins_x
        self.bins_y = bins_y
        self.bin_w = die.width / bins_x
        self.bin_h = die.height / bins_y
        self.tracks_per_um = tracks_per_um
        # usage_v[i, j]: crossing demand over the vertical boundary between
        # g-cells (i, j) and (i+1, j); usage_h[i, j] between (i, j), (i, j+1).
        self.usage_v = np.zeros((bins_x - 1, bins_y), dtype=float)
        self.usage_h = np.zeros((bins_x, bins_y - 1), dtype=float)
        # Interior boundary coordinates, computed with the same arithmetic
        # the per-boundary scalar loop used (origin + (i+1) * bin_size), so
        # the vectorized crossing tests keep the exact float comparisons.
        self._bxs = die.xlo + np.arange(1, bins_x) * self.bin_w
        self._bys = die.ylo + np.arange(1, bins_y) * self.bin_h

    # -- demand accumulation ---------------------------------------------------

    def add_net_box(self, box: Rect, weight: float = 1.0) -> None:
        """Add one net's bounding box to the demand model."""
        if box.width <= 0 and box.height <= 0:
            return
        self._add_directional(box, weight, horizontal=True)
        self._add_directional(box, weight, horizontal=False)

    def _overlap_fractions(self, lo: float, hi: float, origin: float, size: float, n: int):
        """Per-bin overlap fraction of span [lo, hi] with each of n bins.

        For a degenerate span (lo == hi) the single containing bin gets 1.0.
        """
        frac = np.zeros(n, dtype=float)
        if hi <= lo:
            b = int(min(max((lo - origin) / size, 0), n - 1))
            frac[b] = 1.0
            return frac
        b0 = int(max(np.floor((lo - origin) / size), 0))
        b1 = int(min(np.ceil((hi - origin) / size), n))
        if b1 <= b0:
            return frac
        span = hi - lo
        # Element-wise the same min/max/divide expressions the per-bin loop
        # evaluated, so every fraction matches it bit for bit.
        bin_lo = origin + np.arange(b0, b1) * size
        overlap = np.minimum(hi, bin_lo + size) - np.maximum(lo, bin_lo)
        frac[b0:b1] = np.where(overlap > 0, overlap / span, 0.0)
        return frac

    def _add_directional(self, box: Rect, weight: float, horizontal: bool) -> None:
        # Every usage element still receives exactly one addition of the
        # same ``weight * frac`` product, so the slice-assignment form is
        # bit-identical to the former per-boundary loop.
        if horizontal:
            # Horizontal wires cross vertical boundaries strictly inside the box.
            y_frac = self._overlap_fractions(
                box.ylo, box.yhi, self.die.ylo, self.bin_h, self.bins_y
            )
            cross = (box.xlo < self._bxs) & (self._bxs < box.xhi)
            if cross.any():
                self.usage_v[cross, :] += weight * y_frac
        else:
            x_frac = self._overlap_fractions(
                box.xlo, box.xhi, self.die.xlo, self.bin_w, self.bins_x
            )
            cross = (box.ylo < self._bys) & (self._bys < box.yhi)
            if cross.any():
                self.usage_h[:, cross] += (weight * x_frac)[:, None]

    def _add_boxes(self, boxes: "np.ndarray", weights: "np.ndarray") -> None:
        """Accumulate many net boxes at once, in row order.

        Equivalent to ``add_net_box`` per row: fraction rows use the same
        min/max/divide expressions, and ``np.add.at`` applies the
        (net, boundary) contributions in index order — net-major, boundary
        ascending — exactly the sequence the per-net loop produced, so every
        usage element sees the same additions in the same order.
        """
        if not len(boxes):
            return
        xlo, ylo, xhi, yhi = boxes.T
        span_x = xhi - xlo
        span_y = yhi - ylo
        for horizontal in (True, False):
            if horizontal:
                origin, size, n = self.die.ylo, self.bin_h, self.bins_y
                lo, hi, span = ylo, yhi, span_y
                bounds, blo, bhi = self._bxs, xlo, xhi
                usage = self.usage_v
            else:
                origin, size, n = self.die.xlo, self.bin_w, self.bins_x
                lo, hi, span = xlo, xhi, span_x
                bounds, blo, bhi = self._bys, ylo, yhi
                usage = self.usage_h
            bin_lo = origin + np.arange(n) * size
            overlap = np.minimum(hi[:, None], bin_lo + size) - np.maximum(
                lo[:, None], bin_lo
            )
            with np.errstate(divide="ignore", invalid="ignore"):
                frac = np.where(overlap > 0, overlap / span[:, None], 0.0)
            degenerate = hi <= lo
            if degenerate.any():
                frac[degenerate] = 0.0
                b = np.clip(
                    ((lo[degenerate] - origin) / size).astype(int), 0, n - 1
                )
                frac[np.flatnonzero(degenerate), b] = 1.0
            frac *= weights[:, None]
            # (net, crossing boundary) pairs in net-major order.
            net_idx, edge_idx = np.nonzero(
                (blo[:, None] < bounds) & (bounds < bhi[:, None])
            )
            if horizontal:
                np.add.at(usage, edge_idx, frac[net_idx])
            else:
                np.add.at(usage.T, edge_idx, frac[net_idx])

    @staticmethod
    def of_design(
        design: Design,
        bins_x: int = 24,
        bins_y: int = 24,
        tracks_per_um: float = 8.0,
    ) -> "CongestionGrid":
        grid = CongestionGrid(design.die, bins_x, bins_y, tracks_per_um)
        # Every net with two or more pins and a non-degenerate box, read
        # from the store columns: no net view per net.
        store = design.store
        counts = store.net_count
        boxes = []
        for nid in store.net_ids.values():
            if counts[nid] < 2:
                continue
            box = store.net_bbox(nid)
            if box is not None and (box[2] - box[0] > 0 or box[3] - box[1] > 0):
                boxes.append(box)
        arr = np.array(boxes, dtype=float).reshape(-1, 4)
        grid._add_boxes(arr, np.ones(len(arr)))
        return grid

    # -- reporting ----------------------------------------------------------------

    @property
    def capacity_v(self) -> float:
        """Track capacity of one vertical edge (horizontal wires)."""
        return self.tracks_per_um * self.bin_h

    @property
    def capacity_h(self) -> float:
        return self.tracks_per_um * self.bin_w

    def report(self) -> CongestionReport:
        ratios = np.concatenate(
            [
                (self.usage_v / self.capacity_v).ravel(),
                (self.usage_h / self.capacity_h).ravel(),
            ]
        )
        overflow = int((ratios > 1.0).sum())
        return CongestionReport(
            overflow_edges=overflow,
            total_edges=int(ratios.size),
            max_usage_ratio=float(ratios.max(initial=0.0)),
            mean_usage_ratio=float(ratios.mean()) if ratios.size else 0.0,
        )
