"""Placement-aware candidate weights (paper Section 3.2).

Each candidate MBR gets a *test polygon*: the convex hull of the corner
points of its constituent registers.  Registers whose center falls inside
the polygon but are not constituents are *blocking registers*; with ``b``
total bits and ``n`` blockers the weight is

    w = 1/b          when n == 0          (clean: bigger is better)
    w = b * 2^n      when 0 < n < b       (crowded: exponentially penalized)
    w = infinity     when n >= b          (hopelessly entangled: dropped)

Original (unmerged) registers keep weight exactly 1 regardless of width —
Fig. 3 lists every original register, including the 4-bit E4, at 1.00.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.compatibility import RegisterInfo
from repro.geometry.hull import convex_hull, hull_xy, point_in_convex_polygon
from repro.geometry.point import Point
from repro.netlist.design import Design

KEEP_WEIGHT = 1.0
"""Weight of the "leave this register as it is" singleton candidate."""


class RegisterField:
    """Vectorized register-center index for the blocking test.

    The weight pass evaluates tens of thousands of candidate polygons
    against every register of the design; holding the centers in numpy
    arrays turns each candidate's blocking count into a handful of
    vector operations.  The field knows registers by name: ``names[j]``
    is the register at field index ``j``, and blockers come back as names.

    Every register blocks, composable or not (Fig. 2), but only the
    composable ones are analyzed, so the composer builds the field with
    :meth:`from_design`, straight from the netlist store.  The
    constructor indexes a list of analyzed registers instead — the
    reference the tests compare against.
    """

    def __init__(self, registers: list[RegisterInfo]) -> None:
        for i, r in enumerate(registers):
            r.field_index = i
        fps = [r.cell.footprint for r in registers]
        self._index(
            [r.name for r in registers],
            np.array([r.center_xy[0] for r in registers], dtype=float),
            np.array([r.center_xy[1] for r in registers], dtype=float),
            np.array([fp.xlo for fp in fps], dtype=float),
            np.array([fp.ylo for fp in fps], dtype=float),
            np.array([fp.xhi for fp in fps], dtype=float),
            np.array([fp.yhi for fp in fps], dtype=float),
        )

    @classmethod
    def from_design(
        cls, design: Design, infos: dict[str, RegisterInfo]
    ) -> "RegisterField":
        """Index every live register of ``design`` from the store columns.

        Centers and footprints use the float expressions of
        :attr:`~repro.netlist.db.Cell.center` and
        :attr:`~repro.netlist.db.Cell.footprint` (origin plus libcell
        width, or half of it), so every blocker test sees exactly the
        points a field built from analyzed registers would.  Each info of
        ``infos`` gets its ``field_index``.
        """
        store = design.store
        cids = np.fromiter(store.cell_ids.values(), dtype=np.int64, count=store.num_cells)
        libs = store.cell_lib[cids]
        is_register = np.array([rec.is_register for rec in store.libs], dtype=bool)
        keep = is_register[libs]
        cids, libs = cids[keep], libs[keep]
        width = np.array([rec.libcell.width for rec in store.libs], dtype=float)[libs]
        height = np.array([rec.libcell.height for rec in store.libs], dtype=float)[libs]
        x = store.cell_x[cids]
        y = store.cell_y[cids]
        field = cls.__new__(cls)
        field._index(
            [store.cell_name[cid] for cid in cids.tolist()],
            x + width / 2.0,
            y + height / 2.0,
            x,
            y,
            x + width,
            y + height,
        )
        index = {name: j for j, name in enumerate(field.names)}
        for name, info in infos.items():
            info.field_index = index.get(name)
        return field

    def _index(
        self,
        names: list[str],
        xs: np.ndarray,
        ys: np.ndarray,
        fxlo: np.ndarray,
        fylo: np.ndarray,
        fxhi: np.ndarray,
        fyhi: np.ndarray,
    ) -> None:
        self.names = names
        self.xs = xs
        self.ys = ys
        # x-sorted view for the bounding-box prefilter: two binary searches
        # replace four full-field comparisons per candidate.
        self._xorder = np.argsort(self.xs, kind="stable").tolist()
        self._xs_sorted = self.xs[self._xorder]
        self._xs_list = self.xs.tolist()
        self._ys_list = self.ys.tolist()
        # Centers' y in x-sorted order: the prefilter walks this list
        # positionally, touching ``_xorder`` only for survivors.
        self._ys_by_x_arr = self.ys[self._xorder]
        self._ys_by_x = self._ys_by_x_arr.tolist()
        self._xorder_arr = np.array(self._xorder, dtype=np.intp)
        # Footprint extents by field index: arrays for the batched bounding
        # boxes, lists for the per-candidate test polygons.
        self._fxlo, self._fylo, self._fxhi, self._fyhi = fxlo, fylo, fxhi, fyhi
        self._fxlo_list, self._fylo_list = fxlo.tolist(), fylo.tolist()
        self._fxhi_list, self._fyhi_list = fxhi.tolist(), fyhi.tolist()

    def centers_in_box(
        self,
        xlo: float,
        ylo: float,
        xhi: float,
        yhi: float,
        exclude: set[str],
    ) -> list[tuple[float, float]]:
        """Sorted centers of registers strictly inside a box, minus ``exclude``.

        Uses the same strict-interior test as :meth:`blockers`' bounding-box
        prefilter, so the result is exactly the set of registers that can
        ever block a candidate polygon contained in the box — the
        composition cache fingerprints components with it.
        """
        if not len(self.xs):
            return []
        mask = (self.xs > xlo) & (self.xs < xhi) & (self.ys > ylo) & (self.ys < yhi)
        return sorted(
            (float(self.xs[j]), float(self.ys[j]))
            for j in np.flatnonzero(mask)
            if self.names[j] not in exclude
        )

    def blockers(
        self, members: list[RegisterInfo], cap: int | None = None
    ) -> list[str]:
        """Names of the registers strictly inside the members' test polygon.

        The members' footprint bounding box prefilters the field; when no
        *foreign* register survives the box — the common case for clean
        bank groups — the convex hull is never even built.

        ``cap`` stops the scan once that many blockers are found.  The
        weight formula saturates at ``blockers >= bits`` (the candidate is
        dropped), so callers that only weigh the group never need more than
        ``bits`` of them.
        """
        if not len(self.xs):
            return []
        xlo = ylo = math.inf
        xhi = yhi = -math.inf
        same_row = True
        row = None
        for m in members:
            fp = m.cell.footprint
            if row is None:
                row = (fp.ylo, fp.yhi)
            elif same_row and (fp.ylo, fp.yhi) != row:
                same_row = False
            xlo, ylo = min(xlo, fp.xlo), min(ylo, fp.ylo)
            xhi, yhi = max(xhi, fp.xhi), max(yhi, fp.yhi)
        lo = int(np.searchsorted(self._xs_sorted, xlo, side="right"))
        hi = int(np.searchsorted(self._xs_sorted, xhi, side="left"))
        if lo >= hi:
            return []
        exclude = set()
        for m in members:
            fi = getattr(m, "field_index", None)
            if fi is not None:
                exclude.add(fi)
        xorder = self._xorder
        ys_by_x = self._ys_by_x
        idx = [
            j
            for k in range(lo, hi)
            if ylo < ys_by_x[k] < yhi and (j := xorder[k]) not in exclude
        ]
        if not idx:
            return []
        idx.sort()  # ascending field order, as the mask prefilter produced
        if same_row and xlo < xhi and ylo < yhi:
            # All member footprints span the same row: the corner hull is
            # exactly the bounding box.  (hull_xy would dedup the shared
            # ylo/yhi corners and pop the collinear interior ones, leaving
            # these four CCW vertices — skip the sort-and-chain work.)
            polygon = [(xlo, ylo), (xhi, ylo), (xhi, yhi), (xlo, yhi)]
        else:
            polygon = hull_xy(
                [
                    c
                    for m in members
                    for fp in (m.cell.footprint,)
                    for c in (
                        (fp.xlo, fp.ylo),
                        (fp.xhi, fp.ylo),
                        (fp.xhi, fp.yhi),
                        (fp.xlo, fp.yhi),
                    )
                ]
            )
        return self._inside(polygon, idx, cap)

    def _inside(
        self,
        polygon: list[tuple[float, float]],
        idx: list[int],
        cap: int | None,
    ) -> list[str]:
        """Names of the field registers ``idx`` strictly inside ``polygon``.

        ``polygon`` is a convex hull in CCW order; fewer than three
        vertices have no interior.  ``cap`` stops the scan once that many
        are found.
        """
        if len(polygon) < 3:
            return []
        edges = []
        for (ax, ay), (bx, by) in zip(polygon, polygon[1:] + polygon[:1]):
            dx, dy = bx - ax, by - ay
            edges.append((ax, ay, dx, dy, 1e-9 * max(abs(dx), abs(dy), 1.0)))
        if cap is not None or len(idx) <= 48:
            # Tiny survivor sets (the common case): scalar edge tests with
            # the exact same float expression beat per-edge numpy overhead.
            xs_all = self._xs_list
            ys_all = self._ys_list
            out = []
            for j in idx:
                x, y = xs_all[j], ys_all[j]
                for ax, ay, dx, dy, thr in edges:
                    if not dx * (y - ay) - dy * (x - ax) > thr:
                        break  # on or outside this edge: not strict interior
                else:
                    out.append(self.names[j])
                    if cap is not None and len(out) >= cap:
                        return out
            return out
        arr = np.array(idx)
        xs, ys = self.xs[arr], self.ys[arr]
        inside = np.ones(arr.size, dtype=bool)
        for ax, ay, dx, dy, thr in edges:
            cross = dx * (ys - ay) - dy * (xs - ax)
            inside &= cross > thr  # strict interior
            if not inside.any():
                return []
        return [self.names[j] for j in arr[inside]]

    def _band_polygon(self, fis: list[int]) -> list[tuple[float, float]]:
        """The test polygon of field footprints ``fis``, from field columns.

        Footprints sharing a row band ``(ylo, yhi)`` put all their corners
        on its two edges, so only the band's leftmost ``xlo`` and rightmost
        ``xhi`` can be vertices of the corner hull; every other corner lies
        on the segment between them.  :func:`hull_xy` of these returns the
        very polygon it returns for all corners, and one band with a
        non-empty interior is its own rectangle, as in :meth:`blockers`.
        """
        fxlo, fylo = self._fxlo_list, self._fylo_list
        fxhi, fyhi = self._fxhi_list, self._fyhi_list
        bands: dict[tuple[float, float], list[float]] = {}
        for fi in fis:
            band = (fylo[fi], fyhi[fi])
            ext = bands.get(band)
            if ext is None:
                bands[band] = [fxlo[fi], fxhi[fi]]
            else:
                if fxlo[fi] < ext[0]:
                    ext[0] = fxlo[fi]
                if fxhi[fi] > ext[1]:
                    ext[1] = fxhi[fi]
        if len(bands) == 1:
            (ylo, yhi), (xlo, xhi) = next(iter(bands.items()))
            if xlo < xhi and ylo < yhi:
                return [(xlo, ylo), (xhi, ylo), (xhi, yhi), (xlo, yhi)]
        corners: list[tuple[float, float]] = []
        for (ylo, yhi), (xlo, xhi) in bands.items():
            corners += ((xlo, ylo), (xhi, ylo), (xhi, yhi), (xlo, yhi))
        return hull_xy(corners)

    def blockers_count_batch(
        self, member_lists: list[list[RegisterInfo]], caps: list[int]
    ) -> list[int]:
        """Blocker counts, saturated at ``caps``, for many candidates at once.

        One vectorized pass replaces the per-candidate bounding boxes,
        binary searches, and slab scans of :meth:`blockers`.  Each
        candidate then drops its own members from its survivors, builds
        its test polygon from the field's footprint columns
        (:meth:`_band_polygon`, no member view) and runs the
        :meth:`_inside` edge tests on them, stopping at its cap.  Every
        entry equals ``min(len(self.blockers(members)), cap)``.  Members
        that are not in the field fall back to the scalar path for that
        candidate.
        """
        counts = [0] * len(member_lists)
        if not member_lists or not len(self.xs):
            return counts
        flat: list[int] = []
        offsets: list[int] = []
        groups: list[list[int]] = []
        batched: list[int] = []
        for ci, members in enumerate(member_lists):
            fis = [m.field_index for m in members]
            if None in fis:
                counts[ci] = len(self.blockers(members, cap=caps[ci]))
                continue
            offsets.append(len(flat))
            flat.extend(fis)
            groups.append(fis)
            batched.append(ci)
        if not batched:
            return counts
        nb = len(batched)
        flat_idx = np.asarray(flat, dtype=np.intp)
        starts = np.asarray(offsets, dtype=np.intp)
        bxlo = np.minimum.reduceat(self._fxlo[flat_idx], starts)
        bylo = np.minimum.reduceat(self._fylo[flat_idx], starts)
        bxhi = np.maximum.reduceat(self._fxhi[flat_idx], starts)
        byhi = np.maximum.reduceat(self._fyhi[flat_idx], starts)
        lo = np.searchsorted(self._xs_sorted, bxlo, side="right")
        hi = np.searchsorted(self._xs_sorted, bxhi, side="left")
        spans = np.maximum(hi - lo, 0)
        total = int(spans.sum())
        if not total:
            return counts
        # Concatenated [lo, hi) slab positions, candidate-major.
        reps = np.repeat(np.arange(nb), spans)
        csum = np.concatenate(([0], np.cumsum(spans)))
        pos = np.arange(total) - csum[reps] + lo[reps]
        ys_slab = self._ys_by_x_arr[pos]
        in_y = (ys_slab > bylo[reps]) & (ys_slab < byhi[reps])
        # The mask keeps the survivors candidate-major (in x order within a
        # candidate; a count does not depend on the order).
        survivors = self._xorder_arr[pos[in_y]].tolist()
        bounds = np.searchsorted(reps[in_y], np.arange(nb + 1)).tolist()
        for bi, fis in enumerate(groups):
            foreign = [
                j for j in survivors[bounds[bi] : bounds[bi + 1]] if j not in fis
            ]
            if foreign:
                cap = caps[batched[bi]]
                inside = self._inside(self._band_polygon(fis), foreign, cap)
                counts[batched[bi]] = min(len(inside), cap)
        return counts


def test_polygon(members: list[RegisterInfo]) -> list[Point]:
    """The convex hull of the members' footprint corners (Fig. 2)."""
    corners: list[Point] = []
    for info in members:
        corners.extend(info.cell.footprint.corners())
    return convex_hull(corners)


def blocking_registers(
    members: list[RegisterInfo],
    all_registers: list[RegisterInfo] | RegisterField,
) -> list[str]:
    """Names of the registers (of any kind) whose center lies inside the
    test polygon and that are not themselves members.

    Fig. 2's caption says "we check inside the surrounding polygon of the
    clique for the presence of other register" — *any* register competes for
    the region's placement/routing resources, not only compatible ones.

    A :class:`RegisterField` (vectorized) may be passed instead of the raw
    list — candidate enumeration does this, since the weight pass is its
    hottest loop; the list path keeps the simple reference implementation.
    """
    if isinstance(all_registers, RegisterField):
        return all_registers.blockers(members)
    member_names = {m.name for m in members}

    xlo = ylo = math.inf
    xhi = yhi = -math.inf
    for m in members:
        fp = m.cell.footprint
        xlo, ylo = min(xlo, fp.xlo), min(ylo, fp.ylo)
        xhi, yhi = max(xhi, fp.xhi), max(yhi, fp.yhi)

    polygon: list[Point] | None = None
    blockers: list[str] = []
    for info in all_registers:
        x, y = info.center_xy
        if not (xlo < x < xhi and ylo < y < yhi):
            continue
        if info.name in member_names:
            continue
        if polygon is None:
            polygon = test_polygon(members)
        if point_in_convex_polygon(Point(x, y), polygon, include_boundary=False):
            blockers.append(info.name)
    return blockers


def weight_formula(bits: int, blockers: int) -> float:
    """The Section 3.2 weight for ``bits`` total bits and ``blockers``
    intervening registers."""
    if bits <= 0:
        raise ValueError("candidate must carry at least one bit")
    if blockers == 0:
        return 1.0 / bits
    if blockers < bits:
        return float(bits) * (2.0 ** blockers)
    return math.inf


def candidate_weight(
    members: list[RegisterInfo],
    all_registers: list[RegisterInfo] | RegisterField,
    mapped_bits: int | None = None,
    saturate: bool = False,
) -> tuple[float, int]:
    """Weight of a candidate MBR, and its blocker count.

    ``mapped_bits`` overrides the bit count used by the formula (the sum of
    the members' connected bits by default) — Fig. 3 weights the 5-bit
    candidate AE at 1/5 even though it maps to an 8-bit incomplete cell, so
    the formula uses the *useful* bits.

    ``saturate=True`` lets the blocker scan stop at ``bits`` of them: the
    weight is infinite from that point on whatever the true count, so the
    returned count becomes ``min(n, bits)``.  Candidate enumeration opts in
    (it drops infinite-weight groups without reading the count); leave it
    off when the exact count matters.
    """
    if len(members) == 1:
        return KEEP_WEIGHT, 0
    bits = mapped_bits if mapped_bits is not None else sum(m.bits for m in members)
    if saturate and isinstance(all_registers, RegisterField):
        n = len(all_registers.blockers(members, cap=bits))
    else:
        n = len(blocking_registers(members, all_registers))
    return weight_formula(bits, n), n


def candidate_weights_batch(
    field: RegisterField,
    member_lists: list[list[RegisterInfo]],
    bits_list: list[int],
) -> list[tuple[float, int]]:
    """Saturating :func:`candidate_weight` over many multi-member groups.

    Returns one ``(weight, blockers)`` pair per group, with blocker counts
    saturated at the group's bit total — exactly what enumeration's
    per-candidate calls produced, computed in one vectorized field pass.
    """
    counts = field.blockers_count_batch(member_lists, list(bits_list))
    return [(weight_formula(b, n), n) for b, n in zip(bits_list, counts)]
