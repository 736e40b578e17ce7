"""Candidate-MBR enumeration over one compatibility subgraph (Section 3)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import networkx as nx

from repro.core.cliques import enumerate_maximal_cliques, enumerate_subcliques
from repro.core.compatibility import RegisterInfo
from repro.core.mapping import (
    MappingChoice,
    area_overhead_fraction,
    incomplete_area_acceptable,
    required_scan_styles,
    select_library_cell_keyed,
)
from repro.core.weights import KEEP_WEIGHT, RegisterField, candidate_weights_batch
from repro.geometry.rect import Rect
from repro.geometry.region import FeasibleRegion, common_region
from repro.library.functional import FunctionalClass, ScanStyle
from repro.library.library import CellLibrary
from repro.scan.model import ScanModel


@dataclass
class CandidateMBR:
    """One valid MBR candidate: a clique plus its mapping and ILP weight.

    Singleton candidates ("keep the register as is") have ``members`` of
    length one, ``mapping=None``, and weight exactly 1 — they guarantee ILP
    feasibility and model the do-nothing choice.
    """

    members: tuple[str, ...]
    bits: int
    weight: float
    blockers: int
    mapping: MappingChoice | None
    region: FeasibleRegion | None

    @property
    def is_singleton(self) -> bool:
        return len(self.members) == 1

    @property
    def is_incomplete(self) -> bool:
        return self.mapping is not None and self.mapping.incomplete


@dataclass(frozen=True, slots=True)
class CandidateConfig:
    """Knobs of candidate enumeration.

    ``allow_incomplete``
        Enable incomplete MBRs (Section 3): cliques whose bit sum matches no
        library width may map to the next larger cell, subject to the
        area-per-bit rule and ``max_incomplete_area_overhead``.
    ``max_incomplete_area_overhead``
        Flow-level cap on the relative area increase an incomplete MBR may
        cost (the paper's experiments use 5%).
    ``max_candidates_per_subgraph``
        Safety valve for pathological dense subgraphs: when exceeded, the
        lightest candidates are kept (plus all singletons).
    ``max_group_spread``
        Maximum half-perimeter (um) of the bounding box of a candidate's
        register centers.  Merging registers that are compatible but far
        apart stretches every data net toward the common MBR location; this
        cap is what keeps total wirelength from growing (the paper reports
        *reduced* wirelength after composition).
    ``multi_scan_weight_penalty``
        Weight multiplier for candidates that can only map to multi-SI/SO
        cells (Section 4.1: external-scan cells "are penalized during MBR
        selection" for their chain-routing cost).  Small scattered merges on
        ordered chains stop paying off; large ones still win.
    ``use_placement_weights``
        Ablation switch: when False, every candidate is weighted ``1/bits``
        with no blocking-register penalty — the "without this, both routing
        congestion and wire-length can significantly increase" configuration
        of Section 3.2.
    """

    allow_incomplete: bool = True
    max_incomplete_area_overhead: float = 0.05
    max_candidates_per_subgraph: int = 4000
    max_group_spread: float = 18.0
    multi_scan_weight_penalty: float = 20.0
    use_placement_weights: bool = True
    window_enumeration_above: int = 12
    """Clique size beyond which sub-clique enumeration switches from the
    exhaustive subset DP to spatially-contiguous windows.  In a dense
    clique, a subset that skips over a nearer register is blocked by it
    (Section 3.2) and a blocked candidate can never beat its members'
    singletons in the ILP — so only spatially contiguous groups are worth
    enumerating; this keeps dense banks (and decomposed MBRs) tractable."""


def _bbox_spread(xmin: float, ymin: float, xmax: float, ymax: float) -> float:
    """Half-perimeter of a center bounding box, quantized for determinism.

    The spread cap is compared against coordinate *differences*, and
    ``(a + t) - (b + t)`` need not equal ``a - b`` in floats — a rigid
    translation of the whole placement could flip a group sitting exactly
    on the cap in or out of the candidate set.  Rounding to 1e-9 um (six
    orders below any real site geometry) makes the comparison a function
    of relative geometry only.
    """
    return round((xmax - xmin) + (ymax - ymin), 9)


_STYLE_MENUS: tuple[tuple[ScanStyle, ...], ...] = (
    (ScanStyle.NONE,),
    (ScanStyle.INTERNAL, ScanStyle.MULTI),
    (ScanStyle.MULTI,),
)
"""The scan-style menus :func:`~repro.core.mapping.required_scan_styles`
can return, indexed by the integer code :func:`_check_group` derives."""


class _MappingMemo:
    """Per-enumeration cache of the pure mapping queries.

    The width menu and the cell choice depend on a group only through
    ``(func_class, styles)`` resp. ``(func_class, styles, width, bits,
    min_drive_res)`` — thousands of sub-cliques of one subgraph share a
    handful of such keys, so a dict lookup replaces the library scan.
    Keys are plain integers and floats: a functional class becomes a
    small per-enumeration code (:meth:`class_code`) and a style menu its
    index in ``_STYLE_MENUS``, so a lookup hashes no enum or dataclass.
    """

    __slots__ = ("library", "_codes", "_classes", "_widths", "_select")

    def __init__(self, library: CellLibrary) -> None:
        self.library = library
        self._codes: dict[FunctionalClass, int] = {}
        self._classes: list[FunctionalClass] = []
        self._widths: dict[int, tuple[int, ...]] = {}
        self._select: dict[tuple, MappingChoice | None] = {}

    def class_code(self, func_class: FunctionalClass) -> int:
        """A dense integer standing for ``func_class`` in memo keys."""
        code = self._codes.get(func_class)
        if code is None:
            code = self._codes[func_class] = len(self._classes)
            self._classes.append(func_class)
        return code

    def widths(self, cls: int, menu: int) -> tuple[int, ...]:
        key = cls * len(_STYLE_MENUS) + menu
        out = self._widths.get(key)
        if out is None:
            out = self.library.widths_for(
                self._classes[cls], scan_styles=_STYLE_MENUS[menu]
            )
            self._widths[key] = out
        return out

    def select(
        self, cls: int, menu: int, width: int, bits: int, min_drive_res: float
    ) -> MappingChoice | None:
        key = (cls * len(_STYLE_MENUS) + menu, width, bits, min_drive_res)
        try:
            return self._select[key]
        except KeyError:
            out = self._select[key] = select_library_cell_keyed(
                self.library,
                self._classes[cls],
                _STYLE_MENUS[menu],
                width,
                bits,
                min_drive_res,
            )
            return out


def enumerate_candidates(
    subgraph: nx.Graph,
    all_registers: list[RegisterInfo] | RegisterField,
    library: CellLibrary,
    scan_model: ScanModel | None = None,
    config: CandidateConfig | None = None,
) -> list[CandidateMBR]:
    """All valid candidate MBRs of one compatibility subgraph.

    For every maximal clique, enumerate the sub-cliques whose bit totals the
    library can host; validate each against the group-level constraints that
    pairwise edges cannot express (common feasible region, scan ordering,
    mapping existence, incomplete-MBR economics); weight with the placement
    polygon.  Singletons for every node are always included.

    ``all_registers`` are the potential blockers.  The composer passes a
    :class:`~repro.core.weights.RegisterField`; a plain register list is
    indexed into one first (which sets each listed info's
    ``field_index``).
    """
    config = config or CandidateConfig()
    field = (
        all_registers
        if isinstance(all_registers, RegisterField)
        else RegisterField(all_registers)
    )
    infos: dict[str, RegisterInfo] = {
        n: subgraph.nodes[n]["info"] for n in subgraph.nodes
    }

    candidates: list[CandidateMBR] = [
        CandidateMBR(
            members=(name,),
            bits=info.bits,
            weight=KEEP_WEIGHT,
            blockers=0,
            mapping=None,
            region=info.region,
        )
        for name, info in sorted(infos.items())
    ]

    seen: set[tuple[str, ...]] = set()
    pre: list[_Group] = []
    bits_of = {n: infos[n].bits for n in infos}
    memo = _MappingMemo(library)
    columns = _register_columns(infos, scan_model, memo)
    for clique in enumerate_maximal_cliques(subgraph):
        if len(clique) < 2:
            continue
        members_list = [infos[n] for n in clique]
        widths = memo.widths(
            memo.class_code(members_list[0].func_class),
            _STYLE_MENUS.index(required_scan_styles(members_list, scan_model)),
        )
        if not widths:
            continue
        max_bits = max(widths)
        if len(clique) > config.window_enumeration_above:
            subcliques = _window_subcliques(
                [infos[n] for n in sorted(clique)],
                bits_of,
                set(widths),
                max_bits,
                config.allow_incomplete,
                config.max_group_spread,
            )
        else:
            subcliques = enumerate_subcliques(
                clique,
                bits_of,
                target_bit_sums=set(widths),
                max_bits=max_bits,
                allow_incomplete=config.allow_incomplete,
            )
        for names in subcliques:
            if names in seen:
                continue
            seen.add(names)
            group = _check_group(names, [columns[n] for n in names], memo, config)
            if group is not None:
                pre.append(group)

    multi = _weigh_groups(pre, field, config)
    # Deterministic candidate order: ILP tie-breaking must not depend on
    # hash-seed-sensitive set iteration.
    multi.sort(key=lambda c: (c.weight, -c.bits, c.members))
    if len(multi) > config.max_candidates_per_subgraph:
        multi = multi[: config.max_candidates_per_subgraph]
    return candidates + multi


def _window_subcliques(
    members: list[RegisterInfo],
    bits_of: dict[str, int],
    target_bit_sums: set[int],
    max_bits: int,
    allow_incomplete: bool,
    max_spread: float = math.inf,
) -> list[tuple[str, ...]]:
    """Spatially-contiguous sub-cliques of a large clique, as name-sorted
    tuples (the form :func:`enumerate_subcliques` returns).

    Members are serpentine-sorted (row, then x alternating); every window
    ``members[i:j]`` whose bit sum the library can host becomes a
    candidate.  O(k^2) candidates instead of exponentially many — see
    ``CandidateConfig.window_enumeration_above`` for why this loses nothing
    the ILP could actually select.

    ``max_spread`` is :attr:`CandidateConfig.max_group_spread`: the centers'
    bounding-box half-perimeter only grows as a window extends, so a window
    that exceeds it ends the run — validation would reject every extension
    with the very same check, just later.
    """

    def serpentine(info: RegisterInfo):
        row = round(info.center_xy[1])
        x = info.center_xy[0] if row % 2 == 0 else -info.center_xy[0]
        return (row, x, info.name)

    ordered = sorted(members, key=serpentine)
    out: list[tuple[str, ...]] = []
    k = len(ordered)
    for i in range(k):
        total = 0
        xmin, ymin = math.inf, math.inf
        xmax, ymax = -math.inf, -math.inf
        for j in range(i, k):
            info = ordered[j]
            x, y = info.center_xy
            xmin, xmax = min(xmin, x), max(xmax, x)
            ymin, ymax = min(ymin, y), max(ymax, y)
            if _bbox_spread(xmin, ymin, xmax, ymax) > max_spread:
                break
            total += bits_of[info.name]
            if total > max_bits:
                break
            if j == i:
                continue  # singletons handled separately
            exact = total in target_bit_sums
            incomplete_ok = allow_incomplete and any(w > total for w in target_bit_sums)
            if exact or incomplete_ok:
                out.append(tuple(sorted(m.name for m in ordered[i : j + 1])))
    return out


_Group = tuple[tuple[str, ...], list[RegisterInfo], int, MappingChoice, FeasibleRegion]
"""A validated group: member names, member infos (both in name order),
bit total, mapping choice and common region — everything but the weight."""


def _register_columns(
    infos: dict[str, RegisterInfo],
    scan_model: ScanModel | None,
    memo: _MappingMemo,
) -> dict[str, tuple]:
    """One flat tuple per register: every value :func:`_check_group` reads.

    Built once per enumeration, so the per-group check reads plain floats
    and ints instead of walking info, cell and region views for each of
    the thousands of sub-cliques.  The tuple holds the center, the region
    rect and its pinned flag, the bits, the drive resistance and libcell
    area, the functional-class code and its scan flag, the ordered-chain
    name and position (``None``/0 off ordered chains — the only ones
    :meth:`~repro.scan.model.ScanModel.consecutive_in_order` looks at),
    and the info itself.
    """
    columns: dict[str, tuple] = {}
    for name, info in infos.items():
        chain = scan_model.chain_of(name) if scan_model is not None else None
        if chain is not None and chain.ordered:
            chain_name, pos = chain.name, chain.position(name)
        else:
            chain_name, pos = None, 0
        rect = info.region.rect
        libcell = info.cell.register_cell
        columns[name] = (
            info.center_xy[0],
            info.center_xy[1],
            rect.xlo,
            rect.ylo,
            rect.xhi,
            rect.yhi,
            info.region.pinned,
            info.bits,
            libcell.drive_resistance,
            libcell.area,
            memo.class_code(info.func_class),
            info.func_class.is_scan,
            chain_name,
            pos,
            info,
        )
    return columns


def _check_group(
    names: tuple[str, ...],
    members: list[tuple],
    memo: _MappingMemo,
    config: CandidateConfig,
) -> _Group | None:
    """Group-level validation of one sub-clique, from register columns.

    ``members`` are the :func:`_register_columns` tuples of ``names`` (name
    order).  One pass gathers the center box, bit total, pinned count,
    region intersection, minimum drive resistance, area sum and ordered-
    chain span; the filters then run cheapest first.  Every value and
    comparison is the one :func:`_validate_group` computes through the
    views — same member order, same float expressions — so both accept
    the same groups with the same bits, mapping and region.
    """
    (x, y, xlo, ylo, xhi, yhi, pinned, bits, min_res, area,
     cls, is_scan, chain, pos, _) = members[0]
    xmin = xmax = x
    ymin = ymax = y
    npinned = 1 if pinned else 0
    chain0 = chain
    nordered = 1 if chain is not None else 0
    pmin = pmax = pos
    mixed = False
    for (x, y, rxlo, rylo, rxhi, ryhi, pinned, b, res, a,
         _, _, chain, pos, _) in members[1:]:
        if x < xmin:
            xmin = x
        elif x > xmax:
            xmax = x
        if y < ymin:
            ymin = y
        elif y > ymax:
            ymax = y
        if pinned:
            npinned += 1
        if rxlo > xlo:
            xlo = rxlo
        if rylo > ylo:
            ylo = rylo
        if rxhi < xhi:
            xhi = rxhi
        if ryhi < yhi:
            yhi = ryhi
        bits += b
        if res < min_res:
            min_res = res
        area += a
        if chain is not None:
            nordered += 1
            if chain0 is None:
                chain0, pmin, pmax = chain, pos, pos
            elif chain != chain0:
                mixed = True
            elif pos < pmin:
                pmin = pos
            elif pos > pmax:
                pmax = pos
    if _bbox_spread(xmin, ymin, xmax, ymax) > config.max_group_spread:
        return None
    if not is_scan:
        menu = 0
    elif not mixed and (nordered == 0 or pmax - pmin + 1 == nordered):
        menu = 1  # internal scan keeps the ordered members' chain order
    else:
        menu = 2
    for width in memo.widths(cls, menu):  # ascending: the first that fits
        if width >= bits:
            break
    else:
        return None
    if npinned > 1 or xhi < xlo or yhi < ylo:
        return None  # two pinned members, or no common region
    choice = memo.select(cls, menu, width, bits, min_res)
    if choice is None:
        return None
    if choice.incomplete:
        if not config.allow_incomplete:
            return None
        # incomplete_area_acceptable and area_overhead_fraction, on the
        # same left-to-right area sum.
        if not bits or not choice.cell.area_per_bit < area / bits:
            return None
        overhead = math.inf if area <= 0.0 else (choice.cell.area - area) / area
        if overhead > config.max_incomplete_area_overhead:
            return None
    region = FeasibleRegion(Rect(xlo, ylo, xhi, yhi), pinned=npinned > 0)
    return names, [m[-1] for m in members], bits, choice, region


def _validate_group(
    members: list[RegisterInfo],
    library: CellLibrary,
    scan_model: ScanModel | None,
    config: CandidateConfig,
) -> _Group | None:
    """Group-level validation of one sub-clique, through the views.

    The reference :func:`_check_group` is tested against: the same filters,
    written with the mapping and region helpers they come from.  Returns
    ``(names, members, bits, mapping choice, region)``; the placement
    weight is attached afterwards by :func:`_weigh_groups`.
    """
    xs = [m.center_xy[0] for m in members]
    ys = [m.center_xy[1] for m in members]
    if _bbox_spread(min(xs), min(ys), max(xs), max(ys)) > config.max_group_spread:
        return None

    bits = sum(m.bits for m in members)
    func_class = members[0].func_class
    styles = required_scan_styles(members, scan_model)
    widths = library.widths_for(func_class, scan_styles=styles)
    fitting = [w for w in widths if w >= bits]
    if not fitting:
        return None
    width = min(fitting)

    region = common_region([m.region for m in members])
    if region is None:
        return None

    min_drive_res = min(m.cell.register_cell.drive_resistance for m in members)
    choice = select_library_cell_keyed(
        library, func_class, styles, width, bits, min_drive_res
    )
    if choice is None:
        return None
    if choice.incomplete:
        if not config.allow_incomplete:
            return None
        if not incomplete_area_acceptable(choice, members):
            return None
        if area_overhead_fraction(choice, members) > config.max_incomplete_area_overhead:
            return None
    return tuple(m.name for m in members), members, bits, choice, region


def _weigh_groups(
    pre: list[_Group],
    field: RegisterField,
    config: CandidateConfig,
) -> list[CandidateMBR]:
    """Placement-weigh validated groups and build their candidates.

    Weights for all groups of the subgraph are computed in one batched
    field pass (saturated blocker counts: a group with at least ``bits``
    blockers has infinite weight whatever the exact count); infinite-weight
    groups are dropped here.
    """
    if not pre:
        return []
    if not config.use_placement_weights:
        pairs = [(1.0 / bits, 0) for _, _, bits, _, _ in pre]  # ablation
    else:
        pairs = candidate_weights_batch(
            field,
            [members for _, members, _, _, _ in pre],
            [bits for _, _, bits, _, _ in pre],
        )
    out: list[CandidateMBR] = []
    for (names, _, bits, choice, region), (weight, blockers) in zip(pre, pairs):
        if weight == float("inf"):
            continue  # n >= b: hopeless, drop before the ILP sees it
        if choice.cell.scan_style is ScanStyle.MULTI:
            weight *= config.multi_scan_weight_penalty
        out.append(
            CandidateMBR(
                members=names,
                bits=bits,
                weight=weight,
                blockers=blockers,
                mapping=choice,
                region=region,
            )
        )
    return out
