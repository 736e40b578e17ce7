"""Synthetic "industrial" benchmark generator.

The paper evaluates on five proprietary 28 nm designs rich in MBRs after
logic synthesis.  This generator produces placed designs with the
*distributions* the composition algorithms key on:

* registers in physical clusters sharing clock gating and control nets
  (so functional-compatibility groups have realistic sizes);
* a configurable register width mix (Fig. 5 'before' histograms — e.g. D4
  is dominated by 8-bit MBRs already);
* a configurable composable fraction (Table 1's Comp-Regs / Total-Regs) via
  designer-excluded and already-maximal registers;
* register-to-register pipelines through small combinational clouds, with
  the clock period auto-fit so a target fraction of endpoints fails timing
  (the paper's designs average ~38% failing endpoints);
* scan chains with partitions and ordered sections.

Everything is seeded and deterministic.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from repro.geometry.point import Point
from repro.geometry.rect import Rect, last_origin
from repro.library.cells import PinDirection, RegisterCell
from repro.library.functional import DFF_R, DFF_R_S, FunctionalClass, ScanStyle
from repro.library.library import CellLibrary
from repro.netlist.design import Design
from repro.placement.legalize import legalize
from repro.placement.rows import PlacementRows
from repro.scan.model import ScanChain, ScanModel
from repro.sta.timer import Timer


@dataclass(frozen=True)
class BenchmarkSpec:
    """Parameters of one synthetic design."""

    name: str
    seed: int
    n_registers: int = 600
    width_mix: dict[int, float] = field(
        default_factory=lambda: {1: 0.45, 2: 0.25, 4: 0.20, 8: 0.10}
    )
    cluster_size: int = 20
    cluster_spread: float = 6.0
    bank_fraction: float = 0.7
    bank_columns: int = 4
    utilization: float = 0.35
    comb_per_bit: float = 1.2
    dont_touch_fraction: float = 0.12
    scan_fraction: float = 0.5
    ordered_chain_fraction: float = 0.15
    chain_length: int = 40
    clock_gate_fraction: float = 0.5
    failing_endpoint_fraction: float = 0.38
    reg2reg_fraction: float = 0.6
    # Scale knobs (the `huge` preset tightens these; the D1-D5 defaults
    # reproduce the historical designs bit-for-bit).
    reg2reg_window: int = 400  # candidate Q-net window per register
    legalize: bool = True  # False: snap to the row grid, skip overlap repair
    fit_clock: bool = True  # False: clock_period = 1.0, no probe Timer
    build_timer: bool = True  # False: bundle.timer is None


@dataclass
class DesignBundle:
    """A generated design plus the side models the flow needs."""

    spec: BenchmarkSpec
    design: Design
    scan_model: ScanModel
    timer: Timer | None
    clock_period: float


def _pick_width(rng: random.Random, mix: dict[int, float]) -> int:
    r = rng.random()
    acc = 0.0
    for width, frac in sorted(mix.items()):
        acc += frac
        if r <= acc:
            return width
    return max(mix)


def _die_for(spec: BenchmarkSpec, library: CellLibrary) -> Rect:
    """Size the die so the expected cell area hits the target utilization."""
    avg_width = sum(w * f for w, f in spec.width_mix.items())
    reg_area = spec.n_registers * avg_width * 1.8  # ~area/bit of the library
    comb_area = spec.n_registers * avg_width * spec.comb_per_bit * 0.6
    side = math.sqrt((reg_area + comb_area) / spec.utilization)
    side = max(side, 30.0)
    return Rect(0.0, 0.0, round(side, 1), round(side, 1))


def generate_design(spec: BenchmarkSpec, library: CellLibrary) -> DesignBundle:
    """Generate one benchmark design (placed, timed, scan-stitched)."""
    rng = random.Random(spec.seed)
    die = _die_for(spec, library)
    design = Design(spec.name, library, die)
    scan_model = ScanModel()

    clk_root = design.add_net("clk", is_clock=True)
    design.connect(design.add_port("clk", PinDirection.INPUT, Point(0.0, die.yhi / 2)), clk_root)

    n_clusters = max(1, spec.n_registers // spec.cluster_size)
    clusters = _make_clusters(design, spec, rng, n_clusters, clk_root)
    registers, reg_clusters = _make_registers(design, spec, library, rng, clusters)
    _make_datapaths(design, spec, library, rng, registers, reg_clusters)
    _make_scan(design, spec, rng, registers, reg_clusters, scan_model)
    if spec.legalize:
        _legalize_all(design, library)
    else:
        _snap_to_grid(design, library)

    period = _fit_clock_period(design, spec, library) if spec.fit_clock else 1.0
    timer = Timer(design, clock_period=period) if spec.build_timer else None
    return DesignBundle(
        spec=spec, design=design, scan_model=scan_model, timer=timer, clock_period=period
    )


# ---------------------------------------------------------------------------
# Pieces
# ---------------------------------------------------------------------------


@dataclass
class _Cluster:
    index: int
    center: Point
    clock_net: object
    reset_net: object
    func_class: FunctionalClass
    scan: bool


def _make_clusters(design, spec, rng, n_clusters, clk_root) -> list[_Cluster]:
    """Cluster centers with shared clock (possibly gated) and reset nets."""
    die = design.die
    clusters: list[_Cluster] = []
    rst_shared = design.add_net("rst")
    design.connect(
        design.add_port("rst", PinDirection.INPUT, Point(0.0, die.yhi / 2 - 2)), rst_shared
    )
    for i in range(n_clusters):
        margin = 8.0
        center = Point(
            rng.uniform(die.xlo + margin, die.xhi - margin),
            rng.uniform(die.ylo + margin, die.yhi - margin),
        )
        scan = rng.random() < spec.scan_fraction
        func_class = DFF_R_S if scan else DFF_R
        clock_net = clk_root
        if rng.random() < spec.clock_gate_fraction:
            icg = design.add_cell(f"icg_{i}", "ICG_X2", center)
            gated = design.add_net(f"gclk_{i}", is_clock=True)
            en = design.add_net(f"gen_{i}")
            design.connect(
                design.add_port(f"en_{i}", PinDirection.INPUT, Point(0.0, 1.0 + 0.1 * i)), en
            )
            design.connect(icg.pin("CK"), clk_root)
            design.connect(icg.pin("EN"), en)
            design.connect(icg.pin("GCK"), gated)
            clock_net = gated
        # A few distinct reset domains.
        if i % 7 == 3:
            rst = design.add_net(f"rst_{i}")
            design.connect(
                design.add_port(f"rst_{i}", PinDirection.INPUT, Point(0.0, 3.0 + 0.1 * i)), rst
            )
        else:
            rst = rst_shared
        clusters.append(_Cluster(i, center, clock_net, rst, func_class, scan))
    return clusters


def _make_registers(design, spec, library, rng, clusters) -> tuple[list[int], list[int]]:
    """Place each cluster's registers.

    A ``bank_fraction`` of clusters is *banked*: registers sit in abutting
    rows of ``bank_columns``, the way placed synthesis output looks for bus
    registers — these banks provide the clean (blocker-free) polygons the
    placement-aware weights reward.  Banked clusters are width-sorted (a bus
    bank is width-homogeneous), so non-composable already-maximal MBRs pool
    at the bank edge instead of blocking every group.  The rest scatter with
    a Gaussian around the cluster center, interleaving with other registers.

    Designer-excluded (dont_touch) registers concentrate in a subset of
    clusters, matching how real constraints follow module boundaries.

    Returns cell *ids* plus a parallel cluster-index list, not views: at a
    million registers a retained view list (with its pin maps) — or a
    per-cell ``{"cluster": i}`` attrs dict — costs more than the whole
    slotted store, so the datapath and scan stages materialize views
    transiently and read cluster membership from the parallel list.
    """
    registers: list[int] = []
    reg_clusters: list[int] = []
    die = design.die
    n_clusters = len(clusters)
    per_cluster = [spec.n_registers // n_clusters] * n_clusters
    for i in range(spec.n_registers % n_clusters):
        per_cluster[i] += 1

    reg_id = 0
    for cluster, count in zip(clusters, per_cluster):
        banked = (cluster.index / max(n_clusters, 1)) < spec.bank_fraction
        # Designer exclusions follow module boundaries: a cluster is either
        # entirely dont_touch or entirely free.
        dt_rate = 1.0 if rng.random() < spec.dont_touch_fraction else 0.0
        widths = [_pick_width(rng, spec.width_mix) for _ in range(count)]
        if banked:
            widths.sort(reverse=True)  # homogeneous runs; 8-bit pool first
        x_off, row, in_row = 0.0, 0, 0
        # Synthesis emits internal-scan (or non-scan) registers; multi-SI/SO
        # variants only enter through MBR mapping (Section 4.1).
        styles = (
            (ScanStyle.INTERNAL,) if cluster.func_class.is_scan else (ScanStyle.NONE,)
        )
        for width in widths:
            libcell: RegisterCell = rng.choice(
                library.register_cells(cluster.func_class, width, scan_styles=styles)
            )
            if banked:
                if in_row >= spec.bank_columns:
                    x_off, row, in_row = 0.0, row + 1, 0
                x = cluster.center.x + x_off
                y = cluster.center.y + row * libcell.height
                x_off, in_row = x_off + libcell.width, in_row + 1
            else:
                x = cluster.center.x + rng.gauss(0, spec.cluster_spread)
                y = cluster.center.y + rng.gauss(0, spec.cluster_spread)
            x = min(max(x, die.xlo), die.xhi - libcell.width)
            y = min(max(y, die.ylo), die.yhi - libcell.height)
            cell = design.add_cell(
                f"reg_{reg_id}",
                libcell,
                Point(x, y),
                dont_touch=rng.random() < dt_rate,
            )
            reg_id += 1
            design.connect(cell.pin(libcell.clock_pin_name), cluster.clock_net)
            if "RN" in cell.pins:
                design.connect(cell.pin("RN"), cluster.reset_net)
            registers.append(cell._cid)
            reg_clusters.append(cluster.index)
    return registers, reg_clusters


def _make_datapaths(design, spec, library, rng, registers, reg_clusters) -> None:
    """Wire every register bit: D from a comb cloud fed by an earlier
    register's Q (or an input port), Q into later clouds or an output port.

    Register order provides the topological guarantee: cloud sources are
    always earlier bits, so the netlist is acyclic by construction.

    The Q-net candidate list carries ``(net id, x, y, owner index)`` tuples
    — raw ids and floats, never views — so its footprint stays a few dozen
    bytes per bit at million-register scale.
    """
    die = design.die
    store = design.store
    comb_names = ["BUF_X1", "BUF_X2", "INV_X1", "INV_X2", "INV_X4"]
    q_nets: list[tuple[int, float, float, int]] = []  # driven Q nets
    port_count = 0
    for reg_index, cid in enumerate(registers):
        cell = store.cell_view(cid)
        lc: RegisterCell = cell.libcell
        # Path structure is chosen per *register*, not per bit: a real bus
        # register's bits come from the same pipeline stage and have highly
        # correlated slacks — the property timing compatibility (Section 2)
        # and useful skew rely on.  Each bit still gets its own cloud cells.
        use_reg = bool(q_nets) and rng.random() < spec.reg2reg_fraction
        # Cloud depth is a *cluster* property: registers of one module sit at
        # the same pipeline stage, so their path depths — and hence slack
        # signs — align, which is what makes them timing compatible.
        cluster_index = reg_clusters[reg_index]
        depth = 1 + (cluster_index * 2654435761 >> 4) % max(1, round(spec.comb_per_bit * 2))
        if use_reg:
            # Prefer a source register launched near this one: local wiring
            # keeps per-cluster slacks spatially smooth.
            window = q_nets[-spec.reg2reg_window :]
            here = cell.center
            hx, hy = here.x, here.y
            window.sort(key=lambda t: abs(t[1] - hx) + abs(t[2] - hy))
            pool = window[: max(4, len(window) // 8)]
        for bit in range(lc.width_bits):
            q_net = design.add_net(f"q_{cell.name}_{bit}")
            design.connect(cell.pin(lc.q_pin(bit)), q_net)

            if use_reg:
                src_nid, src_x, src_y, _ = pool[min(bit, len(pool) - 1)]
                src_net = store.net_view(src_nid)
                src_loc = Point(src_x, src_y)
            else:
                port_count += 1
                y = (port_count * 0.37) % die.height
                port = design.add_port(f"pi_{port_count}", PinDirection.INPUT, Point(0.0, y))
                src_net = design.add_net(f"pin_{port_count}")
                design.connect(port, src_net)
                src_loc = Point(0.0, y)

            d_loc = cell.pin(lc.d_pin(bit)).location
            net = src_net
            for k in range(depth):
                frac = (k + 1) / (depth + 1)
                gx = src_loc.x + (d_loc.x - src_loc.x) * frac + rng.gauss(0, 1.0)
                gy = src_loc.y + (d_loc.y - src_loc.y) * frac + rng.gauss(0, 1.0)
                gx = min(max(gx, die.xlo), die.xhi - 1.0)
                gy = min(max(gy, die.ylo), die.yhi - 1.0)
                gate = design.add_cell(
                    f"g_{cell.name}_{bit}_{k}", comb_names[(reg_index + k) % len(comb_names)],
                    Point(gx, gy),
                )
                design.connect(gate.pin("A"), net)
                net = design.add_net(f"n_{cell.name}_{bit}_{k}")
                design.connect(gate.pin("Z"), net)
            design.connect(cell.pin(lc.d_pin(bit)), net)
            q_loc = cell.pin(lc.q_pin(bit)).location
            q_nets.append((q_net._nid, q_loc.x, q_loc.y, reg_index))

    # Terminate observer-less Q nets at output ports so every launch path is
    # constrained.  A Q net with a single terminal holds only its driver.
    for i, (q_nid, _x, _y, _owner) in enumerate(q_nets):
        if store.net_count[q_nid] == 1:
            port = design.add_port(
                f"po_{i}", PinDirection.OUTPUT, Point(die.xhi, (i * 0.53) % die.height)
            )
            design.connect(port, store.net_view(q_nid))


def _make_scan(design, spec, rng, registers, reg_clusters, scan_model: ScanModel) -> None:
    """Stitch scan registers into chains by cluster locality."""
    store = design.store
    scan_pairs = [
        (cl, cid)
        for cid, cl in zip(registers, reg_clusters)
        if store.libs[store.cell_lib[cid]].libcell.func_class.is_scan
    ]
    if not scan_pairs:
        return
    scan_pairs.sort(
        key=lambda t: (t[0], float(store.cell_y[t[1]]), float(store.cell_x[t[1]]))
    )
    scan_regs = [cid for _cl, cid in scan_pairs]
    die = design.die
    se = design.add_net("se")
    design.connect(design.add_port("se", PinDirection.INPUT, Point(0.0, die.yhi - 1)), se)
    for cid in scan_regs:
        design.connect(store.cell_view(cid).pin("SE"), se)

    chain_idx = 0
    for start in range(0, len(scan_regs), spec.chain_length):
        chunk = scan_regs[start : start + spec.chain_length]
        chain = ScanChain(
            name=f"chain_{chain_idx}",
            partition="P0",  # one partition: re-stitching across chains is allowed
            cells=[store.cell_name[cid] for cid in chunk],
            ordered=rng.random() < spec.ordered_chain_fraction,
        )
        scan_model.add_chain(chain)
        # Physical stitching: port -> first SI, SO -> SI, last SO -> port.
        si_port = design.add_port(
            f"si_{chain_idx}", PinDirection.INPUT, Point(0.0, die.yhi - 2 - 0.2 * chain_idx)
        )
        si_net = design.add_net(f"si_net_{chain_idx}")
        design.connect(si_port, si_net)
        first = store.cell_view(chunk[0])
        design.connect(first.pin(first.register_cell.si_pin()), si_net)
        so_port = design.add_port(
            f"so_{chain_idx}", PinDirection.OUTPUT, Point(die.xhi, die.yhi - 2 - 0.2 * chain_idx)
        )
        so_net = design.add_net(f"so_net_{chain_idx}")
        last = store.cell_view(chunk[-1])
        design.connect(last.pin(last.register_cell.so_pin()), so_net)
        design.connect(so_port, so_net)
        chain_idx += 1
    scan_model.restitch(design)


def _legalize_all(design: Design, library: CellLibrary) -> None:
    """Legalize in two passes: registers first (they carry placement
    priority and their bank structure must survive), then the combinational
    cells around them."""
    rows = PlacementRows(
        design.die, library.technology.row_height, library.technology.site_width
    )
    registers = [c for c in design.cells.values() if c.is_register and not c.fixed]
    others = [c for c in design.cells.values() if not c.is_register and not c.fixed]
    # Pass 1: registers only, near-empty canvas — unseated comb cells are not
    # obstacles yet, only fixed cells block.
    legalize(
        design,
        rows,
        movable=registers,
        obstacles=[c for c in design.cells.values() if c.fixed],
    )
    legalize(design, rows, movable=others)


def _snap_to_grid(design: Design, library: CellLibrary) -> None:
    """Quantize every cell origin to the row/site grid in one vectorized pass.

    The prelegalized scale path (``spec.legalize = False``): with a fully
    banked register mix the generator's raw placement is already
    row-structured, so snapping is enough for scale benchmarking — overlap
    repair stays an explicitly incremental operation in the compose flow.
    """
    rows = PlacementRows(
        design.die, library.technology.row_height, library.technology.site_width
    )
    store = design.store
    live = np.fromiter(
        store.cell_ids.values(), dtype=np.int64, count=len(store.cell_ids)
    )
    if not len(live):
        return
    site = np.round((store.cell_x[live] - rows.core.xlo) / rows.site_width)
    # The rightmost legal site depends on the cell's width: rounding the
    # origin up must not push the far edge past the die boundary.
    widths = np.array(
        [rec.libcell.width for rec in store.libs], dtype=np.float64
    )[store.cell_lib[live]]
    max_site = np.floor(
        (rows.core.xhi - rows.core.xlo - widths) / rows.site_width + 1e-9
    )
    np.clip(site, 0, np.maximum(max_site, 0), out=site)
    x = rows.core.xlo + site * rows.site_width
    row = np.round((store.cell_y[live] - rows.core.ylo) / rows.row_height)
    np.clip(row, 0, max(rows.num_rows - 1, 0), out=row)
    y = rows.core.ylo + row * rows.row_height
    # ``xlo + site * site_width`` can round up past the last origin that
    # keeps the footprint on the die (0.2 * 1672 + 2.0 > 336.4); pull
    # those few origins, and any top-row y likewise, back to it.
    heights = np.array(
        [rec.libcell.height for rec in store.libs], dtype=np.float64
    )[store.cell_lib[live]]
    for k in np.flatnonzero(x + widths > rows.core.xhi).tolist():
        x[k] = last_origin(rows.core.xhi, float(widths[k]))
    for k in np.flatnonzero(y + heights > rows.core.yhi).tolist():
        y[k] = last_origin(rows.core.yhi, float(heights[k]))
    store.cell_x[live] = x
    store.cell_y[live] = y


def _fit_clock_period(design: Design, spec: BenchmarkSpec, library: CellLibrary) -> float:
    """Choose the clock period so ~``failing_endpoint_fraction`` of endpoints
    violate setup — matching the paper's observation that its designs run
    with about 38% failing endpoints at this flow stage."""
    probe = Timer(design, clock_period=1.0)
    slacks = sorted(e.slack for e in probe.endpoint_slacks())
    if not slacks:
        return 1.0
    # slack = period(=1) - setup-adjusted arrival; a different period P
    # shifts every slack by (P - 1).  Failing fraction f means the f-quantile
    # slack sits at zero.
    idx = min(int(len(slacks) * spec.failing_endpoint_fraction), len(slacks) - 1)
    shift = -slacks[idx]
    return round(max(1.0 + shift, 0.05), 4)
