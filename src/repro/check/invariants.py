"""Invariant checkers: the structural facts the flow assumes silently.

Every fast path added on top of the paper's flow — dirty-cone retiming,
digest-keyed component replay — *assumes* a pile of structural
invariants that no code enforces explicitly: a pin is on at most one
net and that net knows about it, a net has at most one driver,
every MBR's width exists in the library, a scan chain is a single
Hamiltonian path over its scan cells, the timer's patched graph matches a
fresh build node-for-node, TNS is exactly the sum of negative endpoint
slacks.  These checkers make each assumption a pure function returning a
typed :class:`Violation` list (never raising), so the fuzzer, the CLI,
and the property tests can all consume the same evidence.

The checkers are *observers*: they never mutate the design, the timer's
cached state, or the scan model — except that :func:`check_timing`
forces a (normal, query-path) timing evaluation, exactly like calling
``timer.summary()`` would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.library.functional import ScanStyle
from repro.netlist.db import Pin, Port
from repro.netlist.design import Design
from repro.netlist.registers import RegisterView
from repro.placement.rows import PlacementRows
from repro.scan.model import ScanChain, ScanModel
from repro.sta.graph import TimingGraph
from repro.sta.timer import Timer

#: Position tolerance for row/site snap checks (um).
_SNAP_TOL = 1e-6


@dataclass(frozen=True, slots=True)
class Violation:
    """One broken invariant.

    ``check`` is a stable kebab-case identifier (grep-able, groupable);
    ``subject`` names the offending object (``"net q_reg_3_0"``,
    ``"cell mbr_17"``); ``message`` carries the human-readable detail.
    """

    check: str
    subject: str
    message: str
    severity: str = "error"

    @property
    def is_error(self) -> bool:
        return self.severity == "error"

    def __str__(self) -> str:
        return f"[{self.check}] {self.subject}: {self.message}"


class CheckError(AssertionError):
    """Raised by :func:`assert_clean` when violations were found."""


def format_violations(violations: list[Violation]) -> str:
    """A stable, line-per-violation report (errors first, then warnings)."""
    ordered = sorted(
        violations, key=lambda v: (v.severity != "error", v.check, v.subject)
    )
    return "\n".join(str(v) for v in ordered)


def assert_clean(violations: list[Violation]) -> None:
    """Raise :class:`CheckError` when any *error*-severity violation exists."""
    errors = [v for v in violations if v.is_error]
    if errors:
        raise CheckError(
            f"{len(errors)} invariant violation(s):\n" + format_violations(errors)
        )


# ---------------------------------------------------------------------------
# Design structure
# ---------------------------------------------------------------------------


def check_design(design: Design) -> list[Violation]:
    """Structural invariants of the netlist container itself.

    * namespace keys match object names (``design.cells[n].name == n``);
    * pin/net cross-references agree in both directions, and every
      terminal appears on at most one net's terminal list, at most once;
    * every net has at most one driver, and no net has sinks without one;
    * every register's width exists in the library for its functional
      class and scan style, and its clock pin is connected;
    * every cell's footprint lies inside the die.
    """
    out: list[Violation] = []

    for key, cell in design.cells.items():
        if cell.name != key:
            out.append(
                Violation(
                    "design-name-key",
                    f"cell {key}",
                    f"keyed {key!r} but object is named {cell.name!r}",
                )
            )
    for key, net in design.nets.items():
        if net.name != key:
            out.append(
                Violation(
                    "design-name-key",
                    f"net {key}",
                    f"keyed {key!r} but object is named {net.name!r}",
                )
            )

    # Terminal <-> net cross-references, in both directions.  Keyed by
    # ``full_name`` (unique per the name-key checks above), NOT ``id()``:
    # terminal views are weakly cached, so two visits to the same terminal
    # may build distinct objects — and worse, a recycled object address can
    # alias two different terminals across loop iterations.  Holding every
    # terminal view for the whole check makes the net walks below find
    # them in the cache instead of building each one again per pass.
    terminals = list(design.iter_terminals())
    memberships: dict[str, list[str]] = {}
    for net in design.nets.values():
        for t in net.terminals:
            memberships.setdefault(t.full_name, []).append(net.name)
            if t.net is not net:
                holder = t.net.name if t.net is not None else None
                out.append(
                    Violation(
                        "pin-net-crossref",
                        f"terminal {t.full_name}",
                        f"listed on net {net.name} but points at {holder!r}",
                    )
                )
    for t in terminals:
        nets = memberships.get(t.full_name, [])
        if len(nets) > 1:
            out.append(
                Violation(
                    "pin-multiple-nets",
                    f"terminal {t.full_name}",
                    f"appears on {len(nets)} net terminal lists: "
                    + ", ".join(sorted(nets)),
                )
            )
        if t.net is not None and not nets:
            out.append(
                Violation(
                    "pin-net-crossref",
                    f"terminal {t.full_name}",
                    f"points at net {t.net.name} but is not on its terminal list",
                )
            )

    # Driver discipline.
    for net in design.nets.values():
        drivers = [
            t
            for t in net.terminals
            if (isinstance(t, Pin) and t.is_output)
            or (isinstance(t, Port) and t.is_input)
        ]
        if len(drivers) > 1:
            out.append(
                Violation(
                    "net-multi-driver",
                    f"net {net.name}",
                    "driven by " + ", ".join(d.full_name for d in drivers),
                )
            )
        if not drivers and net.sinks:
            out.append(
                Violation(
                    "net-undriven-sinks",
                    f"net {net.name}",
                    f"{len(net.sinks)} sink(s) but no driver",
                )
            )

    # Registers: library width membership and clock connectivity.
    for cell in design.cells.values():
        if cell.is_register:
            lc = cell.register_cell
            widths = design.library.widths_for(
                lc.func_class, scan_styles=(lc.scan_style,)
            )
            if lc.width_bits not in widths:
                out.append(
                    Violation(
                        "mbr-width-not-in-library",
                        f"cell {cell.name}",
                        f"{lc.name} is {lc.width_bits} bits; library offers "
                        f"{list(widths)} for {lc.func_class.name}/"
                        f"{lc.scan_style.name}",
                    )
                )
            if cell.pin(lc.clock_pin_name).net is None:
                out.append(
                    Violation(
                        "register-clock-unconnected",
                        f"cell {cell.name}",
                        f"clock pin {lc.clock_pin_name} has no net",
                    )
                )
        if not design.die.contains_rect(cell.footprint):
            out.append(
                Violation(
                    "cell-outside-die",
                    f"cell {cell.name}",
                    f"footprint {cell.footprint} exceeds die {design.die}",
                )
            )

    return out


# ---------------------------------------------------------------------------
# Timing
# ---------------------------------------------------------------------------


_GRAPH_CHECKS = {
    "arcs": "timer-graph-arcs",
    "seeds": "timer-graph-seeds",
    "refcounts": "timer-node-refcounts",
}


def check_timing(timer: Timer) -> list[Violation]:
    """Invariants of the (possibly incrementally patched) timer.

    * the cached graph matches a from-scratch :class:`TimingGraph` build
      (:meth:`TimingGraph.differences`, the comparison the timer's audit
      runs too): same alive arc rows, same launch/capture/port seeds, same
      launch delays, and node refcounts in agreement (nodes retire exactly
      when their last arc or seed role disappears), all keyed by terminal
      id;
    * no skew entry dangles on a cell missing from the design;
    * summary consistency: TNS equals the sum of negative endpoint
      slacks, WNS the minimum slack, and the failing count the number of
      negative entries — for both setup and hold.
    """
    out: list[Violation] = []
    design = timer.design

    for name in sorted(timer.skew):
        if name not in design.cells:
            out.append(
                Violation(
                    "skew-dangling-cell",
                    f"skew {name}",
                    f"offset {timer.skew[name]} targets a cell not in the design",
                )
            )

    g = timer.graph  # builds fresh if nothing is cached — then trivially equal
    for part, detail in g.differences(TimingGraph(design, timer.tech)):
        out.append(Violation(_GRAPH_CHECKS[part], f"design {design.name}", detail))

    for mode, slacks, summary in (
        ("setup", timer.endpoint_slacks(), timer.summary()),
        ("hold", timer.hold_slacks(), timer.hold_summary()),
    ):
        neg = [e.slack for e in slacks if e.slack < 0.0]
        tns = sum(neg)
        wns = min((e.slack for e in slacks), default=0.0)
        if not math.isclose(summary.tns, tns, rel_tol=0.0, abs_tol=0.0):
            out.append(
                Violation(
                    "tns-not-sum-of-negative-slacks",
                    f"{mode} summary",
                    f"TNS {summary.tns!r} != sum of negative endpoint "
                    f"slacks {tns!r}",
                )
            )
        if summary.wns != wns:
            out.append(
                Violation(
                    "wns-not-min-slack",
                    f"{mode} summary",
                    f"WNS {summary.wns!r} != min endpoint slack {wns!r}",
                )
            )
        if summary.failing_endpoints != len(neg) or summary.total_endpoints != len(
            slacks
        ):
            out.append(
                Violation(
                    "endpoint-counts",
                    f"{mode} summary",
                    f"{summary.failing_endpoints}/{summary.total_endpoints} "
                    f"reported, {len(neg)}/{len(slacks)} recomputed",
                )
            )

    return out


# ---------------------------------------------------------------------------
# Scan
# ---------------------------------------------------------------------------


def check_scan(scan_model: ScanModel, design: Design | None = None) -> list[Violation]:
    """Invariants of the scan model, and (with a design) its physical form.

    Model-only: every chain's ``hop_bits`` aligns with its hop list, and
    the ``_chain_of`` index agrees with the chains — it maps every chain
    member to one of the chains carrying it, and carries no stale entries.
    A cell MAY appear on several chains (a multi-SI/SO MBR is visited
    per-bit by different chains); the index then records one of them.

    With a design: every chain member is a live scan register; a
    non-multi-scan register sits on exactly one chain and no scan *bit*
    is visited twice across all chains (the Hamiltonian-path condition);
    and consecutive hops are physically stitched — the scan-out pin
    drives the net feeding the next hop's scan-in.
    """
    out: list[Violation] = []

    on_chains: dict[str, set[str]] = {}
    for chain in scan_model.chains.values():
        if len(chain.hop_bits) != len(chain.cells):
            out.append(
                Violation(
                    "scan-hop-bits-misaligned",
                    f"chain {chain.name}",
                    f"{len(chain.cells)} hops but {len(chain.hop_bits)} "
                    "hop_bits entries",
                )
            )
        for cell_name in chain.cells:
            on_chains.setdefault(cell_name, set()).add(chain.name)

    for cell_name, chain_name in sorted(scan_model._chain_of.items()):
        if chain_name not in scan_model.chains:
            out.append(
                Violation(
                    "scan-index-stale",
                    f"cell {cell_name}",
                    f"indexed on chain {chain_name} which does not exist",
                )
            )
        elif cell_name not in scan_model.chains[chain_name].cells:
            out.append(
                Violation(
                    "scan-index-stale",
                    f"cell {cell_name}",
                    f"indexed on chain {chain_name} but absent from its hops",
                )
            )
    for cell_name, chains in sorted(on_chains.items()):
        if scan_model._chain_of.get(cell_name) not in chains:
            out.append(
                Violation(
                    "scan-index-missing",
                    f"cell {cell_name}",
                    f"on chain(s) {sorted(chains)} but the chain index says "
                    f"{scan_model._chain_of.get(cell_name)!r}",
                )
            )

    if design is None:
        return out

    # Per-bit visit accounting: the Hamiltonian condition is that every
    # scanned bit is traversed at most once across ALL chains.  A hop with
    # no bit restriction visits the whole cell.
    visits: dict[tuple[str, int], list[str]] = {}
    seen_internal: set[tuple[str, str]] = set()
    for chain in scan_model.chains.values():
        for cell_name, hop_bits in zip(chain.cells, chain.hop_bits):
            cell = design.cells.get(cell_name)
            if cell is None:
                out.append(
                    Violation(
                        "scan-chain-dangling-cell",
                        f"chain {chain.name}",
                        f"hop {cell_name} is not in the design",
                    )
                )
                continue
            if not cell.is_register or not cell.register_cell.func_class.is_scan:
                out.append(
                    Violation(
                        "scan-chain-nonscan-cell",
                        f"chain {chain.name}",
                        f"hop {cell_name} ({cell.libcell.name}) is not a "
                        "scan register",
                    )
                )
                continue
            lc = cell.register_cell
            if lc.scan_style is not ScanStyle.MULTI and len(
                on_chains.get(cell_name, ())
            ) > 1:
                # Reported once per (cell, chain) pair; dedup below.
                visits.setdefault((cell_name, -1), []).append(chain.name)
                continue
            if lc.scan_style is not ScanStyle.MULTI:
                # Restitch threads an internal-scan cell once per chain no
                # matter how often it is listed — mirror that dedup here.
                if (cell_name, chain.name) in seen_internal:
                    continue
                seen_internal.add((cell_name, chain.name))
            bits = (
                hop_bits
                if (lc.scan_style is ScanStyle.MULTI and hop_bits is not None)
                else range(lc.width_bits)
            )
            for bit in bits:
                visits.setdefault((cell_name, bit), []).append(chain.name)

    for (cell_name, bit), chains in sorted(visits.items()):
        if bit == -1:
            out.append(
                Violation(
                    "scan-cell-on-two-chains",
                    f"cell {cell_name}",
                    f"single-SI/SO register on chains {sorted(set(chains))}",
                )
            )
        elif len(chains) > 1:
            out.append(
                Violation(
                    "scan-bit-visited-twice",
                    f"cell {cell_name}",
                    f"bit {bit} traversed by hops of {chains} — the scan "
                    "path is not Hamiltonian",
                )
            )

    # Hamiltonian-path check over each chain's physical hops: every
    # consecutive (SO, SI) pair must share a net driven by the SO pin, and
    # the path runs from the chain's scan-in net to its scan-out net.
    for chain in scan_model.chains.values():
        hops = scan_model._chain_hops(design, chain)
        out += _check_chain_ends(chain, hops, design)
        for (so_pin, _), (_, si_pin) in zip(hops[:-1], hops[1:]):
            if si_pin.net is None or si_pin.net is not so_pin.net:
                out.append(
                    Violation(
                        "scan-chain-broken-stitch",
                        f"chain {chain.name}",
                        f"{so_pin.full_name} -> {si_pin.full_name} not on a "
                        "shared net",
                    )
                )
            elif so_pin.net.driver is not so_pin:
                driver = so_pin.net.driver
                out.append(
                    Violation(
                        "scan-chain-broken-stitch",
                        f"chain {chain.name}",
                        f"stitch net {so_pin.net.name} driven by "
                        f"{driver.full_name if driver else None}, not "
                        f"{so_pin.full_name}",
                    )
                )

    return out


def _check_chain_ends(chain: ScanChain, hops, design: Design) -> list[Violation]:
    """The head's SI sits on the chain's source net, the tail's SO drives
    its sink net, and an emptied chain is bridged (``sink_net ==
    source_net``) — each checked only where the chain's nets exist."""
    out: list[Violation] = []
    source = chain.source_net if chain.source_net in design.nets else None
    sink = chain.sink_net if chain.sink_net in design.nets else None
    subject = f"chain {chain.name}"
    if not hops:
        if source is not None and sink is not None and sink != source:
            out.append(
                Violation(
                    "scan-chain-unbridged",
                    subject,
                    f"no hops left, but scan-out net {sink} is not bridged "
                    f"to scan-in net {source}",
                )
            )
        return out
    head_si = hops[0][1]
    if source is not None and (head_si.net is None or head_si.net.name != source):
        out.append(
            Violation(
                "scan-chain-head-off-source",
                subject,
                f"head {head_si.full_name} is on "
                f"{head_si.net.name if head_si.net else None}, not {source}",
            )
        )
    tail_so = hops[-1][0]
    if sink is not None and design.nets[sink].driver is not tail_so:
        driver = design.nets[sink].driver
        out.append(
            Violation(
                "scan-chain-tail-off-sink",
                subject,
                f"scan-out net {sink} driven by "
                f"{driver.full_name if driver else None}, not tail "
                f"{tail_so.full_name}",
            )
        )
    return out


# ---------------------------------------------------------------------------
# Composition results
# ---------------------------------------------------------------------------


def check_composition(result, design: Design | None = None) -> list[Violation]:
    """Invariants of one :class:`~repro.core.composer.CompositionResult`.

    * each composed group's bit count fits its target library cell, and
      the target's width exists in the library;
    * group members are gone from the design, and each group's new cell
      is either alive or was itself consumed by a later group (multi-pass
      composition merges fresh MBRs again);
    * ``registers_after`` matches the design's live register count;
    * legalized cells sit on the row/site grid inside the die.
    """
    out: list[Violation] = []
    consumed: set[str] = set()
    for group in result.composed:
        consumed.update(group.members)

    for group in result.composed:
        subject = f"group {group.new_cell}"
        if design is not None:
            cell = design.cells.get(group.new_cell)
            if cell is None:
                if group.new_cell not in consumed:
                    out.append(
                        Violation(
                            "composed-cell-missing",
                            subject,
                            "new cell absent from the design and never "
                            "consumed by a later group",
                        )
                    )
            else:
                lc = cell.register_cell if cell.is_register else None
                if lc is None or lc.name != group.libcell:
                    out.append(
                        Violation(
                            "composed-cell-libcell",
                            subject,
                            f"expected {group.libcell}, found "
                            f"{cell.libcell.name}",
                        )
                    )
                elif group.bits > lc.width_bits:
                    out.append(
                        Violation(
                            "composed-bits-overflow",
                            subject,
                            f"{group.bits} bits composed into "
                            f"{lc.width_bits}-bit {lc.name}",
                        )
                    )
                elif (
                    len(RegisterView(cell).connected_bits()) > lc.width_bits
                ):  # pragma: no cover - overflow guard above catches first
                    out.append(
                        Violation(
                            "composed-bits-overflow",
                            subject,
                            "more connected bits than the cell has",
                        )
                    )
            for member in group.members:
                if member in design.cells:
                    out.append(
                        Violation(
                            "composed-member-alive",
                            subject,
                            f"member {member} still in the design",
                        )
                    )

    if design is not None:
        live = design.total_register_count()
        if result.registers_after is not None and result.registers_after != live:
            out.append(
                Violation(
                    "register-count-mismatch",
                    f"design {design.name}",
                    f"result says {result.registers_after} registers, "
                    f"design has {live}",
                )
            )

        legalization = result.legalization
        if legalization is not None and legalization.ok:
            rows = PlacementRows(
                design.die,
                design.library.technology.row_height,
                design.library.technology.site_width,
            )
            for name in legalization.moved:
                cell = design.cells.get(name)
                if cell is None:
                    continue
                snapped = rows.snap(cell.origin)
                if (
                    abs(snapped.x - cell.origin.x) > _SNAP_TOL
                    or abs(snapped.y - cell.origin.y) > _SNAP_TOL
                ):
                    out.append(
                        Violation(
                            "placement-off-grid",
                            f"cell {name}",
                            f"legalized to {cell.origin} which is off the "
                            f"row/site grid (nearest {snapped})",
                        )
                    )

    return out


# ---------------------------------------------------------------------------
# Aggregate
# ---------------------------------------------------------------------------


def check_all(
    design: Design,
    timer: Timer | None = None,
    scan_model: ScanModel | None = None,
    result=None,
) -> list[Violation]:
    """Run every applicable checker and concatenate the findings."""
    out = check_design(design)
    if timer is not None:
        out += check_timing(timer)
    if scan_model is not None:
        out += check_scan(scan_model, design)
    if result is not None:
        out += check_composition(result, design)
    return out
