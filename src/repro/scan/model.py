"""Scan chains, partitions, and chain re-stitching after composition."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.library.functional import ScanStyle
from repro.netlist.design import Design
from repro.netlist.registers import RegisterView


@dataclass(frozen=True, slots=True)
class ScanBitRef:
    """One scan-chain hop token: a cell, optionally restricted to specific
    bits.

    A plain register or an internal-scan MBR occupies one whole-cell hop
    (``bits is None``): scan enters its SI and leaves its SO.  A multi-SI/SO
    MBR may be visited several times by the same (or different) chains, a
    subset of bits per visit — the paper's "several scan chains with
    different constraints can cross the same MBR".  Ordered sections rely on
    this to keep their scan order when non-consecutive members merge.
    """

    cell_name: str
    bits: tuple[int, ...] | None = None


@dataclass
class ScanChain:
    """An ordered scan chain within a partition.

    ``ordered`` marks an *ordered scan section*: the relative order of its
    registers is a test constraint and must survive composition (paper
    Section 2).  Unordered chains may be freely re-stitched.

    ``cells`` is the hop sequence (cell names; a multi-SI/SO MBR may appear
    several times) and ``hop_bits`` the per-hop bit restriction aligned with
    it (``None`` = the whole cell).  ``hop_bits`` is managed by
    :meth:`ScanModel.replace_group`; hand-built chains may leave it empty.

    ``source_net`` / ``sink_net`` name the chain's external scan-in source
    and scan-out destination nets; they are learned on the first
    :meth:`ScanModel.restitch` and used to re-attach the chain's head and
    tail after composition moves or removes boundary registers.
    """

    name: str
    partition: str
    cells: list[str] = field(default_factory=list)
    ordered: bool = False
    source_net: str | None = None
    sink_net: str | None = None
    hop_bits: list[tuple[int, ...] | None] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.hop_bits:
            self.hop_bits = [None] * len(self.cells)
        if len(self.hop_bits) != len(self.cells):
            raise ValueError(f"chain {self.name}: hop_bits does not match cells")

    def position(self, cell_name: str) -> int:
        return self.cells.index(cell_name)


class ScanModel:
    """Scan structure of a design: chains grouped into partitions."""

    def __init__(self) -> None:
        self.chains: dict[str, ScanChain] = {}
        self._chain_of: dict[str, str] = {}

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_design(design: Design, partition: str = "P0") -> "ScanModel":
        """Extract scan chains by tracing SO -> SI connectivity.

        Chain heads are scan registers whose SI net is not driven by another
        register's scan-out; the walk follows each register's SO net to the
        next SI until the chain leaves the registers.  All extracted chains
        share one partition and are unordered — exactly the permissive
        situation of Section 2 ("moving scan pins across different scan
        chains is allowed"); stricter partitions or ordered sections are
        design intent and must be declared, not inferred.

        Multi-SI/SO cells are traced bit by bit; a chain that crosses such a
        cell re-enters it once per visited bit.
        """
        model = ScanModel()
        views = {
            c.name: RegisterView(c)
            for c in design.registers()
            if c.register_cell.func_class.is_scan
        }
        # Map: SI pin -> owning (cell, entry bit) for chain walking.
        si_owner: dict[int, tuple[str, int]] = {}
        for name, view in views.items():
            lc = view.libcell
            if lc.scan_style is ScanStyle.MULTI:
                for bit in range(lc.width_bits):
                    si_owner[id(view.cell.pin(lc.si_pin(bit)))] = (name, bit)
            else:
                si_owner[id(view.cell.pin(lc.si_pin()))] = (name, 0)

        def so_pin(name: str, bit: int):
            lc = views[name].libcell
            if lc.scan_style is ScanStyle.MULTI:
                return views[name].cell.pin(lc.so_pin(bit))
            return views[name].cell.pin(lc.so_pin())

        def next_hop(name: str, bit: int):
            net = so_pin(name, bit).net
            if net is None:
                return None
            for sink in net.sinks:
                hop = si_owner.get(id(sink))
                if hop is not None:
                    return hop
            return None

        heads: list[tuple[str, int]] = []
        for name, view in views.items():
            lc = view.libcell
            entry_bits = (
                range(lc.width_bits) if lc.scan_style is ScanStyle.MULTI else (0,)
            )
            for bit in entry_bits:
                si = view.cell.pin(lc.si_pin(bit) if lc.scan_style is ScanStyle.MULTI else lc.si_pin())
                net = si.net
                driver = net.driver if net is not None else None
                driven_by_scan = (
                    driver is not None
                    and getattr(driver, "cell", None) is not None
                    and driver.cell.name in views
                    and driver.name.startswith("SO")
                )
                if not driven_by_scan:
                    heads.append((name, bit))

        chain_idx = 0
        claimed: set[tuple[str, int]] = set()
        for head in sorted(heads):
            if head in claimed:
                continue
            hops: list[tuple[str, int]] = []
            cursor: tuple[str, int] | None = head
            while cursor is not None and cursor not in claimed:
                claimed.add(cursor)
                hops.append(cursor)
                cursor = next_hop(*cursor)
            cells = [name for name, _ in hops]
            # Collapse per-bit hops of internal-scan cells already happen
            # (bit is always 0 there); multi-scan visits keep bit detail.
            hop_bits: list[tuple[int, ...] | None] = []
            for name, bit in hops:
                lc = views[name].libcell
                hop_bits.append((bit,) if lc.scan_style is ScanStyle.MULTI else None)
            chain = ScanChain(
                name=f"extracted_{chain_idx}",
                partition=partition,
                cells=cells,
                hop_bits=hop_bits,
            )
            # Record the external boundary nets now, while the physical
            # chain is intact — composition may remove the head or tail
            # register before the first restitch.
            head_name, head_bit = hops[0]
            head_lc = views[head_name].libcell
            head_si = views[head_name].cell.pin(
                head_lc.si_pin(head_bit)
                if head_lc.scan_style is ScanStyle.MULTI
                else head_lc.si_pin()
            )
            if head_si.net is not None and head_si.net.driver is not None:
                chain.source_net = head_si.net.name
            tail_so = so_pin(*hops[-1])
            if tail_so.net is not None and tail_so.net.sinks:
                chain.sink_net = tail_so.net.name
            model.add_chain(chain)
            chain_idx += 1
        return model

    def clone(self) -> "ScanModel":
        """An independent copy (same chain structure, fresh containers) —
        the ECO audit replays composition on it without disturbing the
        session's live model.

        Copies the containers directly rather than via :meth:`add_chain`:
        a composed multi-SI/SO MBR legitimately appears on several chains
        (:meth:`replace_group`'s ordered branch), which the construction-
        time one-chain check would reject.
        """
        other = ScanModel()
        for chain in self.chains.values():
            other.chains[chain.name] = ScanChain(
                name=chain.name,
                partition=chain.partition,
                cells=list(chain.cells),
                ordered=chain.ordered,
                source_net=chain.source_net,
                sink_net=chain.sink_net,
                hop_bits=[
                    tuple(h) if h is not None else None for h in chain.hop_bits
                ],
            )
        other._chain_of = dict(self._chain_of)
        return other

    def add_chain(self, chain: ScanChain) -> None:
        if chain.name in self.chains:
            raise ValueError(f"duplicate scan chain {chain.name!r}")
        for cell_name in chain.cells:
            # The same cell may appear several times on ONE chain (per-bit
            # visits of a multi-SI/SO MBR) but never on two chains.
            if self._chain_of.get(cell_name, chain.name) != chain.name:
                raise ValueError(f"register {cell_name} already on a scan chain")
            self._chain_of[cell_name] = chain.name
        self.chains[chain.name] = chain

    # -- queries -----------------------------------------------------------------

    def chain_of(self, cell_name: str) -> ScanChain | None:
        name = self._chain_of.get(cell_name)
        return self.chains[name] if name is not None else None

    def partition_of(self, cell_name: str) -> str | None:
        chain = self.chain_of(cell_name)
        return chain.partition if chain else None

    def same_partition(self, a: str, b: str) -> bool:
        """Scan compatibility at the partition level: both unscanned, or
        both in the same partition."""
        pa, pb = self.partition_of(a), self.partition_of(b)
        return pa == pb

    def ordered_positions(self, cell_names: list[str]) -> list[tuple[str, int]] | None:
        """For registers in *ordered* chains, their (chain, position) pairs.

        Returns ``None`` when any register is on an ordered chain different
        from the others — such groups can never preserve scan order in a
        single internal-scan MBR.
        """
        entries: list[tuple[str, int]] = []
        chains = set()
        for name in cell_names:
            chain = self.chain_of(name)
            if chain is not None and chain.ordered:
                chains.add(chain.name)
                entries.append((chain.name, chain.position(name)))
        if len(chains) > 1:
            return None
        return entries

    def consecutive_in_order(self, cell_names: list[str]) -> bool:
        """Whether the ordered-section members of a group occupy consecutive
        chain positions — the condition for an internal-scan MBR to preserve
        the section's order (Section 2)."""
        entries = self.ordered_positions(cell_names)
        if entries is None:
            return False
        if not entries:
            return True
        positions = sorted(pos for _, pos in entries)
        return positions == list(range(positions[0], positions[0] + len(positions)))

    # -- composition tracking ---------------------------------------------------------

    def replace_group(
        self,
        group: list[str],
        new_cell: str,
        bit_map: dict[str, tuple[int, ...]] | None = None,
        multi: bool = False,
    ) -> None:
        """Record that ``group`` merged into ``new_cell``.

        ``bit_map`` maps each member to the new cell's bit indices it
        occupies (the composer derives it from the bit order it wired);
        ``multi`` says the new cell is a multi-SI/SO register that several
        chains may cross.

        A single-SI/SO cell occupies exactly one chain hop, so the group
        collapses onto the earliest member position of one *host* chain —
        an ordered affected chain when there is one (the MBR inherits the
        ordered section's slot; its internal chain preserves member order
        via the composer's bit order), else the first affected chain.
        Moving the other chains' scan bits across chains is what the paper
        allows for unordered sections, and a later :meth:`reorder_chains`
        re-optimizes them.

        When the new cell is ``multi`` (and ``bit_map`` is known), every
        member is instead replaced **in place** by a per-bit visit of the
        new cell, so each affected chain's relative order survives exactly:
        this is the multi-SI/SO case where several chain segments cross one
        MBR.  Adjacent visits merge, so a consecutive run becomes one hop.
        """
        group_set = set(group)
        affected = sorted({self._chain_of[g] for g in group if g in self._chain_of})
        if not affected:
            return

        if multi and bit_map is not None:
            for chain_name in affected:
                chain = self.chains[chain_name]
                cells: list[str] = []
                bits: list[tuple[int, ...] | None] = []
                for cell_name, hop in zip(chain.cells, chain.hop_bits):
                    if cell_name not in group_set:
                        cells.append(cell_name)
                        bits.append(hop)
                        continue
                    visit = bit_map.get(cell_name, ())
                    if cells and cells[-1] == new_cell and bits[-1] is not None:
                        bits[-1] = tuple(bits[-1]) + tuple(visit)  # merge adjacent
                    else:
                        cells.append(new_cell)
                        bits.append(tuple(visit))
                chain.cells = cells
                chain.hop_bits = bits
            self._chain_of[new_cell] = next(
                c for c in affected if new_cell in self.chains[c].cells
            )
        else:
            host = next(
                (c for c in affected if self.chains[c].ordered), affected[0]
            )
            for chain_name in affected:
                chain = self.chains[chain_name]
                cells = []
                bits = []
                inserted = False
                for cell_name, hop in zip(chain.cells, chain.hop_bits):
                    if cell_name in group_set:
                        if chain_name == host and not inserted:
                            cells.append(new_cell)
                            bits.append(None)
                            inserted = True
                    else:
                        cells.append(cell_name)
                        bits.append(hop)
                chain.cells = cells
                chain.hop_bits = bits
                if inserted:
                    self._chain_of[new_cell] = chain_name
        for g in group:
            self._chain_of.pop(g, None)

    def expand_cell(self, old_cell: str, new_cells: list[str]) -> None:
        """Replace one chain entry by a sequence (MBR decomposition).

        The new cells take the old cell's position in its chain, in order;
        per-bit hop annotations collapse to whole-cell hops (the new cells
        are single-bit).
        """
        chain_name = self._chain_of.get(old_cell)
        if chain_name is None:
            return
        chain = self.chains[chain_name]
        cells: list[str] = []
        bits: list[tuple[int, ...] | None] = []
        inserted = False
        for cell_name, hop in zip(chain.cells, chain.hop_bits):
            if cell_name == old_cell:
                if not inserted:
                    cells.extend(new_cells)
                    bits.extend([None] * len(new_cells))
                    inserted = True
            else:
                cells.append(cell_name)
                bits.append(hop)
        chain.cells = cells
        chain.hop_bits = bits
        del self._chain_of[old_cell]
        for name in new_cells:
            self._chain_of[name] = chain_name

    # -- physical re-stitch --------------------------------------------------------------

    def reorder_chains(self, design: Design) -> int:
        """Re-order *unordered* chains by placement (serpentine: row-major,
        alternating direction) to minimize stitch wirelength.

        Composition replaces scattered registers with one MBR at a new
        location; keeping the old chain order then zigzags the stitch
        routing.  Re-ordering is exactly the freedom the paper grants
        unordered scan partitions ("moving scan pins across different scan
        chains is allowed").  Ordered sections are left untouched.  Returns
        the number of chains re-ordered.
        """
        changed = 0
        for chain in self.chains.values():
            if chain.ordered or len(chain.cells) < 3:
                continue
            hops = [
                (design.cells[n], bits)
                for n, bits in zip(chain.cells, chain.hop_bits)
                if n in design.cells
            ]
            if len(hops) < 3:
                continue

            def serpentine_key(hop):
                row = round(hop[0].origin.y)
                x = hop[0].origin.x if row % 2 == 0 else -hop[0].origin.x
                return (row, x, hop[0].name)

            hops.sort(key=serpentine_key)
            new_cells = [c.name for c, _ in hops]
            if new_cells != chain.cells:
                # Names filtered out above (cells gone from the design) must
                # also leave the chain index, or chain_of()/partition_of()
                # keep answering for dead cells — and clone() would copy the
                # dangling entries into the audit's reference model.
                for name in set(chain.cells) - set(new_cells):
                    self._chain_of.pop(name, None)
                chain.cells = new_cells
                chain.hop_bits = [bits for _, bits in hops]
                changed += 1
        return changed

    def restitch(self, design: Design) -> int:
        """Rewire every chain's SI/SO nets to match the model's order.

        Runs over all chains in three passes, so no chain's wiring can
        capture another chain's ends:

        1. thread each chain's inner hops, scan-out to the next hop's
           scan-in, reusing a hop's own scan-out net but never a net that
           is some chain's external scan-in source or scan-out destination
           (learned on the first call);
        2. attach each chain's head to its source net and its tail to its
           sink net;
        3. bridge each chain whose registers all merged away
           source-to-sink.

        Multi-scan MBRs are threaded bit by bit.  Returns the number of
        stitch nets created.
        """
        chain_hops = [
            (chain, self._chain_hops(design, chain)) for chain in self.chains.values()
        ]
        for chain, hops in chain_hops:
            if hops:
                self._learn_boundaries(chain, hops)
        boundary = {
            name
            for chain in self.chains.values()
            for name in (chain.source_net, chain.sink_net)
            if name is not None
        }
        created = 0
        for _chain, hops in chain_hops:
            for (so_pin, _), (_, si_pin) in zip(hops[:-1], hops[1:]):
                net = so_pin.net
                if net is None or net.name in boundary or net.driver is not so_pin:
                    net = design.add_net(design.unique_name("scan_stitch"))
                    design.connect(so_pin, net)
                    created += 1
                design.connect(si_pin, net)
        for chain, hops in chain_hops:
            if hops:
                self._attach_ends(design, chain, hops)
        for chain, hops in chain_hops:
            if not hops:
                self._bridge_empty_chain(design, chain)
        self._sweep_orphan_stitches(design)
        return created

    def _learn_boundaries(self, chain: ScanChain, hops) -> None:
        """Record the chain's external source/sink nets on first sight."""
        head_si = hops[0][1]
        if chain.source_net is None and head_si.net is not None and head_si.net.driver is not None:
            chain.source_net = head_si.net.name
        tail_so = hops[-1][0]
        if chain.sink_net is None and tail_so.net is not None and tail_so.net.sinks:
            chain.sink_net = tail_so.net.name

    def _attach_ends(self, design: Design, chain: ScanChain, hops) -> None:
        """Put the head's scan-in on the chain's source net and make the
        tail's scan-out the only driver of its sink net.  A foreign driver
        there is another chain's old tail; its own chain re-attaches it."""
        if chain.source_net in design.nets:
            design.connect(hops[0][1], design.nets[chain.source_net])
        if chain.sink_net in design.nets:
            sink_net = design.nets[chain.sink_net]
            tail_so = hops[-1][0]
            driver = sink_net.driver
            if driver is not None and driver is not tail_so:
                design.disconnect(driver)
            design.connect(tail_so, sink_net)

    def _bridge_empty_chain(self, design: Design, chain: ScanChain) -> None:
        """All registers of the chain merged into other chains: route the
        chain's source straight to its sink so neither dangles."""
        if (
            chain.source_net
            and chain.sink_net
            and chain.source_net in design.nets
            and chain.sink_net in design.nets
        ):
            src = design.nets[chain.source_net]
            dst = design.nets[chain.sink_net]
            if dst.driver is None and src.driver is not None:
                for sink in list(dst.sinks):
                    design.connect(sink, src)
                design.remove_net(dst)
                chain.sink_net = src.name

    def _sweep_orphan_stitches(self, design: Design) -> None:
        """Drop stitch nets that lost both driver and sinks during rewiring.

        Runs on every restitch, so it reads the store's name table and
        terminal counts instead of building a view per net.
        """
        store = design.store
        dead = [
            name
            for name, nid in store.net_ids.items()
            if name.startswith("scan_stitch") and store.net_count[nid] == 0
        ]
        for name in dead:
            design.remove_net(name)

    def _chain_hops(self, design: Design, chain: ScanChain):
        """Per chain hop, its (scan-out pin, scan-in pin) in traverse order.

        Multi-scan MBRs expand to one hop per visited bit (all bits when the
        hop has no restriction); internal-scan cells are one hop regardless
        of bit annotations, deduplicated if the chain lists them twice.
        """
        hops = []
        seen_internal: set[str] = set()
        for cell_name, hop_bits in zip(chain.cells, chain.hop_bits):
            cell = design.cells.get(cell_name)
            if cell is None or not cell.is_register:
                continue
            view = RegisterView(cell)
            lc = view.libcell
            if not lc.func_class.is_scan:
                continue
            if lc.scan_style is ScanStyle.MULTI:
                bits = hop_bits if hop_bits is not None else tuple(range(lc.width_bits))
                for bit in bits:
                    hops.append((cell.pin(lc.so_pin(bit)), cell.pin(lc.si_pin(bit))))
            else:
                if cell_name in seen_internal:
                    continue
                seen_internal.add(cell_name)
                hops.append((cell.pin(lc.so_pin()), cell.pin(lc.si_pin())))
        return hops
