"""Tests for the scan-chain model: partitions, ordering, re-stitching."""

import pytest

from repro.check import check_design
from repro.geometry import Point
from repro.library.functional import DFF_R_S, ScanStyle
from repro.netlist import compose_mbr
from repro.scan import ScanChain, ScanModel


@pytest.fixture
def model() -> ScanModel:
    m = ScanModel()
    m.add_chain(ScanChain("c0", partition="P0", cells=["ff0", "ff1", "ff2", "ff3"]))
    m.add_chain(ScanChain("c1", partition="P1", cells=["g0", "g1"], ordered=True))
    return m


class TestQueries:
    def test_partition_lookup(self, model):
        assert model.partition_of("ff0") == "P0"
        assert model.partition_of("g1") == "P1"
        assert model.partition_of("unknown") is None

    def test_same_partition(self, model):
        assert model.same_partition("ff0", "ff3")
        assert not model.same_partition("ff0", "g0")
        assert model.same_partition("nope1", "nope2")  # both unscanned

    def test_duplicate_chain_rejected(self, model):
        with pytest.raises(ValueError):
            model.add_chain(ScanChain("c0", partition="P0"))

    def test_cell_on_two_chains_rejected(self, model):
        with pytest.raises(ValueError):
            model.add_chain(ScanChain("c2", partition="P0", cells=["ff0"]))

    def test_consecutive_in_order(self, model):
        assert model.consecutive_in_order(["g0", "g1"])
        assert model.consecutive_in_order(["ff0", "ff2"])  # unordered chain: free
        assert model.consecutive_in_order(["g0"])

    def test_nonconsecutive_ordered_rejected(self):
        m = ScanModel()
        m.add_chain(ScanChain("c", partition="P", cells=["a", "b", "c", "d"], ordered=True))
        assert m.consecutive_in_order(["a", "b"])
        assert m.consecutive_in_order(["b", "d"]) is False
        assert m.consecutive_in_order(["d", "c", "b"])  # order-insensitive input

    def test_members_of_two_ordered_chains_rejected(self):
        m = ScanModel()
        m.add_chain(ScanChain("c1", partition="P", cells=["a", "b"], ordered=True))
        m.add_chain(ScanChain("c2", partition="P", cells=["x", "y"], ordered=True))
        assert m.ordered_positions(["a", "x"]) is None
        assert not m.consecutive_in_order(["a", "x"])


class TestReplaceGroup:
    def test_group_collapses_to_first_position(self, model):
        model.replace_group(["ff1", "ff2"], "mbr0")
        assert model.chains["c0"].cells == ["ff0", "mbr0", "ff3"]
        assert model.chain_of("mbr0").name == "c0"
        assert model.chain_of("ff1") is None

    def test_cross_chain_group_lands_on_one_chain(self):
        m = ScanModel()
        m.add_chain(ScanChain("c1", partition="P", cells=["a", "b"]))
        m.add_chain(ScanChain("c2", partition="P", cells=["x", "y"]))
        m.replace_group(["b", "x"], "mbr")
        assert m.chains["c1"].cells == ["a", "mbr"]
        assert m.chains["c2"].cells == ["y"]

    def test_unscanned_group_noop(self, model):
        model.replace_group(["nfa", "nfb"], "mbr")
        assert model.chain_of("mbr") is None

    def test_ordered_chain_wins_as_host(self):
        # A non-multi MBR occupies exactly one hop; when the group spans an
        # ordered and an unordered chain, it must inherit the ordered
        # section's slot (its internal chain preserves the member order).
        m = ScanModel()
        m.add_chain(ScanChain("u", partition="P", cells=["a", "b"]))
        m.add_chain(ScanChain("o", partition="P", cells=["x", "y"], ordered=True))
        m.replace_group(["b", "x"], "mbr")
        assert m.chains["o"].cells == ["mbr", "y"]
        assert m.chains["u"].cells == ["a"]
        assert m.chain_of("mbr").name == "o"

    def test_non_multi_never_lands_on_two_chains(self):
        # Regression: the pre-``multi`` code inserted the new cell on every
        # affected chain, so a single-SI/SO MBR appeared twice — breaking
        # the one-chain invariant and double-visiting its scan bits.
        from repro.check import check_scan

        m = ScanModel()
        m.add_chain(ScanChain("c1", partition="P", cells=["a", "b"]))
        m.add_chain(ScanChain("c2", partition="P", cells=["x", "y"]))
        m.replace_group(["b", "x"], "mbr")
        carrying = [c.name for c in m.chains.values() if "mbr" in c.cells]
        assert len(carrying) == 1
        assert check_scan(m) == []

    def test_multi_replaces_in_place_on_every_chain(self):
        # multi=True: each affected chain keeps its relative order by
        # visiting the new cell's bits where its members used to sit.
        from repro.check import check_scan

        m = ScanModel()
        m.add_chain(ScanChain("c1", partition="P", cells=["a", "b", "c"]))
        m.add_chain(ScanChain("c2", partition="P", cells=["x", "y"]))
        m.replace_group(
            ["b", "x"], "mbr", bit_map={"b": (0,), "x": (1,)}, multi=True
        )
        assert m.chains["c1"].cells == ["a", "mbr", "c"]
        assert m.chains["c1"].hop_bits[1] == (0,)
        assert m.chains["c2"].cells == ["mbr", "y"]
        assert m.chains["c2"].hop_bits[0] == (1,)
        assert m.chain_of("mbr") is not None
        assert check_scan(m) == []

    def test_multi_merges_adjacent_visits(self):
        m = ScanModel()
        m.add_chain(ScanChain("c", partition="P", cells=["a", "b", "z"]))
        m.replace_group(["a", "b"], "mbr", bit_map={"a": (0,), "b": (1,)}, multi=True)
        assert m.chains["c"].cells == ["mbr", "z"]
        assert m.chains["c"].hop_bits[0] == (0, 1)


class TestRestitch:
    def test_restitch_after_scattered_merge(self, lib, scan_row):
        # Merge ff0 and ff2 (NOT consecutive) into an internal-scan MBR; the
        # netlist-local stitch cannot fix the chain, but the model rebuild can.
        model = ScanModel()
        model.add_chain(
            ScanChain("c0", partition="P0", cells=["ff0", "ff1", "ff2", "ff3"])
        )
        target = next(
            c
            for c in lib.register_cells(DFF_R_S, 2)
            if c.scan_style is ScanStyle.INTERNAL
        )
        group = [scan_row.cell("ff0"), scan_row.cell("ff2")]
        mbr = compose_mbr(scan_row, group, target, Point(12, 50), name="mbr0").new_cell
        model.replace_group(["ff0", "ff2"], "mbr0")
        assert model.chains["c0"].cells == ["mbr0", "ff1", "ff3"]

        model.restitch(scan_row)
        # Chain must now be connected: mbr0.SO -> ff1.SI, ff1.SO -> ff3.SI.
        assert mbr.pin("SO").net is scan_row.cell("ff1").pin("SI").net
        assert scan_row.cell("ff1").pin("SO").net is scan_row.cell("ff3").pin("SI").net
        errors = check_design(scan_row)
        assert not errors

    def test_restitch_idempotent(self, lib, scan_row):
        model = ScanModel()
        model.add_chain(
            ScanChain("c0", partition="P0", cells=["ff0", "ff1", "ff2", "ff3"])
        )
        created_first = model.restitch(scan_row)  # already stitched correctly
        created_second = model.restitch(scan_row)
        assert created_first == 0 and created_second == 0

    def test_restitch_threads_multi_scan_mbr(self, lib, scan_row):
        model = ScanModel()
        model.add_chain(
            ScanChain("c0", partition="P0", cells=["ff0", "ff1", "ff2", "ff3"])
        )
        target = next(
            c for c in lib.register_cells(DFF_R_S, 2) if c.scan_style is ScanStyle.MULTI
        )
        group = [scan_row.cell("ff1"), scan_row.cell("ff2")]
        mbr = compose_mbr(scan_row, group, target, Point(12, 50), name="mbr0").new_cell
        model.replace_group(["ff1", "ff2"], "mbr0")
        model.restitch(scan_row)
        # The external chain passes through both bits.
        assert scan_row.cell("ff0").pin("SO").net is mbr.pin("SI0").net
        assert mbr.pin("SO0").net is mbr.pin("SI1").net
        assert mbr.pin("SO1").net is scan_row.cell("ff3").pin("SI").net


class TestReorderChains:
    def test_dropped_dead_cells_leave_the_index(self, lib, scan_row):
        # A chain hop whose cell is gone from the design is dropped by
        # reorder_chains; the chain index must drop it too, or chain_of()
        # keeps answering for a dead cell and clone() copies the dangling
        # entry into the ECO audit's reference model.
        from repro.check import check_scan

        model = ScanModel()
        model.add_chain(
            ScanChain("c0", partition="P0", cells=["ff0", "ghost", "ff1", "ff2", "ff3"])
        )
        assert model.chain_of("ghost") is not None
        assert model.reorder_chains(scan_row) == 1
        assert "ghost" not in model.chains["c0"].cells
        assert model.chain_of("ghost") is None
        assert check_scan(model) == []
        assert check_scan(model.clone()) == []


class TestCheckScanStitch:
    def test_broken_stitch_on_non_last_chain_reported(self, lib):
        # Regression: the stitch check once ran off a leaked loop variable,
        # so only the last-iterated chain was ever verified and breaks on
        # every earlier chain passed silently.
        from repro.check import check_scan
        from tests.conftest import make_flop_row

        design = make_flop_row(lib, n_flops=8, func_class=DFF_R_S, name="two_chains")
        model = ScanModel()
        model.add_chain(
            ScanChain("c0", partition="P0", cells=["ff0", "ff1", "ff2", "ff3"])
        )
        model.add_chain(
            ScanChain("c1", partition="P1", cells=["ff4", "ff5", "ff6", "ff7"])
        )
        model.restitch(design)
        assert check_scan(model, design) == []

        design.disconnect(design.cell("ff1").pin("SI"))
        broken = [
            v
            for v in check_scan(model, design)
            if v.check == "scan-chain-broken-stitch"
        ]
        assert len(broken) == 1
        assert "chain c0" in broken[0].subject

    def test_clean_two_chain_design_has_no_stitch_violations(self, lib):
        from repro.check import check_scan
        from tests.conftest import make_flop_row

        design = make_flop_row(lib, n_flops=6, func_class=DFF_R_S, name="clean2")
        model = ScanModel()
        model.add_chain(ScanChain("c0", partition="P0", cells=["ff0", "ff1", "ff2"]))
        model.add_chain(ScanChain("c1", partition="P1", cells=["ff3", "ff4", "ff5"]))
        model.restitch(design)
        assert check_scan(model, design) == []


class TestChainEnds:
    """After a full flow every chain still runs from its own scan-in net to
    its own scan-out net: reordering must not leave a head on a stitch net
    or let an inner hop capture some chain's scan-out net, and a chain
    whose registers all merged away is bridged."""

    @pytest.mark.parametrize(
        ("name", "scale"), [("D1", 0.25), ("D2", 0.25), ("D5", 0.4)]
    )
    def test_flow_keeps_chain_ends_on_their_nets(self, lib, name, scale):
        from repro.bench import generate_design, preset
        from repro.check import assert_clean, check_all
        from repro.flow import run_flow

        b = generate_design(preset(name, scale=scale), lib)
        run_flow(b.design, b.timer, b.scan_model)
        assert_clean(check_all(b.design, b.timer, b.scan_model))
        for chain in b.scan_model.chains.values():
            hops = b.scan_model._chain_hops(b.design, chain)
            if hops:
                assert hops[0][1].net.name == chain.source_net
                assert b.design.nets[chain.sink_net].driver is hops[-1][0]
            else:
                assert chain.sink_net == chain.source_net

    def test_head_moved_off_its_scan_in_net_is_reported(self, lib):
        from repro.check import check_scan
        from tests.conftest import make_flop_row

        design = make_flop_row(lib, n_flops=4, func_class=DFF_R_S, name="ends")
        model = ScanModel.from_design(design)
        assert check_scan(model, design) == []
        chain = next(iter(model.chains.values()))
        stray = design.add_net("stray")
        design.connect(design.cell(chain.cells[0]).pin("SI"), stray)
        design.disconnect(design.cell(chain.cells[-1]).pin("SO"))
        checks = sorted(v.check for v in check_scan(model, design))
        assert checks == ["scan-chain-head-off-source", "scan-chain-tail-off-sink"]

    def test_emptied_chain_is_bridged(self, lib):
        from repro.check import check_scan
        from tests.conftest import make_flop_row

        design = make_flop_row(lib, n_flops=4, func_class=DFF_R_S, name="gone")
        design.disconnect(design.cell("ff0").pin("SI"))
        design.disconnect(design.cell("ff3").pin("SO"))
        model = ScanModel()
        model.add_chain(
            ScanChain("gone", partition="P0", source_net="n_si", sink_net="n_so")
        )
        assert [v.check for v in check_scan(model, design)] == ["scan-chain-unbridged"]
        model.restitch(design)
        assert model.chains["gone"].sink_net == "n_si"
        assert "n_so" not in design.nets
        assert design.ports["so"].net is design.nets["n_si"]
        assert check_scan(model, design) == []


class TestFromDesign:
    def test_extracts_generator_chains(self, lib):
        from repro.bench import generate_design, preset
        from repro.scan import ScanModel

        bundle = generate_design(preset("D1", scale=0.1), lib)
        extracted = ScanModel.from_design(bundle.design)
        # Same registers end up chained, in the same traversal order.
        original = {
            tuple(ch.cells) for ch in bundle.scan_model.chains.values() if ch.cells
        }
        recovered = {tuple(ch.cells) for ch in extracted.chains.values()}
        assert recovered == original

    def test_extracted_model_restitch_is_noop(self, lib, scan_row):
        from repro.scan import ScanModel

        model = ScanModel.from_design(scan_row)
        assert len(model.chains) == 1
        chain = next(iter(model.chains.values()))
        assert chain.cells == ["ff0", "ff1", "ff2", "ff3"]
        assert model.restitch(scan_row) == 0  # already physically stitched

    def test_extraction_on_scanless_design(self, lib, flop_row):
        from repro.scan import ScanModel

        model = ScanModel.from_design(flop_row)
        assert model.chains == {}
