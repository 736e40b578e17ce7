"""Tests for compose_mbr — the structural edit behind MBR composition."""

import pytest

from repro.check import check_design
from repro.geometry import Point, Rect
from repro.library.functional import DFF_R, DFF_R_S
from repro.library.functional import ScanStyle
from repro.netlist import ComposeError, RegisterView, compose_mbr
from repro.netlist.store import NetlistStore

from tests.conftest import make_flop_row


def _errors(design):
    return check_design(design)


class TestComposeBasic:
    def test_merge_two_flops_into_2bit(self, lib, flop_row):
        target = lib.register_cells(DFF_R, 2)[0]
        group = [flop_row.cell("ff0"), flop_row.cell("ff1")]
        d0_net, q0_net = flop_row.net("n_d0"), flop_row.net("n_q0")
        d1_net, q1_net = flop_row.net("n_d1"), flop_row.net("n_q1")

        record = compose_mbr(flop_row, group, target, Point(11.0, 50.0), name="mbr0")
        mbr = record.new_cell

        assert set(record.cells_removed) == {"ff0", "ff1"}
        assert record.cells_added == ("mbr0",)

        assert "ff0" not in flop_row.cells and "ff1" not in flop_row.cells
        assert mbr.pin("D0").net is d0_net
        assert mbr.pin("Q0").net is q0_net
        assert mbr.pin("D1").net is d1_net
        assert mbr.pin("Q1").net is q1_net
        assert mbr.pin("CK").net is flop_row.net("clk")
        assert mbr.pin("RN").net is flop_row.net("rst")
        assert not _errors(flop_row)

    def test_register_count_drops_bits_conserved(self, lib, flop_row):
        target = lib.register_cells(DFF_R, 4)[0]
        group = [flop_row.cell(f"ff{i}") for i in range(4)]
        bits_before = flop_row.total_register_bits()
        compose_mbr(flop_row, group, target, Point(11.0, 50.0))
        assert flop_row.total_register_count() == 1
        assert flop_row.total_register_bits() == bits_before

    def test_incomplete_mbr_leaves_spare_bits(self, lib, flop_row):
        # 3 flops into a 4-bit cell: D3/Q3 stay unconnected, and validation
        # treats the spare D as acceptable (Section 3: incomplete MBRs).
        target = lib.register_cells(DFF_R, 4)[0]
        group = [flop_row.cell(f"ff{i}") for i in range(3)]
        mbr = compose_mbr(flop_row, group, target, Point(11.0, 50.0)).new_cell
        assert mbr.pin("D3").net is None and mbr.pin("Q3").net is None
        assert not _errors(flop_row)
        view = RegisterView(mbr)
        assert view.connected_bit_count == 3

    def test_mbr_of_mbrs(self, lib, flop_row):
        # Compose 2+2 into two 2-bit MBRs, then those into one 4-bit MBR —
        # the incremental re-composition the paper applies to MBR-rich designs.
        t2 = lib.register_cells(DFF_R, 2)[0]
        t4 = lib.register_cells(DFF_R, 4)[0]
        m1 = compose_mbr(flop_row, [flop_row.cell("ff0"), flop_row.cell("ff1")], t2, Point(11, 50)).new_cell
        m2 = compose_mbr(flop_row, [flop_row.cell("ff2"), flop_row.cell("ff3")], t2, Point(19, 50)).new_cell
        m4 = compose_mbr(flop_row, [m1, m2], t4, Point(14, 50)).new_cell
        assert flop_row.total_register_count() == 1
        assert m4.pin("D2").net is flop_row.net("n_d2")
        assert m4.pin("Q3").net is flop_row.net("n_q3")
        assert not _errors(flop_row)

    def test_new_cell_name_unique_by_default(self, lib, flop_row):
        target = lib.register_cells(DFF_R, 2)[0]
        mbr = compose_mbr(
            flop_row, [flop_row.cell("ff0"), flop_row.cell("ff1")], target, Point(11, 50)
        ).new_cell
        assert mbr.name in flop_row.cells


class TestComposeErrors:
    def test_wrong_functional_class_rejected(self, lib, flop_row):
        target = lib.register_cells(DFF_R_S, 2)[0]
        with pytest.raises(ComposeError, match="class"):
            compose_mbr(
                flop_row, [flop_row.cell("ff0"), flop_row.cell("ff1")], target, Point(11, 50)
            )

    def test_overflow_rejected(self, lib, flop_row):
        target = lib.register_cells(DFF_R, 2)[0]
        with pytest.raises(ComposeError, match="fit"):
            compose_mbr(
                flop_row,
                [flop_row.cell("ff0"), flop_row.cell("ff1"), flop_row.cell("ff2")],
                target,
                Point(11, 50),
            )

    def test_dont_touch_rejected(self, lib, flop_row):
        flop_row.cell("ff0").dont_touch = True
        target = lib.register_cells(DFF_R, 2)[0]
        with pytest.raises(ComposeError, match="dont_touch"):
            compose_mbr(
                flop_row, [flop_row.cell("ff0"), flop_row.cell("ff1")], target, Point(11, 50)
            )

    def test_different_control_nets_rejected(self, lib, flop_row):
        # Rewire ff1's reset to a different net: no longer functionally
        # compatible, compose must refuse.
        other_rst = flop_row.add_net("rst2")
        from repro.library.cells import PinDirection

        p = flop_row.add_port("rst2", PinDirection.INPUT, Point(0, 0))
        flop_row.connect(p, other_rst)
        flop_row.connect(flop_row.cell("ff1").pin("RN"), other_rst)
        target = lib.register_cells(DFF_R, 2)[0]
        with pytest.raises(ComposeError, match="RN"):
            compose_mbr(
                flop_row, [flop_row.cell("ff0"), flop_row.cell("ff1")], target, Point(11, 50)
            )

    def test_empty_group_rejected(self, lib, flop_row):
        target = lib.register_cells(DFF_R, 2)[0]
        with pytest.raises(ComposeError):
            compose_mbr(flop_row, [], target, Point(11, 50))


class TestComposeScan:
    def test_internal_scan_chain_preserved_for_consecutive_flops(self, lib, scan_row):
        # Chain is si -> ff0 -> ff1 -> ff2 -> ff3 -> so; merging ff1+ff2
        # (consecutive) keeps the chain intact through the new SI/SO.
        target = next(
            c
            for c in lib.register_cells(DFF_R_S, 2)
            if c.scan_style is ScanStyle.INTERNAL
        )
        stitch_in = scan_row.net("n_scan1")  # ff0.SO -> ff1.SI
        stitch_out = scan_row.net("n_scan3")  # ff2.SO -> ff3.SI
        record = compose_mbr(
            scan_row, [scan_row.cell("ff1"), scan_row.cell("ff2")], target, Point(13, 50)
        )
        mbr = record.new_cell
        # The stitch net absorbed inside the MBR shows up as removed.
        assert "n_scan2" in record.removed_nets
        assert mbr.pin("SI").net is stitch_in
        assert mbr.pin("SO").net is stitch_out
        assert mbr.pin("SE").net is scan_row.net("se")
        # The old ff1->ff2 stitch net died with the merge.
        assert "n_scan2" not in scan_row.nets
        assert not _errors(scan_row)

    def test_multi_scan_target_carries_per_bit_chains(self, lib, scan_row):
        target = next(
            c for c in lib.register_cells(DFF_R_S, 2) if c.scan_style is ScanStyle.MULTI
        )
        n1 = scan_row.net("n_scan1")
        n2 = scan_row.net("n_scan2")
        n3 = scan_row.net("n_scan3")
        mbr = compose_mbr(
            scan_row, [scan_row.cell("ff1"), scan_row.cell("ff2")], target, Point(13, 50)
        ).new_cell
        # Bit 0 (old ff1): SI from n_scan1, SO to n_scan2; bit 1 (old ff2):
        # SI from n_scan2, SO to n_scan3 — both chains cross the MBR.
        assert mbr.pin("SI0").net is n1
        assert mbr.pin("SO0").net is n2
        assert mbr.pin("SI1").net is n2
        assert mbr.pin("SO1").net is n3
        assert not _errors(scan_row)

    def test_dead_net_sweep_removes_orphans(self, lib, scan_row):
        target = next(
            c
            for c in lib.register_cells(DFF_R_S, 4)
            if c.scan_style is ScanStyle.INTERNAL
        )
        compose_mbr(
            scan_row,
            [scan_row.cell(f"ff{i}") for i in range(4)],
            target,
            Point(13, 50),
        )
        # All three internal stitch nets die.
        for name in ("n_scan1", "n_scan2", "n_scan3"):
            assert name not in scan_row.nets
        assert not _errors(scan_row)


class TestComposeGeometryIndependence:
    def test_compose_in_fresh_design(self, lib):
        d = make_flop_row(lib, n_flops=8, name="fresh")
        target = lib.register_cells(DFF_R, 8)[0]
        compose_mbr(d, [d.cell(f"ff{i}") for i in range(8)], target, Point(20, 50))
        assert d.total_register_count() == 1
        assert d.width_histogram() == {8: 1}


class TestComposeCost:
    """One merge must not pay for the fanout of the nets it touches."""

    @staticmethod
    def _terminal_views(lib, monkeypatch, n: int) -> int:
        """``terminal_view`` calls of one two-register merge on a row whose
        clock net has ``n`` sinks and whose reset net has ``4n``."""
        design = make_flop_row(lib, n_flops=n, die=Rect(0, 0, 20 + 4 * n, 100))
        rst = design.net("rst")
        for k in range(3 * n):
            buf = design.add_cell(f"rbuf{k}", lib.cell("BUF_X1"), Point(10.0 + k, 60.0))
            design.connect(buf.pin("A"), rst)
        assert len(design.net("clk").terminals) == n + 1
        assert len(rst.terminals) == 4 * n + 1
        calls = 0
        original = NetlistStore.terminal_view

        def counting(self, tid):
            nonlocal calls
            calls += 1
            return original(self, tid)

        group = [design.cell("ff0"), design.cell("ff1")]
        target = lib.register_cells(DFF_R, 2)[0]
        with monkeypatch.context() as patch:
            patch.setattr(NetlistStore, "terminal_view", counting)
            compose_mbr(design, group, target, Point(11.0, 50.0))
        return calls

    def test_terminal_views_do_not_grow_with_fanout(self, lib, monkeypatch):
        small = self._terminal_views(lib, monkeypatch, 8)
        large = self._terminal_views(lib, monkeypatch, 64)
        assert large == small
