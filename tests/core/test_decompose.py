"""Tests for MBR decomposition (the paper's future-work extension)."""

import pytest

from repro.check import check_design
from repro.core.decompose import DecomposeError, decompose_mbr, decompose_registers
from repro.geometry import Point
from repro.library.functional import DFF_R, DFF_R_S, ScanStyle
from repro.netlist import compose_mbr
from repro.scan import ScanChain, ScanModel
from repro.sta import Timer

from tests.conftest import make_flop_row


def _errors(design):
    return check_design(design)


@pytest.fixture
def mbr_design(lib):
    """A 4-bit MBR built by composing four 1-bit flops."""
    d = make_flop_row(lib, n_flops=4, spacing=2.0, name="dec")
    target = lib.register_cells(DFF_R, 4)[0]
    compose_mbr(d, [d.cell(f"ff{i}") for i in range(4)], target, Point(12, 50), name="mbr")
    return d


class TestDecomposeMbr:
    def test_splits_into_singles(self, lib, mbr_design):
        new = decompose_mbr(mbr_design, mbr_design.cell("mbr")).new_cells
        assert len(new) == 4
        assert "mbr" not in mbr_design.cells
        assert mbr_design.width_histogram() == {1: 4}
        assert not _errors(mbr_design)

    def test_data_connectivity_preserved(self, lib, mbr_design):
        d_nets = [mbr_design.cell("mbr").pin(f"D{i}").net for i in range(4)]
        q_nets = [mbr_design.cell("mbr").pin(f"Q{i}").net for i in range(4)]
        new = decompose_mbr(mbr_design, mbr_design.cell("mbr")).new_cells
        for cell, dn, qn in zip(new, d_nets, q_nets):
            assert cell.pin("D").net is dn
            assert cell.pin("Q").net is qn

    def test_control_nets_shared(self, lib, mbr_design):
        new = decompose_mbr(mbr_design, mbr_design.cell("mbr")).new_cells
        clk = mbr_design.net("clk")
        rst = mbr_design.net("rst")
        for cell in new:
            assert cell.pin("CK").net is clk
            assert cell.pin("RN").net is rst

    def test_bits_conserved(self, lib, mbr_design):
        before = mbr_design.total_register_bits()
        decompose_mbr(mbr_design, mbr_design.cell("mbr"))
        assert mbr_design.total_register_bits() == before

    def test_drive_resistance_not_degraded(self, lib, mbr_design):
        original_res = mbr_design.cell("mbr").register_cell.drive_resistance
        new = decompose_mbr(mbr_design, mbr_design.cell("mbr")).new_cells
        for cell in new:
            assert cell.register_cell.drive_resistance <= original_res + 1e-12

    def test_single_bit_rejected(self, lib, flop_row):
        with pytest.raises(DecomposeError, match="single-bit"):
            decompose_mbr(flop_row, flop_row.cell("ff0"))

    def test_dont_touch_rejected(self, lib, mbr_design):
        mbr_design.cell("mbr").dont_touch = True
        with pytest.raises(DecomposeError, match="excluded"):
            decompose_mbr(mbr_design, mbr_design.cell("mbr"))

    def test_scan_chain_expanded(self, lib, scan_row):
        # Compose a 4-bit internal-scan MBR from the scan chain, then split
        # it again: the chain must remain continuous through the singles.
        target = next(
            c for c in lib.register_cells(DFF_R_S, 4) if c.scan_style is ScanStyle.INTERNAL
        )
        model = ScanModel()
        model.add_chain(ScanChain("c0", partition="P0", cells=["ff0", "ff1", "ff2", "ff3"]))
        mbr = compose_mbr(
            scan_row, [scan_row.cell(f"ff{i}") for i in range(4)], target, Point(12, 50),
            name="mbr",
        ).new_cell
        model.replace_group(["ff0", "ff1", "ff2", "ff3"], "mbr")
        new = decompose_mbr(scan_row, mbr, model).new_cells
        assert len(new) == 4
        assert model.chains["c0"].cells == [c.name for c in new]
        # Physically continuous: si port net -> bit0 -> ... -> bit3 -> so net.
        assert new[0].pin("SI").net is scan_row.net("n_si")
        for a, b in zip(new[:-1], new[1:]):
            assert a.pin("SO").net is b.pin("SI").net
        assert new[-1].pin("SO").net is scan_row.net("n_so")
        assert not _errors(scan_row)

    def test_bit_row_stays_inside_die(self, lib, mbr_design):
        # The 1-bit row is wider than the MBR; flush against the right die
        # edge it must be anchored back on-die, not spilled past xhi.
        die = mbr_design.die
        mbr = mbr_design.cell("mbr")
        mbr.move_to(Point(die.xhi - mbr.register_cell.width, die.yhi - mbr.register_cell.height))
        new = decompose_mbr(mbr_design, mbr).new_cells
        for cell in new:
            c = cell.register_cell
            assert cell.origin.x >= die.xlo and cell.origin.y >= die.ylo
            assert cell.origin.x + c.width <= die.xhi + 1e-9
            assert cell.origin.y + c.height <= die.yhi + 1e-9

    def test_decompose_then_retime(self, lib, mbr_design):
        timer = Timer(mbr_design, clock_period=1.0)
        before = timer.summary()
        decompose_mbr(mbr_design, mbr_design.cell("mbr"))
        timer.dirty()
        after = timer.summary()
        assert after.total_endpoints == before.total_endpoints


class TestDecomposeRegisters:
    def test_width_filter(self, lib):
        from repro.bench import generate_design, preset

        b = generate_design(preset("D4", scale=0.1), lib)
        before_hist = b.design.width_histogram()
        res = decompose_registers(b.design, b.scan_model, widths=(8,))
        after_hist = b.design.width_histogram()
        assert after_hist.get(8, 0) < before_hist.get(8, 0)
        # dont_touch 8-bit cells survive.
        survivors = [
            c for c in b.design.registers() if c.width_bits == 8
        ]
        assert all(c.dont_touch or c.fixed for c in survivors)
        assert res.cells_created >= 8 * res.cells_removed - 8  # incomplete spares

    def test_roundtrip_compose_decompose_compose(self, lib):
        d = make_flop_row(lib, n_flops=8, spacing=2.0, name="rt")
        timer = Timer(d, clock_period=10.0)
        from repro.core.composer import compose_design

        compose_design(d, timer)
        assert d.total_register_count() == 1
        res = decompose_registers(d, widths=(8,))
        assert res.cells_removed == 1 and d.total_register_count() == 8
        timer.dirty()
        compose_design(d, timer)
        assert d.total_register_count() == 1
        assert not _errors(d)
