"""Tests for hold (min-delay) analysis."""

import pytest

from repro.sta import Timer

from tests.conftest import make_flop_row


class TestHoldAnalysis:
    def test_fixture_design_hold_clean(self, flop_row):
        # Input paths go through a buffer and real wire: comfortably slower
        # than any hold requirement.
        timer = Timer(flop_row, clock_period=1.0)
        s = timer.hold_summary()
        assert s.total_endpoints == 4
        assert s.failing_endpoints == 0
        assert s.wns > 0.0

    def test_hold_independent_of_period(self, flop_row):
        t1 = Timer(flop_row, clock_period=1.0)
        t2 = Timer(flop_row, clock_period=100.0)
        assert t1.hold_summary().wns == pytest.approx(t2.hold_summary().wns)

    def test_capture_skew_tightens_hold(self, lib):
        # Delaying a capture register's clock eats its hold margin 1:1.
        d = make_flop_row(lib, n_flops=1, name="hold")
        timer = Timer(d, clock_period=1.0)
        base = timer.hold_summary().wns
        timer.set_skew("ff0", 0.02)
        assert timer.hold_summary().wns == pytest.approx(base - 0.02)

    def test_min_arrival_not_greater_than_max(self, lib):
        # Reconvergent paths: min arrival <= max arrival at the endpoint.
        from repro.geometry import Point, Rect
        from repro.library.cells import PinDirection
        from repro.library.functional import DFF_R
        from repro.netlist import Design

        d = Design("reconv", lib, Rect(0, 0, 60, 60))
        clk = d.add_net("clk", is_clock=True)
        rst = d.add_net("rst")
        d.connect(d.add_port("clk", PinDirection.INPUT, Point(0, 0)), clk)
        d.connect(d.add_port("rst", PinDirection.INPUT, Point(0, 1)), rst)
        ffc = lib.register_cells(DFF_R, 1)[0]
        src = d.add_cell("src", ffc, Point(5, 30))
        dst = d.add_cell("dst", ffc, Point(50, 30))
        for f in (src, dst):
            d.connect(f.pin("CK"), clk)
            d.connect(f.pin("RN"), rst)
        d.connect(d.add_port("din", PinDirection.INPUT, Point(0, 30)), d.add_net("nin"))
        d.connect(src.pin("D"), d.net("nin"))
        nq = d.add_net("nq")
        d.connect(src.pin("Q"), nq)
        # Short path: direct inverter.  Long path: three inverters.
        short = d.add_cell("s0", "INV_X1", Point(25, 30))
        d.connect(short.pin("A"), nq)
        nshort = d.add_net("nshort")
        d.connect(short.pin("Z"), nshort)
        prev = nq
        for i in range(3):
            g = d.add_cell(f"l{i}", "INV_X1", Point(15 + 8 * i, 40))
            d.connect(g.pin("A"), prev)
            prev = d.add_net(f"nl{i}")
            d.connect(g.pin("Z"), prev)
        mux = d.add_cell("mx", "NAND2_X1", Point(45, 30))
        d.connect(mux.pin("A"), nshort)
        d.connect(mux.pin("B"), prev)
        nmux = d.add_net("nmux")
        d.connect(mux.pin("Z"), nmux)
        d.connect(dst.pin("D"), nmux)

        timer = Timer(d, clock_period=5.0)
        dpin = dst.pin("D")
        max_arr = timer.arrival_at(dpin)
        min_arr = timer._compute_min_arrivals()[dpin._tid]
        assert min_arr < max_arr

    def test_hold_survives_composition(self, lib):
        from repro.core.composer import compose_design

        d = make_flop_row(lib, n_flops=6, spacing=2.0, name="holdc")
        timer = Timer(d, clock_period=10.0)
        before = timer.hold_summary()
        compose_design(d, timer)
        after = timer.hold_summary()
        assert after.failing_endpoints == 0
        assert after.total_endpoints == before.total_endpoints
