"""Tests for the netlist object model and design container."""

import pytest

from repro.check import check_design
from repro.geometry import Point, Rect
from repro.library.cells import PinDirection
from repro.library.functional import DFF_R
from repro.netlist import Design, RegisterView


class TestDesignBasics:
    def test_cell_and_net_namespaces(self, lib):
        d = Design("t", lib, Rect(0, 0, 10, 10))
        c = d.add_cell("u1", "INV_X1", Point(1, 1))
        n = d.add_net("n1")
        d.connect(c.pin("A"), n)
        assert d.cell("u1") is c
        assert d.net("n1") is n
        assert c.pin("A").net is n
        assert n.terminals == [c.pin("A")]

    def test_duplicate_names_rejected(self, lib):
        d = Design("t", lib, Rect(0, 0, 10, 10))
        d.add_cell("u1", "INV_X1")
        d.add_net("n1")
        with pytest.raises(ValueError):
            d.add_cell("u1", "INV_X1")
        with pytest.raises(ValueError):
            d.add_net("n1")

    def test_missing_lookups_raise(self, lib):
        d = Design("t", lib, Rect(0, 0, 10, 10))
        with pytest.raises(KeyError):
            d.cell("nope")
        with pytest.raises(KeyError):
            d.net("nope")

    def test_unique_name_generation(self, lib):
        d = Design("t", lib, Rect(0, 0, 10, 10))
        d.add_cell("mbr_1", "INV_X1")
        name = d.unique_name("mbr")
        assert name != "mbr_1" and name not in d.cells

    def test_remove_cell_disconnects(self, lib):
        d = Design("t", lib, Rect(0, 0, 10, 10))
        c = d.add_cell("u1", "INV_X1")
        n = d.add_net("n1")
        d.connect(c.pin("A"), n)
        d.remove_cell(c)
        assert "u1" not in d.cells
        assert n.terminals == []

    def test_reconnect_moves_pin(self, lib):
        d = Design("t", lib, Rect(0, 0, 10, 10))
        c = d.add_cell("u1", "INV_X1")
        n1, n2 = d.add_net("n1"), d.add_net("n2")
        d.connect(c.pin("A"), n1)
        d.connect(c.pin("A"), n2)
        assert c.pin("A").net is n2
        assert n1.terminals == [] and n2.terminals == [c.pin("A")]


class TestNetQueries:
    def test_driver_and_sinks(self, lib):
        d = Design("t", lib, Rect(0, 0, 20, 20))
        drv = d.add_cell("drv", "BUF_X2", Point(1, 1))
        s1 = d.add_cell("s1", "INV_X1", Point(5, 5))
        s2 = d.add_cell("s2", "INV_X1", Point(9, 2))
        n = d.add_net("n")
        d.connect(drv.pin("Z"), n)
        d.connect(s1.pin("A"), n)
        d.connect(s2.pin("A"), n)
        assert n.driver is drv.pin("Z")
        assert set(n.sinks) == {s1.pin("A"), s2.pin("A")}
        assert n.sink_cap() == pytest.approx(2 * s1.pin("A").cap)

    def test_input_port_drives_net(self, lib):
        d = Design("t", lib, Rect(0, 0, 20, 20))
        p = d.add_port("in", PinDirection.INPUT, Point(0, 10))
        n = d.add_net("n")
        d.connect(p, n)
        assert n.driver is p

    def test_output_port_is_sink(self, lib):
        d = Design("t", lib, Rect(0, 0, 20, 20))
        p = d.add_port("out", PinDirection.OUTPUT, Point(20, 10))
        n = d.add_net("n")
        d.connect(p, n)
        assert n.driver is None
        assert n.sinks == [p]

    def test_hpwl_and_bbox(self, lib):
        d = Design("t", lib, Rect(0, 0, 20, 20))
        a = d.add_cell("a", "BUF_X1", Point(0, 0))
        b = d.add_cell("b", "INV_X1", Point(10, 5))
        n = d.add_net("n")
        d.connect(a.pin("Z"), n)
        d.connect(b.pin("A"), n)
        expected = a.pin("Z").location.manhattan_to(b.pin("A").location)
        assert n.hpwl() == pytest.approx(expected)

    def test_bbox_exclude_terminal(self, lib):
        d = Design("t", lib, Rect(0, 0, 20, 20))
        a = d.add_cell("a", "BUF_X1", Point(0, 0))
        b = d.add_cell("b", "INV_X1", Point(10, 5))
        n = d.add_net("n")
        d.connect(a.pin("Z"), n)
        d.connect(b.pin("A"), n)
        box = n.bbox(exclude=a.pin("Z"))
        assert box is not None
        assert box.area == 0.0  # single remaining terminal

    def test_pin_location_tracks_cell_move(self, lib):
        d = Design("t", lib, Rect(0, 0, 20, 20))
        c = d.add_cell("c", "BUF_X1", Point(0, 0))
        loc0 = c.pin("Z").location
        c.move_to(Point(3, 4))
        loc1 = c.pin("Z").location
        assert loc1.x == pytest.approx(loc0.x + 3) and loc1.y == pytest.approx(loc0.y + 4)

    def test_fixed_cell_cannot_move(self, lib):
        d = Design("t", lib, Rect(0, 0, 20, 20))
        c = d.add_cell("c", "BUF_X1", Point(0, 0), fixed=True)
        with pytest.raises(ValueError):
            c.move_to(Point(1, 1))


class TestDesignMetrics:
    def test_register_counting(self, flop_row):
        assert flop_row.total_register_count() == 4
        assert flop_row.total_register_bits() == 4
        assert flop_row.width_histogram() == {1: 4}

    def test_area_positive(self, flop_row):
        assert flop_row.total_cell_area() > 0

    def test_hpwl_split_sums_to_total(self, flop_row):
        clk, other = flop_row.hpwl_split()
        assert clk > 0 and other > 0
        assert clk + other == pytest.approx(flop_row.total_hpwl())

    def test_registers_view(self, flop_row):
        regs = flop_row.registers()
        assert len(regs) == 4
        assert all(r.is_register for r in regs)


class TestRegisterView:
    def test_bits_of_single_flop(self, flop_row):
        view = RegisterView(flop_row.cell("ff0"))
        bits = view.bits()
        assert len(bits) == 1
        assert bits[0].d_net is flop_row.net("n_d0")
        assert bits[0].q_net is flop_row.net("n_q0")

    def test_control_nets(self, flop_row):
        view = RegisterView(flop_row.cell("ff1"))
        assert view.clock_net is flop_row.net("clk")
        assert view.control_nets() == {"RN": flop_row.net("rst")}

    def test_non_register_rejected(self, flop_row):
        with pytest.raises(TypeError):
            RegisterView(flop_row.cell("ibuf0"))

    def test_scan_nets(self, scan_row):
        v0 = RegisterView(scan_row.cell("ff0"))
        v1 = RegisterView(scan_row.cell("ff1"))
        assert v0.scan_in_net() is scan_row.net("n_si")
        assert v0.scan_out_net() is v1.scan_in_net()


def _checks(design) -> set[str]:
    """Check ids of every error ``check_design`` reports."""
    return {v.check for v in check_design(design) if v.is_error}


class TestValidation:
    def test_clean_fixture_designs(self, flop_row, scan_row):
        assert not check_design(flop_row)
        assert not check_design(scan_row)

    def test_multiple_drivers_flagged(self, lib):
        d = Design("t", lib, Rect(0, 0, 20, 20))
        a = d.add_cell("a", "BUF_X1", Point(0, 0))
        b = d.add_cell("b", "BUF_X1", Point(5, 5))
        n = d.add_net("n")
        d.connect(a.pin("Z"), n)
        d.connect(b.pin("Z"), n)
        assert "net-multi-driver" in _checks(d)

    def test_driverless_net_flagged(self, lib):
        d = Design("t", lib, Rect(0, 0, 20, 20))
        a = d.add_cell("a", "INV_X1", Point(0, 0))
        n = d.add_net("n")
        d.connect(a.pin("A"), n)
        assert "net-undriven-sinks" in _checks(d)

    def test_unconnected_register_clock_flagged(self, lib):
        d = Design("t", lib, Rect(0, 0, 20, 20))
        ff = lib.register_cells(DFF_R, 1)[0]
        d.add_cell("ff", ff, Point(1, 1))
        assert "register-clock-unconnected" in _checks(d)

    def test_cell_outside_die_flagged(self, lib):
        d = Design("t", lib, Rect(0, 0, 5, 5))
        d.add_cell("c", "BUF_X1", Point(4.9, 0))
        assert "cell-outside-die" in _checks(d)
