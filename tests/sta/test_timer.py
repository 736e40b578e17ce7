"""Tests for the STA engine: arrivals, slacks, skew, and QoR summaries."""

import math

import pytest

from repro.bench import generate_design, preset
from repro.geometry import Point, Rect
from repro.library.functional import DFF_R
from repro.netlist import Design
from repro.netlist.db import Net
from repro.netlist.store import NetlistStore
from repro.sta import Timer
from repro.sta.graph import TimingGraph

from tests.conftest import make_flop_row


@pytest.fixture
def timer(flop_row) -> Timer:
    return Timer(flop_row, clock_period=1.0)


class TestArrivalPropagation:
    def test_d_arrival_includes_buffer_and_wires(self, flop_row, timer):
        ff = flop_row.cell("ff0")
        d = ff.pin("D")
        a = timer.arrival_at(d)
        assert a is not None and a > 0.0
        # Path: in0 -> wire -> ibuf0 -> wire -> D; must exceed the buffer's
        # intrinsic delay alone.
        buf = flop_row.cell("ibuf0").libcell
        assert a > buf.intrinsic_delay

    def test_q_launch_arrival(self, flop_row, timer):
        ff = flop_row.cell("ff0")
        q = ff.pin("Q")
        a = timer.arrival_at(q)
        lc = ff.register_cell
        assert a is not None
        assert a >= lc.clk_to_q  # clk->q plus drive delay

    def test_unconstrained_pin_has_no_slack(self, flop_row, timer):
        clk_pin = flop_row.cell("ff0").pin("CK")
        assert timer.slack_at(clk_pin) is None


class TestSlacks:
    def test_all_positive_at_relaxed_period(self, flop_row):
        timer = Timer(flop_row, clock_period=10.0)
        s = timer.summary()
        assert s.failing_endpoints == 0
        assert s.tns == 0.0
        assert s.wns > 0.0

    def test_failing_at_tight_period(self, flop_row):
        timer = Timer(flop_row, clock_period=0.01)
        s = timer.summary()
        assert s.failing_endpoints > 0
        assert s.tns < 0.0
        assert s.wns < 0.0

    def test_endpoint_count(self, flop_row, timer):
        s = timer.summary()
        # 4 register D bits + 4 output ports.
        assert s.total_endpoints == 8

    def test_register_slack_pair(self, flop_row, timer):
        rs = timer.register_slack(flop_row.cell("ff0"))
        assert math.isfinite(rs.d_slack)
        assert math.isfinite(rs.q_slack)

    def test_register_slacks_all(self, flop_row, timer):
        slacks = timer.register_slacks()
        assert set(slacks) == {"ff0", "ff1", "ff2", "ff3"}

    def test_non_register_rejected(self, flop_row, timer):
        with pytest.raises(TypeError):
            timer.register_slack(flop_row.cell("ibuf0"))

    def test_moving_register_away_degrades_d_slack(self, lib):
        d = make_flop_row(lib, n_flops=2, die=Rect(0, 0, 400, 400), name="mv")
        timer = Timer(d, clock_period=1.0)
        before = timer.register_slack(d.cell("ff0")).d_slack
        d.cell("ff0").move_to(Point(390.0, 390.0))
        timer.dirty()
        after = timer.register_slack(d.cell("ff0")).d_slack
        assert after < before

    def test_wns_is_min_endpoint_slack(self, flop_row, timer):
        slacks = timer.endpoint_slacks()
        assert timer.summary().wns == pytest.approx(min(e.slack for e in slacks))


class TestUsefulSkew:
    def test_positive_skew_trades_q_for_d(self, flop_row):
        timer = Timer(flop_row, clock_period=1.0)
        base = timer.register_slack(flop_row.cell("ff0"))
        timer.set_skew("ff0", 0.1)
        skewed = timer.register_slack(flop_row.cell("ff0"))
        assert skewed.d_slack == pytest.approx(base.d_slack + 0.1)
        assert skewed.q_slack == pytest.approx(base.q_slack - 0.1)

    def test_skew_on_one_register_does_not_move_others(self, flop_row):
        timer = Timer(flop_row, clock_period=1.0)
        base = timer.register_slack(flop_row.cell("ff1"))
        timer.set_skew("ff0", 0.2)
        after = timer.register_slack(flop_row.cell("ff1"))
        assert after.d_slack == pytest.approx(base.d_slack)
        assert after.q_slack == pytest.approx(base.q_slack)


class TestGraphStructure:
    def test_loop_detection(self, lib, monkeypatch):
        """A two-inverter loop is diagnosed by the vectorized levelization
        the timer runs, and by the reference topological order."""
        d = Design("loop", lib, Rect(0, 0, 10, 10))
        a = d.add_cell("a", "INV_X1", Point(1, 1))
        b = d.add_cell("b", "INV_X1", Point(2, 2))
        n1, n2 = d.add_net("n1"), d.add_net("n2")
        d.connect(a.pin("Z"), n1)
        d.connect(b.pin("A"), n1)
        d.connect(b.pin("Z"), n2)
        d.connect(a.pin("A"), n2)
        timer = Timer(d, clock_period=1.0)
        with monkeypatch.context() as mp:
            # The production sweep never takes the reference order.
            mp.setattr(TimingGraph, "topological_order", None)
            with pytest.raises(ValueError, match="combinational loop detected: 4 nodes"):
                timer.summary()
        with pytest.raises(ValueError, match="combinational loop detected: 4 nodes"):
            TimingGraph(d).topological_order()

    def test_dirty_invalidates_after_edit(self, lib, flop_row):
        timer = Timer(flop_row, clock_period=1.0)
        before = timer.summary().total_endpoints
        from repro.netlist import compose_mbr

        target = lib.register_cells(DFF_R, 2)[0]
        compose_mbr(
            flop_row, [flop_row.cell("ff0"), flop_row.cell("ff1")], target, Point(11, 50)
        )
        timer.dirty()
        after = timer.summary().total_endpoints
        assert after == before  # same endpoints, new cells

    def test_build_reads_store_columns_not_net_views(self, lib, monkeypatch):
        """The graph build and the first propagation read store columns
        only: no view of any kind, no terminal list."""
        bundle = generate_design(preset("D1", scale=0.15), lib)
        views = ("net_view", "pin_view", "cell_view", "port_view")
        calls = dict.fromkeys((*views, "terminals"), 0)

        def counting(name, original):
            def view(store, *args, **kwargs):
                calls[name] += 1
                return original(store, *args, **kwargs)

            return view

        for name in views:
            monkeypatch.setattr(
                NetlistStore, name, counting(name, getattr(NetlistStore, name))
            )
        terminals = Net.terminals

        def counting_terminals(net):
            calls["terminals"] += 1
            return terminals.fget(net)

        monkeypatch.setattr(Net, "terminals", property(counting_terminals))
        graph = TimingGraph(bundle.design)
        assert graph.node_count > 0 and graph.capture_by_id
        summary = Timer(bundle.design, bundle.clock_period).summary()
        assert summary.total_endpoints > 0
        assert calls == dict.fromkeys(calls, 0)

    def test_reg_to_reg_path(self, lib):
        # ff0.Q -> inv -> ff1.D direct register-to-register path.
        d = Design("r2r", lib, Rect(0, 0, 50, 50))
        clk = d.add_net("clk", is_clock=True)
        from repro.library.cells import PinDirection

        d.connect(d.add_port("clk", PinDirection.INPUT, Point(0, 0)), clk)
        rst = d.add_net("rst")
        d.connect(d.add_port("rst", PinDirection.INPUT, Point(0, 1)), rst)
        ffc = lib.register_cells(DFF_R, 1)[0]
        f0 = d.add_cell("f0", ffc, Point(10, 10))
        f1 = d.add_cell("f1", ffc, Point(30, 10))
        inv = d.add_cell("inv", "INV_X1", Point(20, 10))
        for f in (f0, f1):
            d.connect(f.pin("CK"), clk)
            d.connect(f.pin("RN"), rst)
        n1, n2 = d.add_net("n1"), d.add_net("n2")
        d.connect(f0.pin("Q"), n1)
        d.connect(inv.pin("A"), n1)
        d.connect(inv.pin("Z"), n2)
        d.connect(f1.pin("D"), n2)
        # Tie f0.D so it isn't floating-but-constrained.
        nin = d.add_net("nin")
        d.connect(d.add_port("din", PinDirection.INPUT, Point(0, 10)), nin)
        d.connect(f0.pin("D"), nin)

        timer = Timer(d, clock_period=1.0)
        rs0 = timer.register_slack(f0)
        rs1 = timer.register_slack(f1)
        # f0's Q slack and f1's D slack describe the same path and match.
        assert rs0.q_slack == pytest.approx(rs1.d_slack)
