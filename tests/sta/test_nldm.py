"""Tests for the NLDM table model and slew-aware analysis."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sta import Timer
from repro.sta.nldm import (
    DEFAULT_LOAD_AXIS,
    DEFAULT_SLEW_AXIS,
    LookupTable2D,
    nldm_arrivals,
    synthesize_tables,
)

from tests.conftest import make_flop_row


class TestLookupTable:
    TABLE = LookupTable2D(
        slews=(0.01, 0.1),
        loads=(0.001, 0.01),
        values=((1.0, 2.0), (3.0, 4.0)),
    )

    def test_exact_corners(self):
        assert self.TABLE.lookup(0.01, 0.001) == 1.0
        assert self.TABLE.lookup(0.1, 0.01) == 4.0

    def test_bilinear_center(self):
        mid = self.TABLE.lookup(0.055, 0.0055)
        assert mid == pytest.approx(2.5)

    def test_clamped_extrapolation(self):
        assert self.TABLE.lookup(0.0, 0.0) == 1.0
        assert self.TABLE.lookup(1.0, 1.0) == 4.0

    def test_axis_validation(self):
        with pytest.raises(ValueError):
            LookupTable2D((0.1, 0.01), (0.001,), ((1.0,), (2.0,)))
        with pytest.raises(ValueError):
            LookupTable2D((0.01,), (0.001,), ((1.0,), (2.0,)))

    @given(
        st.floats(min_value=0.0, max_value=0.3, allow_nan=False),
        st.floats(min_value=0.0, max_value=0.1, allow_nan=False),
    )
    def test_interpolation_within_value_range(self, slew, load):
        v = self.TABLE.lookup(slew, load)
        assert 1.0 <= v <= 4.0


class TestSynthesizedTables:
    def test_zero_sensitivity_matches_linear_model(self, lib):
        cell = lib.cell("BUF_X2")
        tables = synthesize_tables(cell, slew_sensitivity=0.0)
        for load in (0.0005, 0.004, 0.03, 0.2):
            expected = cell.delay(load)
            for slew in (0.001, 0.05, 0.5):
                got = tables.delay.lookup(slew, load)
                # Exact inside the table's load span (the model is linear in
                # load, so interpolation is exact there); clamped outside.
                if DEFAULT_LOAD_AXIS[0] <= load <= DEFAULT_LOAD_AXIS[-1]:
                    assert got == pytest.approx(expected)

    def test_sensitivity_increases_delay_with_slew(self, lib):
        tables = synthesize_tables(lib.cell("BUF_X2"), slew_sensitivity=0.2)
        slow = tables.delay.lookup(DEFAULT_SLEW_AXIS[-1], 0.01)
        fast = tables.delay.lookup(DEFAULT_SLEW_AXIS[0], 0.01)
        assert slow > fast

    def test_register_tables_include_clk_to_q(self, lib):
        from repro.library.functional import DFF_R

        reg = lib.register_cells(DFF_R, 1)[0]
        tables = synthesize_tables(reg, slew_sensitivity=0.0)
        assert tables.delay.lookup(0.02, 0.01) == pytest.approx(
            reg.clk_to_q + reg.drive_resistance * 0.01
        )

    def test_out_slew_monotone_in_load(self, lib):
        tables = synthesize_tables(lib.cell("INV_X1"))
        assert tables.out_slew.lookup(0.02, 0.05) > tables.out_slew.lookup(0.02, 0.005)


class TestNldmAnalysis:
    def test_zero_sensitivity_matches_linear_timer(self, lib):
        d = make_flop_row(lib, n_flops=3, spacing=2.0, name="nldm0")
        timer = Timer(d, clock_period=1.0)
        state = nldm_arrivals(d, timer, slew_sensitivity=0.0, wire_slew_per_um=0.0)
        for i in range(3):
            dpin = d.cell(f"ff{i}").pin("D")
            linear = timer.arrival_at(dpin)
            table = state[dpin._tid][0]
            assert table == pytest.approx(linear, abs=1e-9)

    def test_sensitivity_slows_paths(self, lib):
        d = make_flop_row(lib, n_flops=2, spacing=2.0, name="nldm1")
        timer = Timer(d, clock_period=1.0)
        base = nldm_arrivals(d, timer, slew_sensitivity=0.0)
        slow = nldm_arrivals(d, timer, slew_sensitivity=0.3)
        dpin = d.cell("ff0").pin("D")
        assert slow[dpin._tid][0] > base[dpin._tid][0]

    def test_slew_degrades_along_wire(self, lib):
        from repro.geometry import Rect

        d = make_flop_row(lib, n_flops=1, spacing=2.0, die=Rect(0, 0, 300, 100), name="nldm2")
        timer = Timer(d, clock_period=1.0)
        state = nldm_arrivals(d, timer, wire_slew_per_um=0.001)
        # The wire from the input port degrades the edge before the buffer;
        # the buffer then restores it (its output slew is load-driven).
        apin = d.cell("ibuf0").pin("A")
        dpin = d.cell("ff0").pin("D")
        assert state[apin._tid][1] > 0.02  # degraded vs the 0.02 port slew
        assert state[dpin._tid][1] < state[apin._tid][1]  # buffer restored it

    def test_skew_offsets_respected(self, lib):
        d = make_flop_row(lib, n_flops=1, name="nldm3")
        timer = Timer(d, clock_period=1.0)
        base = nldm_arrivals(d, timer)
        timer.set_skew("ff0", 0.1)
        skewed = nldm_arrivals(d, timer)
        qpin = d.cell("ff0").pin("Q")
        assert skewed[qpin._tid][0] == pytest.approx(base[qpin._tid][0] + 0.1)
