"""Tests for the cell library model and default library generator."""

import pytest

from repro.library import (
    CellLibrary,
    ScanStyle,
    default_library,
)
from repro.library.functional import DFF_R, DFF_R_S, LAT, FunctionalClass, ResetKind


@pytest.fixture(scope="module")
def lib() -> CellLibrary:
    return default_library()


class TestFunctionalClass:
    def test_names_distinct(self):
        assert DFF_R.name == "DFF_R"
        assert DFF_R_S.name == "DFF_R_S"
        assert LAT.name == "LAT"

    def test_control_pins(self):
        assert DFF_R.control_pin_names() == ("RN",)
        assert DFF_R_S.control_pin_names() == ("RN", "SE")
        assert FunctionalClass().control_pin_names() == ()

    def test_reset_set_class(self):
        fc = FunctionalClass(reset=ResetKind.RESET_SET)
        assert fc.control_pin_names() == ("RN", "SN")

    def test_hashable_for_dict_keys(self):
        assert len({DFF_R, DFF_R_S, DFF_R}) == 2


class TestDefaultLibrary:
    def test_widths_available(self, lib):
        assert lib.widths_for(DFF_R) == (1, 2, 3, 4, 8)

    def test_latches_have_reduced_widths(self, lib):
        assert lib.widths_for(LAT) == (1, 2, 4)

    def test_max_width(self, lib):
        assert lib.max_width_for(DFF_R) == 8
        assert lib.max_width_for(FunctionalClass(negedge=True)) == 0

    def test_drive_strength_ordering(self, lib):
        cells = sorted(lib.register_cells(DFF_R, 4), key=lambda c: c.drive_resistance)
        assert len(cells) == 3
        # Lower drive resistance costs more area.
        assert cells[0].drive_resistance < cells[-1].drive_resistance
        assert cells[0].area > cells[-1].area

    def test_scan_class_has_multi_scan_variants(self, lib):
        styles = {c.scan_style for c in lib.register_cells(DFF_R_S, 4)}
        assert styles == {ScanStyle.INTERNAL, ScanStyle.MULTI}
        # Width 1 has no multi-scan variant (identical to internal).
        styles1 = {c.scan_style for c in lib.register_cells(DFF_R_S, 1)}
        assert styles1 == {ScanStyle.INTERNAL}

    def test_nonscan_class_has_no_scan_cells(self, lib):
        styles = {c.scan_style for c in lib.register_cells(DFF_R, 8)}
        assert styles == {ScanStyle.NONE}

    def test_unknown_cell_raises(self, lib):
        with pytest.raises(KeyError):
            lib.cell("NO_SUCH_CELL")

    def test_duplicate_add_raises(self, lib):
        with pytest.raises(ValueError):
            lib.add(lib.cell("INV_X1"))


class TestMbrEconomics:
    """The per-bit sharing effects that make MBR composition worthwhile."""

    def test_area_per_bit_decreases_with_width(self, lib):
        per_bit = [
            lib.register_cells(DFF_R, w)[0].area_per_bit for w in (1, 2, 4, 8)
        ]
        assert per_bit == sorted(per_bit, reverse=True)

    def test_clock_cap_per_bit_decreases_with_width(self, lib):
        per_bit = [
            min(lib.register_cells(DFF_R, w), key=lambda c: c.clock_pin_cap).clock_cap_per_bit
            for w in (1, 2, 4, 8)
        ]
        assert per_bit == sorted(per_bit, reverse=True)

    def test_8bit_clock_cap_much_less_than_8_single_bits(self, lib):
        one = min(lib.register_cells(DFF_R, 1), key=lambda c: c.clock_pin_cap)
        eight = min(lib.register_cells(DFF_R, 8), key=lambda c: c.clock_pin_cap)
        assert eight.clock_pin_cap < 8 * one.clock_pin_cap * 0.6

    def test_multi_scan_smaller_than_internal(self, lib):
        internal = [c for c in lib.register_cells(DFF_R_S, 4) if c.scan_style is ScanStyle.INTERNAL]
        multi = [c for c in lib.register_cells(DFF_R_S, 4) if c.scan_style is ScanStyle.MULTI]
        assert min(c.area for c in multi) < min(c.area for c in internal)


class TestRegisterCellPins:
    def test_single_bit_pin_names(self, lib):
        cell = lib.register_cells(DFF_R, 1)[0]
        assert cell.d_pin(0) == "D" and cell.q_pin(0) == "Q"
        assert cell.has_pin("CK") and cell.has_pin("RN")

    def test_multi_bit_pin_names(self, lib):
        cell = lib.register_cells(DFF_R, 4)[0]
        assert cell.d_pin(2) == "D2" and cell.q_pin(3) == "Q3"
        assert cell.data_input_pins() == ("D0", "D1", "D2", "D3")

    def test_bit_out_of_range(self, lib):
        cell = lib.register_cells(DFF_R, 4)[0]
        with pytest.raises(IndexError):
            cell.d_pin(4)

    def test_internal_scan_pins(self, lib):
        cell = next(
            c for c in lib.register_cells(DFF_R_S, 4) if c.scan_style is ScanStyle.INTERNAL
        )
        assert cell.si_pin() == "SI" and cell.so_pin() == "SO"
        assert cell.has_pin("SI") and cell.has_pin("SO") and cell.has_pin("SE")

    def test_multi_scan_pins(self, lib):
        cell = next(c for c in lib.register_cells(DFF_R_S, 4) if c.scan_style is ScanStyle.MULTI)
        assert cell.si_pin(2) == "SI2" and cell.so_pin(1) == "SO1"
        assert cell.has_pin("SI0") and cell.has_pin("SO3")

    def test_pin_offsets_inside_footprint(self, lib):
        for width in (1, 4, 8):
            cell = lib.register_cells(DFF_R_S, width)[0]
            for pin in cell.pins:
                assert 0.0 <= pin.dx <= cell.width + 1e-9
                assert 0.0 <= pin.dy <= cell.height + 1e-9

    def test_delay_model_monotone_in_load(self, lib):
        cell = lib.register_cells(DFF_R, 4)[0]
        assert cell.delay(0.02) > cell.delay(0.01) > 0.0

    def test_clock_buffers_sorted_by_strength(self, lib):
        bufs = lib.clock_buffers()
        assert len(bufs) == 3
        caps = [b.max_fanout_cap for b in bufs]
        assert caps == sorted(caps)
