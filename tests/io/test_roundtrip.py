"""Round-trip tests for liberty / verilog / DEF subsets."""

import pytest

from repro.bench import generate_design, preset
from repro.check import check_design
from repro.io import (
    read_def,
    read_liberty,
    read_verilog,
    write_def,
    write_liberty,
    write_verilog,
)
from repro.library.cells import RegisterCell
from repro.placement import design_hpwl
from repro.sta import Timer


@pytest.fixture(scope="module")
def bundle(lib):
    return generate_design(preset("D2", scale=0.08), lib)


class TestLibertyRoundtrip:
    def test_all_cells_roundtrip(self, lib, tmp_path):
        path = tmp_path / "lib.lib"
        write_liberty(lib, path)
        back = read_liberty(path)
        assert len(back) == len(lib)
        for cell in lib.cells():
            twin = back.cell(cell.name)
            assert type(twin) is type(cell)
            assert twin.area == pytest.approx(cell.area)
            assert twin.drive_resistance == pytest.approx(cell.drive_resistance)
            assert len(twin.pins) == len(cell.pins)

    def test_register_attributes_roundtrip(self, lib, tmp_path):
        path = tmp_path / "lib.lib"
        write_liberty(lib, path)
        back = read_liberty(path)
        for cell in lib.cells():
            if not isinstance(cell, RegisterCell):
                continue
            twin = back.cell(cell.name)
            assert twin.width_bits == cell.width_bits
            assert twin.func_class == cell.func_class
            assert twin.scan_style == cell.scan_style
            assert twin.clock_pin_cap == pytest.approx(cell.clock_pin_cap)

    def test_technology_roundtrip(self, lib, tmp_path):
        path = tmp_path / "lib.lib"
        write_liberty(lib, path)
        back = read_liberty(path)
        assert back.technology.wire_cap_per_um == pytest.approx(
            lib.technology.wire_cap_per_um
        )
        assert back.technology.row_height == pytest.approx(lib.technology.row_height)

    def test_register_queries_survive(self, lib, tmp_path):
        from repro.library.functional import DFF_R

        path = tmp_path / "lib.lib"
        write_liberty(lib, path)
        back = read_liberty(path)
        assert back.widths_for(DFF_R) == lib.widths_for(DFF_R)


class TestNetlistRoundtrip:
    def test_verilog_def_roundtrip(self, lib, bundle, tmp_path):
        design = bundle.design
        vpath, dpath = tmp_path / "d.v", tmp_path / "d.def"
        write_verilog(design, vpath)
        write_def(design, dpath)

        back = read_verilog(vpath, lib)
        read_def(dpath, back)

        assert set(back.cells) == set(design.cells)
        assert set(back.nets) == set(design.nets)
        assert set(back.ports) == set(design.ports)
        for name, cell in design.cells.items():
            twin = back.cell(name)
            assert twin.libcell.name == cell.libcell.name
            # DEF quantizes to 1/1000 um.
            assert twin.origin.x == pytest.approx(cell.origin.x, abs=1e-3)
            assert twin.origin.y == pytest.approx(cell.origin.y, abs=1e-3)
            assert twin.fixed == cell.fixed
        assert not check_design(back)

    def test_connectivity_preserved(self, lib, bundle, tmp_path):
        design = bundle.design
        vpath, dpath = tmp_path / "d.v", tmp_path / "d.def"
        write_verilog(design, vpath)
        write_def(design, dpath)
        back = read_def(dpath, read_verilog(vpath, lib))
        for name, net in design.nets.items():
            twin = back.net(name)
            assert twin.num_pins == net.num_pins
            assert twin.is_clock == net.is_clock

    def test_hpwl_identical_after_roundtrip(self, lib, bundle, tmp_path):
        design = bundle.design
        vpath, dpath = tmp_path / "d.v", tmp_path / "d.def"
        write_verilog(design, vpath)
        write_def(design, dpath)
        back = read_def(dpath, read_verilog(vpath, lib))
        assert design_hpwl(back) == pytest.approx(design_hpwl(design), rel=1e-4)

    def test_timing_identical_after_roundtrip(self, lib, bundle, tmp_path):
        design = bundle.design
        vpath, dpath = tmp_path / "d.v", tmp_path / "d.def"
        write_verilog(design, vpath)
        write_def(design, dpath)
        back = read_def(dpath, read_verilog(vpath, lib))
        s1 = Timer(design, clock_period=bundle.clock_period).summary()
        s2 = Timer(back, clock_period=bundle.clock_period).summary()
        assert s2.total_endpoints == s1.total_endpoints
        assert s2.tns == pytest.approx(s1.tns, abs=1e-2)
        assert s2.wns == pytest.approx(s1.wns, abs=1e-3)

    def test_def_libcell_mismatch_rejected(self, lib, bundle, tmp_path):
        design = bundle.design
        vpath, dpath = tmp_path / "d.v", tmp_path / "d.def"
        write_verilog(design, vpath)
        write_def(design, dpath)
        text = dpath.read_text()
        # Corrupt one component's libcell reference.
        victim = sorted(design.cells.values(), key=lambda c: c.name)[0]
        text = text.replace(
            f"- {victim.name} {victim.libcell.name} ", f"- {victim.name} INV_X1 ", 1
        )
        dpath.write_text(text)
        back = read_verilog(vpath, lib)
        with pytest.raises(ValueError, match="in DEF but"):
            read_def(dpath, back)

    def test_composition_works_on_roundtripped_design(self, lib, bundle, tmp_path):
        """A design loaded from files composes exactly like the original —
        the file formats carry everything the flow needs."""
        from repro.core.composer import compose_design

        design = bundle.design
        vpath, dpath = tmp_path / "d.v", tmp_path / "d.def"
        write_verilog(design, vpath)
        write_def(design, dpath)
        back = read_def(dpath, read_verilog(vpath, lib))
        timer = Timer(back, clock_period=bundle.clock_period)
        # Scan chains are physical connectivity: re-extract them from the
        # loaded netlist rather than carrying a side file.
        from repro.scan import ScanModel

        scan_model = ScanModel.from_design(back)
        res = compose_design(back, timer, scan_model)
        assert res.registers_after <= res.registers_before
        assert not check_design(back)
