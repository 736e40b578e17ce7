"""Tests for the synthetic benchmark generator and presets."""

import pytest

from repro.bench import generate_design, preset, PRESETS
from repro.bench.generator import _snap_to_grid
from repro.check.invariants import check_design
from repro.geometry import Point, Rect
from repro.netlist import Design


@pytest.fixture(scope="module")
def bundle(lib):
    return generate_design(preset("D1", scale=0.15), lib)


class TestGeneratedDesign:
    def test_register_count_matches_spec(self, bundle):
        assert bundle.design.total_register_count() == bundle.spec.n_registers

    def test_structurally_valid(self, bundle):
        assert not check_design(bundle.design)

    def test_deterministic(self, lib):
        a = generate_design(preset("D2", scale=0.1), lib)
        b = generate_design(preset("D2", scale=0.1), lib)
        assert set(a.design.cells) == set(b.design.cells)
        assert all(
            a.design.cells[n].origin == b.design.cells[n].origin for n in a.design.cells
        )
        assert a.clock_period == b.clock_period

    def test_seed_changes_design(self, lib):
        from dataclasses import replace

        a = generate_design(preset("D2", scale=0.1), lib)
        b = generate_design(replace(preset("D2", scale=0.1), seed=999), lib)
        positions_a = sorted(c.origin.as_tuple() for c in a.design.registers())
        positions_b = sorted(c.origin.as_tuple() for c in b.design.registers())
        assert positions_a != positions_b

    def test_failing_endpoint_fraction_near_target(self, bundle):
        s = bundle.timer.summary()
        frac = s.failing_endpoints / s.total_endpoints
        assert abs(frac - bundle.spec.failing_endpoint_fraction) < 0.12

    def test_width_mix_roughly_matches(self, bundle):
        hist = bundle.design.width_histogram()
        total = sum(hist.values())
        for width, target in bundle.spec.width_mix.items():
            actual = hist.get(width, 0) / total
            assert abs(actual - target) < 0.15

    def test_registers_on_legal_grid(self, bundle):
        from repro.placement import PlacementRows

        rows = PlacementRows(
            bundle.design.die,
            bundle.design.library.technology.row_height,
            bundle.design.library.technology.site_width,
        )
        for cell in bundle.design.registers():
            snapped = rows.snap(cell.origin)
            assert abs(snapped.x - cell.origin.x) < 1e-6
            assert abs(snapped.y - cell.origin.y) < 1e-6

    def test_no_cell_overlaps(self, bundle):
        cells = sorted(bundle.design.cells.values(), key=lambda c: (c.origin.y, c.origin.x))
        by_row = {}
        for c in cells:
            by_row.setdefault(round(c.origin.y, 3), []).append(c)
        for row_cells in by_row.values():
            for a, b in zip(row_cells, row_cells[1:]):
                assert a.origin.x + a.libcell.width <= b.origin.x + 1e-6, (a.name, b.name)

    def test_scan_chains_cover_scan_registers(self, bundle):
        scan_regs = {
            c.name
            for c in bundle.design.registers()
            if c.register_cell.func_class.is_scan
        }
        chained = {n for ch in bundle.scan_model.chains.values() for n in ch.cells}
        assert chained == scan_regs

    def test_clock_gating_present(self, bundle):
        gated = [n for n in bundle.design.nets.values() if n.is_clock and n.name != "clk"]
        assert gated  # some clusters are behind ICGs


class TestOnTheDie:
    def test_d3_at_scale_04_stays_on_the_die(self, lib):
        # Its 82 um die puts a 0.4 um cell's last site at 81.60000000000001.
        bundle = generate_design(preset("D3", scale=0.4), lib)
        outside = [
            v for v in check_design(bundle.design) if v.check == "cell-outside-die"
        ]
        assert outside == []

    def test_snap_keeps_the_last_site_on_the_die(self, lib):
        # 0.2 * 1672 == 334.40000000000003, and 334.40000000000003 + 2.0
        # ends past the 336.4 um die edge.
        die = Rect(0.0, 0.0, 336.4, 10.0)
        design = Design("snap", lib, die)
        cell = design.add_cell("edge", "DFF_R_X1", Point(336.3, 3.2))
        assert cell.libcell.width == 2.0
        _snap_to_grid(design, lib)
        assert die.contains_rect(cell.footprint), cell.footprint
        assert abs(cell.origin.x - 334.4) < 1e-9
        assert cell.origin.y == 3.0


class TestPresets:
    def test_all_presets_distinct_seeds(self):
        seeds = [s.seed for s in PRESETS.values()]
        assert len(set(seeds)) == len(PRESETS)

    def test_d4_is_8bit_rich(self):
        assert PRESETS["D4"].width_mix[8] > 3 * PRESETS["D1"].width_mix[8]

    def test_scale(self):
        assert preset("D1", scale=0.5).n_registers == PRESETS["D1"].n_registers // 2
        assert preset("D1").n_registers == PRESETS["D1"].n_registers

    def test_d4_has_lower_composable_fraction(self, lib):
        # D4's 8-bit richness makes fewer registers composable (Table 1).
        from repro.core.compatibility import analyze_registers

        b1 = generate_design(preset("D1", scale=0.15), lib)
        b4 = generate_design(preset("D4", scale=0.15), lib)
        f1 = sum(
            1 for i in analyze_registers(b1.design, b1.timer, b1.scan_model).values() if i.composable
        ) / b1.design.total_register_count()
        f4 = sum(
            1 for i in analyze_registers(b4.design, b4.timer, b4.scan_model).values() if i.composable
        ) / b4.design.total_register_count()
        assert f4 < f1
