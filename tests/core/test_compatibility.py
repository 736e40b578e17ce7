"""Unit tests for the Section 2 compatibility predicates."""

import math

import pytest

from repro.core.compatibility import (
    CompatibilityConfig,
    analyze_registers,
    compatible,
    feasible_region,
    functionally_compatible,
    placement_compatible,
    scan_compatible,
    timing_compatible,
)
from repro.geometry import Point
from repro.library.functional import DFF, DFF_R
from repro.scan import ScanChain, ScanModel
from repro.sta import Timer

from tests.conftest import make_flop_row


@pytest.fixture
def analyzed(lib, flop_row):
    timer = Timer(flop_row, clock_period=1.0)
    return analyze_registers(flop_row, timer)


class TestAnalyzeRegisters:
    def test_all_registers_present(self, analyzed, flop_row):
        assert set(analyzed) == {c.name for c in flop_row.registers()}

    def test_fixture_flops_composable(self, analyzed):
        assert all(i.composable for i in analyzed.values())
        assert all(i.reason == "" for i in analyzed.values())

    def test_dont_touch_excluded(self, lib, flop_row):
        flop_row.cell("ff0").dont_touch = True
        timer = Timer(flop_row, clock_period=1.0)
        infos = analyze_registers(flop_row, timer)
        assert not infos["ff0"].composable
        assert "dont_touch" in infos["ff0"].reason

    def test_max_width_register_excluded(self, lib, flop_row):
        from repro.geometry import Point as P

        mbr8 = lib.register_cells(DFF_R, 8)[0]
        cell = flop_row.add_cell("big", mbr8, P(30, 50))
        flop_row.connect(cell.pin("CK"), flop_row.net("clk"))
        flop_row.connect(cell.pin("RN"), flop_row.net("rst"))
        timer = Timer(flop_row, clock_period=1.0)
        infos = analyze_registers(flop_row, timer)
        assert not infos["big"].composable
        assert "largest MBR" in infos["big"].reason

    def test_slacks_populated(self, analyzed):
        for info in analyzed.values():
            assert math.isfinite(info.d_slack)
            assert math.isfinite(info.q_slack)

    def test_control_key_includes_reset(self, analyzed, flop_row):
        assert analyzed["ff0"].control_key == (("RN", "rst"),)
        assert analyzed["ff0"].clock_net == "clk"


class TestFeasibleRegion:
    def test_positive_slack_region_scales_with_slack(self, lib):
        d_loose = make_flop_row(lib, n_flops=1, name="loose")
        timer_loose = Timer(d_loose, clock_period=10.0)
        timer_tight = Timer(d_loose, clock_period=0.4)
        cfg = CompatibilityConfig(max_region_distance=1000.0, min_region_margin=0.0)
        big = feasible_region(d_loose, d_loose.cell("ff0"), timer_loose, cfg)
        timer_tight.dirty()
        small = feasible_region(d_loose, d_loose.cell("ff0"), timer_tight, cfg)
        assert big.rect.area >= small.rect.area

    def test_region_clipped_to_die(self, lib, flop_row):
        timer = Timer(flop_row, clock_period=100.0)
        cfg = CompatibilityConfig(max_region_distance=10_000.0)
        region = feasible_region(flop_row, flop_row.cell("ff0"), timer, cfg)
        assert flop_row.die.contains_rect(region.rect)

    def test_fixed_cell_pinned_to_point(self, lib, flop_row):
        flop_row.cell("ff0").fixed = True
        timer = Timer(flop_row, clock_period=1.0)
        region = feasible_region(flop_row, flop_row.cell("ff0"), timer, CompatibilityConfig())
        assert region.pinned
        assert region.rect.area == 0.0

    def test_negative_slack_limits_to_net_bbox(self, lib):
        d = make_flop_row(lib, n_flops=1, name="neg")
        timer = Timer(d, clock_period=0.01)  # everything fails
        cfg = CompatibilityConfig(min_region_margin=0.0)
        region = feasible_region(d, d.cell("ff0"), timer, cfg)
        ff = d.cell("ff0")
        d_box = ff.pin("D").net.bbox()
        q_box = ff.pin("Q").net.bbox()
        limit = d_box.union_bbox(q_box).expanded(1e-6)
        # The origin region, translated back to pin space, stays within the
        # union of the two constraining net boxes.
        assert region.rect.width <= limit.width + 1e-6
        assert region.rect.height <= limit.height + 1e-6

    def test_margin_expands_region(self, lib):
        d = make_flop_row(lib, n_flops=1, name="margin")
        timer = Timer(d, clock_period=0.01)
        tight = feasible_region(d, d.cell("ff0"), timer, CompatibilityConfig(min_region_margin=0.0))
        wide = feasible_region(d, d.cell("ff0"), timer, CompatibilityConfig(min_region_margin=5.0))
        assert wide.rect.area > tight.rect.area


class TestPairwisePredicates:
    def test_functional_requires_same_class(self, lib):
        d1 = make_flop_row(lib, n_flops=1, func_class=DFF_R, name="fa")
        d2 = make_flop_row(lib, n_flops=1, func_class=DFF, name="fb")
        t1, t2 = Timer(d1, 1.0), Timer(d2, 1.0)
        a = analyze_registers(d1, t1)["ff0"]
        b = analyze_registers(d2, t2)["ff0"]
        assert not functionally_compatible(a, b)

    def test_functional_requires_same_control_nets(self, lib, flop_row):
        from repro.library.cells import PinDirection

        rst2 = flop_row.add_net("rst2")
        flop_row.connect(flop_row.add_port("rst2", PinDirection.INPUT, Point(0, 1)), rst2)
        flop_row.connect(flop_row.cell("ff1").pin("RN"), rst2)
        timer = Timer(flop_row, clock_period=1.0)
        infos = analyze_registers(flop_row, timer)
        assert not functionally_compatible(infos["ff0"], infos["ff1"])
        assert functionally_compatible(infos["ff0"], infos["ff2"])

    def test_scan_requires_same_partition(self, analyzed):
        model = ScanModel()
        model.add_chain(ScanChain("c1", partition="A", cells=["ff0"]))
        model.add_chain(ScanChain("c2", partition="B", cells=["ff1"]))
        model.add_chain(ScanChain("c3", partition="A", cells=["ff2"]))
        assert not scan_compatible(analyzed["ff0"], analyzed["ff1"], model)
        assert scan_compatible(analyzed["ff0"], analyzed["ff2"], model)

    def test_scan_rejects_two_ordered_sections(self, analyzed):
        model = ScanModel()
        model.add_chain(ScanChain("c1", partition="A", cells=["ff0"], ordered=True))
        model.add_chain(ScanChain("c2", partition="A", cells=["ff1"], ordered=True))
        assert not scan_compatible(analyzed["ff0"], analyzed["ff1"], model)

    def test_no_scan_model_is_permissive(self, analyzed):
        assert scan_compatible(analyzed["ff0"], analyzed["ff1"], None)

    def test_placement_needs_overlap(self, analyzed):
        a, b = analyzed["ff0"], analyzed["ff1"]
        assert placement_compatible(a, b)  # 4 um apart with big regions

    def test_timing_sign_rule(self):
        from repro.core.compatibility import RegisterInfo

        cfg = CompatibilityConfig(slack_similarity=10.0)
        base = dict(cell=None, func_class=DFF_R, bits=1, composable=True, reason="")
        wants_later = RegisterInfo(**base, d_slack=-0.1, q_slack=0.2)
        wants_earlier = RegisterInfo(**base, d_slack=0.2, q_slack=-0.1)
        neutral = RegisterInfo(**base, d_slack=0.1, q_slack=0.1)
        assert not timing_compatible(wants_later, wants_earlier, cfg)
        assert not timing_compatible(wants_earlier, wants_later, cfg)
        assert timing_compatible(wants_later, neutral, cfg)
        assert timing_compatible(neutral, wants_earlier, cfg)

    def test_timing_similarity_rule(self):
        from repro.core.compatibility import RegisterInfo

        cfg = CompatibilityConfig(slack_similarity=0.1, clip_similarity_at=1.0)
        base = dict(cell=None, func_class=DFF_R, bits=1, composable=True, reason="")
        a = RegisterInfo(**base, d_slack=0.05, q_slack=0.05)
        b = RegisterInfo(**base, d_slack=0.30, q_slack=0.05)
        c = RegisterInfo(**base, d_slack=0.10, q_slack=0.05)
        assert not timing_compatible(a, b, cfg)  # D slacks differ by 0.25
        assert timing_compatible(a, c, cfg)

    def test_clip_makes_large_slacks_equal(self):
        from repro.core.compatibility import RegisterInfo

        cfg = CompatibilityConfig(slack_similarity=0.1, clip_similarity_at=0.5)
        base = dict(cell=None, func_class=DFF_R, bits=1, composable=True, reason="")
        a = RegisterInfo(**base, d_slack=1.0, q_slack=0.9)
        b = RegisterInfo(**base, d_slack=5.0, q_slack=3.0)
        assert timing_compatible(a, b, cfg)

    def test_full_conjunction(self, analyzed):
        cfg = CompatibilityConfig()
        assert compatible(analyzed["ff0"], analyzed["ff1"], None, cfg)
