"""Tests for timing-feasible placement regions (paper Section 2)."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.geometry import FeasibleRegion, Rect
from repro.geometry.region import SlackToDistance, common_region


class TestFeasibleRegion:
    def test_overlapping_regions_compatible(self):
        a = FeasibleRegion(Rect(0, 0, 10, 10))
        b = FeasibleRegion(Rect(5, 5, 15, 15))
        assert a.overlaps(b)
        common = a.intersect(b)
        assert common is not None and common.rect == Rect(5, 5, 10, 10)

    def test_disjoint_regions_incompatible(self):
        a = FeasibleRegion(Rect(0, 0, 1, 1))
        b = FeasibleRegion(Rect(5, 5, 6, 6))
        assert not a.overlaps(b)
        assert a.intersect(b) is None

    def test_two_pinned_regions_never_compatible(self):
        # Two negative-slack registers cannot merge even with touching
        # footprints: neither may move.
        a = FeasibleRegion(Rect(0, 0, 2, 1), pinned=True)
        b = FeasibleRegion(Rect(1, 0, 3, 1), pinned=True)
        assert not a.overlaps(b)

    def test_pinned_and_free_compatible(self):
        # A pinned register still offers its footprint as a region other
        # registers can move into (paper Section 2).
        pinned = FeasibleRegion(Rect(0, 0, 2, 1), pinned=True)
        free = FeasibleRegion(Rect(-5, -5, 5, 5))
        assert pinned.overlaps(free)
        assert free.overlaps(pinned)

    def test_intersect_propagates_pinned(self):
        pinned = FeasibleRegion(Rect(0, 0, 2, 1), pinned=True)
        free = FeasibleRegion(Rect(-5, -5, 5, 5))
        common = pinned.intersect(free)
        assert common is not None and common.pinned


class TestCommonRegion:
    def test_three_way_intersection(self):
        regions = [
            FeasibleRegion(Rect(0, 0, 10, 10)),
            FeasibleRegion(Rect(5, 0, 15, 10)),
            FeasibleRegion(Rect(0, 5, 10, 15)),
        ]
        common = common_region(regions)
        assert common is not None and common.rect == Rect(5, 5, 10, 10)

    def test_empty_intersection(self):
        regions = [
            FeasibleRegion(Rect(0, 0, 1, 1)),
            FeasibleRegion(Rect(2, 2, 3, 3)),
        ]
        assert common_region(regions) is None

    def test_two_pinned_rejected(self):
        regions = [
            FeasibleRegion(Rect(0, 0, 5, 5), pinned=True),
            FeasibleRegion(Rect(0, 0, 5, 5), pinned=True),
        ]
        assert common_region(regions) is None

    def test_one_pinned_allowed(self):
        regions = [
            FeasibleRegion(Rect(0, 0, 5, 5), pinned=True),
            FeasibleRegion(Rect(0, 0, 5, 5)),
        ]
        common = common_region(regions)
        assert common is not None and common.pinned

    def test_empty_list_raises(self):
        with pytest.raises(ValueError):
            common_region([])


class TestSlackToDistance:
    def test_positive_slack_scales_linearly(self):
        conv = SlackToDistance(delay_per_micron=0.0005)
        assert math.isclose(conv.distance(0.05), 100.0)

    def test_negative_and_zero_slack_give_zero(self):
        conv = SlackToDistance(delay_per_micron=0.0005)
        assert conv.distance(0.0) == 0.0
        assert conv.distance(-0.3) == 0.0

    def test_cap_applies(self):
        conv = SlackToDistance(delay_per_micron=0.0005, max_distance=40.0)
        assert conv.distance(10.0) == 40.0

    @given(st.floats(min_value=-1, max_value=1, allow_nan=False))
    def test_distance_nonnegative_and_monotone(self, slack):
        conv = SlackToDistance(delay_per_micron=0.0005, max_distance=200.0)
        d = conv.distance(slack)
        assert d >= 0.0
        assert conv.distance(slack + 0.1) >= d
