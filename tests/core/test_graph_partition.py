"""Tests for compatibility-graph construction and K-partitioning."""

import pytest

from repro.core.compatibility import CompatibilityConfig, analyze_registers
from repro.core.graph import build_compatibility_graph
from repro.core.partition import partition_graph
from repro.sta import Timer

from tests.conftest import make_flop_row


@pytest.fixture
def row_graph(lib, flop_row):
    timer = Timer(flop_row, clock_period=1.0)
    infos = analyze_registers(flop_row, timer)
    return infos, build_compatibility_graph(infos)


class TestBuildGraph:
    def test_compatible_row_is_clique(self, row_graph):
        infos, graph = row_graph
        assert graph.number_of_nodes() == 4
        assert graph.number_of_edges() == 6  # K4

    def test_non_composable_not_in_graph(self, lib, flop_row):
        flop_row.cell("ff0").dont_touch = True
        timer = Timer(flop_row, clock_period=1.0)
        infos = analyze_registers(flop_row, timer)
        graph = build_compatibility_graph(infos)
        assert "ff0" not in graph.nodes

    def test_info_attached_to_nodes(self, row_graph):
        infos, graph = row_graph
        for n in graph.nodes:
            assert graph.nodes[n]["info"] is infos[n]

    def test_distant_registers_not_connected(self, lib):
        from repro.geometry import Rect

        d = make_flop_row(lib, n_flops=2, spacing=300.0, die=Rect(0, 0, 400, 100), name="far")
        timer = Timer(d, clock_period=1.0)
        infos = analyze_registers(
            d, timer, config=CompatibilityConfig(max_region_distance=20.0)
        )
        graph = build_compatibility_graph(
            infos, config=CompatibilityConfig(max_region_distance=20.0)
        )
        assert graph.number_of_edges() == 0

    def test_different_clock_groups_disconnected(self, lib, flop_row):
        from repro.geometry import Point
        from repro.library.cells import PinDirection

        clk2 = flop_row.add_net("clk2", is_clock=True)
        flop_row.connect(flop_row.add_port("clk2", PinDirection.INPUT, Point(0, 2)), clk2)
        flop_row.connect(flop_row.cell("ff0").pin("CK"), clk2)
        timer = Timer(flop_row, clock_period=1.0)
        infos = analyze_registers(flop_row, timer)
        graph = build_compatibility_graph(infos)
        assert graph.degree("ff0") == 0


class TestPartition:
    def _grid_graph(self, lib, n=60):
        """A big compatible design: one long row of flops."""
        d = make_flop_row(lib, n_flops=n, spacing=2.0, die=__import__("repro.geometry", fromlist=["Rect"]).Rect(0, 0, 200, 100), name="grid")
        timer = Timer(d, clock_period=10.0)
        infos = analyze_registers(d, timer)
        return build_compatibility_graph(infos)

    def test_bound_respected(self, lib):
        graph = self._grid_graph(lib)
        for part in partition_graph(graph, max_nodes=10):
            assert part.number_of_nodes() <= 10

    def test_all_nodes_covered_exactly_once(self, lib):
        graph = self._grid_graph(lib)
        parts = partition_graph(graph, max_nodes=10)
        seen = [n for p in parts for n in p.nodes]
        assert sorted(seen) == sorted(graph.nodes)

    def test_small_components_kept_whole(self, row_graph):
        _, graph = row_graph
        parts = partition_graph(graph, max_nodes=30)
        assert len(parts) == 1
        assert parts[0].number_of_nodes() == 4

    def test_geometric_split_keeps_neighbors(self, lib):
        # A 60-flop row split into <=10-node parts: each part should span a
        # contiguous x range (median bisection on positions).
        graph = self._grid_graph(lib)
        parts = partition_graph(graph, max_nodes=10)
        ranges = []
        for p in parts:
            xs = [p.nodes[n]["info"].center.x for n in p.nodes]
            ranges.append((min(xs), max(xs)))
        ranges.sort()
        for (lo1, hi1), (lo2, hi2) in zip(ranges, ranges[1:]):
            assert hi1 <= lo2 + 1e-9  # disjoint x spans

    def test_invalid_bound_rejected(self, row_graph):
        _, graph = row_graph
        with pytest.raises(ValueError):
            partition_graph(graph, max_nodes=1)

    def test_edges_within_parts_preserved(self, lib):
        graph = self._grid_graph(lib)
        parts = partition_graph(graph, max_nodes=10)
        for p in parts:
            for u, v in p.edges:
                assert graph.has_edge(u, v)


class TestSpatialPairs:
    """The grid hash emits each maybe-overlapping pair exactly once, from
    the lowest-indexed bin the two rectangles share."""

    @staticmethod
    def _stub(rect):
        # The only surface _spatial_pairs touches is ``.region.rect``.
        from types import SimpleNamespace

        return SimpleNamespace(region=SimpleNamespace(rect=rect))

    def _pairs(self, rects, cell_size=4.0):
        from repro.core.graph import _spatial_pairs

        return list(_spatial_pairs([self._stub(r) for r in rects], cell_size))

    def test_pair_spanning_many_bins_emitted_once(self):
        from repro.geometry import Rect

        # Two big overlapping rectangles share a 6x6 block of 4.0-unit bins;
        # the pair must still come out exactly once.
        pairs = self._pairs([Rect(0, 0, 20, 20), Rect(1, 1, 21, 21)])
        assert pairs == [(0, 1)]

    def test_matches_bruteforce_bbox_overlap(self):
        import random

        from repro.geometry import Rect

        rng = random.Random(42)
        rects = []
        for _ in range(40):
            x, y = rng.uniform(0, 50), rng.uniform(0, 50)
            rects.append(Rect(x, y, x + rng.uniform(0.5, 15), y + rng.uniform(0.5, 15)))
        got = set(self._pairs(rects))
        assert len(got) == len(self._pairs(rects))  # no duplicates

        # Every genuinely overlapping bbox pair must be a candidate (the
        # hash may add near-miss pairs sharing a bin; compatible() culls
        # those later, so supersets are fine — misses are not).
        for i in range(len(rects)):
            for j in range(i + 1, len(rects)):
                a, b = rects[i], rects[j]
                overlaps = (
                    a.xlo <= b.xhi
                    and b.xlo <= a.xhi
                    and a.ylo <= b.yhi
                    and b.ylo <= a.yhi
                )
                if overlaps:
                    assert (i, j) in got

    def test_disjoint_far_rectangles_skipped(self):
        from repro.geometry import Rect

        assert self._pairs([Rect(0, 0, 1, 1), Rect(40, 40, 41, 41)]) == []
