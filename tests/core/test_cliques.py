"""Tests for Bron-Kerbosch and sub-clique enumeration."""

import networkx as nx
from hypothesis import given, settings, strategies as st

from repro.core.cliques import enumerate_maximal_cliques, enumerate_subcliques


def _graph(edges, nodes=()):
    g = nx.Graph()
    g.add_nodes_from(nodes)
    g.add_edges_from(edges)
    return g


class TestBronKerbosch:
    def test_triangle(self):
        g = _graph([("a", "b"), ("b", "c"), ("a", "c")])
        assert enumerate_maximal_cliques(g) == [frozenset("abc")]

    def test_paper_fig1_graph(self):
        from repro.bench.paper_example import PAPER_EDGES

        g = _graph(PAPER_EDGES)
        cliques = {tuple(sorted(c)) for c in enumerate_maximal_cliques(g)}
        assert cliques == {("A", "B", "C", "D"), ("B", "C", "F"), ("A", "C", "E")}

    def test_isolated_node_is_clique(self):
        g = _graph([("a", "b")], nodes=["z"])
        cliques = {tuple(sorted(c)) for c in enumerate_maximal_cliques(g)}
        assert ("z",) in cliques

    def test_empty_graph(self):
        assert enumerate_maximal_cliques(nx.Graph()) == []

    @settings(max_examples=40, deadline=None)
    @given(st.integers(4, 10), st.floats(0.1, 0.9), st.integers(0, 10_000))
    def test_matches_networkx(self, n, p, seed):
        g = nx.gnp_random_graph(n, p, seed=seed)
        g = nx.relabel_nodes(g, {i: f"n{i}" for i in g.nodes})
        ours = {frozenset(c) for c in enumerate_maximal_cliques(g)}
        ref = {frozenset(c) for c in nx.find_cliques(g)}
        assert ours == ref


class TestSubcliques:
    BITS = {"a": 1, "b": 1, "c": 2, "d": 4}

    def test_exact_width_subsets(self):
        subs = enumerate_subcliques(
            frozenset("abcd"), self.BITS, target_bit_sums={2, 4, 8}, max_bits=8
        )
        totals = {
            tuple(sorted(s)): sum(self.BITS[m] for m in s) for s in subs
        }
        assert all(t in {2, 4, 8} for t in totals.values())
        assert ("a", "b") in totals  # 2 bits
        assert ("a", "b", "c") in totals  # 4 bits
        assert ("a", "b", "c", "d") in totals  # 8 bits
        assert ("c", "d") not in totals  # 6 bits: no such cell

    def test_incomplete_extends_to_larger_cell(self):
        subs = enumerate_subcliques(
            frozenset("abcd"),
            self.BITS,
            target_bit_sums={2, 4, 8},
            max_bits=8,
            allow_incomplete=True,
        )
        members = {tuple(sorted(s)) for s in subs}
        assert ("c", "d") in members  # 6 bits -> incomplete 8

    def test_incomplete_needs_larger_cell(self):
        # A sum equal to max_bits is exact, not incomplete; sums above the
        # largest width never qualify.
        subs = enumerate_subcliques(
            frozenset("abd"), self.BITS, target_bit_sums={2, 4}, max_bits=4,
            allow_incomplete=True,
        )
        members = {tuple(sorted(s)) for s in subs}
        assert ("a", "b") in members  # 2 exact
        assert ("a", "d") not in members  # 5 bits > max 4
        assert ("a", "b", "d") not in members  # 6 bits > max 4

    def test_min_members(self):
        subs = enumerate_subcliques(
            frozenset("ab"), self.BITS, target_bit_sums={1, 2}, max_bits=2, min_members=2
        )
        assert {tuple(sorted(s)) for s in subs} == {("a", "b")}

    def test_cap_limits_output(self):
        bits = {f"n{i}": 1 for i in range(24)}
        subs = enumerate_subcliques(
            frozenset(bits),
            bits,
            target_bit_sums={2, 4, 8},
            max_bits=8,
            max_subsets_per_total=50,
        )
        # Without the cap this would be millions of subsets.
        assert 0 < len(subs) <= 3 * 50

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 8))
    def test_every_emitted_subset_is_valid(self, n):
        bits = {f"n{i}": (i % 3) + 1 for i in range(n)}
        targets = {2, 3, 4, 8}
        subs = enumerate_subcliques(frozenset(bits), bits, targets, max_bits=8)
        for s in subs:
            assert len(s) >= 2
            assert sum(bits[m] for m in s) in targets
