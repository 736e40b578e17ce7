"""Clique enumeration (paper Section 3).

Candidate MBRs are cliques of the compatibility subgraph whose total bit
count matches a library width (or, with incomplete MBRs, fits under one).
We enumerate maximal cliques with Bron-Kerbosch (pivoting variant, [14]),
then enumerate valid sub-cliques of each maximal clique with a dynamic
program over achievable bit sums.
"""

from __future__ import annotations

from collections import defaultdict

import networkx as nx


def enumerate_maximal_cliques(graph: nx.Graph) -> list[frozenset[str]]:
    """All maximal cliques via Bron-Kerbosch with pivoting.

    Implemented directly (rather than through networkx) because the paper
    names the algorithm as a component; a cross-check against
    ``nx.find_cliques`` lives in the test suite.
    """
    if graph.number_of_nodes() == 0:
        return []
    adjacency: dict[str, set[str]] = {n: set(graph.neighbors(n)) for n in graph.nodes}
    cliques: list[frozenset[str]] = []

    def bron_kerbosch(r: set[str], p: set[str], x: set[str]) -> None:
        if not p and not x:
            cliques.append(frozenset(r))
            return
        # Pivot on the vertex of P | X with the most neighbours in P
        # (name-ordered tie-break keeps enumeration deterministic across
        # processes regardless of hash seeds).
        pivot = max(sorted(p | x), key=lambda v: len(adjacency[v] & p))
        for v in sorted(p - adjacency[pivot]):
            bron_kerbosch(r | {v}, p & adjacency[v], x & adjacency[v])
            p.remove(v)
            x.add(v)

    bron_kerbosch(set(), set(graph.nodes), set())
    return cliques


def enumerate_subcliques(
    clique: frozenset[str],
    bits_of: dict[str, int],
    target_bit_sums: set[int],
    max_bits: int,
    min_members: int = 2,
    allow_incomplete: bool = False,
    max_subsets_per_total: int = 512,
) -> list[tuple[str, ...]]:
    """Sub-cliques of a maximal clique whose bit sums are *useful*.

    Every subset of a clique is a clique, so enumeration reduces to subset
    sums over member bit widths.  A dynamic program over achievable sums
    prunes any subset whose running total already exceeds ``max_bits``.  A
    subset qualifies when its total hits a library width exactly
    (``target_bit_sums``), or — with ``allow_incomplete`` — when it merely
    fits under ``max_bits`` and a larger library cell exists to host it
    (Section 3's incomplete MBRs; the caller applies the area-per-bit
    acceptance rule).

    Members are processed in sorted order; each DP state records the chosen
    subset, so emitted-subset count (not clique size) bounds the work.  A
    sub-clique comes back as that name-sorted tuple, the canonical key
    candidate validation dedupes and reads members by.
    ``max_subsets_per_total`` caps the DP fan-out per bit-sum — a safety
    valve against degenerate dense cliques (a 30-clique of 1-bit registers
    has millions of <=8-bit subsets; keeping the lexicographically earliest
    ones preserves the spatially-sorted neighbours that matter).
    """
    members = sorted(clique)
    results: list[tuple[str, ...]] = []
    larger_exists = {
        total: any(w > total for w in target_bit_sums) for total in range(max_bits + 1)
    }
    # states: mapping bit-sum -> list of subsets achieving it.
    states: dict[int, list[tuple[str, ...]]] = defaultdict(list)
    states[0].append(())
    for name in members:
        width = bits_of[name]
        additions: dict[int, list[tuple[str, ...]]] = defaultdict(list)
        for total, subsets in states.items():
            new_total = total + width
            if new_total > max_bits:
                continue
            room = max_subsets_per_total - len(states.get(new_total, ()))
            if room <= 0:
                continue
            for subset in subsets[:room]:
                additions[new_total].append(subset + (name,))
        for total, subsets in additions.items():
            states[total].extend(subsets[: max_subsets_per_total - len(states[total])])

    for total, subsets in states.items():
        if total == 0:
            continue
        exact = total in target_bit_sums
        incomplete_ok = allow_incomplete and larger_exists[total]
        if not exact and not incomplete_ok:
            continue
        for subset in subsets:
            if len(subset) < min_members:
                continue
            results.append(subset)
    return results
