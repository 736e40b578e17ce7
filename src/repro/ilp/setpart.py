"""Exact weighted set partitioning via branch-and-bound on bitmasks.

The composition ILP (Section 3.1) is

    minimize   sum_i w_i x_i
    subject to for every register j:  sum_i a_ij x_i = 1,   x_i in {0, 1}

— weighted set partitioning of the registers by the candidate MBRs.  The
compatibility subgraphs feeding the ILP never exceed 30 registers
(Section 3), so exact search is fast: we branch on the uncovered element
with the fewest remaining covers, prune with an admissible per-element
share bound, and memoize subproblem optima by uncovered-set bitmask.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs


@dataclass(frozen=True)
class SetPartitionProblem:
    """``subsets[i]`` is the element set of candidate i; ``weights[i]`` its
    cost.  Elements are integers ``0..n_elements-1``."""

    n_elements: int
    subsets: tuple[frozenset[int], ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.subsets) != len(self.weights):
            raise ValueError("subsets and weights must have equal length")
        for s in self.subsets:
            if not s:
                raise ValueError("empty subsets are not allowed")
            if any(e < 0 or e >= self.n_elements for e in s):
                raise ValueError("subset element out of range")


@dataclass
class SetPartitionSolution:
    """Indices of chosen candidates and their total weight."""

    chosen: list[int] = field(default_factory=list)
    objective: float = 0.0
    feasible: bool = True
    nodes_explored: int = 0
    optimal: bool = True
    """False when the node budget ran out: ``chosen`` is the best incumbent
    found, feasible but not proven optimal.  Nothing re-solves it; the
    composer uses it as-is and counts it in its solve stage's
    ``suboptimal``."""
    nodes_pruned: int = 0
    """Subtrees cut before expansion: share-bound prunes, memo prunes, and
    uncoverable-element prunes combined."""


def solve_set_partition(
    problem: SetPartitionProblem,
    max_nodes: int = 50_000,
) -> SetPartitionSolution:
    """Exact optimum of a weighted set-partitioning instance.

    Returns ``feasible=False`` when no family of disjoint subsets covers all
    elements (the composition engine always adds singleton candidates, so
    its instances are feasible by construction).  ``max_nodes`` bounds the
    branch-and-bound; on pathological instances (dense overlapping
    candidate families) the search stops there and returns the incumbent
    with ``optimal=False``.  The search is deterministic, so a spent
    budget gives the same incumbent on every install.
    """
    n = problem.n_elements
    full = (1 << n) - 1

    masks = [_mask(s) for s in problem.subsets]
    weights = problem.weights
    covers: list[list[int]] = [[] for _ in range(n)]
    for i, m in enumerate(masks):
        for e in range(n):
            if m >> e & 1:
                covers[e].append(i)

    # Candidates covering each element, cheapest-first: good incumbents early.
    for e in range(n):
        covers[e].sort(key=lambda i: weights[i])

    # Admissible bound: any partition pays at least min_share[e] for each
    # uncovered element e, where a candidate of weight w covering k elements
    # contributes a share of w/k to each.
    min_share = [
        min((weights[i] / len(problem.subsets[i]) for i in covers[e]), default=float("inf"))
        for e in range(n)
    ]

    sol = SetPartitionSolution(feasible=False, objective=float("inf"))
    memo: dict[int, float] = {}

    def bound(uncovered: int) -> float:
        total = 0.0
        e = 0
        u = uncovered
        while u:
            if u & 1:
                total += min_share[e]
            u >>= 1
            e += 1
        return total

    def search(uncovered: int, cost: float, chosen: list[int]) -> None:
        if sol.nodes_explored >= max_nodes:
            sol.optimal = False
            return
        sol.nodes_explored += 1
        if uncovered == 0:
            if cost < sol.objective:
                sol.objective = cost
                sol.chosen = list(chosen)
                sol.feasible = True
            return
        lb = bound(uncovered)
        if cost + lb >= sol.objective - 1e-12:
            sol.nodes_pruned += 1
            return
        seen = memo.get(uncovered)
        if seen is not None and cost >= seen - 1e-12:
            sol.nodes_pruned += 1
            return
        memo[uncovered] = cost

        # Branch on the uncovered element with the fewest available covers.
        branch_e, branch_opts = -1, None
        e = 0
        u = uncovered
        while u:
            if u & 1:
                opts = [i for i in covers[e] if masks[i] & ~uncovered == 0]
                if not opts:
                    sol.nodes_pruned += 1
                    return  # element e cannot be covered disjointly
                if branch_opts is None or len(opts) < len(branch_opts):
                    branch_e, branch_opts = e, opts
                    if len(opts) == 1:
                        break
            u >>= 1
            e += 1

        for i in branch_opts:
            chosen.append(i)
            search(uncovered & ~masks[i], cost + weights[i], chosen)
            chosen.pop()

    search(full, 0.0, [])
    if not sol.feasible:
        sol.objective = 0.0
    reg = obs.get_registry()
    reg.counter("ilp.setpart.solves").inc()
    reg.counter("ilp.setpart.nodes_explored").inc(sol.nodes_explored)
    reg.counter("ilp.setpart.nodes_pruned").inc(sol.nodes_pruned)
    if not sol.optimal:
        reg.counter("ilp.setpart.budget_exhausted").inc()
    reg.histogram("ilp.setpart.nodes", obs.COUNT_BUCKETS).observe(
        sol.nodes_explored
    )
    return sol


def _mask(subset: frozenset[int]) -> int:
    m = 0
    for e in subset:
        m |= 1 << e
    return m
