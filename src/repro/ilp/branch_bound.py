"""Generic 0/1 integer programming by branch-and-bound over LP relaxations.

A deliberately simple MILP solver used to cross-check the specialized
set-partition solver and to support ad-hoc binary programs in experiments.
It relaxes each subproblem with :func:`repro.ilp.simplex.solve_lp`, branches
on the most fractional variable, and explores best-bound first.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.ilp.setpart import WarmStart
from repro.ilp.simplex import LPStatus, solve_lp


@dataclass(frozen=True)
class BinaryProgramResult:
    feasible: bool
    x: np.ndarray | None
    objective: float | None
    nodes_explored: int = 0
    nodes_pruned: int = 0
    relaxation_gap: float | None = None
    """Relative gap between the root LP relaxation bound and the integer
    optimum, ``(z* - z_LP) / max(|z*|, 1)`` — 0.0 when the relaxation was
    already integral."""


def solve_binary_program(
    c,
    A_ub=None,
    b_ub=None,
    A_eq=None,
    b_eq=None,
    max_nodes: int = 100_000,
    warm: WarmStart | None = None,
) -> BinaryProgramResult:
    """Solve ``min c.x`` with binary ``x`` under linear constraints.

    ``warm`` carries a feasible objective bound from a previous matching
    solve; it seeds the pruning cutoff only (the warm solution is never
    adopted as the incumbent), so the returned optimum is identical to a
    cold run while provably-dominated subtrees are cut immediately.

    Raises ``RuntimeError`` if ``max_nodes`` subproblems are exhausted
    before proving optimality, or if a relaxation hits the simplex pivot
    limit (pruning that node would be unsound) — safety valves, not
    expected outcomes at composition problem sizes.
    """
    c = np.asarray(c, dtype=float)
    n = c.size

    counter = itertools.count()
    incumbent: np.ndarray | None = None
    incumbent_obj = float("inf")
    if warm is not None and warm.usable:
        # 2e-9 keeps the effective prune threshold (cutoff - 1e-9) strictly
        # above the true optimum despite summation-order noise in the bound.
        incumbent_obj = warm.bound + 2e-9
        obs.get_registry().counter("ilp.bnb.warmstart_hits").inc()
    nodes = 0
    pruned = 0

    root_bounds: dict[int, int] = {}
    heap: list[tuple[float, int, dict[int, int]]] = []

    def relax(fixed: dict[int, int]):
        bounds = [
            (float(fixed[j]), float(fixed[j])) if j in fixed else (0.0, 1.0)
            for j in range(n)
        ]
        res = solve_lp(c, A_ub, b_ub, A_eq, b_eq, bounds)
        if res.status is LPStatus.PIVOT_LIMIT:
            raise RuntimeError("branch-and-bound relaxation hit the pivot limit")
        return res

    root = relax(root_bounds)
    if root.status is LPStatus.INFEASIBLE:
        _publish(1, 0, None)
        return BinaryProgramResult(False, None, None, 1)
    root_bound = root.objective
    heapq.heappush(heap, (root.objective, next(counter), root_bounds))

    while heap:
        lower, _, fixed = heapq.heappop(heap)
        if lower >= incumbent_obj - 1e-9:
            pruned += 1
            continue
        nodes += 1
        if nodes > max_nodes:
            raise RuntimeError("branch-and-bound node limit exceeded")
        res = relax(fixed)
        if not res.ok or res.objective >= incumbent_obj - 1e-9:
            pruned += 1
            continue
        frac_j = _most_fractional(res.x, fixed)
        if frac_j is None:
            x_int = np.round(res.x).astype(float)
            obj = float(c @ x_int)
            if obj < incumbent_obj:
                incumbent, incumbent_obj = x_int, obj
            continue
        for value in (1, 0):
            child = dict(fixed)
            child[frac_j] = value
            heapq.heappush(heap, (res.objective, next(counter), child))

    if incumbent is None:
        _publish(nodes, pruned, None)
        return BinaryProgramResult(False, None, None, nodes, pruned)
    gap = max(0.0, (incumbent_obj - root_bound) / max(abs(incumbent_obj), 1.0))
    _publish(nodes, pruned, gap)
    return BinaryProgramResult(True, incumbent, incumbent_obj, nodes, pruned, gap)


def _publish(nodes: int, pruned: int, gap: float | None) -> None:
    """One registry update per solve (never per node — hot-path rule)."""
    reg = obs.get_registry()
    reg.counter("ilp.bnb.solves").inc()
    reg.counter("ilp.bnb.nodes_explored").inc(nodes)
    reg.counter("ilp.bnb.nodes_pruned").inc(pruned)
    if gap is not None:
        reg.histogram("ilp.bnb.relaxation_gap", obs.FRACTION_BUCKETS).observe(gap)


def _most_fractional(x: np.ndarray, fixed: dict[int, int]) -> int | None:
    best_j, best_frac = None, 1e-6
    for j, v in enumerate(x):
        if j in fixed:
            continue
        frac = abs(v - round(v))
        if frac > best_frac:
            best_j, best_frac = j, frac
    return best_j
