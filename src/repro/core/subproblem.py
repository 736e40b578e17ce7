"""Pure per-subgraph ILP subproblems.

The paper's scalability argument (Section 3) is that clock-pin-driven
partitioning turns composition into many independent subproblems of at
most ~30 registers.  The composer's solve stage detaches each subgraph
into a :class:`SubproblemSpec` (node names, candidate subsets, weights —
no design, no netlist), solves every spec with the pure function
:func:`solve_subproblem`, and maps the chosen candidate indices back.
Each ILP is small, so the whole stage is a small share of a compose and
runs in-process, one spec after another.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro import obs
from repro.ilp.setpart import SetPartitionProblem, solve_set_partition


@dataclass(frozen=True)
class SubproblemSpec:
    """One subgraph's weighted set-partitioning instance, detached from the
    design.

    ``nodes`` are the subgraph's register names in sorted order;
    ``subsets[i]`` holds candidate *i*'s member positions within ``nodes``.
    """

    index: int
    nodes: tuple[str, ...]
    subsets: tuple[tuple[int, ...], ...]
    weights: tuple[float, ...]

    def to_problem(self) -> SetPartitionProblem:
        return SetPartitionProblem(
            n_elements=len(self.nodes),
            subsets=tuple(frozenset(s) for s in self.subsets),
            weights=self.weights,
        )


@dataclass(frozen=True)
class SubproblemResult:
    """The solve stage's pure output: which candidates to keep.

    ``chosen`` indexes into the candidate list the spec was built from;
    ``nodes_explored`` counts branch-and-bound nodes.  ``optimal`` is
    False when the node budget ran out: ``chosen`` is then the search's
    best incumbent, kept as-is.
    """

    index: int
    chosen: tuple[int, ...]
    objective: float
    nodes_explored: int
    optimal: bool


def make_spec(
    index: int,
    node_names: Sequence[str],
    candidates: Sequence[object],
) -> SubproblemSpec:
    """Detach one subgraph + its :class:`~repro.core.candidates.CandidateMBR`
    list into a spec (candidate order is preserved, so result indices map
    straight back)."""
    names = tuple(sorted(node_names))
    position = {n: i for i, n in enumerate(names)}
    return SubproblemSpec(
        index=index,
        nodes=names,
        subsets=tuple(
            tuple(sorted(position[m] for m in c.members)) for c in candidates
        ),
        weights=tuple(c.weight for c in candidates),
    )


def solve_subproblem(spec: SubproblemSpec) -> SubproblemResult:
    """Solve one spec. Pure: no design access, no shared state.

    One exact branch-and-bound solve.  If its node budget runs out on a
    pathologically dense instance, ``ilp.budget_exhausted`` is logged and
    the incumbent is returned with ``optimal=False``; nothing re-solves
    it, so the result never depends on which packages are installed.
    """
    with obs.span(
        "ilp.solve",
        cat="ilp",
        subproblem=spec.index,
        elements=len(spec.nodes),
        candidates=len(spec.subsets),
    ) as sp:
        sol = solve_set_partition(spec.to_problem())
        if not sol.optimal:
            obs.log(
                "ilp.budget_exhausted",
                subproblem=spec.index,
                nodes=sol.nodes_explored,
            )
        if not sol.feasible:  # pragma: no cover - singletons guarantee feasibility
            raise RuntimeError(
                "composition ILP infeasible despite singleton candidates"
            )
        sp.set(nodes=sol.nodes_explored, chosen=len(sol.chosen))
    return SubproblemResult(
        index=spec.index,
        chosen=tuple(sol.chosen),
        objective=sol.objective,
        nodes_explored=sol.nodes_explored,
        optimal=sol.optimal,
    )


def solve_subproblems(specs: Sequence[SubproblemSpec]) -> list[SubproblemResult]:
    """Solve every spec in-process, in spec order."""
    hb = obs.get_heartbeat()
    results = []
    for i, s in enumerate(specs):
        results.append(solve_subproblem(s))
        if hb is not None:
            hb.advance(i + 1, len(specs), unit="subproblems")
    return results
