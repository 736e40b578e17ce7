"""Pure, picklable per-subgraph ILP subproblems.

The paper's scalability argument (Section 3) is that clock-pin-driven
partitioning turns composition into many independent subproblems of at
most ~30 registers.  This module is the seam that makes that independence
executable: the composer's solve stage serializes each subgraph into a
:class:`SubproblemSpec` (node names, candidate subsets, weights — no
design, no netlist, nothing unpicklable), solves every spec with the pure
function :func:`solve_subproblem`, and maps the chosen candidate indices
back.  Because the function is pure and the spec self-contained,
:func:`solve_subproblems` can fan the specs out across a
``concurrent.futures.ProcessPoolExecutor`` — and the parallel path is
bit-identical to the serial one, since both run exactly the same solver
on exactly the same inputs in exactly the same order.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
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
    The spec must stay picklable — it is what crosses the process boundary.
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
    list into a picklable spec (candidate order is preserved, so result
    indices map straight back)."""
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


def _solve_captured(
    payload: tuple[SubproblemSpec, float, bool],
) -> tuple[SubproblemResult, list, dict]:
    """Worker-side entry: solve one spec under a fresh tracer/registry.

    Returns ``(result, span records, metrics snapshot)`` so the parent can
    merge the worker's observability signal back in.  The worker tracer
    shares the parent's ``perf_counter`` epoch — on Linux that clock is
    the system-wide ``CLOCK_MONOTONIC``, so worker spans land at the right
    wall position on the merged timeline.
    """
    spec, epoch, traced = payload
    tracer = obs.Tracer(enabled=traced, epoch=epoch)
    registry = obs.MetricsRegistry()
    prev_tracer = obs.set_tracer(tracer)
    prev_registry = obs.set_registry(registry)
    try:
        result = solve_subproblem(spec)
    finally:
        obs.set_tracer(prev_tracer)
        obs.set_registry(prev_registry)
    return result, tracer.records(), registry.snapshot()


def solve_subproblems(
    specs: Sequence[SubproblemSpec], workers: int = 1
) -> list[SubproblemResult]:
    """Solve every spec, in spec order.

    ``workers <= 1`` solves in-process (no pool, no pickling — the
    historical serial path).  ``workers > 1`` fans out over a process
    pool; ``map`` preserves input order, and each result is a pure
    function of its spec, so the two paths return identical lists.  The
    pooled path captures each worker's spans and metrics alongside its
    result: spans are adopted into the parent tracer (re-parented under
    the caller's current span, keyed by remapped span ids) and metric
    snapshots merge into the parent registry, so ILP effort counters are
    identical whichever path ran.
    """
    hb = obs.get_heartbeat()
    if workers <= 1 or len(specs) <= 1:
        results = []
        for i, s in enumerate(specs):
            results.append(solve_subproblem(s))
            if hb is not None:
                hb.advance(i + 1, len(specs), unit="subproblems")
        return results
    n_workers = min(workers, len(specs))
    chunksize = max(1, len(specs) // (n_workers * 4))
    tracer = obs.get_tracer()
    traced = tracer is not None and tracer.enabled
    epoch = tracer.epoch if traced else 0.0
    payloads = [(s, epoch, traced) for s in specs]
    with ProcessPoolExecutor(max_workers=n_workers) as pool:
        captured = list(pool.map(_solve_captured, payloads, chunksize=chunksize))
    registry = obs.get_registry()
    profiler = obs.get_profiler()
    # Worker spans become profiler samples under the fan-out site's own
    # stack, so the flamegraph shows parallel ILP time where it belongs.
    profile_prefix = (
        tracer.current_stack_names() if profiler is not None and traced else ()
    )
    results: list[SubproblemResult] = []
    for i, (result, records, snapshot) in enumerate(captured):
        if traced and tracer is not None:
            tracer.adopt(records)
            if profiler is not None:
                profiler.ingest_spans(records, prefix=profile_prefix)
        registry.merge(snapshot)
        results.append(result)
        if hb is not None:
            hb.advance(i + 1, len(captured), unit="subproblems")
    return results
