"""Optional SciPy (HiGHS) backends mirroring the pure-Python solvers.

Test references only: the tests check :mod:`repro.ilp.simplex` and
:mod:`repro.ilp.setpart` against an industrial-strength implementation.
The composition flow never calls them, so its results do not depend on
whether SciPy is installed.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.ilp.setpart import SetPartitionProblem, SetPartitionSolution
from repro.ilp.simplex import LPResult, LPStatus


def scipy_available() -> bool:
    try:
        from scipy.optimize import linprog, milp  # noqa: F401

        return True
    except ImportError:  # pragma: no cover - scipy is a hard dependency here
        return False


def solve_lp_scipy(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, bounds=None) -> LPResult:
    """:func:`repro.ilp.simplex.solve_lp`-compatible wrapper over HiGHS."""
    from scipy.optimize import linprog

    obs.get_registry().counter("ilp.scipy.lp_solves").inc()
    n = np.asarray(c).size
    res = linprog(
        c,
        A_ub=A_ub,
        b_ub=b_ub,
        A_eq=A_eq,
        b_eq=b_eq,
        bounds=bounds if bounds is not None else [(0, None)] * n,
        method="highs",
    )
    if res.status == 2:
        return LPResult(LPStatus.INFEASIBLE, None, None)
    if res.status == 3:
        return LPResult(LPStatus.UNBOUNDED, None, None)
    if not res.success:  # pragma: no cover - unexpected solver failure
        raise RuntimeError(f"linprog failed: {res.message}")
    return LPResult(LPStatus.OPTIMAL, np.asarray(res.x), float(res.fun))


def solve_set_partition_scipy(problem: SetPartitionProblem) -> SetPartitionSolution:
    """Solve a set-partitioning instance with ``scipy.optimize.milp``."""
    from scipy.optimize import LinearConstraint, milp
    from scipy.sparse import lil_matrix

    obs.get_registry().counter("ilp.scipy.milp_solves").inc()

    k = len(problem.subsets)
    A = lil_matrix((problem.n_elements, k))
    for i, subset in enumerate(problem.subsets):
        for e in subset:
            A[e, i] = 1.0
    constraint = LinearConstraint(A.tocsr(), lb=1.0, ub=1.0)
    res = milp(
        c=np.asarray(problem.weights, dtype=float),
        integrality=np.ones(k),
        bounds=(0, 1),
        constraints=[constraint],
    )
    if not res.success:
        return SetPartitionSolution(feasible=False, objective=0.0)
    chosen = [i for i, v in enumerate(res.x) if v > 0.5]
    return SetPartitionSolution(
        chosen=chosen,
        objective=float(sum(problem.weights[i] for i in chosen)),
        feasible=True,
    )
