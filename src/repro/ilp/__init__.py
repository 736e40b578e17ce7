"""Linear and integer programming solvers.

The paper's composition step solves a weighted set-partitioning ILP
(Section 3.1) and its MBR placement step solves a small LP (Section 4.2).
Production used an industrial solver; this package provides:

* :mod:`repro.ilp.simplex` — a dense two-phase primal simplex with Bland's
  anti-cycling rule, enough for the placement LPs and LP-relaxation bounds;
* :mod:`repro.ilp.setpart` — an exact branch-and-bound solver specialized
  for weighted set partitioning with bitmask subsets; the compatibility
  subgraphs are capped at 30 registers (Section 3), so exact solving is
  cheap;
* :mod:`repro.ilp.branch_bound` — a generic 0/1 ILP branch-and-bound over
  the simplex relaxation, used to cross-check the specialized solver;
* :mod:`repro.ilp.scipy_backend` — optional HiGHS-backed solvers
  (``scipy.optimize.milp`` / ``linprog``), test references only: the tests
  check the pure-Python solvers against them, and the flow never calls
  them.
"""

from repro.ilp.simplex import LPResult, LPStatus, solve_lp
from repro.ilp.setpart import (
    SetPartitionProblem,
    SetPartitionSolution,
    solve_set_partition,
)
from repro.ilp.branch_bound import solve_binary_program
from repro.ilp.scipy_backend import scipy_available, solve_lp_scipy, solve_set_partition_scipy

__all__ = [
    "LPResult",
    "LPStatus",
    "solve_lp",
    "SetPartitionProblem",
    "SetPartitionSolution",
    "solve_set_partition",
    "solve_binary_program",
    "scipy_available",
    "solve_lp_scipy",
    "solve_set_partition_scipy",
]
