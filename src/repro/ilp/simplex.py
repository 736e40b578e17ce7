"""A dense two-phase primal simplex.

Solves  ``min c.x  s.t.  A_ub x <= b_ub,  A_eq x = b_eq,  lb <= x <= ub``.

Design notes:

* variables are shifted by their lower bounds to standard form ``x >= 0``;
  finite upper bounds become additional ``<=`` rows (simple, and fine at the
  problem sizes the composition flow produces);
* phase 1 drives artificial variables out of the basis; phase 2 optimizes;
* one tolerance rule: a reduced cost or a column entry within ``_EPS`` of
  zero counts as zero, while elimination is exact, so every basic column
  is an exact unit vector and its reduced cost exactly zero;
* Bland's smallest-index rule prevents cycling under degeneracy, and a
  pivot cap per phase turns any run that still fails to converge in
  floating point into an explicit ``PIVOT_LIMIT`` status.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro import obs

_EPS = 1e-9
_PIVOTS_PER_DIMENSION = 50
"""Pivot cap of one phase, per tableau row plus column."""


class LPStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    PIVOT_LIMIT = "pivot_limit"


@dataclass(frozen=True)
class LPResult:
    status: LPStatus
    x: np.ndarray | None
    objective: float | None
    pivots: int = 0
    """Simplex pivots performed across both phases (solver effort)."""

    @property
    def ok(self) -> bool:
        return self.status is LPStatus.OPTIMAL


def solve_lp(
    c,
    A_ub=None,
    b_ub=None,
    A_eq=None,
    b_eq=None,
    bounds: list[tuple[float | None, float | None]] | None = None,
) -> LPResult:
    """Solve a linear program; see module docstring for the form.

    ``bounds`` defaults to ``(0, None)`` per variable, matching the common
    convention.  ``None`` means unbounded on that side; a ``None`` lower
    bound is handled with the usual free-variable split.
    """
    c = np.asarray(c, dtype=float)
    n = c.size
    bounds = bounds if bounds is not None else [(0.0, None)] * n
    if len(bounds) != n:
        raise ValueError("bounds length does not match variable count")

    A_ub = np.zeros((0, n)) if A_ub is None else np.atleast_2d(np.asarray(A_ub, dtype=float))
    b_ub = np.zeros(0) if b_ub is None else np.atleast_1d(np.asarray(b_ub, dtype=float))
    A_eq = np.zeros((0, n)) if A_eq is None else np.atleast_2d(np.asarray(A_eq, dtype=float))
    b_eq = np.zeros(0) if b_eq is None else np.atleast_1d(np.asarray(b_eq, dtype=float))

    # Variable transformation: x_j = lb_j + u_j (u_j >= 0), or for free
    # variables x_j = u_j - v_j with u, v >= 0.
    col_map: list[tuple[int, float, int]] = []  # (u column, shift, v column or -1)
    ncols = 0
    shifts = np.zeros(n)
    extra_ub_rows: list[tuple[int, float]] = []  # (variable index, ub - lb)
    for j, (lo, hi) in enumerate(bounds):
        if lo is None:
            col_map.append((ncols, 0.0, ncols + 1))
            ncols += 2
            if hi is not None:
                extra_ub_rows.append((j, hi))
        else:
            shifts[j] = lo
            col_map.append((ncols, lo, -1))
            ncols += 1
            if hi is not None:
                if hi < lo - _EPS:
                    return LPResult(LPStatus.INFEASIBLE, None, None)
                extra_ub_rows.append((j, hi - lo))

    def expand(matrix: np.ndarray) -> np.ndarray:
        out = np.zeros((matrix.shape[0], ncols))
        for j in range(n):
            u, _, v = col_map[j]
            out[:, u] = matrix[:, j]
            if v >= 0:
                out[:, v] = -matrix[:, j]
        return out

    # Shift right-hand sides by A @ lb.
    b_ub_s = b_ub - A_ub @ shifts if A_ub.size else b_ub.copy()
    b_eq_s = b_eq - A_eq @ shifts if A_eq.size else b_eq.copy()

    Aub_x = expand(A_ub) if A_ub.size else np.zeros((0, ncols))
    Aeq_x = expand(A_eq) if A_eq.size else np.zeros((0, ncols))

    # Upper-bound rows u_j <= hi - lo (or x_j <= hi for free variables).
    if extra_ub_rows:
        rows = np.zeros((len(extra_ub_rows), ncols))
        rhs = np.zeros(len(extra_ub_rows))
        for i, (j, cap) in enumerate(extra_ub_rows):
            u, _, v = col_map[j]
            rows[i, u] = 1.0
            if v >= 0:
                rows[i, v] = -1.0
            rhs[i] = cap
        Aub_x = np.vstack([Aub_x, rows])
        b_ub_s = np.concatenate([b_ub_s, rhs])

    c_x = np.zeros(ncols)
    for j in range(n):
        u, _, v = col_map[j]
        c_x[u] = c[j]
        if v >= 0:
            c_x[v] = -c[j]

    x_std, pivots = _two_phase_simplex(c_x, Aub_x, b_ub_s, Aeq_x, b_eq_s)
    reg = obs.get_registry()
    reg.counter("ilp.simplex.solves").inc()
    reg.counter("ilp.simplex.pivots").inc(pivots)
    if isinstance(x_std, LPStatus):
        return LPResult(x_std, None, None, pivots)

    x = np.zeros(n)
    for j in range(n):
        u, shift, v = col_map[j]
        x[j] = shift + x_std[u] - (x_std[v] if v >= 0 else 0.0)
    return LPResult(LPStatus.OPTIMAL, x, float(c @ x), pivots)


def _two_phase_simplex(c, A_ub, b_ub, A_eq, b_eq):
    """Simplex over standard-form data with x >= 0; returns ``(solution,
    pivots)`` where the solution is a vector over the expanded columns or
    an :class:`LPStatus` failure."""
    pivots = 0
    m_ub, m_eq = A_ub.shape[0], A_eq.shape[0]
    n = c.size
    m = m_ub + m_eq

    # Rows: [A_ub | I_slack | artificials?] and [A_eq | 0 | artificials].
    A = np.zeros((m, n + m_ub))
    b = np.concatenate([b_ub, b_eq])
    if m_ub:
        A[:m_ub, :n] = A_ub
        A[:m_ub, n : n + m_ub] = np.eye(m_ub)
    if m_eq:
        A[m_ub:, :n] = A_eq

    # Normalize to b >= 0.
    for i in range(m):
        if b[i] < 0:
            A[i] *= -1.0
            b[i] *= -1.0

    total = n + m_ub
    # Artificial variables for every row (slack columns of flipped <= rows
    # would enter with -1, so a uniform artificial basis is simplest).
    art = np.eye(m)
    T = np.hstack([A, art])
    basis = list(range(total, total + m))

    # Phase 1.
    cost1 = np.concatenate([np.zeros(total), np.ones(m)])
    sol, n_piv = _iterate(T, b, cost1, basis)
    pivots += n_piv
    if sol is LPStatus.PIVOT_LIMIT:
        return sol, pivots
    if sol is LPStatus.UNBOUNDED:  # pragma: no cover - phase 1 is bounded
        return LPStatus.INFEASIBLE, pivots
    obj1 = sum(cost1[j] * v for j, v in zip(basis, sol))
    if obj1 > 1e-7:
        return LPStatus.INFEASIBLE, pivots

    # Drive leftover artificials out of the basis when possible.
    for i, j in enumerate(basis):
        if j >= total:
            pivot_col = next(
                (k for k in range(total) if abs(T[i, k]) > _EPS), None
            )
            if pivot_col is not None:
                _pivot(T, b, i, pivot_col, basis)

    # Phase 2 (artificial columns frozen at zero).
    cost2 = np.concatenate([c, np.zeros(m_ub), np.zeros(m)])
    T2 = T.copy()
    T2[:, total:] = 0.0  # forbid artificials from re-entering
    for i, j in enumerate(basis):
        if j >= total:
            T2[i, j] = 1.0  # keep degenerate artificial basic at zero
    sol, n_piv = _iterate(T2, b, cost2, basis)
    pivots += n_piv
    if isinstance(sol, LPStatus):
        return sol, pivots

    x = np.zeros(total + m)
    for i, j in enumerate(basis):
        x[j] = sol[i]
    return x[:total], pivots


def _pivot(T, b, row, col, basis) -> None:
    """Pivot on ``T[row, col]``, eliminating the column from every other
    row exactly, so it becomes a unit vector down to the last bit."""
    piv = T[row, col]
    T[row] /= piv
    b[row] /= piv
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, T[row])
    b -= factors * b[row]
    basis[row] = col


def _iterate(T, b, cost, basis):
    """Run simplex iterations with Bland's rule until optimal, unbounded or
    out of pivots; returns ``(basic-variable values or the failure status,
    pivots performed)``."""
    m = T.shape[0]
    limit = _PIVOTS_PER_DIMENSION * (m + T.shape[1])
    for pivots in range(limit + 1):
        cb = cost[basis]
        reduced = cost - cb @ T
        entering = next((j for j in range(T.shape[1]) if reduced[j] < -_EPS), None)
        if entering is None:
            return b.copy(), pivots
        if pivots == limit:
            return LPStatus.PIVOT_LIMIT, pivots
        ratios = [
            (b[i] / T[i, entering], basis[i], i)
            for i in range(m)
            if T[i, entering] > _EPS
        ]
        if not ratios:
            return LPStatus.UNBOUNDED, pivots
        _, _, leave_row = min(ratios, key=lambda t: (t[0], t[1]))
        _pivot(T, b, leave_row, entering, basis)
