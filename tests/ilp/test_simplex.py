"""Tests for the pure-Python simplex, cross-checked against SciPy HiGHS."""

import os
import signal
import subprocess
import sys
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ilp import LPStatus, scipy_available, simplex, solve_lp, solve_lp_scipy

needs_scipy = pytest.mark.skipif(not scipy_available(), reason="SciPy not installed")

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@contextmanager
def returns_within(seconds: int):
    """Fail, instead of hanging, when the block runs longer than ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"no return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestBasics:
    def test_simple_minimization(self):
        # min -x - y  s.t. x + y <= 4, x <= 3, y <= 2  ->  x=3, y=1 or x=2,y=2
        res = solve_lp([-1, -1], A_ub=[[1, 1]], b_ub=[4], bounds=[(0, 3), (0, 2)])
        assert res.ok
        assert res.objective == pytest.approx(-4.0)

    def test_equality_constraints(self):
        # min x + 2y  s.t. x + y = 3  ->  x=3, y=0
        res = solve_lp([1, 2], A_eq=[[1, 1]], b_eq=[3])
        assert res.ok
        assert res.x[0] == pytest.approx(3.0)
        assert res.objective == pytest.approx(3.0)

    def test_infeasible(self):
        res = solve_lp([1], A_eq=[[1]], b_eq=[5], bounds=[(0, 1)])
        assert res.status is LPStatus.INFEASIBLE

    def test_unbounded(self):
        res = solve_lp([-1], bounds=[(0, None)])
        assert res.status is LPStatus.UNBOUNDED

    def test_inconsistent_bounds(self):
        res = solve_lp([1], bounds=[(2.0, 1.0)])
        assert res.status is LPStatus.INFEASIBLE

    def test_negative_lower_bounds(self):
        res = solve_lp([1], bounds=[(-5.0, 5.0)])
        assert res.ok and res.x[0] == pytest.approx(-5.0)

    def test_free_variable(self):
        # min |x - 3| style: min z s.t. z >= x - 3, z >= 3 - x, x free.
        res = solve_lp(
            [0, 1],
            A_ub=[[1, -1], [-1, -1]],
            b_ub=[3, -3],
            bounds=[(None, None), (0, None)],
        )
        assert res.ok
        assert res.x[0] == pytest.approx(3.0)
        assert res.objective == pytest.approx(0.0)

    def test_negative_rhs_normalized(self):
        # -x <= -2  <=>  x >= 2.
        res = solve_lp([1], A_ub=[[-1]], b_ub=[-2])
        assert res.ok and res.x[0] == pytest.approx(2.0)

    def test_coefficients_at_the_tolerance_terminate(self):
        # Entries of exactly _EPS pass the entering test but not the ratio
        # test; an elimination that skipped them re-entered the same basic
        # column forever.
        with returns_within(10):
            res = solve_lp(
                [0, 0],
                A_ub=[[0, 1e-9], [0, 1e-9]],
                b_ub=[1, 1],
                bounds=[(0, 10), (0, 10)],
            )
        assert res.ok and res.objective == 0.0

    def test_pivot_cap_returns_status(self, monkeypatch):
        monkeypatch.setattr(simplex, "_PIVOTS_PER_DIMENSION", 0)
        res = solve_lp([-1, -1], A_ub=[[1, 1]], b_ub=[4], bounds=[(0, 3), (0, 2)])
        assert res.status is LPStatus.PIVOT_LIMIT
        assert res.x is None and res.objective is None and not res.ok

    def test_degenerate_problem_terminates(self):
        # Classic degeneracy: redundant constraints through the optimum.
        res = solve_lp(
            [-1, -1],
            A_ub=[[1, 0], [1, 0], [0, 1], [1, 1]],
            b_ub=[1, 1, 1, 2],
        )
        assert res.ok and res.objective == pytest.approx(-2.0)


class TestAgainstScipy:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    @needs_scipy
    def test_random_lps_match_highs(self, data):
        n = data.draw(st.integers(2, 5))
        m = data.draw(st.integers(1, 5))
        coef = st.floats(min_value=-5, max_value=5, allow_nan=False)
        c = data.draw(st.lists(coef, min_size=n, max_size=n))
        A = [data.draw(st.lists(coef, min_size=n, max_size=n)) for _ in range(m)]
        b = data.draw(st.lists(st.floats(min_value=0.1, max_value=10), min_size=m, max_size=m))
        bounds = [(0.0, 10.0)] * n  # box keeps everything bounded/feasible

        ours = solve_lp(c, A_ub=A, b_ub=b, bounds=bounds)
        ref = solve_lp_scipy(c, A_ub=A, b_ub=b, bounds=bounds)
        assert ours.status == ref.status
        if ours.ok:
            assert ours.objective == pytest.approx(ref.objective, abs=1e-6)
            # Our solution must satisfy the constraints.
            assert np.all(np.asarray(A) @ ours.x <= np.asarray(b) + 1e-6)

    @needs_scipy
    def test_random_lps_match_highs_on_seed_3(self):
        """``--hypothesis-seed=3`` once drove the property above into a
        pivot cycle that never returned; the run gets a minute."""
        env = dict(os.environ, HYPOTHESIS_PROFILE="dev")  # ci derandomizes
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
        )
        node = f"{__file__}::TestAgainstScipy::test_random_lps_match_highs"
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             node, "--hypothesis-seed=3"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    @needs_scipy
    def test_random_equality_lps_match_highs(self, data):
        n = data.draw(st.integers(2, 4))
        coef = st.floats(min_value=-3, max_value=3, allow_nan=False)
        c = data.draw(st.lists(coef, min_size=n, max_size=n))
        row = data.draw(st.lists(st.floats(min_value=0.5, max_value=3), min_size=n, max_size=n))
        b = data.draw(st.floats(min_value=0.5, max_value=float(sum(row))))
        bounds = [(0.0, 1.0)] * n

        ours = solve_lp(c, A_eq=[row], b_eq=[b], bounds=bounds)
        ref = solve_lp_scipy(c, A_eq=[row], b_eq=[b], bounds=bounds)
        assert ours.status == ref.status
        if ours.ok:
            assert ours.objective == pytest.approx(ref.objective, abs=1e-6)
