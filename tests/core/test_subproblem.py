"""Tests for the pure solve-stage subproblems."""

import pickle

import pytest

import repro.core.subproblem as subproblem
from repro.core.subproblem import (
    SubproblemResult,
    make_spec,
    solve_subproblem,
    solve_subproblems,
)
from repro.ilp.scipy_backend import scipy_available, solve_set_partition_scipy
from repro.ilp.setpart import SetPartitionSolution

from tests.conftest import hide_scipy

needs_scipy = pytest.mark.skipif(not scipy_available(), reason="SciPy not installed")


class FakeCandidate:
    def __init__(self, members, weight):
        self.members = members
        self.weight = weight


def _spec(index=0):
    # Elements a,b,c; candidates: singletons (weight 1) and {a,b} cheap pair.
    cands = [
        FakeCandidate(("a",), 1.0),
        FakeCandidate(("b",), 1.0),
        FakeCandidate(("c",), 1.0),
        FakeCandidate(("a", "b"), 0.5),
    ]
    return make_spec(index, ["a", "b", "c"], cands)


class TestSpec:
    def test_make_spec_maps_members_to_sorted_node_positions(self):
        spec = _spec()
        assert spec.nodes == ("a", "b", "c")
        assert spec.subsets == ((0,), (1,), (2,), (0, 1))
        assert spec.weights == (1.0, 1.0, 1.0, 0.5)

    def test_spec_and_result_are_picklable(self):
        spec = _spec()
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        res = solve_subproblem(spec)
        assert pickle.loads(pickle.dumps(res)) == res

    def test_to_problem_roundtrip(self):
        p = _spec().to_problem()
        assert p.n_elements == 3
        assert p.subsets[3] == frozenset({0, 1})


class TestSolve:
    def test_exact_picks_cheap_pair(self):
        res = solve_subproblem(_spec())
        assert set(res.chosen) == {2, 3}
        assert res.objective == pytest.approx(1.5)
        assert res.optimal

    @needs_scipy
    def test_scipy_matches_exact_objective(self):
        spec = _spec()
        exact = solve_subproblem(spec)
        hi = solve_set_partition_scipy(spec.to_problem())
        assert hi.objective == pytest.approx(exact.objective)

    def test_result_index_preserved(self):
        assert solve_subproblem(_spec(index=7)).index == 7


class TestScipyOptionality:
    """A spent node budget keeps the incumbent; SciPy plays no part."""

    def test_exact_keeps_incumbent_when_scipy_missing(self, monkeypatch):
        incumbent = SetPartitionSolution(
            chosen=[0, 1, 2], objective=3.0, feasible=True, nodes_explored=9,
            optimal=False,
        )
        monkeypatch.setattr(subproblem, "solve_set_partition", lambda p: incumbent)
        hide_scipy(monkeypatch)
        res = solve_subproblem(_spec())
        assert res.chosen == (0, 1, 2)
        assert res.objective == pytest.approx(3.0)
        assert res.nodes_explored == 9
        assert not res.optimal


class TestSolveAll:
    def test_results_follow_spec_order(self):
        specs = [_spec(index=i) for i in range(6)]
        results = solve_subproblems(specs)
        assert results == [solve_subproblem(s) for s in specs]
        assert [r.index for r in results] == list(range(6))

    def test_empty_and_single_spec_paths(self):
        assert solve_subproblems([]) == []
        [res] = solve_subproblems([_spec()])
        assert isinstance(res, SubproblemResult)
