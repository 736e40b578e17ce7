"""Reproduction of the paper's worked example (Figs. 1-3).

These tests pin the behaviour of the weighting and ILP layers to the
numbers printed in the paper: the candidate weight table of Fig. 3 and the
two selected solutions (with and without incomplete MBRs).
"""

import math

import pytest

from repro.bench.paper_example import (
    PAPER_WIDTHS,
    build_paper_example,
    paper_example_graph,
)
from repro.core.candidates import CandidateConfig, enumerate_candidates
from repro.core.compatibility import analyze_registers
from repro.core.weights import candidate_weight
from repro.ilp import SetPartitionProblem, solve_set_partition
from repro.sta import Timer


@pytest.fixture(scope="module")
def example(lib):
    design = build_paper_example(lib)
    timer = Timer(design, clock_period=5.0)
    infos = analyze_registers(design, timer)
    graph = paper_example_graph(design, infos)
    return design, infos, graph


def _weight(infos, members):
    all_regs = list(infos.values())
    w, _ = candidate_weight([infos[m] for m in members], all_regs)
    return w


# Fig. 3's weight table.  BF and CF print 0.50 in the figure, but carry
# 3 bits (B=1, F=2), so the Section 3.2 formula gives 1/3; we follow the
# formula (see EXPERIMENTS.md).  CE (5 bits, blocked by A in our Fig. 2
# reconstruction) is absent from the figure; its weight is asserted
# separately as blocked.
FIG3_WEIGHTS = {
    ("A",): 1.0,
    ("B",): 1.0,
    ("C",): 1.0,
    ("D",): 1.0,
    ("E",): 1.0,
    ("F",): 1.0,
    ("A", "B"): 0.5,
    ("A", "D"): 0.5,
    ("A", "C"): 0.5,
    ("B", "D"): 0.5,
    ("C", "D"): 0.5,
    ("B", "C"): 4.0,
    ("A", "B", "D"): 1 / 3,
    ("B", "C", "D"): 1 / 3,
    ("A", "C", "D"): 1 / 3,
    ("A", "B", "C"): 6.0,
    ("A", "B", "C", "D"): 0.25,
    ("B", "F"): 1 / 3,
    ("C", "F"): 1 / 3,
    ("B", "C", "F"): 8.0,
    ("A", "E"): 0.2,
    ("A", "E", "C"): 1 / 6,
}


class TestFig3Weights:
    @pytest.mark.parametrize("members,expected", sorted(FIG3_WEIGHTS.items()))
    def test_candidate_weight(self, example, members, expected):
        _, infos, _ = example
        assert _weight(infos, list(members)) == pytest.approx(expected, rel=1e-9)

    def test_blocker_identities(self, example):
        """D is the register blocking {A,B,C}, {B,C}, and {B,C,F}."""
        from repro.core.weights import blocking_registers

        _, infos, _ = example
        all_regs = list(infos.values())
        for members in (["A", "B", "C"], ["B", "C"], ["B", "C", "F"]):
            blockers = blocking_registers([infos[m] for m in members], all_regs)
            assert blockers == ["D"]

    def test_ce_is_blocked_in_reconstruction(self, example):
        # CE spans from C up to E, and A sits between them.
        _, infos, _ = example
        assert _weight(infos, ["C", "E"]) == pytest.approx(5 * 2.0)  # b=5, n=1


class TestCandidateEnumeration:
    def test_all_fig3_candidates_enumerated_with_incomplete(self, example, lib):
        design, infos, graph = example
        cands = enumerate_candidates(
            graph,
            list(infos.values()),
            lib,
            config=CandidateConfig(
                allow_incomplete=True, max_incomplete_area_overhead=math.inf
            ),
        )
        by_members = {tuple(sorted(c.members)): c for c in cands}
        for members, expected in FIG3_WEIGHTS.items():
            key = tuple(sorted(members))
            assert key in by_members, f"candidate {members} missing"
            assert by_members[key].weight == pytest.approx(expected, rel=1e-9)

    def test_incomplete_candidates_excluded_without_flag(self, example, lib):
        design, infos, graph = example
        cands = enumerate_candidates(
            graph, list(infos.values()), lib, config=CandidateConfig(allow_incomplete=False)
        )
        members = {tuple(sorted(c.members)) for c in cands}
        # 5- and 6-bit groups need an 8-bit incomplete cell.
        assert ("A", "E") not in members
        assert ("A", "C", "E") not in members
        assert ("A", "B", "C", "D") in members

    def test_incomplete_mapped_to_8bit(self, example, lib):
        design, infos, graph = example
        cands = enumerate_candidates(
            graph,
            list(infos.values()),
            lib,
            config=CandidateConfig(
                allow_incomplete=True, max_incomplete_area_overhead=math.inf
            ),
        )
        ae = next(c for c in cands if tuple(sorted(c.members)) == ("A", "E"))
        assert ae.is_incomplete
        assert ae.mapping.cell.width_bits == 8
        assert ae.mapping.spare_bits == 3

    def test_area_rule_rejects_ae_at_5_percent(self, example, lib):
        # "In reality, incomplete register AE would have been rejected since
        # its area is significantly larger" — the flow's 5% overhead cap
        # rejects it.
        design, infos, graph = example
        cands = enumerate_candidates(
            graph,
            list(infos.values()),
            lib,
            config=CandidateConfig(allow_incomplete=True, max_incomplete_area_overhead=0.05),
        )
        members = {tuple(sorted(c.members)) for c in cands}
        assert ("A", "E") not in members


def _solve(infos, candidates):
    names = sorted(PAPER_WIDTHS)
    index = {n: i for i, n in enumerate(names)}
    problem = SetPartitionProblem(
        n_elements=len(names),
        subsets=tuple(frozenset(index[m] for m in c.members) for c in candidates),
        weights=tuple(c.weight for c in candidates),
    )
    sol = solve_set_partition(problem)
    chosen = [tuple(sorted(candidates[i].members)) for i in sol.chosen]
    return sol, sorted(chosen)


class TestILPSelection:
    def test_solution_without_incomplete(self, example, lib):
        """Fig. 3: {B,F} + {A,C,D} + E (or the symmetric {C,F} + {A,B,D})."""
        design, infos, graph = example
        cands = enumerate_candidates(
            graph, list(infos.values()), lib, config=CandidateConfig(allow_incomplete=False)
        )
        sol, chosen = _solve(infos, cands)
        assert sol.objective == pytest.approx(1.0 + 2 / 3)
        assert len(chosen) == 3  # six registers -> three
        assert chosen in (
            [("A", "C", "D"), ("B", "F"), ("E",)],
            [("A", "B", "D"), ("C", "F"), ("E",)],
        )

    def test_solution_with_incomplete(self, example, lib):
        """Fig. 3 with incomplete MBRs: {A,E} (8-bit incomplete) + {C,D} +
        {B,F} — same final register count, lower cost."""
        design, infos, graph = example
        cands = enumerate_candidates(
            graph,
            list(infos.values()),
            lib,
            config=CandidateConfig(
                allow_incomplete=True, max_incomplete_area_overhead=math.inf
            ),
        )
        sol, chosen = _solve(infos, cands)
        assert sol.objective == pytest.approx(0.2 + 0.5 + 1 / 3)
        assert len(chosen) == 3
        assert chosen in (
            [("A", "E"), ("B", "F"), ("C", "D")],
            [("A", "E"), ("B", "D"), ("C", "F")],
        )
