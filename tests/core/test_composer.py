"""Integration tests for the composition engine and the greedy baseline."""

import functools

import pytest

import repro.core.subproblem as subproblem
from repro.bench import generate_design, preset
from repro.check import check_design, grouping_signature
from repro.core.composer import ComposerConfig, compose_design
from repro.core.heuristic import compose_design_heuristic
from repro.core.sizing import size_registers
from repro.ilp import scipy_available, solve_set_partition, solve_set_partition_scipy
from repro.library.functional import DFF_R
from repro.sta import Timer

from tests.conftest import compose_recording_specs, hide_scipy, make_flop_row


@pytest.fixture(scope="module")
def small_bundle(lib):
    return generate_design(preset("D1", scale=0.12), lib)


def _errors(design):
    return check_design(design)


class TestComposeRow:
    def test_row_of_eight_becomes_one_mbr(self, lib):
        d = make_flop_row(lib, n_flops=8, spacing=2.0, name="row8")
        timer = Timer(d, clock_period=10.0)
        res = compose_design(d, timer)
        assert d.total_register_count() == 1
        assert d.width_histogram() == {8: 1}
        assert res.register_reduction == 7
        assert not _errors(d)

    def test_bits_conserved(self, lib):
        d = make_flop_row(lib, n_flops=6, spacing=2.0, name="row6")
        bits = d.total_register_bits()
        timer = Timer(d, clock_period=10.0)
        compose_design(d, timer)
        assert d.total_register_bits() == bits

    def test_nothing_to_do_is_clean(self, lib):
        d = make_flop_row(lib, n_flops=1, name="single")
        timer = Timer(d, clock_period=10.0)
        res = compose_design(d, timer)
        assert res.registers_before == res.registers_after == 1
        assert res.composed == []

    def test_dont_touch_never_composed(self, lib):
        d = make_flop_row(lib, n_flops=4, spacing=2.0, name="dt")
        d.cell("ff1").dont_touch = True
        timer = Timer(d, clock_period=10.0)
        res = compose_design(d, timer)
        assert "ff1" in d.cells
        for group in res.composed:
            assert "ff1" not in group.members

    def test_workers_keyword_accepts_only_one(self, lib):
        # Every subgraph ILP solves in-process: workers=1 is accepted, any
        # other width is refused before the design is touched.
        d = make_flop_row(lib, n_flops=4, spacing=2.0, name="w1")
        res = compose_design(d, Timer(d, clock_period=10.0), None, workers=1)
        assert res.register_reduction == 3
        d2 = make_flop_row(lib, n_flops=4, spacing=2.0, name="w2")
        with pytest.raises(ValueError, match="workers=2"):
            compose_design(d2, Timer(d2, clock_period=10.0), None, workers=2)
        assert d2.total_register_count() == 4
        # The config is a plain dataclass: a stray ``workers`` attribute
        # set by such callers is accepted and ignored.
        config = ComposerConfig()
        config.workers = 1
        assert "workers" not in repr(config)

    @pytest.mark.skipif(not scipy_available(), reason="SciPy not installed")
    def test_scipy_solver_equivalent_objective(self, lib):
        # HiGHS, as a reference, finds the same optimum for every ILP the
        # composer solved.
        d = make_flop_row(lib, n_flops=8, spacing=2.0, name="sa")
        _, solved = compose_recording_specs(d, Timer(d, 10.0))
        assert solved
        for spec, res in solved:
            assert res.optimal
            ref = solve_set_partition_scipy(spec.to_problem())
            assert ref.objective == pytest.approx(res.objective, abs=1e-9)


class TestScipyIndependence:
    """The composer's result must not depend on whether SciPy is installed,
    even when the exact solver's node budget runs out."""

    def test_budget_exhausted_compose_is_the_same_without_scipy(self, lib, monkeypatch):
        monkeypatch.setattr(
            subproblem,
            "solve_set_partition",
            functools.partial(solve_set_partition, max_nodes=50),
        )

        def compose():
            b = generate_design(preset("D1", scale=0.25), lib)
            return compose_design(b.design, b.timer, b.scan_model)

        with_scipy = compose()
        hide_scipy(monkeypatch)
        without_scipy = compose()

        assert grouping_signature(with_scipy) == grouping_signature(without_scipy)
        assert with_scipy.registers_after == without_scipy.registers_after
        # The budget really ran out, and the trace says so.
        assert with_scipy.trace.counter_total("suboptimal") > 0
        assert without_scipy.trace.counter_total("suboptimal") == (
            with_scipy.trace.counter_total("suboptimal")
        )


class TestComposeBundle:
    """End-to-end on a generated 'industrial' design."""

    def test_netlist_stays_valid(self, lib, small_bundle):
        b = generate_design(preset("D1", scale=0.12), lib)
        assert not _errors(b.design)
        compose_design(b.design, b.timer, b.scan_model)
        assert not _errors(b.design)

    def test_reduction_without_timing_collapse(self, lib):
        b = generate_design(preset("D2", scale=0.15), lib)
        before = b.timer.summary()
        res = compose_design(b.design, b.timer, b.scan_model)
        after = b.timer.summary()
        assert res.registers_after < res.registers_before
        # QoR guard: data endpoints are conserved (scan-bridge ports may
        # add a couple of trivially-met endpoints) and TNS stays in regime.
        assert abs(after.total_endpoints - before.total_endpoints) <= 5
        assert abs(after.tns) <= abs(before.tns) * 1.25 + 0.5

    def test_composed_groups_are_recorded(self, lib):
        b = generate_design(preset("D1", scale=0.12), lib)
        res = compose_design(b.design, b.timer, b.scan_model)
        absorbed = {m for g in res.composed for m in g.members}
        for group in res.composed:
            # A pass-1 MBR may itself have merged into a larger MBR during
            # the incremental pass 2; otherwise it must exist as recorded.
            if group.new_cell in b.design.cells:
                cell = b.design.cells[group.new_cell]
                assert cell.register_cell.name == group.libcell
            else:
                assert group.new_cell in absorbed
            for member in group.members:
                assert member not in b.design.cells

    def test_legalization_leaves_no_register_overlaps(self, lib):
        b = generate_design(preset("D1", scale=0.12), lib)
        compose_design(b.design, b.timer, b.scan_model)
        regs = b.design.registers()
        for i, a in enumerate(regs):
            for c in regs[i + 1 :]:
                inter = a.footprint.intersect(c.footprint)
                assert inter is None or inter.area < 1e-9, (a.name, c.name)

    def test_incomplete_mbrs_used_when_allowed(self, lib):
        b = generate_design(preset("D3", scale=0.2), lib)
        res = compose_design(b.design, b.timer, b.scan_model)
        # With {1,2,3,4,8} widths and 5% overhead budget, 7->8-bit merges
        # occur on MBR-rich designs; at least the mechanism must not crash
        # and any used incomplete cell must carry spare bits.
        for g in res.composed:
            if g.incomplete:
                cell = b.design.cells[g.new_cell]
                from repro.netlist import RegisterView

                assert RegisterView(cell).connected_bit_count < cell.width_bits


class TestHeuristicBaseline:
    def test_ilp_beats_or_ties_heuristic(self, lib):
        # Fig. 6: the ILP achieves fewer (or equal) registers on every design.
        b1 = generate_design(preset("D1", scale=0.15), lib)
        b2 = generate_design(preset("D1", scale=0.15), lib)
        r_ilp = compose_design(b1.design, b1.timer, b1.scan_model)
        r_heu = compose_design_heuristic(b2.design, b2.timer, b2.scan_model)
        assert r_ilp.registers_after <= r_heu.registers_after

    def test_heuristic_valid_netlist(self, lib):
        b = generate_design(preset("D2", scale=0.15), lib)
        compose_design_heuristic(b.design, b.timer, b.scan_model)
        assert not _errors(b.design)

    def test_heuristic_groups_disjoint(self, lib):
        b = generate_design(preset("D1", scale=0.15), lib)
        res = compose_design_heuristic(b.design, b.timer, b.scan_model)
        seen = set()
        for g in res.composed:
            for m in g.members:
                assert m not in seen
                seen.add(m)


class TestSizing:
    def test_sizing_reduces_area_and_cap(self, lib):
        d = make_flop_row(lib, n_flops=4, spacing=2.0, name="sz")
        # Force strongest drive so there is room to downsize.
        strongest = min(lib.register_cells(DFF_R, 1), key=lambda c: c.drive_resistance)
        for i in range(4):
            d.swap_libcell(d.cell(f"ff{i}"), strongest)
        timer = Timer(d, clock_period=10.0)  # huge slack: everything downsizes
        res = size_registers(d, timer)
        assert res.num_swapped == 4
        assert res.area_delta < 0
        assert res.clock_cap_delta < 0

    def test_sizing_respects_tight_timing(self, lib):
        d = make_flop_row(lib, n_flops=4, spacing=2.0, name="szt")
        strongest = min(lib.register_cells(DFF_R, 1), key=lambda c: c.drive_resistance)
        for i in range(4):
            d.swap_libcell(d.cell(f"ff{i}"), strongest)
        timer = Timer(d, clock_period=0.01)  # everything failing: no swaps
        res = size_registers(d, timer)
        assert res.num_swapped == 0

    def test_sizing_keeps_timing_above_margin(self, lib):
        d = make_flop_row(lib, n_flops=4, spacing=2.0, name="szm")
        timer = Timer(d, clock_period=10.0)
        before = timer.summary().wns
        size_registers(d, timer, margin=0.1)
        timer.dirty()
        assert timer.summary().wns >= min(before, 0.1) - 1e-6
