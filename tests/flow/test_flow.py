"""Integration tests for the Fig. 4 flow driver and metrics collection."""

import pytest

from repro.bench import generate_design, preset
from repro.check import check_design
from repro.flow import FlowConfig, run_flow
from repro.metrics import collect_metrics, compare_metrics


@pytest.fixture(scope="module")
def report(lib):
    # Scale 0.3 (~210 registers): below this, single-merge noise dominates
    # the wirelength and congestion percentages the tests check.
    b = generate_design(preset("D1", scale=0.3), lib)
    bits_before = b.design.total_register_bits()
    rep = run_flow(b.design, b.timer, b.scan_model)
    return b, rep, bits_before


class TestFlowQoR:
    """The paper's headline claims, at reproduction scale."""

    def test_total_registers_reduced_substantially(self, report):
        _, rep, _ = report
        assert rep.savings["total_regs"] > 0.15  # paper avg: 29%

    def test_clock_cap_reduced(self, report):
        _, rep, _ = report
        assert rep.savings["clk_cap"] > 0.0  # paper avg: 6%

    def test_no_timing_degradation(self, report):
        _, rep, _ = report
        # "we don't increase the timing violations" — TNS and failing
        # endpoints after skew+sizing must not be meaningfully worse.
        assert abs(rep.final.tns) <= abs(rep.base.tns) * 1.10 + 0.1
        assert rep.final.failing_endpoints <= rep.base.failing_endpoints * 1.10 + 2

    def test_wirelength_not_increased(self, report):
        _, rep, _ = report
        assert rep.final.wirelength_total <= rep.base.wirelength_total * 1.02

    def test_congestion_not_degraded(self, report):
        _, rep, _ = report
        base, ours = rep.base.overflow_edges, rep.final.overflow_edges
        assert ours <= base * 1.06 + 3  # "marginal" difference

    def test_area_not_increased(self, report):
        _, rep, _ = report
        assert rep.final.area <= rep.base.area * 1.005

    def test_netlist_valid_after_flow(self, report):
        b, _, _ = report
        assert not check_design(b.design)

    def test_width_histogram_shifts_up(self, report):
        _, rep, _ = report
        # Fig. 5: mass moves toward wider MBRs.
        def mean_width(hist):
            total = sum(hist.values())
            return sum(w * c for w, c in hist.items()) / total

        assert mean_width(rep.final.width_histogram) > mean_width(rep.base.width_histogram)

    def test_bits_conserved(self, report):
        b, rep, bits_before = report
        # Connected bits are invariant; the physical-width histogram may
        # carry extra spare bits from incomplete MBRs.
        assert b.design.total_register_bits() == bits_before

        def bits(hist):
            return sum(w * c for w, c in hist.items())

        assert bits(rep.final.width_histogram) >= bits(rep.base.width_histogram)

    def test_skew_and_sizing_ran(self, report):
        _, rep, _ = report
        assert rep.skew is not None and rep.skew.offsets
        assert rep.sizing is not None

    def test_runtime_recorded(self, report):
        _, rep, _ = report
        assert rep.runtime_seconds > 0
        assert rep.final.exec_time_s == pytest.approx(rep.runtime_seconds)


class TestFlowTrace:
    """The stage-pipeline engine's runtime accounting."""

    def test_trace_covers_every_flow_stage(self, report):
        _, rep, _ = report
        assert rep.trace is not None
        assert rep.trace.stage_names() == [
            "base-metrics",
            "decompose",
            "compose",
            "legalize-bits",
            "skew",
            "sizing",
            "final-metrics",
        ]

    def test_stage_runtimes_sum_to_flow_runtime(self, report):
        _, rep, _ = report
        # Top-level stage wall clocks account for the whole run (the only
        # unmeasured work is pipeline bookkeeping and report assembly).
        assert rep.trace.total_seconds == pytest.approx(
            rep.runtime_seconds, rel=0.05
        )

    def test_compose_stage_nests_composer_trace(self, report):
        _, rep, _ = report
        compose_rec = next(r for r in rep.trace.records if r.name == "compose")
        assert compose_rec.children is rep.composition.trace
        names = rep.composition.trace.stage_names()
        assert names[:6] == [
            "analyze",
            "graph",
            "partition",
            "enumerate",
            "solve",
            "apply",
        ]
        assert names[-2:] == ["scan", "legalize"]

    def test_composer_trace_counters(self, report):
        _, rep, _ = report
        trace = rep.composition.trace
        assert trace.counter_total("subgraphs") == rep.composition.subgraphs
        assert trace.counter_total("ilp_nodes") == rep.composition.ilp_nodes
        assert trace.counter_total("composed") == len(rep.composition.composed)

    def test_heuristic_flow_also_traced(self, lib):
        b = generate_design(preset("D2", scale=0.1), lib)
        rep = run_flow(b.design, b.timer, b.scan_model, FlowConfig(algorithm="heuristic"))
        assert rep.trace is not None
        names = rep.composition.trace.stage_names()
        assert names == ["analyze", "graph", "solve", "apply", "scan", "legalize"]

    def test_trace_formats(self, report):
        _, rep, _ = report
        text = rep.trace.format()
        assert "compose" in text and "final-metrics" in text and "total" in text


class TestFlowVariants:
    def test_heuristic_algorithm(self, lib):
        b = generate_design(preset("D2", scale=0.1), lib)
        rep = run_flow(b.design, b.timer, b.scan_model, FlowConfig(algorithm="heuristic"))
        assert rep.final.total_regs < rep.base.total_regs

    def test_unknown_algorithm_rejected(self, lib):
        b = generate_design(preset("D2", scale=0.1), lib)
        with pytest.raises(ValueError):
            run_flow(b.design, b.timer, b.scan_model, FlowConfig(algorithm="nope"))

    def test_decomposition_field_is_typed(self, lib):
        from repro.core.decompose import DecomposeResult

        b = generate_design(preset("D4", scale=0.1), lib)
        rep = run_flow(
            b.design, b.timer, b.scan_model, FlowConfig(decompose_widths=(8,))
        )
        assert isinstance(rep.decomposition, DecomposeResult)
        assert rep.decomposition.decomposed

    def test_skew_and_sizing_can_be_disabled(self, lib):
        b = generate_design(preset("D2", scale=0.1), lib)
        rep = run_flow(
            b.design, b.timer, b.scan_model, FlowConfig(run_skew=False, run_sizing=False)
        )
        assert rep.skew is None and rep.sizing is None


class TestMetrics:
    def test_collect_base_metrics(self, lib):
        b = generate_design(preset("D3", scale=0.1), lib)
        m = collect_metrics(b.design, b.timer, b.scan_model)
        assert m.total_regs == b.design.total_register_count()
        assert 0 < m.comp_regs <= m.total_regs
        assert m.clk_cap > 0 and m.clk_bufs > 0
        assert m.total_endpoints > 0
        assert m.wirelength_other > 0

    def test_compare_metrics_signs(self, lib):
        from repro.metrics import DesignMetrics

        base = DesignMetrics(area=100, total_regs=100, clk_cap=1.0)
        ours = DesignMetrics(area=90, total_regs=70, clk_cap=1.1)
        cmp = compare_metrics(base, ours)
        assert cmp["area"] == pytest.approx(0.10)
        assert cmp["total_regs"] == pytest.approx(0.30)
        assert cmp["clk_cap"] == pytest.approx(-0.10)  # negative = got worse

    def test_compare_handles_zero_base(self):
        from repro.metrics import DesignMetrics

        cmp = compare_metrics(DesignMetrics(), DesignMetrics())
        assert all(v == 0.0 for v in cmp.values())


class TestReporting:
    def test_table1_renders(self, report):
        from repro.reporting import format_table1

        _, rep, _ = report
        text = format_table1([rep])
        assert "Base" in text and "Ours" in text and "Save" in text
        assert rep.design_name in text

    def test_fig5_renders(self, report):
        from repro.reporting import format_fig5_histograms

        _, rep, _ = report
        text = format_fig5_histograms([rep])
        assert "Before" in text and "After" in text
        assert "8-bit" in text

    def test_fig6_renders(self, report):
        from repro.reporting import format_fig6_comparison

        _, rep, _ = report
        text = format_fig6_comparison([rep], [rep])
        assert "ILP/Heur" in text and "average" in text
