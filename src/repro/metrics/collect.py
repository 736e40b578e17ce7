"""Collecting the Table 1 metric set from a design."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.clocktree.cts import synthesize_clock_tree
from repro.congestion.grid import CongestionGrid
from repro.core.compatibility import composable_cell_ids
from repro.netlist.design import Design
from repro.scan.model import ScanModel
from repro.sta.timer import Timer


@dataclass
class DesignMetrics:
    """One row ('Base' or 'Ours') of the paper's Table 1."""

    area: float = 0.0
    total_cells: int = 0
    total_regs: int = 0
    comp_regs: int = 0
    clk_bufs: int = 0
    clk_cap: float = 0.0
    tns: float = 0.0
    wns: float = 0.0
    failing_endpoints: int = 0
    total_endpoints: int = 0
    overflow_edges: int = 0
    wirelength_clk: float = 0.0
    wirelength_other: float = 0.0
    width_histogram: dict[int, int] = field(default_factory=dict)
    exec_time_s: float = 0.0

    @property
    def wirelength_total(self) -> float:
        return self.wirelength_clk + self.wirelength_other

    def as_counters(self) -> dict[str, int | float]:
        """The headline numbers as stage-trace counters (see
        :class:`repro.engine.StageTrace`).  Integer quantities stay ints so
        the trace renders them without a spurious decimal point."""
        return {
            "cells": self.total_cells,
            "registers": self.total_regs,
            "composable": self.comp_regs,
            "clk_bufs": self.clk_bufs,
        }


def collect_metrics(
    design: Design,
    timer: Timer,
    scan_model: ScanModel | None = None,
    cts_max_fanout: int = 16,
    congestion_bins: int = 24,
    tracks_per_um: float = 8.0,
) -> DesignMetrics:
    """Measure a design: area/cells/registers, clock tree cost (via a fresh
    CTS-lite run), timing QoR, overflow edges, and split wirelength.

    ``comp_regs`` counts the registers the composition engine would consider
    composable — before composition this matches Table 1's 'Comp-Regs';
    after composition it shows what head-room remains.  It is the
    composer's own :func:`~repro.core.compatibility.composability` test,
    which needs no timing analysis.
    """
    m = DesignMetrics()
    m.area = design.total_cell_area()
    m.total_cells = len(design.cells)
    m.total_regs = design.total_register_count()
    m.width_histogram = design.width_histogram()
    m.comp_regs = sum(1 for _ in composable_cell_ids(design))

    tree = synthesize_clock_tree(design, max_fanout=cts_max_fanout)
    m.clk_bufs = tree.report.num_buffers
    m.clk_cap = tree.report.capacitance

    summary = timer.summary()
    m.tns = summary.tns
    m.wns = summary.wns
    m.failing_endpoints = summary.failing_endpoints
    m.total_endpoints = summary.total_endpoints

    grid = CongestionGrid.of_design(
        design, bins_x=congestion_bins, bins_y=congestion_bins, tracks_per_um=tracks_per_um
    )
    m.overflow_edges = grid.report().overflow_edges

    # The virtual clock tree's wiring counts toward clock wirelength, since
    # the netlist's own clock nets are logical (pre-CTS).
    m.wirelength_clk = tree.report.wirelength
    _, m.wirelength_other = design.hpwl_split()
    return m


def compare_metrics(base: DesignMetrics, ours: DesignMetrics) -> dict[str, float]:
    """Relative changes (ours vs base), positive = reduction, as in the
    'Save' rows of Table 1."""

    def save(b: float, o: float) -> float:
        return (b - o) / b if b else 0.0

    return {
        "area": save(base.area, ours.area),
        "total_cells": save(base.total_cells, ours.total_cells),
        "total_regs": save(base.total_regs, ours.total_regs),
        "comp_regs": save(base.comp_regs, ours.comp_regs),
        "clk_bufs": save(base.clk_bufs, ours.clk_bufs),
        "clk_cap": save(base.clk_cap, ours.clk_cap),
        "tns": save(abs(base.tns), abs(ours.tns)),
        "failing_endpoints": save(base.failing_endpoints, ours.failing_endpoints),
        "overflow_edges": save(base.overflow_edges, ours.overflow_edges),
        "wirelength_clk": save(base.wirelength_clk, ours.wirelength_clk),
        "wirelength_other": save(base.wirelength_other, ours.wirelength_other),
        "wirelength_total": save(base.wirelength_total, ours.wirelength_total),
    }
