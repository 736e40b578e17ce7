"""Tests of the benchmark's output checkers.

The checkers must accept today's unmodified outputs and reject each of
the corrupted outputs below.  Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import replace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from repro.bench import generate_design, preset  # noqa: E402
from repro.bench.presets import PRESETS  # noqa: E402
from repro.check.invariants import check_all, check_design  # noqa: E402
from repro.core.composer import compose_design  # noqa: E402
from repro.flow.driver import FlowConfig, run_flow  # noqa: E402
from repro.geometry.point import Point  # noqa: E402
from repro.library import default_library  # noqa: E402
from repro.serve import DesignRegistry, JobRequest, JobResponse  # noqa: E402
from repro.sta.timer import Timer  # noqa: E402


def _past_die_edge(design, cell) -> Point:
    return Point(design.die.xhi - cell.libcell.width + 1.0, cell.origin.y)


# -- flow-d1d5 ------------------------------------------------------------------


def _flow_world():
    bundle = generate_design(preset("D1", 0.3), default_library())
    report = run_flow(bundle.design, bundle.timer, bundle.scan_model, FlowConfig())
    return bundle, report


def _flow_problems(bundle, report):
    findings = check_all(bundle.design, bundle.timer, bundle.scan_model)
    return checks.flow_problems(report, bundle.design, bundle.timer, findings)


def test_flow_output_accepted_with_sizing_explained_findings():
    bundle, report = _flow_world()
    assert _flow_problems(bundle, report) == []
    assert checks.explained_by_sizing(report, bundle.design) > 0


def test_flow_rejects_libcell_swap_without_sizing_record():
    bundle, report = _flow_world()
    live = {g.new_cell for g in report.composition.composed} & set(
        report.sizing.swapped
    )
    del report.sizing.swapped[sorted(live)[0]]
    problems = _flow_problems(bundle, report)
    assert any("composed-cell-libcell" in p for p in problems)


def test_flow_rejects_cell_past_die_edge():
    bundle, report = _flow_world()
    design = bundle.design
    cell = design.registers()[0]
    with design.track() as tracker:
        design.move_cell(cell, _past_die_edge(design, cell))
    bundle.timer.apply_change(tracker.record())
    problems = _flow_problems(bundle, report)
    assert any("cell-outside-die" in p for p in problems)


# -- eco-serve ------------------------------------------------------------------


def _served_session():
    registry = DesignRegistry()
    registry.add_bundle("d", generate_design(preset("D1", 0.1), default_library()))
    replies = [registry.run_job(JobRequest(kind="compose", design="d", id="prime"))]
    for k in range(3):
        params = {"seed": k, "moves": 2, "radius": 3.0}
        replies.append(
            registry.run_job(JobRequest(kind="eco", design="d", params=params, id=f"e{k}"))
        )
    check = registry.run_job(JobRequest(kind="check", design="d", id="c"))
    return registry.session("d"), replies, check


def test_session_oracle_accepts_served_session():
    session, replies, check = _served_session()
    assert check["clean"]
    assert checks.session_oracle_problems(session, seed=5) == []


def test_session_oracle_rejects_edit_outside_session():
    session, _, _ = _served_session()
    design = session.design
    cell = sorted(
        (c for c in design.registers() if not (c.fixed or c.dont_touch)),
        key=lambda c: c.name,
    )[0]
    design.move_cell(cell, Point(cell.origin.x + 2.0, cell.origin.y + 1.0))
    assert checks.session_oracle_problems(session, seed=5) != []


def test_response_checks():
    request = JobRequest(kind="check", design="d", id="c")
    assert checks.response_problems(JobResponse.success(request, {"clean": True})) == []
    assert checks.response_problems(
        JobResponse.success(request, {"clean": False, "report": ["x"]})
    )
    assert checks.response_problems(JobResponse.failure(request, "queue_full", "full"))
    assert checks.response_problems(JobResponse.failure(request, "job_failed", "boom"))


# -- window-20k -----------------------------------------------------------------


def _window_world():
    spec = replace(PRESETS["huge"], n_registers=3000)
    design = generate_design(spec, default_library()).design
    input_findings = check_design(design)
    workloads.freeze_outside_window(design, workloads.WINDOW_FRACTION)
    frozen = {
        c.name: (c.origin.x, c.origin.y, c.libcell.name)
        for c in design.registers()
        if c.dont_touch
    }
    before = design.total_register_count()
    timer = Timer(design, workloads.WINDOW_PERIOD)
    compose_design(design, timer, None, workers=1)
    return design, timer, input_findings, frozen, before


def _window_problems(design, timer, input_findings, frozen, before):
    return checks.window_problems(
        input_findings, check_design(design), design, timer, frozen, before
    )


def test_window_output_accepted():
    assert _window_problems(*_window_world()) == []


def test_window_rejects_cell_past_die_edge():
    design, timer, input_findings, frozen, before = _window_world()
    cell = design.cells[sorted(frozen)[0]]
    with design.track() as tracker:
        design.move_cell(cell, _past_die_edge(design, cell))
    timer.apply_change(tracker.record())
    problems = _window_problems(design, timer, input_findings, frozen, before)
    assert any("cell-outside-die" in p for p in problems)
    assert any(p.startswith("dont_touch") for p in problems)


# -- the clock and the command line -----------------------------------------


def test_clock_rescales_wall_time_without_its_samples():
    with speed.Clock() as clock:
        end = time.perf_counter() + 0.6
        while time.perf_counter() < end:
            pass
    assert len(clock.units) > 2 * speed.BURST_UNITS  # sampled inside the region
    assert 0.5 < clock.wall < 0.6
    assert clock.seconds == clock.wall / clock.slowness


@pytest.mark.parametrize("argv", [[], ["--workload", "nope", "--seed", "1"]])
def test_cli_rejects_bad_arguments(argv):
    with pytest.raises(SystemExit):
        run.main(argv)
