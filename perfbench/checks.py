"""Output checks of the benchmark workloads.

Every checker returns a list of problem strings; an empty list means the
output passed.  The checkers only read the world they are given, except
:func:`session_oracle_problems`, which applies one more edit on purpose
(the end-of-loop oracle of the eco-serve workload).  None of them runs
inside a timed region.
"""

from __future__ import annotations

import random

from repro.check.invariants import check_composition
from repro.check.oracles import (
    compare_session_to_reference,
    diff_timer_vs_fresh,
    scratch_compose,
)
from repro.geometry.point import Point


def _lines(prefix: str, violations) -> list[str]:
    return [f"{prefix}: {v}" for v in violations]


def composition_problems(report, design) -> list[str]:
    """``check_composition`` of a flow result, reconciled with sizing.

    The composition result predates the flow's sizing stage, so every MBR
    that sizing downsized shows up as a ``composed-cell-libcell`` finding.
    Such a finding is explained only when the sizing record of that cell
    reads exactly ``(composed libcell, live libcell)``; every other finding
    is a problem.
    """
    swapped = report.sizing.swapped if report.sizing is not None else {}
    groups = {g.new_cell: g for g in report.composition.composed}
    out = []
    for v in check_composition(report.composition, design):
        if v.check == "composed-cell-libcell":
            name = v.subject.removeprefix("group ")
            group, cell = groups.get(name), design.cells.get(name)
            if (
                group is not None
                and cell is not None
                and swapped.get(name) == (group.libcell, cell.libcell.name)
            ):
                continue
        out.append(f"composition: {v}")
    return out


def explained_by_sizing(report, design) -> int:
    """How many ``check_composition`` findings the sizing record explains."""
    return len(check_composition(report.composition, design)) - len(
        composition_problems(report, design)
    )


def flow_problems(report, design, timer, findings) -> list[str]:
    """Checks of one ``run_flow`` output (the flow-d1d5 operation).

    ``findings`` is ``check_all`` of the flow's final world, which the
    workload times as its read operation.
    """
    out = _lines("check_all", findings)
    out += _lines("sta", diff_timer_vs_fresh(timer))
    base, final = report.base, report.final
    if not final.total_regs < base.total_regs:
        out.append(f"table1: registers {base.total_regs} -> {final.total_regs}")
    if not final.clk_cap < base.clk_cap:
        out.append(f"table1: clock cap {base.clk_cap} -> {final.clk_cap}")
    if final.tns < base.tns:
        out.append(f"table1: TNS {base.tns} -> {final.tns}")
    out += composition_problems(report, design)
    return out


def response_problems(response) -> list[str]:
    """Checks of one service reply: ok, not rejected, and clean if a check."""
    if response.rejected:
        return [f"{response.id}: rejected ({response.error})"]
    if not response.ok:
        return [f"{response.id}: {response.error_code} ({response.error})"]
    if response.kind == "check" and not response.result.get("clean"):
        report = "; ".join(response.result.get("report", [])[:3])
        return [f"{response.id}: check not clean: {report}"]
    return []


def _seeded_move(design, rng: random.Random, radius: float = 3.0):
    """A movable register and a target whose footprint lies inside the die."""
    movable = sorted(
        (c for c in design.registers() if not c.fixed and not c.dont_touch),
        key=lambda c: c.name,
    )
    die = design.die
    for _ in range(100):
        cell = rng.choice(movable)
        x = cell.origin.x + rng.uniform(-radius, radius)
        y = cell.origin.y + rng.uniform(-radius, radius)
        lib = cell.libcell
        if (
            die.xlo <= x
            and x + lib.width <= die.xhi
            and die.ylo <= y
            and y + lib.height <= die.yhi
        ):
            return cell, Point(x, y)
    raise RuntimeError(f"no in-die move found on {design.name}")


def session_oracle_problems(session, seed: int) -> list[str]:
    """End-of-loop oracle of one served design.

    Applies one more seeded register move through ``session.edit()``, then
    requires the incremental recompose to match a from-scratch compose of
    the same world, and the session's timer to match a fresh rebuild.
    """
    cell, target = _seeded_move(session.design, random.Random(seed))
    with session.edit():
        session.design.move_cell(cell, target)
    ref_result, ref_design, ref_timer = scratch_compose(session)
    stats = session.recompose()
    out = _lines(
        "eco-vs-scratch",
        compare_session_to_reference(
            session, stats.result, ref_result, ref_design, ref_timer
        ),
    )
    out += _lines("sta", diff_timer_vs_fresh(session.timer))
    return out


def window_problems(
    input_findings, output_findings, design, timer, frozen: dict, registers_before: int
) -> list[str]:
    """Checks of the window compose.

    ``input_findings`` and ``output_findings`` are ``check_design`` of the
    parsed input and of the composed world; ``frozen`` maps every
    ``dont_touch`` register to its ``(x, y, libcell)`` before the compose.
    """
    known = {str(v) for v in input_findings}
    out = [f"check_design: {v}" for v in output_findings if str(v) not in known]
    for name, before in frozen.items():
        cell = design.cells.get(name)
        after = (
            None
            if cell is None
            else (cell.origin.x, cell.origin.y, cell.libcell.name)
        )
        if after != before:
            out.append(f"dont_touch {name}: {before} -> {after}")
    after = design.total_register_count()
    if not after < registers_before:
        out.append(f"registers {registers_before} -> {after}")
    out += _lines("sta", diff_timer_vs_fresh(timer))
    return out
