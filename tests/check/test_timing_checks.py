"""Planted timing defects: ``check_timing`` and the audit must see them.

Each test edits the design behind the timer's back — no tracker, so no
:class:`~repro.netlist.change.ChangeRecord` reaches ``Timer.apply_change``
— and then asks the two live-vs-fresh comparisons what they see:
:func:`~repro.check.invariants.check_timing` must report exactly the
graph checks the edit breaks, and an audit-mode query must raise
:class:`~repro.sta.timer.TimingAuditError`.
"""

from __future__ import annotations

import pytest

from repro.check import check_timing
from repro.geometry import Point
from repro.sta import Timer
from repro.sta.timer import TimingAuditError


def _warm(design, audit_mode: bool = False) -> Timer:
    timer = Timer(design, clock_period=1.0, audit_mode=audit_mode)
    timer.summary()
    timer.hold_summary()
    return timer


def _move_ff3(design) -> None:
    ff3 = design.cell("ff3")
    ff3.move_to(Point(ff3.origin.x + 20.0, ff3.origin.y + 10.0))


def _disconnect_ff1_d(design) -> None:
    design.disconnect(design.cell("ff1").pin("D"))


def _disconnect_ff2_q(design) -> None:
    design.disconnect(design.cell("ff2").pin("Q"))


UNTRACKED_EDITS = [
    pytest.param(
        _move_ff3, {"timer-graph-arcs", "timer-graph-seeds"}, id="move-ff3"
    ),
    pytest.param(
        _disconnect_ff1_d,
        {"timer-graph-arcs", "timer-graph-seeds", "timer-node-refcounts"},
        id="disconnect-ff1-D",
    ),
    pytest.param(
        _disconnect_ff2_q,
        {"timer-graph-arcs", "timer-graph-seeds", "timer-node-refcounts"},
        id="disconnect-ff2-Q",
    ),
]


def test_a_clean_timer_reports_nothing(flop_row):
    timer = _warm(flop_row, audit_mode=True)
    timer.set_skew("ff0", 0.05)
    timer.summary()  # the audited retime of the skew edit passes
    assert check_timing(timer) == []


@pytest.mark.parametrize("edit, expected", UNTRACKED_EDITS)
def test_check_timing_reports_an_untracked_edit(flop_row, edit, expected):
    timer = _warm(flop_row)
    edit(flop_row)
    found = {v.check for v in check_timing(timer)}
    assert found == expected


@pytest.mark.parametrize("edit, expected", UNTRACKED_EDITS)
def test_audit_raises_on_an_untracked_edit(flop_row, edit, expected):
    timer = _warm(flop_row, audit_mode=True)
    edit(flop_row)
    # A tracked skew edit on another register arms the audit; its own
    # retime is exact, so only the untracked edit can make it diverge.
    timer.set_skew("ff0", 0.05)
    with pytest.raises(TimingAuditError):
        timer.summary()


def test_a_skew_on_a_missing_cell_dangles(flop_row):
    timer = _warm(flop_row)
    timer.skew["ghost"] = 0.1
    found = [(v.check, v.subject) for v in check_timing(timer)]
    assert found == [("skew-dangling-cell", "skew ghost")]
