"""Edit-storm fuzzer: its own edits must keep the design legal.

A ``cell-outside-die`` the fuzzer causes itself would read as a program
defect.  ``die.xhi - width`` can round up, so the move proposer clamps
with :func:`~repro.geometry.last_origin`; these seeds pushed a register
off the die when it did not.
"""

from __future__ import annotations

import pytest

from repro.check.fuzz import run_check


@pytest.mark.parametrize(("preset_name", "seed"), [("D1", 17), ("D2", 3)])
def test_move_proposer_keeps_registers_on_the_die(preset_name, seed):
    report = run_check(preset_name, storms=6, seed=seed)
    assert report.storms_run == 6
    assert [v.check for v in report.violations] == []
