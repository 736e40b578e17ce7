"""Edit-storm fuzzer: its own edits must keep the design legal.

A ``cell-outside-die`` the fuzzer causes itself would read as a program
defect.  ``die.xhi - width`` can round up, so the move and merge
proposers clamp with :func:`~repro.geometry.clamp_to_die`; the seeds
below pushed a register off the die when the move proposer did not.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest

from repro.check.fuzz import EditWorld, _propose_merge, run_check
from repro.geometry import Point, Rect
from repro.library import default_library
from repro.library.default_lib import DefaultLibraryParams
from repro.library.functional import DFF_R, ScanStyle

from tests.conftest import make_flop_row


@pytest.mark.parametrize(("preset_name", "seed"), [("D1", 17), ("D2", 3)])
def test_move_proposer_keeps_registers_on_the_die(preset_name, seed):
    report = run_check(preset_name, storms=6, seed=seed)
    assert report.storms_run == 6
    assert [v.check for v in report.violations] == []


def test_merge_proposer_keeps_the_mbr_on_the_die():
    # With a 3.0 um^2 bit area the 2-bit target is 5.34 um wide, and
    # 40.1 - 5.34 rounds up: an origin clamped to it ends past the die.
    lib = default_library(DefaultLibraryParams(bit_area=3.0))
    die = Rect(0.0, 0.0, 40.1, 100.0)
    target = lib.register_cells(DFF_R, 2, scan_styles=(ScanStyle.NONE,))[0]
    assert (die.xhi - target.width) + target.width > die.xhi
    design = make_flop_row(lib, n_flops=2, die=die)
    for i in range(2):
        cell = design.cell(f"ff{i}")
        design.move_cell(cell, Point(die.xhi - (i + 1) * cell.libcell.width, 50.0))
    world = EditWorld(SimpleNamespace(design=design))
    op = _propose_merge(world, random.Random(0))
    assert op["op"] == "merge" and op["target"] == target.name
    assert op["x"] + target.width <= die.xhi
