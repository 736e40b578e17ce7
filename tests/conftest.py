"""Shared fixtures: a default library and small hand-built designs.

Also registers the Hypothesis example-budget profiles used by the
property suite (``tests/check/test_properties.py``):

``dev`` (default)
    6 examples per property — keeps the tier-1 run fast locally.
``ci``
    30 examples, derandomized — the exhaustive, deterministic budget CI
    selects with ``HYPOTHESIS_PROFILE=ci``.
"""

from __future__ import annotations

import os
import sys

import pytest

try:
    from hypothesis import HealthCheck, settings
except ImportError:  # pragma: no cover - property tests skip without it
    pass
else:
    _suppress = [
        HealthCheck.too_slow,
        HealthCheck.filter_too_much,
        HealthCheck.data_too_large,
    ]
    settings.register_profile(
        "ci",
        max_examples=30,
        deadline=None,
        derandomize=True,
        suppress_health_check=_suppress,
    )
    settings.register_profile(
        "dev", max_examples=6, deadline=None, suppress_health_check=_suppress
    )
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))

from repro.geometry import Point, Rect
from repro.library import CellLibrary, default_library
from repro.library.cells import PinDirection
from repro.library.functional import DFF_R, DFF_R_S
from repro.netlist import Design


@pytest.fixture(scope="session")
def lib() -> CellLibrary:
    return default_library()


def make_flop_row(
    lib: CellLibrary,
    n_flops: int = 4,
    func_class=DFF_R,
    spacing: float = 4.0,
    die: Rect = Rect(0, 0, 100, 100),
    name: str = "row",
) -> Design:
    """A design with ``n_flops`` 1-bit registers on one row.

    Each register's D is driven from an input port through a buffer, and its
    Q drives a buffer to an output port; all share one clock and one reset
    net.  This is the minimal structure with real fan-in/fan-out for STA and
    placement-LP tests.
    """
    design = Design(name, lib, die)
    clk = design.add_net("clk", is_clock=True)
    rst = design.add_net("rst")
    clk_port = design.add_port("clk", PinDirection.INPUT, Point(0.0, die.yhi / 2))
    rst_port = design.add_port("rst", PinDirection.INPUT, Point(0.0, die.yhi / 2 - 2))
    design.connect(clk_port, clk)
    design.connect(rst_port, rst)

    ff_cell = lib.register_cells(func_class, 1)[0]
    for i in range(n_flops):
        x = 10.0 + i * spacing
        ff = design.add_cell(f"ff{i}", ff_cell, Point(x, 50.0))
        design.connect(ff.pin(ff_cell.clock_pin_name), clk)
        if "RN" in ff.pins:
            design.connect(ff.pin("RN"), rst)

        din = design.add_port(f"in{i}", PinDirection.INPUT, Point(0.0, 40.0 + i))
        dbuf = design.add_cell(f"ibuf{i}", lib.cell("BUF_X1"), Point(x - 2.0, 50.0))
        n_in = design.add_net(f"n_in{i}")
        n_d = design.add_net(f"n_d{i}")
        design.connect(din, n_in)
        design.connect(dbuf.pin("A"), n_in)
        design.connect(dbuf.pin("Z"), n_d)
        design.connect(ff.pin("D"), n_d)

        qbuf = design.add_cell(f"obuf{i}", lib.cell("BUF_X1"), Point(x + 2.0, 50.0))
        dout = design.add_port(f"out{i}", PinDirection.OUTPUT, Point(die.xhi, 40.0 + i))
        n_q = design.add_net(f"n_q{i}")
        n_out = design.add_net(f"n_out{i}")
        design.connect(ff.pin("Q"), n_q)
        design.connect(qbuf.pin("A"), n_q)
        design.connect(qbuf.pin("Z"), n_out)
        design.connect(dout, n_out)

        if func_class.is_scan:
            # Stitch a simple scan chain ff0 -> ff1 -> ... with SE from a port.
            pass
    if func_class.is_scan:
        se = design.add_net("se")
        se_port = design.add_port("se", PinDirection.INPUT, Point(0.0, 10.0))
        design.connect(se_port, se)
        si_port = design.add_port("si", PinDirection.INPUT, Point(0.0, 12.0))
        so_port = design.add_port("so", PinDirection.OUTPUT, Point(die.xhi, 12.0))
        prev = None
        for i in range(n_flops):
            ff = design.cell(f"ff{i}")
            design.connect(ff.pin("SE"), se)
            if prev is None:
                n_si = design.add_net("n_si")
                design.connect(si_port, n_si)
                design.connect(ff.pin("SI"), n_si)
            else:
                n = design.add_net(f"n_scan{i}")
                design.connect(prev.pin("SO"), n)
                design.connect(ff.pin("SI"), n)
            prev = ff
        n_so = design.add_net("n_so")
        design.connect(prev.pin("SO"), n_so)
        design.connect(so_port, n_so)
    return design


@pytest.fixture
def flop_row(lib) -> Design:
    return make_flop_row(lib)


@pytest.fixture
def scan_row(lib) -> Design:
    return make_flop_row(lib, func_class=DFF_R_S, name="scan_row")


def hide_scipy(monkeypatch) -> None:
    """Make every ``import scipy...`` fail for the rest of the test.

    Every loaded scipy module is hidden, not just the package: a cached
    ``scipy.optimize`` would still import with only ``scipy`` hidden.
    """
    for name in [n for n in sys.modules if n.split(".")[0] == "scipy"]:
        monkeypatch.setitem(sys.modules, name, None)
    monkeypatch.setitem(sys.modules, "scipy", None)


def compose_recording_specs(design: Design, timer, **kwargs):
    """Compose ``design`` and return ``(result, [(spec, result), ...])``.

    The list holds every :class:`~repro.core.subproblem.SubproblemSpec`
    the solve stage built, with the result the exact solver returned for
    it, so a test can re-solve each one with a reference solver.
    """
    from unittest import mock

    import repro.core.composer as composer

    solved = []
    real = composer.solve_subproblems

    def recording(specs):
        results = real(specs)
        solved.extend(zip(specs, results))
        return results

    with mock.patch.object(composer, "solve_subproblems", recording):
        result = composer.compose_design(design, timer, **kwargs)
    return result, solved
