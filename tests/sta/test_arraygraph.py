"""Array timing kernel vs the per-node reference sweeps: bit-identical, always.

The CSR-backed :class:`~repro.sta.arraygraph.ArrayKernel` is the timer's
only propagation engine.  The plain-Python sweeps ``Timer._full_state``
(arrival/required) and ``Timer._min_arrivals`` (earliest arrival) stay as
the reference that audit mode (``REPRO_STA_AUDIT``) compares every patched
query against.  These tests pin the kernel's full sweeps, graph patching,
and masked dirty-cone retimes to that reference.
"""

from __future__ import annotations

import random

from repro.check import assert_clean, diff_timer_vs_fresh
from repro.check.oracles import hold_signature, timing_signature
from repro.geometry import Point
from repro.library.functional import DFF_R
from repro.netlist import compose_mbr
from repro.sta import Timer


def _assert_state_matches_reference(timer: Timer) -> None:
    """The kernel-written state equals the reference sweeps over the
    timer's own graph, key for key and bit for bit."""
    st = timer._state
    ref = timer._full_state(timer.graph)
    assert st.arrival == ref.arrival
    assert st.required == ref.required
    if st.arrival_min is not None:
        assert st.arrival_min == timer._min_arrivals(timer.graph)


def _merge_ff0_ff1(lib, design):
    target = lib.register_cells(DFF_R, 2)[0]
    return compose_mbr(
        design, [design.cell("ff0"), design.cell("ff1")], target, Point(11, 50)
    )


class TestArrayVsDictEquivalence:
    def test_full_timing_matches(self, flop_row):
        timer = Timer(flop_row, clock_period=1.0)
        timer.summary()
        _assert_state_matches_reference(timer)
        timer.hold_summary()
        assert timer._state.arrival_min == timer._min_arrivals(timer.graph)

    def test_summary_values_match_exactly(self, flop_row):
        timer = Timer(flop_row, clock_period=1.0)
        summary = timer.summary()
        g = timer.graph
        ref = timer._full_state(g)
        name = flop_row.store.terminal_name
        endpoints = sorted(
            (name(tid), tid) for tid in (*g.capture_by_id, *g.output_ports)
        )
        slacks = [
            ref.required[tid] - ref.arrival[tid]
            for _name, tid in endpoints
            if tid in ref.arrival
        ]
        assert summary.wns == min(slacks)
        assert summary.tns == sum(s for s in slacks if s < 0.0)
        assert summary.total_endpoints == len(slacks)

    def test_incremental_retime_matches_after_compose(self, lib, flop_row):
        timer = Timer(flop_row, clock_period=1.0, audit_mode=True)
        timer.summary()
        timer.hold_summary()
        timer.apply_change(_merge_ff0_ff1(lib, flop_row))
        timer.update()  # the audited retime
        _assert_state_matches_reference(timer)
        assert_clean(diff_timer_vs_fresh(timer))
        assert timer.stats.incremental_timings == 1

    def test_move_storm_stays_identical(self, flop_row):
        timer = Timer(flop_row, clock_period=1.0, audit_mode=True)
        timer.summary()
        timer.hold_summary()
        rng = random.Random(3)
        cells = [c for c in flop_row.cells.values() if not c.is_register]
        for step in range(12):
            cell = rng.choice(cells)
            with flop_row.track() as tracker:
                flop_row.move_cell(
                    cell,
                    Point(
                        min(max(0.0, cell.origin.x + rng.uniform(-8, 8)), 90.0),
                        min(max(0.0, cell.origin.y + rng.uniform(-8, 8)), 90.0),
                    ),
                )
            timer.apply_change(tracker.record())
            if step % 4 == 0:
                timer.summary()
        timer.update()
        _assert_state_matches_reference(timer)
        assert_clean(diff_timer_vs_fresh(timer))
        assert timer.stats.kernel_sweeps > 0
        assert timer.stats.incremental_timings > 0


class TestRetimedValueTypes:
    def test_retimed_slacks_are_python_floats(self, lib, flop_row):
        """Retimed values are stored as Python floats, as a full sweep's
        are, so ``repr``-based digests do not depend on which nodes a
        retime happened to touch."""
        timer = Timer(flop_row, clock_period=1.0)
        timer.summary()
        timer.hold_summary()  # arrival_min is then retimed with the rest
        timer.apply_change(_merge_ff0_ff1(lib, flop_row))
        assert timer.stats.incremental_timings == 0
        setup, hold = timing_signature(timer), hold_signature(timer)
        assert timer.stats.incremental_timings == 1
        fresh = Timer(flop_row.clone(), clock_period=1.0)
        for got, want in (
            (setup, timing_signature(fresh)),
            (hold, hold_signature(fresh)),
        ):
            assert got
            assert all(type(v) is float for v in got.values())
            assert repr(sorted(got.items())) == repr(sorted(want.items()))
