"""Incremental STA: change-driven graph patching and dirty-cone retiming.

Every test compares the incremental timer (warm state + ``apply_change``)
against a fresh full :class:`Timer` over the same design — the contract is
bit-identical results, not approximate ones, because the dirty-cone retime
recomputes each touched node with the same arithmetic as the batch pass.
"""

from __future__ import annotations

import random

import pytest

from repro.check import assert_clean, check_timing, diff_timer_vs_fresh
from repro.geometry import Point
from repro.library.functional import DFF_R
from repro.netlist import compose_mbr
from repro.sta import Timer
from repro.sta.graph import TimingGraph
from repro.sta.timer import TimingAuditError

from tests.conftest import make_flop_row


def _assert_matches_fresh(timer: Timer, period: float) -> None:
    """The warm timer's every query equals a from-scratch timer's."""
    assert period == timer.clock_period
    assert_clean(diff_timer_vs_fresh(timer))


class TestApplyChange:
    def test_compose_retimes_incrementally(self, lib, flop_row):
        timer = Timer(flop_row, clock_period=1.0)
        timer.summary()  # warm: one full propagation
        target = lib.register_cells(DFF_R, 2)[0]
        record = compose_mbr(
            flop_row, [flop_row.cell("ff0"), flop_row.cell("ff1")], target, Point(11, 50)
        )
        timer.apply_change(record)
        _assert_matches_fresh(timer, 1.0)
        assert timer.stats.full_timings == 1
        assert timer.stats.incremental_timings == 1
        assert timer.stats.changes_applied == 1
        # The merge's cone is strictly smaller than the whole graph.
        assert 0 < timer.stats.last_retimed_nodes < timer.stats.graph_nodes

    def test_chained_composes_stay_consistent(self, lib, flop_row):
        timer = Timer(flop_row, clock_period=1.0)
        timer.summary()
        t2 = lib.register_cells(DFF_R, 2)[0]
        t4 = lib.register_cells(DFF_R, 4)[0]
        m1 = compose_mbr(flop_row, [flop_row.cell("ff0"), flop_row.cell("ff1")], t2, Point(11, 50))
        timer.apply_change(m1)
        timer.summary()
        m2 = compose_mbr(flop_row, [flop_row.cell("ff2"), flop_row.cell("ff3")], t2, Point(19, 50))
        timer.apply_change(m2)
        timer.summary()
        m4 = compose_mbr(flop_row, [m1.new_cell, m2.new_cell], t4, Point(14, 50))
        timer.apply_change(m4)
        _assert_matches_fresh(timer, 1.0)
        assert timer.stats.incremental_timings == 3

    def test_change_before_first_query_costs_nothing(self, lib, flop_row):
        # No cached graph yet: apply_change must not build one just to patch it.
        timer = Timer(flop_row, clock_period=1.0)
        target = lib.register_cells(DFF_R, 2)[0]
        record = compose_mbr(
            flop_row, [flop_row.cell("ff0"), flop_row.cell("ff1")], target, Point(11, 50)
        )
        timer.apply_change(record)
        assert timer.stats.incremental_timings == 0
        _assert_matches_fresh(timer, 1.0)
        assert timer.stats.full_timings == 1
        assert timer.stats.incremental_timings == 0

    def test_resize_retimes_incrementally(self, lib, flop_row):
        timer = Timer(flop_row, clock_period=1.0)
        timer.summary()
        ff = flop_row.cell("ff2")
        current = ff.register_cell
        options = [
            c
            for c in lib.register_cells(
                current.func_class, 1, scan_styles=(current.scan_style,)
            )
            if c.name != current.name
        ]
        if not options:
            pytest.skip("library has a single 1-bit drive for this class")
        with flop_row.track() as tracker:
            flop_row.swap_libcell(ff, options[0])
        timer.apply_change(tracker.record())
        _assert_matches_fresh(timer, 1.0)
        assert timer.stats.incremental_timings == 1

    def test_move_retimes_incrementally(self, lib, flop_row):
        timer = Timer(flop_row, clock_period=1.0)
        before = timer.register_slack(flop_row.cell("ff0")).d_slack
        with flop_row.track() as tracker:
            flop_row.move_cell(flop_row.cell("ff0"), Point(90.0, 90.0))
        timer.apply_change(tracker.record())
        _assert_matches_fresh(timer, 1.0)
        assert timer.register_slack(flop_row.cell("ff0")).d_slack < before
        assert timer.stats.incremental_timings >= 1

    def test_empty_record_is_free(self, flop_row):
        timer = Timer(flop_row, clock_period=1.0)
        timer.summary()
        with flop_row.track() as tracker:
            pass
        timer.apply_change(tracker.record())
        assert timer.stats.changes_applied == 0
        timer.summary()
        assert timer.stats.incremental_timings == 0


def _count_appended_rows(timer: Timer, record) -> int:
    """Apply ``record`` to the timer, counting the arc rows the patch
    stores (new or reused from the free list)."""
    added: list[int] = []
    add_arc = TimingGraph._add_arc

    def counting(graph, src, dst, delay, patch):
        added.append(dst)
        return add_arc(graph, src, dst, delay, patch)

    # Counted inside apply_change only: audit mode's fresh build at the
    # next query stores rows of its own.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(TimingGraph, "_add_arc", counting)
        timer.apply_change(record)
    return len(added)


class TestMoveCost:
    """A move re-delays the moved cell's own arcs, not its nets' other sinks.

    Every register of the row shares one reset net.  Moving one register
    must not rebuild the reset net's arcs to the other registers, and
    their reset pins' timing is not register timing, so none of them may
    read as changed: both the patch and the ripple report stay the same
    size as the row grows.
    """

    @staticmethod
    def _move_ff0(lib, n: int) -> tuple[int, set[str] | None]:
        design = make_flop_row(lib, n_flops=n, spacing=1.0)
        timer = Timer(design, clock_period=1.0, audit_mode=True)
        timer.summary()
        assert timer.drain_changed_cells() is None  # the full-timing epoch
        ff0 = design.cell("ff0")
        with design.track() as tracker:
            design.move_cell(ff0, Point(ff0.origin.x + 0.5, ff0.origin.y))
        rows = _count_appended_rows(timer, tracker.record())
        # Draining retimes, and audit mode checks the retime against a
        # from-scratch build.
        return rows, timer.drain_changed_cells()

    def test_move_cost_does_not_grow_with_the_reset_fanout(self, lib):
        small = self._move_ff0(lib, 8)
        large = self._move_ff0(lib, 64)
        assert small == large
        assert small[1] == {"ff0"}


class TestComposeCost:
    """A compose patches the arcs it changed, not its nets' other sinks.

    Merging ``ff0`` and ``ff1`` rewires the reset net the whole row shares,
    but its driver stays: the graph keeps the rows to the registers that
    stayed and stores only the new arcs' rows, so the count stays the same
    as the row grows.
    """

    @staticmethod
    def _merge_ff0_ff1(lib, n: int) -> int:
        design = make_flop_row(lib, n_flops=n, spacing=0.2)
        timer = Timer(design, clock_period=1.0, audit_mode=True)
        timer.summary()
        target = lib.register_cells(DFF_R, 2)[0]
        record = compose_mbr(
            design, [design.cell("ff0"), design.cell("ff1")], target, Point(10.0, 50.0)
        )
        rows = _count_appended_rows(timer, record)
        timer.summary()  # retime, shadow-checked against a fresh build
        return rows

    def test_compose_patch_does_not_grow_with_the_reset_fanout(self, lib):
        small = self._merge_ff0_ff1(lib, 8)
        large = self._merge_ff0_ff1(lib, 64)
        assert small == large > 0


class TestRecycledPinSlots:
    """A freed pin block goes to the next cell of the same pin count.

    Timing nodes are keyed by pin slot, so a cell added (or a libcell
    swapped) in the same edit that frees a block takes over node ids that
    were live a moment before.  The patched timer must treat them as new
    terminals: the audited retime agrees with a from-scratch build, the
    dead cell's pin views read as absent, and the new pins read what a
    fresh timer reads.
    """

    @staticmethod
    def _warm(design):
        timer = Timer(design, clock_period=1.0, audit_mode=True)
        timer.summary()
        timer.hold_summary()
        return timer

    @staticmethod
    def _assert_recycled(design, timer, record, old_pins, new_cell):
        for old in old_pins:
            assert type(old).__name__ == "_DetachedPin"
        assert [p._tid for p in old_pins] == [
            new_cell.pin(p.name)._tid for p in old_pins
        ], "the edit must reuse the freed pin block"
        timer.apply_change(record)
        timer.summary()  # the audited retime
        assert_clean(check_timing(timer))
        for old in old_pins:
            assert timer.slack_at(old) is None
            assert timer.arrival_at(old) is None
        fresh = Timer(design, clock_period=1.0)
        for pin in (new_cell.pin("D"), new_cell.pin("Q")):
            assert timer.slack_at(pin) is not None
            assert timer.slack_at(pin) == fresh.slack_at(pin)
        assert timer.register_slack(new_cell) == fresh.register_slack(new_cell)
        _assert_matches_fresh(timer, 1.0)

    @pytest.mark.parametrize("in_place", [False, True], ids=["moved", "in-place"])
    def test_added_cell_reuses_a_removed_registers_pins(self, flop_row, in_place):
        timer = self._warm(flop_row)
        ff0 = flop_row.cell("ff0")
        old_pins = [ff0.pin(name) for name in ("D", "Q", "CK", "RN")]
        # In place, the recycled Q slot drives ff0's old Q net from the same
        # spot: the graph keeps its arcs and the slot keeps its values.
        origin = ff0.origin if in_place else Point(30.0, 60.0)
        with flop_row.track() as tracker:
            libcell = ff0.libcell
            flop_row.remove_cell(ff0)
            new = flop_row.add_cell("ffx", libcell, origin)
            # D moves to ff1's Q net; Q takes over ff0's old Q net, so the
            # recycled Q slot drives the same net from a new place.
            flop_row.connect(new.pin("D"), "n_q1")
            flop_row.connect(new.pin("Q"), "n_q0")
            flop_row.connect(new.pin("CK"), "clk")
            flop_row.connect(new.pin("RN"), "rst")
        self._assert_recycled(flop_row, timer, tracker.record(), old_pins, new)

    def test_swapped_libcell_reuses_its_own_pins(self, lib, flop_row):
        timer = self._warm(flop_row)
        ff0 = flop_row.cell("ff0")
        old_pins = [ff0.pin(name) for name in ("D", "Q", "CK", "RN")]
        target = next(
            c for c in lib.register_cells(DFF_R, 1) if c.name != ff0.libcell.name
        )
        with flop_row.track() as tracker:
            flop_row.swap_libcell(ff0, target)
            flop_row.connect(ff0.pin("D"), "n_q1")
        self._assert_recycled(flop_row, timer, tracker.record(), old_pins, ff0)


class TestSkewLifecycle:
    def test_removed_cell_skew_purged(self, lib, flop_row):
        timer = Timer(flop_row, clock_period=1.0)
        timer.set_skew("ff0", 0.1)
        timer.set_skew("ff2", 0.05)
        target = lib.register_cells(DFF_R, 2)[0]
        record = compose_mbr(
            flop_row, [flop_row.cell("ff0"), flop_row.cell("ff1")], target, Point(11, 50)
        )
        timer.apply_change(record)
        # ff0 died with the merge; its offset must not lie in wait for a
        # future cell that reuses the name.  ff2 survives untouched.
        assert "ff0" not in timer.skew
        assert timer.skew == {"ff2": 0.05}
        _assert_matches_fresh(timer, 1.0)

    def test_zero_skew_on_unskewed_register_is_noop(self, flop_row):
        timer = Timer(flop_row, clock_period=1.0)
        timer.summary()
        timer.set_skew("ff0", 0.0)
        assert "ff0" not in timer.skew
        timer.summary()
        assert timer.stats.full_timings == 1
        assert timer.stats.incremental_timings == 0

    def test_repeated_skew_is_noop(self, flop_row):
        timer = Timer(flop_row, clock_period=1.0)
        timer.set_skew("ff1", 0.07)
        timer.summary()
        timer.set_skews({"ff1": 0.07, "ff0": 0.0})
        timer.summary()
        assert timer.stats.incremental_timings == 0

    def test_skew_change_retimes_only_cones(self, flop_row):
        timer = Timer(flop_row, clock_period=1.0)
        timer.summary()
        timer.set_skew("ff0", 0.1)
        _assert_matches_fresh(timer, 1.0)
        assert timer.stats.incremental_timings == 1
        assert 0 < timer.stats.last_retimed_nodes < timer.stats.graph_nodes

    def test_skew_then_removal_then_reuse_of_name(self, lib, flop_row):
        # The sharpest version of the stale-skew hazard: merge ff0+ff1, then
        # name the *next* merge's cell "ff0".  Its timing must be skew-free.
        timer = Timer(flop_row, clock_period=1.0)
        timer.set_skew("ff0", 0.3)
        timer.summary()
        target = lib.register_cells(DFF_R, 2)[0]
        timer.apply_change(
            compose_mbr(
                flop_row,
                [flop_row.cell("ff0"), flop_row.cell("ff1")],
                target,
                Point(11, 50),
            )
        )
        timer.apply_change(
            compose_mbr(
                flop_row,
                [flop_row.cell("ff2"), flop_row.cell("ff3")],
                target,
                Point(19, 50),
                name="ff0",
            )
        )
        assert timer.skew == {}
        _assert_matches_fresh(timer, 1.0)


class TestAuditMode:
    def test_audit_passes_on_tracked_edits(self, lib, flop_row):
        timer = Timer(flop_row, clock_period=1.0, audit_mode=True)
        timer.summary()
        target = lib.register_cells(DFF_R, 2)[0]
        timer.apply_change(
            compose_mbr(
                flop_row,
                [flop_row.cell("ff0"), flop_row.cell("ff1")],
                target,
                Point(11, 50),
            )
        )
        timer.set_skew("mbr_ff0" if "mbr_ff0" in flop_row.cells else "ff2", 0.05)
        timer.summary()  # audits silently when incremental == full

    def test_audit_catches_untracked_edit(self, flop_row):
        # Mutate the design behind the timer's back, then make a legitimate
        # tracked change: the audit's from-scratch rebuild sees the sneaky
        # move, the patched graph doesn't, and the divergence is reported.
        timer = Timer(flop_row, clock_period=1.0, audit_mode=True)
        timer.summary()
        flop_row.cell("ff3").move_to(Point(95.0, 95.0))  # untracked!
        timer.set_skew("ff0", 0.1)
        with pytest.raises(TimingAuditError):
            timer.summary()

    def test_env_var_enables_audit(self, flop_row, monkeypatch):
        monkeypatch.setenv("REPRO_STA_AUDIT", "1")
        assert Timer(flop_row, clock_period=1.0).audit_mode
        monkeypatch.setenv("REPRO_STA_AUDIT", "0")
        assert not Timer(flop_row, clock_period=1.0).audit_mode


class TestRandomizedEditSequence:
    """Satellite: a seeded D1 edit storm, equivalence-checked every step.

    The edits come from the shared :mod:`repro.check.fuzz` proposers (the
    same ops the ``repro check`` storm runner draws), applied through an
    :class:`~repro.flow.session.EcoSession` so the timer is patched the
    way the production flow patches it; after every op the shared
    incremental-vs-fresh oracle must report nothing.
    """

    def test_d1_edit_sequence_matches_fresh_timer(self, lib):
        from repro.bench import generate_design, preset
        from repro.check.fuzz import EditWorld, apply_op, propose_op
        from repro.flow.session import EcoSession

        bundle = generate_design(preset("D1", scale=0.1), lib)
        timer = bundle.timer
        world = EditWorld(
            EcoSession(bundle.design, timer, bundle.scan_model)
        )
        rng = random.Random(20170618)
        timer.summary()  # warm

        applied = 0
        for _ in range(14):
            op = propose_op(world, rng)
            if op is not None and apply_op(world, op):
                applied += 1
            _assert_matches_fresh(timer, bundle.clock_period)
        assert applied >= 10  # the storm actually exercised the edit paths
        # The whole sequence ran incrementally: one warm-up full propagation,
        # every edit absorbed by dirty-cone retimes.
        assert timer.stats.full_timings == 1
        assert timer.stats.incremental_timings >= applied // 2
