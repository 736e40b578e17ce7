"""EcoSession: incremental recomposition must be bit-identical to a
from-scratch compose.

The heart of PR 3's acceptance criterion: after every localized edit of a
seeded storm, ``EcoSession.recompose()`` must yield the same composed
groups, placements, and timing summary as running
:func:`~repro.core.composer.compose_design` from scratch on a clone of
the same (edited) netlist — while actually reusing cached component
outcomes.
"""

from __future__ import annotations

import random
from dataclasses import replace

from repro.bench import generate_design, preset
from repro.check import (
    assert_clean,
    clone_world,
    compare_session_to_reference,
    scratch_compose,
)
from repro.core.composer import compose_design
from repro.flow import EcoSession
from repro.geometry import Point
from repro.sta import Timer

from tests.conftest import make_flop_row


def _random_move(design, rng, radius=3.0):
    """Pick a movable register and a clamped die position near it."""
    movable = [c for c in design.registers() if not (c.fixed or c.dont_touch)]
    cell = rng.choice(movable)
    x = min(
        max(design.die.xlo, cell.origin.x + rng.uniform(-radius, radius)),
        design.die.xhi - cell.libcell.width,
    )
    y = min(
        max(design.die.ylo, cell.origin.y + rng.uniform(-radius, radius)),
        design.die.yhi - cell.libcell.height,
    )
    return cell, Point(x, y)


class TestEcoEquivalence:
    def test_priming_compose_matches_compose_design(self, lib):
        bundle = generate_design(preset("D1", scale=0.15), lib)
        session = EcoSession(bundle.design, bundle.timer, bundle.scan_model)
        ref_result, ref_design, ref_timer = scratch_compose(session)

        stats = session.recompose()
        assert not stats.incremental

        assert_clean(
            compare_session_to_reference(
                session, stats.result, ref_result, ref_design, ref_timer
            )
        )

    def test_twenty_move_storm_stays_bit_identical(self, lib):
        bundle = generate_design(preset("D1", scale=0.15), lib)
        session = EcoSession(bundle.design, bundle.timer, bundle.scan_model)
        session.recompose()

        rng = random.Random(11)
        reused = recomputed = 0.0
        for move in range(21):
            cell, target = _random_move(session.design, rng)
            with session.edit():
                session.design.move_cell(cell, target)

            # Snapshot the edited-but-not-yet-recomposed world; the shadow
            # compose runs from scratch on that clone.
            design, timer, scan = clone_world(
                session.design, session.timer, session.scan_model
            )
            stats = session.recompose()
            assert stats.incremental
            assert stats.dirty_registers > 0
            if move >= 2:
                # Once the priming compose's own edits are absorbed, a
                # move dirties the registers on its D/Q nets and those
                # whose D/Q timing changed, not the registers that merely
                # share its reset or scan-enable net (about 60 here).
                assert stats.dirty_registers <= 10, stats.dirty_registers
            ref_result = compose_design(
                design,
                timer,
                scan,
                config=replace(session.config, passes=session.max_passes),
            )

            assert_clean(
                compare_session_to_reference(
                    session, stats.result, ref_result, design, timer
                )
            )

            r, c = stats.reuse.get("components", (0.0, 0.0))
            reused += r
            recomputed += c

        # The storm must actually exercise the cache: most components are
        # replayed from their digests, not re-enumerated.
        assert reused > 0
        assert recomputed < reused

    def test_register_frozen_by_an_edit_leaves_the_analysis(self, lib):
        # The analysis holds composable registers only: a dirty register
        # that stops being composable drops out of the cached infos and
        # graph as a removed one would, and the audit still matches a
        # scratch compose.
        bundle = generate_design(preset("D1", scale=0.1), lib)
        session = EcoSession(
            bundle.design, bundle.timer, bundle.scan_model, audit_mode=True
        )
        session.recompose()
        design = session.design
        name = next(n for n in sorted(session.cache.infos) if n in design.cells)
        cell = design.cells[name]
        x = cell.origin.x + 0.2
        if x + cell.libcell.width > design.die.xhi:
            x = cell.origin.x - 0.2
        with session.edit():
            cell.dont_touch = True
            design.move_cell(cell, Point(x, cell.origin.y))
        stats = session.recompose()
        assert stats.incremental and stats.audit_checked
        assert name in design.cells
        assert name not in session.cache.infos
        assert not session.cache.graph.has_node(name)

    def test_analyze_reports_how_many_dirty_registers_changed(self, lib):
        bundle = generate_design(preset("D1", scale=0.1), lib)
        session = EcoSession(bundle.design, bundle.timer, bundle.scan_model)
        prime = session.recompose().trace
        # Full mode: every analyzed register counts as changed.
        assert prime.counter_total("registers_changed") == prime.counter_total(
            "registers_recomputed"
        )
        assert prime.counter_total("registers_changed") > 0
        # Recompose until the priming compose's own edits are absorbed.
        for _ in range(5):
            idle = session.recompose().trace
            if idle.counter_total("registers_changed") == 0:
                break
        assert idle.counter_total("registers_changed") == 0

        # A move and its undo in one edit: the mover is re-analyzed, and
        # nothing it reads has changed.
        design = session.design
        cell = design.cells[min(session.cache.infos)]
        origin = cell.origin
        with session.edit():
            design.move_cell(cell, Point(origin.x + 0.2, origin.y))
            design.move_cell(cell, origin)
        stats = session.recompose()
        assert stats.incremental
        assert stats.trace.counter_total("registers_recomputed") >= 1
        assert stats.trace.counter_total("registers_changed") == 0

    def test_full_recompose_and_explicit_passes_are_not_incremental(self, lib):
        bundle = generate_design(preset("D1", scale=0.1), lib)
        session = EcoSession(bundle.design, bundle.timer, bundle.scan_model)
        assert not session.recompose().incremental  # priming run

        rng = random.Random(3)
        cell, target = _random_move(session.design, rng)
        with session.edit():
            session.design.move_cell(cell, target)
        assert not session.recompose(full=True).incremental

        cell, target = _random_move(session.design, rng)
        with session.edit():
            session.design.move_cell(cell, target)
        assert not session.recompose(passes=2).incremental

        cell, target = _random_move(session.design, rng)
        with session.edit():
            session.design.move_cell(cell, target)
        assert session.recompose().incremental


class TestAuditMode:
    def test_audit_shadow_checks_every_incremental_recompose(self, lib):
        bundle = generate_design(preset("D1", scale=0.1), lib)
        session = EcoSession(
            bundle.design, bundle.timer, bundle.scan_model, audit_mode=True
        )
        prime = session.recompose()
        assert not prime.audit_checked  # nothing to shadow-check yet

        rng = random.Random(5)
        for _ in range(5):
            cell, target = _random_move(session.design, rng)
            with session.edit():
                session.design.move_cell(cell, target)
            stats = session.recompose()
            # audit_mode composes a clone from scratch and raises
            # EcoAuditError on any divergence — reaching here means the
            # incremental result matched bit-for-bit.
            assert stats.incremental
            assert stats.audit_checked

    def test_audit_env_gates_the_default(self, lib, monkeypatch):
        design = make_flop_row(lib)
        timer = Timer(design, clock_period=1.0)

        monkeypatch.delenv("REPRO_ECO_AUDIT", raising=False)
        assert not EcoSession(design, timer).audit_mode

        monkeypatch.setenv("REPRO_ECO_AUDIT", "1")
        assert EcoSession(design, timer).audit_mode

        monkeypatch.setenv("REPRO_ECO_AUDIT", "0")
        assert not EcoSession(design, timer).audit_mode

        # An explicit argument always wins over the environment.
        monkeypatch.setenv("REPRO_ECO_AUDIT", "1")
        assert not EcoSession(design, timer, audit_mode=False).audit_mode
