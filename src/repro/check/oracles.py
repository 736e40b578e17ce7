"""Differential oracles: fast path vs from-scratch reference.

Each of the repo's two fast paths (dirty-cone incremental STA and
digest-keyed ECO recomposition) promises *bit-identical* results to a
from-scratch recompute.  These oracles make that promise checkable from
anywhere — property tests, the edit-storm fuzzer, the CLI — by cloning
the world, running the slow reference, and diffing signatures.  Like the
invariant checkers, they report :class:`~repro.check.invariants.Violation`
lists instead of raising, so one storm can surface every divergence at
once.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING

from repro.check.invariants import Violation
from repro.netlist.design import Design
from repro.netlist.registers import RegisterView
from repro.scan.model import ScanModel
from repro.sta.timer import Timer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.composer import CompositionResult
    from repro.flow.session import EcoSession


# ---------------------------------------------------------------------------
# Signatures: order-stable, comparable summaries of a world's state
# ---------------------------------------------------------------------------


def composition_signature(result: "CompositionResult") -> list[tuple]:
    """Composed groups in application order: the ECO-equivalence currency."""
    return [
        (g.new_cell, g.libcell, tuple(g.members), g.bits) for g in result.composed
    ]


def grouping_signature(result: "CompositionResult") -> list[tuple]:
    """Name-free group signature (member sets + QoR fields).

    Used where new-cell *names* may legitimately differ — e.g. comparing
    two from-scratch composes of independently generated (but identical)
    designs, or translation-invariance checks.
    """
    return [
        (frozenset(g.members), g.weight, g.bits, g.libcell, g.incomplete)
        for g in result.composed
    ]


def placement_signature(design: Design) -> dict[str, tuple[str, float, float]]:
    """Every cell's libcell and exact origin — bit-identical or bust."""
    return {
        name: (c.libcell.name, c.origin.x, c.origin.y)
        for name, c in design.cells.items()
    }


def timing_signature(timer: Timer) -> dict[str, float]:
    """Endpoint name -> setup slack (name-sorted upstream, dict here)."""
    return {e.name: e.slack for e in timer.endpoint_slacks()}


def hold_signature(timer: Timer) -> dict[str, float]:
    return {e.name: e.slack for e in timer.hold_slacks()}


def bit_connectivity_signature(design: Design) -> list[tuple]:
    """Cell-name-free connectivity of every connected register bit.

    One tuple per connected bit: its data nets, clock net, and control
    nets.  Scan nets are excluded — composition and decomposition restitch
    the scan chain through fresh nets by design, so scan connectivity is
    checked structurally by ``check_scan`` instead.  Two netlists with
    equal signatures hold the same registered state under the same
    clocking and control, which is what "compose then decompose yields an
    equivalent netlist" means.
    """
    sig: list[tuple] = []
    for cell in design.registers():
        view = RegisterView(cell)
        controls = tuple(
            sorted(
                (name, net.name if net is not None else None)
                for name, net in view.control_nets().items()
            )
        )
        clock = view.clock_net.name if view.clock_net is not None else None
        for bit in view.connected_bits():
            sig.append(
                (
                    bit.d_net.name if bit.d_net is not None else None,
                    bit.q_net.name if bit.q_net is not None else None,
                    clock,
                    controls,
                )
            )
    sig.sort(key=repr)
    return sig


# ---------------------------------------------------------------------------
# World cloning and references
# ---------------------------------------------------------------------------


def clone_world(
    design: Design, timer: Timer, scan_model: ScanModel | None = None
) -> tuple[Design, Timer, ScanModel | None]:
    """An independent copy of (design, timer, scan) sharing nothing mutable.

    The cloned timer is cold (fresh full propagation on first query) and
    never audits — it *is* the reference.
    """
    clone = design.clone()
    fresh = Timer(
        clone,
        timer.clock_period,
        skew=dict(timer.skew),
        input_delay=timer.input_delay,
        output_delay=timer.output_delay,
        technology=timer.tech,
        audit_mode=False,
    )
    scan = scan_model.clone() if scan_model is not None else None
    return clone, fresh, scan


def scratch_compose(
    session: "EcoSession",
) -> tuple["CompositionResult", Design, Timer]:
    """From-scratch :func:`compose_design` on a clone of the session's world.

    Uses the session's own config with ``passes`` pinned to its
    ``max_passes`` — the same totals an incremental recompose converges to.
    Returns ``(result, design, timer)`` of the reference world.
    """
    from repro.core.composer import compose_design

    design, timer, scan = clone_world(
        session.design, session.timer, session.scan_model
    )
    result = compose_design(
        design,
        timer,
        scan,
        config=replace(session.config, passes=session.max_passes),
    )
    return result, design, timer


# ---------------------------------------------------------------------------
# Differential oracles
# ---------------------------------------------------------------------------


def _diff_map(check: str, subject: str, live: dict, ref: dict) -> list[Violation]:
    """Key-by-key diff of two signature maps (bit-exact)."""
    if live == ref:
        return []
    keys = sorted(
        k for k in live.keys() | ref.keys() if live.get(k) != ref.get(k)
    )
    detail = ", ".join(
        f"{k}: {live.get(k)!r} vs {ref.get(k)!r}" for k in keys[:5]
    )
    return [
        Violation(
            check,
            subject,
            f"{len(keys)} entr(y/ies) diverge from the reference: {detail}",
        )
    ]


def _diff_timers(check: str, timer: Timer, ref: Timer) -> list[Violation]:
    """Bit-exact comparison of two timers on every query surface."""
    out: list[Violation] = []
    out += _diff_map(
        check,
        "endpoint slacks",
        timing_signature(timer),
        timing_signature(ref),
    )
    out += _diff_map(
        check,
        "hold slacks",
        hold_signature(timer),
        hold_signature(ref),
    )
    if timer.summary() != ref.summary():
        out.append(
            Violation(
                check,
                "setup summary",
                f"{timer.summary()} vs reference {ref.summary()}",
            )
        )
    if timer.hold_summary() != ref.hold_summary():
        out.append(
            Violation(
                check,
                "hold summary",
                f"{timer.hold_summary()} vs reference {ref.hold_summary()}",
            )
        )
    return out


def diff_timer_vs_fresh(timer: Timer) -> list[Violation]:
    """Incremental STA == fresh-timer rebuild, on every query surface.

    Clones the design so the reference cannot perturb the live timer, then
    compares endpoint slacks, hold slacks, and both summaries bit-exactly.
    """
    _, fresh, _ = clone_world(timer.design, timer)
    return _diff_timers("sta-incremental-vs-fresh", timer, fresh)


def compare_session_to_reference(
    session: "EcoSession",
    live_result: "CompositionResult",
    ref_result: "CompositionResult",
    ref_design: Design,
    ref_timer: Timer,
) -> list[Violation]:
    """``EcoSession.recompose`` == from-scratch compose, bit for bit.

    The reference must be captured from a clone taken *before* the live
    recompose (the recompose mutates the session's world)::

        ref, ref_design, ref_timer = scratch_compose(session)  # pre-recompose
        stats = session.recompose()
        violations = compare_session_to_reference(
            session, stats.result, ref, ref_design, ref_timer)
    """
    out: list[Violation] = []
    if composition_signature(live_result) != composition_signature(ref_result):
        out.append(
            Violation(
                "eco-session-vs-scratch",
                "composed groups",
                f"{len(live_result.composed)} live vs "
                f"{len(ref_result.composed)} reference groups, or "
                "differing names/members/widths",
            )
        )
    out += _diff_map(
        "eco-session-vs-scratch",
        "placements",
        placement_signature(session.design),
        placement_signature(ref_design),
    )
    live_sum, ref_sum = session.timer.summary(), ref_timer.summary()
    if (live_sum.wns, live_sum.tns) != (ref_sum.wns, ref_sum.tns):
        out.append(
            Violation(
                "eco-session-vs-scratch",
                "timing summary",
                f"live wns/tns {live_sum.wns}/{live_sum.tns} vs reference "
                f"{ref_sum.wns}/{ref_sum.tns}",
            )
        )
    return out
