"""Per-register useful-skew computation and iterative assignment."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.netlist.db import Cell
from repro.sta.timer import Timer


@dataclass
class SkewAssignment:
    """Result of a useful-skew pass."""

    offsets: dict[str, float] = field(default_factory=dict)
    wns_before: float = 0.0
    wns_after: float = 0.0

    @property
    def improved(self) -> bool:
        return self.wns_after > self.wns_before + 1e-12


def optimal_skew(d_slack: float, q_slack: float, window: float) -> float:
    """The clock offset maximizing ``min(d_slack + s, q_slack - s)``.

    The unconstrained optimum is ``s* = (q_slack - d_slack) / 2`` — it
    equalizes both sides; clamping to ``[-window, +window]`` models the
    bounded skew CTS can realize.  Unconstrained sides (infinite slack)
    yield the offset that centres the finite side at zero cost, pushing the
    full window toward the violating side.
    """
    if math.isinf(d_slack) and math.isinf(q_slack):
        return 0.0
    if math.isinf(d_slack):
        # Only Q constrained: reduce clock arrival as much as helps (s < 0
        # improves q' = q - s), limited by the window.
        return -window if q_slack < 0 else max(-window, min(0.0, -q_slack / 2))
    if math.isinf(q_slack):
        return window if d_slack < 0 else min(window, max(0.0, -d_slack / 2))
    s = (q_slack - d_slack) / 2.0
    # Never push a currently non-violating side negative: trading a met
    # endpoint for an unmet one would *increase* the failing-endpoint count
    # even when it improves the local min (possible when d + q < 0).
    if q_slack >= 0.0:
        s = min(s, q_slack)
    if d_slack >= 0.0:
        s = max(s, -d_slack)
    return max(-window, min(window, s))


def assign_useful_skew(
    timer: Timer,
    cells: list[Cell],
    window: float = 0.05,
    iterations: int = 2,
) -> SkewAssignment:
    """Assign useful-skew offsets to ``cells`` and apply them to the timer.

    Each iteration re-times, computes every cell's D/Q slack pair, and moves
    its offset toward the per-cell optimum.  A couple of iterations suffice:
    offsets interact only through register-to-register paths, and the paper
    applies skew locally to the newly composed MBRs.

    The final offsets are left installed in ``timer.skew``; the returned
    assignment records them along with the WNS before/after.
    """
    result = SkewAssignment(wns_before=timer.summary().wns)
    for _ in range(max(1, iterations)):
        # Batch per iteration: all slacks come from one timing state, all
        # offsets install together with a single invalidation — a Jacobi
        # sweep instead of per-register full re-timing.
        updates: dict[str, float] = {}
        for cell in cells:
            rs = timer.register_slack(cell)
            base = timer.skew.get(cell.name, 0.0)
            target = base + optimal_skew(rs.d_slack, rs.q_slack, window)
            target = max(-window, min(window, target))
            if abs(target - base) > 1e-12:
                updates[cell.name] = target
        if not updates:
            break
        timer.set_skews(updates)
    result.offsets = {c.name: timer.skew.get(c.name, 0.0) for c in cells}
    result.wns_after = timer.summary().wns
    return result
