"""repro.check: invariant checkers, differential oracles, edit-storm fuzzing.

Three layers, all returning typed :class:`Violation` lists instead of
raising, so callers decide what is fatal:

* :mod:`repro.check.invariants` — pure structural checkers
  (``check_design`` / ``check_timing`` / ``check_scan`` /
  ``check_composition``);
* :mod:`repro.check.oracles` — differential oracles pitting each fast
  path against a from-scratch reference;
* :mod:`repro.check.fuzz` — the seeded edit-storm fuzzer behind
  ``repro check``, with deterministic JSON reproducers.

:mod:`repro.check.strategies` adds Hypothesis generators for the property
tests; it is the only part that needs ``hypothesis`` installed.
"""

from repro.check.invariants import (
    CheckError,
    Violation,
    assert_clean,
    check_all,
    check_composition,
    check_design,
    check_scan,
    check_timing,
    format_violations,
)
from repro.check.oracles import (
    bit_connectivity_signature,
    clone_world,
    compare_session_to_reference,
    composition_signature,
    diff_timer_vs_fresh,
    grouping_signature,
    hold_signature,
    placement_signature,
    scratch_compose,
    timing_signature,
)

__all__ = [
    "CheckError",
    "Violation",
    "assert_clean",
    "bit_connectivity_signature",
    "check_all",
    "check_composition",
    "check_design",
    "check_scan",
    "check_timing",
    "clone_world",
    "compare_session_to_reference",
    "composition_signature",
    "diff_timer_vs_fresh",
    "format_violations",
    "grouping_signature",
    "hold_signature",
    "placement_signature",
    "scratch_compose",
    "timing_signature",
]
