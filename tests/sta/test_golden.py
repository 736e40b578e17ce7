"""Golden timing fixtures: today's slacks must reproduce bit for bit.

The incremental-vs-fresh oracles compare a timer with a fresh build of the
same code, so a change to how the graph is built would pass them while
moving every slack.  These fixtures pin the numbers themselves, captured
once from a known-good build:

* the paper example (Figs. 1-2) at a 5 ns clock: full setup and hold slack
  maps;
* D1 at scale 0.25 right after ``generate_design``: the timing summary and
  sha256 digests of the name-sorted setup and hold slack maps;
* the same design after ``run_flow``, read from the flow's own
  (incrementally patched) timer.

Slacks are compared as exact binary floats (``float.hex``), whatever float
type a kernel hands back.  Regenerate with
``PYTHONPATH=src python tests/sta/test_golden.py --write``, and only when a
change is meant to move timing.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.bench import build_paper_example, generate_design, preset
from repro.check.oracles import hold_signature, timing_signature
from repro.flow import run_flow
from repro.library import default_library
from repro.sta import Timer

FIXTURE = Path(__file__).with_name("golden_timing.json")
PAPER_PERIOD = 5.0
D1_SCALE = 0.25


def _floats(signature: dict[str, float]) -> dict[str, float]:
    return {name: float(slack) for name, slack in signature.items()}


def _digest(signature: dict[str, float]) -> str:
    items = sorted(_floats(signature).items())
    return hashlib.sha256(repr(items).encode()).hexdigest()


def _bits(value):
    """``value`` with every float spelled exactly (``float.hex``)."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {k: _bits(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_bits(v) for v in value]
    return value


def capture_paper_example() -> dict:
    design = build_paper_example(default_library())
    timer = Timer(design, clock_period=PAPER_PERIOD)
    return {
        "timing": _floats(timing_signature(timer)),
        "hold": _floats(hold_signature(timer)),
    }


def capture_d1() -> dict:
    bundle = generate_design(preset("D1", scale=D1_SCALE), default_library())
    s = bundle.timer.summary()
    generated = {
        "summary": [float(s.wns), float(s.tns), s.failing_endpoints, s.total_endpoints],
        "timing": _digest(timing_signature(bundle.timer)),
        "hold": _digest(hold_signature(bundle.timer)),
    }
    run_flow(bundle.design, bundle.timer, bundle.scan_model)
    flowed = {
        "timing": _digest(timing_signature(bundle.timer)),
        "hold": _digest(hold_signature(bundle.timer)),
    }
    return {"generated": generated, "after_flow": flowed}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


def test_paper_example_slacks_match_golden(golden):
    assert _bits(capture_paper_example()) == _bits(golden["paper_example"])


def test_d1_slacks_match_golden(golden):
    assert _bits(capture_d1()) == _bits(golden["d1"])


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/sta/test_golden.py --write")
    data = {"paper_example": capture_paper_example(), "d1": capture_d1()}
    FIXTURE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
