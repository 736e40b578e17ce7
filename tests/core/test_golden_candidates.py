"""Golden candidate fixtures: enumeration must reproduce every candidate.

The grouping digests only see the candidates the ILP picked, so a change to
how groups are validated or weighed could move a losing candidate's weight,
blocker count or region without moving any digest.  These fixtures pin the
whole candidate stream instead: for D1-D5 at scale 0.25 under ``run_flow``,
one sha256 per design over every candidate that ``enumerate_candidates``
returns, in call order.  Each candidate is spelled exactly — members, bits,
``float.hex`` of the weight, blockers, the mapping (cell name, incomplete,
spare bits) and the region (``float.hex`` of the rect, plus pinned).

Regenerate with ``PYTHONPATH=src python tests/core/test_golden_candidates.py
--write``, and only when a change is meant to move candidates.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

import repro.core.composer as composer
from repro.bench import generate_design, preset
from repro.flow import run_flow
from repro.library import default_library
from repro.netlist.db import Cell

FIXTURE = Path(__file__).with_name("golden_candidates.json")
DESIGNS = ("D1", "D2", "D3", "D4", "D5")
SCALE = 0.25


def _spell(c) -> str:
    mapping = (
        None
        if c.mapping is None
        else (c.mapping.cell.name, c.mapping.incomplete, c.mapping.spare_bits)
    )
    region = (
        None
        if c.region is None
        else (
            tuple(
                float(v).hex()
                for v in (c.region.rect.xlo, c.region.rect.ylo, c.region.rect.xhi, c.region.rect.yhi)
            ),
            c.region.pinned,
        )
    )
    return repr(
        (c.members, c.bits, float(c.weight).hex(), c.blockers, mapping, region)
    )


def capture(name: str) -> dict:
    """Run the flow on one preset and digest every enumerated candidate."""
    h = hashlib.sha256()
    calls = candidates = 0
    enumerate_candidates = composer.enumerate_candidates

    def recording(*args, **kwargs):
        nonlocal calls, candidates
        out = enumerate_candidates(*args, **kwargs)
        calls += 1
        candidates += len(out)
        for c in out:
            h.update(_spell(c).encode())
            h.update(b"\n")
        h.update(b"--\n")
        return out

    bundle = generate_design(preset(name, scale=SCALE), default_library())
    composer.enumerate_candidates = recording
    try:
        run_flow(bundle.design, bundle.timer, bundle.scan_model)
    finally:
        composer.enumerate_candidates = enumerate_candidates
    return {"calls": calls, "candidates": candidates, "sha256": h.hexdigest()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("name", DESIGNS)
def test_candidates_match_golden(golden, name):
    assert capture(name) == golden[name]


def test_enumeration_reads_no_footprint_view(monkeypatch):
    """Groups are checked and weighed from register and field columns:
    a D1 flow builds no ``Cell.footprint`` inside enumeration."""
    calls = 0
    inside = False
    footprint = Cell.footprint

    def counting(cell):
        nonlocal calls
        calls += inside
        return footprint.fget(cell)

    enumerate_candidates = composer.enumerate_candidates

    def tracked(*args, **kwargs):
        nonlocal inside
        inside = True
        try:
            return enumerate_candidates(*args, **kwargs)
        finally:
            inside = False

    bundle = generate_design(preset("D1", scale=SCALE), default_library())
    monkeypatch.setattr(Cell, "footprint", property(counting))
    monkeypatch.setattr(composer, "enumerate_candidates", tracked)
    report = run_flow(bundle.design, bundle.timer, bundle.scan_model)
    assert report.composition.candidates_considered > 0
    assert calls == 0


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/core/test_golden_candidates.py --write")
    data = {name: capture(name) for name in DESIGNS}
    FIXTURE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
