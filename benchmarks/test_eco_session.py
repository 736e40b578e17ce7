"""ECO-session benchmark: incremental recompose vs from-scratch compose.

A seeded storm of localized register moves on D1; after every move the
session recomposes incrementally while a clone of the same edited netlist
is composed from scratch.  Acceptance (PR 3): the incremental path must
re-enumerate fewer than 30% of the compatibility components and win at
least 3x in wall clock over the storm, while staying bit-identical on the
composed groups.
"""

from __future__ import annotations

import random
import time
from dataclasses import replace

from benchmarks.conftest import BENCH_SCALE
from repro.bench import generate_design, preset
from repro.check import clone_world, composition_signature
from repro.core.composer import compose_design
from repro.flow import EcoSession
from repro.geometry import Point, clamp_to_die

# Below ~0.4 the designs are small enough that per-move fixed costs mask
# the cache win; the acceptance numbers are calibrated at 0.6.
ECO_SCALE = max(BENCH_SCALE, 0.6)
MOVES = 20
RADIUS = 3.0
SEED = 11


def test_eco_storm_reuses_components_and_beats_scratch(lib):
    bundle = generate_design(preset("D1", scale=ECO_SCALE), lib)
    session = EcoSession(bundle.design, bundle.timer, bundle.scan_model)
    session.recompose()  # priming compose: warm cache, steady-state netlist

    rng = random.Random(SEED)
    reused = recomputed = 0.0
    eco_seconds = scratch_seconds = 0.0
    for _ in range(MOVES):
        movable = [
            c
            for c in session.design.registers()
            if not (c.fixed or c.dont_touch)
        ]
        cell = rng.choice(movable)
        x, y = clamp_to_die(
            session.design.die,
            cell.libcell.width,
            cell.libcell.height,
            cell.origin.x + rng.uniform(-RADIUS, RADIUS),
            cell.origin.y + rng.uniform(-RADIUS, RADIUS),
        )
        with session.edit():
            session.design.move_cell(cell, Point(x, y))

        # Shadow world: the same edited netlist, composed from scratch.
        ref_design, ref_timer, ref_scan = clone_world(
            session.design, session.timer, session.scan_model
        )
        t0 = time.perf_counter()
        ref_result = compose_design(
            ref_design,
            ref_timer,
            ref_scan,
            config=replace(session.config, passes=session.max_passes),
        )
        scratch_seconds += time.perf_counter() - t0

        t0 = time.perf_counter()
        stats = session.recompose()
        eco_seconds += time.perf_counter() - t0

        assert stats.incremental
        assert composition_signature(stats.result) == composition_signature(ref_result)
        r, c = stats.reuse.get("components", (0.0, 0.0))
        reused += r
        recomputed += c

    fraction = recomputed / (reused + recomputed)
    speedup = scratch_seconds / eco_seconds
    print(
        f"\neco storm (D1 scale {ECO_SCALE}, {MOVES} moves): "
        f"{fraction:.1%} components re-enumerated, "
        f"{speedup:.1f}x over from-scratch "
        f"({scratch_seconds:.2f}s scratch vs {eco_seconds:.2f}s eco)"
    )

    assert fraction < 0.30
    assert speedup >= 3.0
