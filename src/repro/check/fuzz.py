"""Edit-storm fuzzer: seeded random edits, every invariant checked.

Drives an :class:`~repro.flow.session.EcoSession` through storms of
randomized edits (moves, sizings, manual merges, decompositions, rewires,
skew changes), recomposing after each storm with the session's audit mode
armed, and running the full invariant + differential-oracle suite on the
result.  Every proposed edit is recorded as a *concrete* operation — cell
names, coordinates, net names — so a failing run dumps a reproducer JSON
(schema ``repro.check.reproducer/1``) that :func:`replay` re-executes
deterministically without any random state.

Determinism rules the design of the op format:

* proposal consumes the RNG, application never does — replay applies the
  recorded ops directly;
* names minted during application (composed MBRs, decomposed bits) come
  from the design's own ``unique_name`` counter, which evolves identically
  on replay; the fuzzer annotates the minted names onto the op and replay
  asserts they match, so any nondeterminism is itself a detected failure.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from repro import obs
from repro.check.invariants import Violation, check_all, format_violations
from repro.check.oracles import diff_timer_vs_fresh
from repro.flow.session import EcoAuditError, EcoSession
from repro.geometry import Point, clamp_to_die
from repro.library.library import CellLibrary
from repro.netlist.db import Pin, Port
from repro.netlist.design import Design
from repro.netlist.edit import ComposeError, compose_mbr
from repro.netlist.registers import RegisterView

REPRODUCER_SCHEMA = "repro.check.reproducer/1"

#: Edit kinds the proposal loop draws from (weights implicit: uniform).
OP_KINDS = ("move", "swap", "merge", "decompose", "rewire", "skew")

_SKEW_OFFSETS = (0.0, 0.02, 0.05, -0.03, 0.1)


@dataclass
class EditWorld:
    """The mutable state one storm edits: a session plus its parts."""

    session: EcoSession

    @property
    def design(self) -> Design:
        return self.session.design

    @property
    def timer(self):
        return self.session.timer

    @property
    def scan_model(self):
        return self.session.scan_model


# ---------------------------------------------------------------------------
# Proposal: RNG -> concrete op dict (or None when the kind has no candidate)
# ---------------------------------------------------------------------------


def _editable_registers(design: Design) -> list:
    return sorted(
        (c for c in design.registers() if not (c.fixed or c.dont_touch)),
        key=lambda c: c.name,
    )


def _propose_move(world: EditWorld, rng: random.Random) -> dict | None:
    regs = _editable_registers(world.design)
    if not regs:
        return None
    cell = rng.choice(regs)
    x, y = clamp_to_die(
        world.design.die,
        cell.libcell.width,
        cell.libcell.height,
        cell.origin.x + rng.uniform(-4.0, 4.0),
        cell.origin.y + rng.uniform(-4.0, 4.0),
    )
    return {"op": "move", "cell": cell.name, "x": x, "y": y}


def _propose_swap(world: EditWorld, rng: random.Random) -> dict | None:
    regs = _editable_registers(world.design)
    die = world.design.die
    rng.shuffle(regs)
    for cell in regs:
        current = cell.register_cell
        options = [
            c
            for c in world.design.library.register_cells(
                current.func_class,
                current.width_bits,
                scan_styles=(current.scan_style,),
            )
            if c.name != current.name
            # a wider drive variant must still fit at the current origin:
            # nobody legalizes a user-swapped cell, so keep the edit legal.
            and cell.origin.x + c.width <= die.xhi
            and cell.origin.y + c.height <= die.yhi
        ]
        if options:
            return {"op": "swap", "cell": cell.name, "libcell": rng.choice(options).name}
    return None


def _propose_merge(world: EditWorld, rng: random.Random) -> dict | None:
    """Two compatible non-scan 1-bit flops into a 2-bit MBR.

    Restricted to non-scan registers so the manual merge never has to
    update the scan model by hand — scan merges are exercised through the
    session's own recompose, which owns that bookkeeping.
    """
    singles = [
        c
        for c in _editable_registers(world.design)
        if c.width_bits == 1 and not c.register_cell.func_class.is_scan
    ]
    rng.shuffle(singles)
    for i, a in enumerate(singles):
        va = RegisterView(a)
        for b in singles[i + 1 :]:
            if b.register_cell.func_class is not a.register_cell.func_class:
                continue
            vb = RegisterView(b)
            if va.clock_net is not vb.clock_net:
                continue
            if va.control_nets() != vb.control_nets():
                continue
            targets = world.design.library.register_cells(
                a.register_cell.func_class,
                2,
                scan_styles=(a.register_cell.scan_style,),
            )
            if not targets:
                continue
            target = targets[0]
            x, y = clamp_to_die(
                world.design.die,
                target.width,
                target.height,
                (a.origin.x + b.origin.x) / 2.0,
                (a.origin.y + b.origin.y) / 2.0,
            )
            return {
                "op": "merge",
                "cells": [a.name, b.name],
                "target": target.name,
                "x": x,
                "y": y,
            }
    return None


def _propose_decompose(world: EditWorld, rng: random.Random) -> dict | None:
    wide = [c for c in _editable_registers(world.design) if c.width_bits > 1]
    if not wide:
        return None
    return {"op": "decompose", "cell": rng.choice(wide).name}


def _propose_rewire(world: EditWorld, rng: random.Random) -> dict | None:
    """Re-point one combinational input at a seed-driven net.

    Candidate target nets are driven directly by a register Q pin or an
    input port, which cannot create a combinational cycle no matter where
    the sink sits.
    """
    design = world.design
    seed_nets = sorted(
        net.name
        for net in design.nets.values()
        if not net.is_clock
        and (
            (
                isinstance(net.driver, Pin)
                and net.driver.cell.is_register
                # Q outputs only: scan-out nets get swept and restitched
                # by composition, which would orphan a comb sink.
                and net.driver.desc.name.startswith("Q")
            )
            or isinstance(net.driver, Port)
        )
    )
    if not seed_nets:
        return None
    comb_inputs = sorted(
        pin.full_name
        for cell in design.cells.values()
        if not cell.is_register
        for pin in cell.pins.values()
        if pin.is_input and pin.net is not None and not pin.net.is_clock
    )
    if not comb_inputs:
        return None
    pin_name = rng.choice(comb_inputs)
    cell_name, _, leaf = pin_name.partition("/")
    current = design.cells[cell_name].pin(leaf).net
    choices = [n for n in seed_nets if current is None or n != current.name]
    if not choices:
        return None
    return {"op": "rewire", "pin": pin_name, "net": rng.choice(choices)}


def _propose_skew(world: EditWorld, rng: random.Random) -> dict | None:
    regs = _editable_registers(world.design)
    if not regs:
        return None
    return {
        "op": "skew",
        "cell": rng.choice(regs).name,
        "offset": rng.choice(_SKEW_OFFSETS),
    }


_PROPOSERS = {
    "move": _propose_move,
    "swap": _propose_swap,
    "merge": _propose_merge,
    "decompose": _propose_decompose,
    "rewire": _propose_rewire,
    "skew": _propose_skew,
}


def propose_op(
    world: EditWorld, rng: random.Random, kind: str | None = None
) -> dict | None:
    """Draw one concrete edit of ``kind`` (random kind when ``None``)."""
    if kind is None:
        kind = rng.choice(OP_KINDS)
    return _PROPOSERS[kind](world, rng)


def propose_fault(world: EditWorld) -> dict:
    """A deliberate invariant break: a second driver forced onto a live net.

    Deterministic without RNG — the victim is the alphabetically first
    non-clock net with a driver and sinks; the rogue buffer's name is
    derived from the design size, not the ``unique_name`` counter, so
    injection leaves the counter stream untouched.
    """
    design = world.design
    victim = min(
        net.name
        for net in design.nets.values()
        if not net.is_clock and net.driver is not None and net.sinks
    )
    return {
        "op": "corrupt-driver",
        "net": victim,
        "buf": f"storm_fault_{len(design.cells)}",
    }


# ---------------------------------------------------------------------------
# Application: op dict -> world mutation (no RNG; replay calls this too)
# ---------------------------------------------------------------------------


class ReplayDivergence(AssertionError):
    """A replayed op minted different names than the recorded run."""


def apply_op(world: EditWorld, op: dict) -> bool:
    """Apply one concrete op; returns False when it legally no-ops.

    Ops annotated with minted names (``merge.new_cell``,
    ``decompose.new_cells``) are cross-checked on re-application; a
    mismatch raises :class:`ReplayDivergence`.
    """
    session, design = world.session, world.design
    kind = op["op"]
    if kind == "move":
        with session.edit():
            design.move_cell(design.cells[op["cell"]], Point(op["x"], op["y"]))
        return True
    if kind == "swap":
        with session.edit():
            design.swap_libcell(
                design.cells[op["cell"]], design.library.cell(op["libcell"])
            )
        return True
    if kind == "merge":
        group = [design.cells[n] for n in op["cells"]]
        target = design.library.cell(op["target"])
        try:
            record = compose_mbr(
                design, group, target, Point(op["x"], op["y"])
            )
        except ComposeError:
            return False
        minted = record.new_cell.name if record.new_cell is not None else None
        if op.setdefault("new_cell", minted) != minted:
            raise ReplayDivergence(
                f"merge minted {minted!r}, recorded run minted "
                f"{op['new_cell']!r}"
            )
        session.absorb(record)
        return True
    if kind == "decompose":
        from repro.core.decompose import decompose_mbr

        record = decompose_mbr(design, design.cells[op["cell"]], world.scan_model)
        minted = sorted(c.name for c in record.new_cells)
        if op.setdefault("new_cells", minted) != minted:
            raise ReplayDivergence(
                f"decompose minted {minted!r}, recorded run minted "
                f"{op['new_cells']!r}"
            )
        session.absorb(record)
        return True
    if kind == "rewire":
        cell_name, _, leaf = op["pin"].partition("/")
        pin = design.cells[cell_name].pin(leaf)
        with session.edit():
            design.connect(pin, design.nets[op["net"]])
        return True
    if kind == "skew":
        world.timer.set_skew(op["cell"], op["offset"])
        return True
    if kind == "corrupt-driver":
        with session.edit():
            rogue = design.add_cell(
                op["buf"], design.library.cell("BUF_X1"), Point(0.0, 0.0)
            )
            design.connect(rogue.pin("Z"), design.nets[op["net"]])
        return True
    raise ValueError(f"unknown op kind {kind!r}")


# ---------------------------------------------------------------------------
# The storm loop
# ---------------------------------------------------------------------------


@dataclass
class FuzzReport:
    """Everything one fuzz run produced: violations, trace, reproducer."""

    preset: str
    scale: float
    seed: int
    storms_run: int = 0
    edits_applied: int = 0
    violations: list[Violation] = field(default_factory=list)
    trace: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not any(v.is_error for v in self.violations)

    def reproducer(self) -> dict:
        """The JSON document that makes this run replayable."""
        return {
            "schema": REPRODUCER_SCHEMA,
            "preset": self.preset,
            "scale": self.scale,
            "seed": self.seed,
            "trace": self.trace,
            "violations": [
                {
                    "check": v.check,
                    "subject": v.subject,
                    "message": v.message,
                    "severity": v.severity,
                }
                for v in self.violations
            ],
        }

    def format(self) -> str:
        head = (
            f"repro check: preset {self.preset} scale {self.scale} "
            f"seed {self.seed} — {self.storms_run} storm(s), "
            f"{self.edits_applied} edit(s) applied"
        )
        if self.ok:
            return f"{head}\nOK — no invariant violations"
        body = format_violations([v for v in self.violations if v.is_error])
        return f"{head}\nFAIL — violations:\n{body}"


def _recompose_and_check(world: EditWorld, storm: int) -> list[Violation]:
    """One storm's verdict: recompose, then sweep checkers and oracles.

    Shared by :func:`run_check` and :func:`replay` so both derive a
    storm's violations identically.  A crash anywhere — audit divergence,
    a composer exception on a corrupted netlist, a checker that cannot
    even evaluate — degrades to a deterministic violation instead of
    aborting the run, so fault-injected worlds still produce a report.
    """
    out: list[Violation] = []
    result = None
    try:
        result = world.session.recompose().result
    except EcoAuditError as exc:
        out.append(
            Violation(
                "eco-audit",
                f"storm {storm}",
                f"incremental recompose diverged: {exc}",
            )
        )
    except Exception as exc:  # noqa: BLE001 - corrupted worlds may crash anywhere
        out.append(
            Violation(
                "storm-crash", f"storm {storm}", f"recompose raised {exc!r}"
            )
        )
    try:
        out += check_all(world.design, world.timer, world.scan_model, result)
        out += diff_timer_vs_fresh(world.timer)
    except Exception as exc:  # noqa: BLE001
        out.append(
            Violation(
                "checker-crash", f"storm {storm}", f"checkers raised {exc!r}"
            )
        )
    return out


def run_check(
    preset_name: str = "D1",
    scale: float = 0.15,
    storms: int = 5,
    seed: int = 7,
    edits_per_storm: int = 8,
    inject_fault: bool = False,
    library: CellLibrary | None = None,
) -> FuzzReport:
    """Run ``storms`` seeded edit storms with every checker armed.

    Each storm applies up to ``edits_per_storm`` random edits through the
    session, recomposes with the ECO audit shadow-check on, then runs the
    invariant checkers and the incremental-STA oracle.  ``inject_fault``
    plants a deliberate multi-driver corruption at the start of the first
    storm (the CLI's self-test / CI-wiring check).
    """
    from repro.bench import generate_design, preset
    from repro.library import default_library

    report = FuzzReport(preset=preset_name, scale=scale, seed=seed)
    reg = obs.get_registry()
    with obs.span("check.fuzz", cat="check", preset=preset_name, storms=storms):
        bundle = generate_design(preset(preset_name, scale=scale), library or default_library())
        world = EditWorld(
            EcoSession(
                bundle.design, bundle.timer, bundle.scan_model, audit_mode=True
            )
        )
        world.session.recompose()  # prime: cache populated, audit armed
        rng = random.Random(seed)

        for storm in range(storms):
            with obs.span("check.storm", cat="check", index=storm):
                if inject_fault and storm == 0:
                    fault = propose_fault(world)
                    apply_op(world, fault)
                    report.trace.append(fault)
                for _ in range(edits_per_storm):
                    op = propose_op(world, rng)
                    if op is None:
                        continue
                    if apply_op(world, op):
                        report.trace.append(op)
                        report.edits_applied += 1
                        reg.counter("check.edits_applied").inc()
                report.trace.append({"op": "recompose"})
                found = _recompose_and_check(world, storm)
                report.violations.extend(found)
                reg.counter("check.violations").inc(
                    sum(1 for v in found if v.is_error)
                )
            report.storms_run = storm + 1
            if any(v.is_error for v in report.violations):
                break  # first broken storm is the reproducer; stop digging

    reg.gauge("check.violations_total").set(
        float(sum(1 for v in report.violations if v.is_error))
    )
    return report


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------


def replay(path: str | Path, library: CellLibrary | None = None) -> FuzzReport:
    """Re-execute a reproducer file; returns the re-derived report.

    No RNG is involved: the recorded concrete ops are applied in order,
    recomposing at each recorded ``recompose`` marker and re-running the
    same checkers.  The result is bit-deterministic, so a reproducer's
    violations come back identical run after run.
    """
    from repro.bench import generate_design, preset
    from repro.library import default_library

    doc = json.loads(Path(path).read_text())
    if doc.get("schema") != REPRODUCER_SCHEMA:
        raise ValueError(
            f"{path}: schema {doc.get('schema')!r}, expected {REPRODUCER_SCHEMA!r}"
        )

    report = FuzzReport(
        preset=doc["preset"], scale=doc["scale"], seed=doc["seed"]
    )
    bundle = generate_design(
        preset(doc["preset"], scale=doc["scale"]), library or default_library()
    )
    world = EditWorld(
        EcoSession(bundle.design, bundle.timer, bundle.scan_model, audit_mode=True)
    )
    world.session.recompose()

    for op in doc["trace"]:
        if op["op"] == "recompose":
            report.violations.extend(
                _recompose_and_check(world, report.storms_run)
            )
            report.storms_run += 1
        elif apply_op(world, op):
            report.edits_applied += 1
        report.trace.append(op)
    return report


def write_reproducer(report: FuzzReport, path: str | Path) -> Path:
    """Dump the reproducer JSON; returns the path written."""
    out = Path(path)
    out.write_text(json.dumps(report.reproducer(), indent=2) + "\n")
    return out
