#!/usr/bin/env python
"""Emit ``BENCH_flow.json``: the flow's performance trajectory file.

Runs the full composition flow on a set of synthetic presets (default:
D1 and D2) under a fresh metrics registry + tracer per design, and
writes one stable-schema JSON (``repro.bench.flow/2``, see
:mod:`repro.obs.manifest`) that CI validates and archives per commit —
so runtime, solver-effort, and QoR regressions show up as diffs of a
single artifact.  Each design entry also carries an ``eco`` block: the
prime and incremental-recompose times of one :class:`~repro.flow.EcoSession`.

Every emit is stamped with the producing commit (``git_sha``) and
appended as a one-line summary to ``BENCH_history.jsonl``, giving a
grep-able per-commit trajectory next to the full per-commit snapshot.

Usage::

    PYTHONPATH=src python benchmarks/emit_bench.py --designs D1 --scale 0.25
    PYTHONPATH=src python benchmarks/emit_bench.py --validate BENCH_flow.json
    PYTHONPATH=src python benchmarks/emit_bench.py --validate BENCH_history.jsonl
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import time

from repro import obs
from repro.bench import generate_design, preset
from repro.flow import EcoSession, FlowConfig, run_flow
from repro.geometry import Point
from repro.library import default_library

_REPO_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git_sha() -> str:
    """The producing commit, short form; ``"unknown"`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            capture_output=True,
            text=True,
            cwd=_REPO_DIR,
            timeout=10,
        )
    except OSError:  # pragma: no cover - no git binary
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def git_dirty() -> bool:
    """Whether the working tree differs from HEAD (``False`` outside git).

    Stamped into every emitted payload: a trajectory point produced from
    uncommitted code cannot be reproduced from its ``git_sha``, and the
    regression sentinel's baselines deserve to know.
    """
    try:
        out = subprocess.run(
            ["git", "status", "--porcelain"],
            capture_output=True,
            text=True,
            cwd=_REPO_DIR,
            timeout=10,
        )
    except OSError:  # pragma: no cover - no git binary
        return False
    return out.returncode == 0 and bool(out.stdout.strip())


def _eco_demo(name: str, scale: float, library) -> dict:
    """Repeated ``EcoSession.recompose`` over one session cache.

    Primes a session (full compose), nudges a few registers, and
    recomposes incrementally: only the dirty components re-solve their
    ILPs.  Returns the demo's prime and recompose times.
    """
    bundle = generate_design(preset(name, scale=scale), library)
    session = EcoSession(bundle.design, bundle.timer, bundle.scan_model)
    t0 = time.perf_counter()
    session.recompose()
    prime_seconds = time.perf_counter() - t0

    design = session.design
    rng = random.Random(5)
    registers = [c for c in design.cells.values() if c.is_register]
    for cell in rng.sample(registers, min(4, len(registers))):
        dx, dy = rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)
        x = min(
            max(design.die.xlo, cell.origin.x + dx),
            design.die.xhi - cell.libcell.width,
        )
        y = min(
            max(design.die.ylo, cell.origin.y + dy),
            design.die.yhi - cell.libcell.height,
        )
        with session.edit():
            design.move_cell(cell, Point(x, y))

    t0 = time.perf_counter()
    stats = session.recompose()
    recompose_seconds = time.perf_counter() - t0
    return {
        "prime_seconds": round(prime_seconds, 6),
        "recompose_seconds": round(recompose_seconds, 6),
        "incremental": bool(stats.incremental),
    }


def run_design(name: str, scale: float, workers: int = 1) -> dict:
    """One flow run under a clean observability slate; returns the bench
    entry (all :data:`repro.obs.BENCH_DESIGN_KEYS`)."""
    obs.set_registry(obs.MetricsRegistry())
    obs.install_tracer(enabled=True)
    library = default_library()
    bundle = generate_design(preset(name, scale=scale), library)
    config = FlowConfig()
    config.composer.workers = workers
    report = run_flow(bundle.design, bundle.timer, bundle.scan_model, config)
    stage_seconds = {r.name: round(r.seconds, 6) for r in report.trace.records}
    eco = _eco_demo(name, scale, library)
    return {
        "runtime_seconds": round(report.runtime_seconds, 6),
        "stage_seconds": stage_seconds,
        "registers_before": report.composition.registers_before,
        "registers_after": report.composition.registers_after,
        "register_reduction": report.composition.register_reduction,
        "wns": report.final.wns,
        "tns": report.final.tns,
        "eco": eco,
        "metrics": obs.get_registry().snapshot(),
    }


def history_record(data: dict) -> dict:
    """The one-line ``BENCH_history.jsonl`` summary of a bench payload."""
    return {
        "schema": obs.BENCH_HISTORY_SCHEMA,
        "generated_unix": data["generated_unix"],
        "git_sha": data["git_sha"],
        "git_dirty": data.get("git_dirty", False),
        "scale": data["scale"],
        "designs": {
            name: {
                "runtime_seconds": entry["runtime_seconds"],
                "compose_seconds": entry["stage_seconds"].get("compose", 0.0),
                "registers_after": entry["registers_after"],
                "tns": entry["tns"],
            }
            for name, entry in data["designs"].items()
        },
    }


def append_history(data: dict, path: str, force: bool = False) -> dict:
    """Append one summary line; refuses a stale-SHA line unless ``force``.

    The committed ``BENCH_flow.json`` once carried the seed SHA despite
    being emitted several PRs later — a line like that poisons the
    sentinel's rolling baselines with numbers no commit can reproduce.
    The append therefore requires the payload's ``git_sha`` to match the
    checkout's current HEAD (skipped outside a git checkout).
    """
    record = history_record(data)
    problems = obs.validate_bench_history(record)
    if problems:  # pragma: no cover - emit satisfies its own schema
        raise SystemExit("invalid history record: " + "; ".join(problems))
    head = git_sha()
    if not force and head != "unknown" and record["git_sha"] != head:
        raise SystemExit(
            f"refusing to append stale history line: payload git_sha "
            f"{record['git_sha']!r} != current HEAD {head!r} "
            f"(re-emit at HEAD, or pass --force to append anyway)"
        )
    with open(path, "a", encoding="utf-8") as fh:
        json.dump(record, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")
    return record


def emit(designs: list[str], scale: float, out: str, workers: int = 1) -> dict:
    data = {
        "schema": obs.BENCH_SCHEMA,
        "generated_unix": round(time.time(), 3),
        "git_sha": git_sha(),
        "git_dirty": git_dirty(),
        "scale": scale,
        "designs": {d: run_design(d, scale, workers) for d in designs},
    }
    problems = obs.validate_bench(data)
    if problems:  # pragma: no cover - emit always satisfies its own schema
        raise SystemExit("invalid bench payload: " + "; ".join(problems))
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")
    return data


def validate_path(path: str) -> list[str]:
    """Validate a bench snapshot (``.json``) or history log (``.jsonl``)."""
    problems: list[str] = []
    if path.endswith(".jsonl"):
        with open(path, encoding="utf-8") as fh:
            lines = [line for line in fh if line.strip()]
        if not lines:
            return [f"{path}: empty history"]
        for i, line in enumerate(lines, start=1):
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                problems.append(f"line {i}: not JSON ({exc})")
                continue
            # BENCH_history.jsonl interleaves flow summaries with the
            # memory-trajectory lines mem_budget.py appends and the
            # service-layer lines load_gen.py appends; dispatch on the
            # record's schema tag.
            if record.get("schema") == obs.BENCH_MEM_SCHEMA:
                validate = obs.validate_bench_mem
            elif record.get("schema") == obs.BENCH_SERVE_SCHEMA:
                validate = obs.validate_bench_serve
            else:
                validate = obs.validate_bench_history
            problems.extend(f"line {i}: {p}" for p in validate(record))
        return problems
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return obs.validate_bench(data)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--designs",
        nargs="*",
        default=["D1", "D2"],
        choices=["D1", "D2", "D3", "D4", "D5"],
    )
    ap.add_argument("--scale", type=float, default=0.25)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--out", default="BENCH_flow.json")
    ap.add_argument(
        "--history",
        default="BENCH_history.jsonl",
        help="history log to append one summary line to",
    )
    ap.add_argument(
        "--no-history",
        action="store_true",
        help="skip the BENCH_history.jsonl append",
    )
    ap.add_argument(
        "--force",
        action="store_true",
        help="append the history line even when its git_sha does not "
        "match the checkout's current HEAD",
    )
    ap.add_argument(
        "--validate",
        metavar="PATH",
        help="validate an existing bench snapshot (.json) or history log "
        "(.jsonl) against its schema and exit",
    )
    args = ap.parse_args(argv)

    if args.validate:
        problems = validate_path(args.validate)
        if problems:
            print(f"{args.validate}: INVALID — " + "; ".join(problems))
            return 1
        print(f"{args.validate}: valid")
        return 0

    data = emit(args.designs, args.scale, args.out, args.workers)
    for name, entry in data["designs"].items():
        print(
            f"{name}: {entry['runtime_seconds']:.2f}s, "
            f"{entry['registers_before']} -> {entry['registers_after']} regs, "
            f"TNS {entry['tns']:.2f}, "
            f"eco recompose {entry['eco']['recompose_seconds']:.3f}s"
        )
    print(f"wrote {args.out} (git {data['git_sha']})")
    if not args.no_history:
        append_history(data, args.history, force=args.force)
        print(f"appended {args.history}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
