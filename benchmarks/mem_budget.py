#!/usr/bin/env python
"""Peak-RSS-per-register benchmark for the million-register scale path.

Measures the memory discipline of the storage + streaming-I/O pipeline:
generate the ``huge`` preset at N registers, stream-write Verilog/DEF (and
the library as Liberty), drop the design, stream-parse everything back, and
verify the round-trip.  The child process's ``ru_maxrss`` is the pipeline's
peak — the slotted store and the streaming parsers are only honest if that
peak stays a small constant per register.

The interpreter + numpy baseline (tens of MB) would swamp the per-register
figure at small N, so the headline number is **marginal**: the pipeline
runs in two fresh subprocesses (baseline N/5 and full N) and the slope
``(rss_full - rss_base) / (n_full - n_base)`` is what the ``--budget``
gate enforces.

``--window-compose`` additionally stream-parses the written design in a
third subprocess, marks everything outside a die-corner window
``dont_touch``, and runs a real :func:`~repro.core.composer.compose_design`
over the window — the scale-smoke proof that a parsed million-register
store drives the actual flow, not just counts.  The compose child, which
also holds the whole design's timing graph, is not budget-gated.

The script prints its measurement and keeps no history; the benchmark
trajectory is perfbench's (``repro bench record``).

Usage::

    PYTHONPATH=src python benchmarks/mem_budget.py --registers 100000 --enforce
    PYTHONPATH=src python benchmarks/mem_budget.py --registers 100000 \\
        --enforce --window-compose
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import subprocess
import sys
import tempfile
import time

_REPO_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_REPO_DIR, "src"))

#: Default ceiling on marginal peak RSS, bytes per register.  The slotted
#: store's columns plus name tables plus the parse-time dicts come to
#: ~1.4 KB/register on CPython 3.11/3.12; the gate leaves a little slack
#: without letting a per-cell dict (~0.3 KB/register) sneak back in.
DEFAULT_BUDGET = 1536


def _peak_rss_bytes() -> int:
    """This process's lifetime peak RSS in bytes (ru_maxrss is KB on Linux)."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss * 1024 if sys.platform != "darwin" else rss


def _emit(payload: dict) -> None:
    json.dump(payload, sys.stdout)
    sys.stdout.write("\n")


def child_measure(n_registers: int, outdir: str) -> None:
    """Generate → stream-write → drop → stream-parse → verify, one process."""
    from dataclasses import replace

    from repro.bench import generate_design
    from repro.bench.presets import PRESETS
    from repro.io.deffile import read_def, write_def
    from repro.io.liberty import read_liberty, write_liberty
    from repro.io.verilog import read_verilog, write_verilog
    from repro.library import default_library

    phases: dict[str, float] = {}
    t0 = time.perf_counter()
    library = default_library()
    spec = replace(PRESETS["huge"], n_registers=n_registers)
    bundle = generate_design(spec, library)
    design = bundle.design
    phases["generate"] = round(time.perf_counter() - t0, 3)

    counts = (len(design.cells), len(design.nets), len(design.ports))
    hpwl = design.total_hpwl()

    t0 = time.perf_counter()
    write_verilog(design, os.path.join(outdir, "huge.v"))
    write_def(design, os.path.join(outdir, "huge.def"))
    write_liberty(library, os.path.join(outdir, "huge.lib"))
    phases["write"] = round(time.perf_counter() - t0, 3)

    del bundle, design
    gc.collect()

    t0 = time.perf_counter()
    library2 = read_liberty(os.path.join(outdir, "huge.lib"))
    parsed = read_verilog(os.path.join(outdir, "huge.v"), library2)
    read_def(os.path.join(outdir, "huge.def"), parsed)
    phases["parse"] = round(time.perf_counter() - t0, 3)

    counts2 = (len(parsed.cells), len(parsed.nets), len(parsed.ports))
    if counts2 != counts:
        raise SystemExit(f"round-trip count mismatch: wrote {counts}, read {counts2}")
    hpwl2 = parsed.total_hpwl()
    if abs(hpwl2 - hpwl) > 1e-6 * max(1.0, abs(hpwl)):
        raise SystemExit(f"round-trip HPWL mismatch: wrote {hpwl}, read {hpwl2}")

    _emit(
        {
            "n_registers": n_registers,
            "cells": counts[0],
            "nets": counts[1],
            "peak_rss_bytes": _peak_rss_bytes(),
            "phase_seconds": phases,
        }
    )


def child_compose(outdir: str, window_fraction: float = 0.1) -> None:
    """Stream-parse the written design and compose one die-corner window."""
    from repro.core.composer import compose_design
    from repro.io.deffile import read_def
    from repro.io.liberty import read_liberty
    from repro.io.verilog import read_verilog
    from repro.netlist.store import DONT_TOUCH
    from repro.sta.timer import Timer

    t0 = time.perf_counter()
    library = read_liberty(os.path.join(outdir, "huge.lib"))
    design = read_verilog(os.path.join(outdir, "huge.v"), library)
    read_def(os.path.join(outdir, "huge.def"), design)
    parse_seconds = time.perf_counter() - t0

    die = design.die
    win_xhi = die.xlo + window_fraction * die.width
    win_yhi = die.ylo + window_fraction * die.height
    store = design.store
    in_window = 0
    for cid in store.live_cell_ids():
        if not store.cell_is_register(cid):
            continue
        if store.cell_x[cid] <= win_xhi and store.cell_y[cid] <= win_yhi:
            in_window += 1
        else:
            store.cell_flags[cid] |= DONT_TOUCH
    if in_window == 0:
        raise SystemExit("window selected no registers; widen --window-fraction")

    t0 = time.perf_counter()
    timer = Timer(design, 1.0)
    result = compose_design(design, timer, None)
    _emit(
        {
            "parse_seconds": round(parse_seconds, 3),
            "compose_seconds": round(time.perf_counter() - t0, 3),
            "window_registers": in_window,
            "registers_before": result.registers_before,
            "registers_after": result.registers_after,
            "peak_rss_bytes": _peak_rss_bytes(),
        }
    )


def _run_child(argv: list[str]) -> dict:
    """Run one child phase of this script; returns its JSON payload."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), *argv],
        capture_output=True,
        text=True,
        cwd=_REPO_DIR,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"child {argv[1]!r} failed (exit {proc.returncode})")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_benchmark(
    n_registers: int,
    baseline_registers: int,
    budget: int,
    window_compose: bool,
) -> dict:
    """The full parent-side benchmark; returns the measurement."""
    with tempfile.TemporaryDirectory(prefix="mem_budget_base_") as base_dir:
        base = _run_child(["--child", "measure", str(baseline_registers), base_dir])
    with tempfile.TemporaryDirectory(prefix="mem_budget_") as full_dir:
        full = _run_child(["--child", "measure", str(n_registers), full_dir])
        compose = (
            _run_child(["--child", "compose", full_dir]) if window_compose else None
        )

    marginal = (full["peak_rss_bytes"] - base["peak_rss_bytes"]) / (
        n_registers - baseline_registers
    )
    record = {
        "n_registers": n_registers,
        "baseline_registers": baseline_registers,
        "peak_rss_bytes": full["peak_rss_bytes"],
        "bytes_per_register": round(full["peak_rss_bytes"] / n_registers, 1),
        "marginal_bytes_per_register": round(marginal, 1),
        "budget_bytes_per_register": budget,
        "phase_seconds": full["phase_seconds"],
    }
    if compose is not None:
        record["window_compose"] = compose
    return record


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:
        if argv[1] == "measure":
            child_measure(int(argv[2]), argv[3])
        elif argv[1] == "compose":
            child_compose(argv[2])
        else:
            raise SystemExit(f"unknown child phase {argv[1]!r}")
        return 0

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--registers", type=int, default=100_000)
    ap.add_argument(
        "--baseline-registers",
        type=int,
        default=None,
        help="size of the baseline run for the marginal slope (default N/5)",
    )
    ap.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="bytes/register")
    ap.add_argument(
        "--enforce",
        action="store_true",
        help="exit nonzero when the marginal bytes/register exceeds --budget",
    )
    ap.add_argument(
        "--window-compose",
        action="store_true",
        help="also stream-parse the written design and compose one window",
    )
    args = ap.parse_args(argv)

    baseline = args.baseline_registers or max(1000, args.registers // 5)
    if baseline >= args.registers:
        raise SystemExit("--baseline-registers must be smaller than --registers")

    record = run_benchmark(args.registers, baseline, args.budget, args.window_compose)

    print(
        f"{record['n_registers']} registers: peak {record['peak_rss_bytes'] / 1e6:.0f} MB"
        f" ({record['bytes_per_register']:.0f} B/reg total,"
        f" {record['marginal_bytes_per_register']:.0f} B/reg marginal,"
        f" budget {record['budget_bytes_per_register']})"
    )
    for phase, seconds in record["phase_seconds"].items():
        print(f"  {phase}: {seconds:.1f}s")
    if args.window_compose:
        wc = record["window_compose"]
        print(
            f"  window compose: {wc['window_registers']} registers in window, "
            f"{wc['registers_before']} -> {wc['registers_after']} total, "
            f"parse {wc['parse_seconds']:.1f}s + compose {wc['compose_seconds']:.1f}s"
        )

    if args.enforce and record["marginal_bytes_per_register"] > args.budget:
        print(
            f"FAIL: marginal {record['marginal_bytes_per_register']:.0f} B/register "
            f"exceeds budget {args.budget}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
