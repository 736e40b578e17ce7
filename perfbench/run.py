"""Benchmark of the MBR composition flow: three workloads, measured end to
end and per layer, with checks of every operation's output.

Run from the repository root::

    python3 perfbench/run.py --workload flow-d1d5 --seed 1 --seconds 10 --trace 0

``--trace 0`` times the workload with tracing off and prints the
end-to-end metrics; ``--trace 1`` runs the workload's passes untraced and
then traced, and prints the per-layer metrics plus the tracing overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec() -> dict:
    """``BENCHMARK.json``: the workloads and the metric tables."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def per_op_medians(passes, attr: str) -> list[float]:
    """Each operation's median latency over the passes that ran it."""
    samples: dict[str, list[float]] = {}
    for p in passes:
        for op, ms in getattr(p, attr).items():
            samples.setdefault(op, []).append(ms)
    return [statistics.median(v) for v in samples.values()]


def p90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def measure(
    spec: dict, workload_name: str, seed: int, seconds: float, trace: bool
) -> dict:
    """Run the workload's passes and fold them into the result object."""
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name](seed, ROOT, trace)

    def sequence(traced: bool, check: bool) -> list:
        out = []
        while len(out) < workload.passes or sum(p.work_s for p in out) < seconds:
            out.append(workload.run_pass(traced=traced, check=check and not out))
        return out

    try:
        reference = sequence(traced=False, check=False) if trace else []
        passes = sequence(traced=trace, check=True)
    finally:
        workload.close()

    first = passes[0]
    problems, failed, attempted = [], 0, 0
    for index, p in enumerate(passes + reference):
        attempted += p.attempted
        problems += p.problems
        if p.digests == first.digests:
            failed += len(p.failed_ops)
        else:
            failed += p.attempted
            problems.append(f"pass {index}: output digests differ from pass 0")

    if trace:
        table = spec["per_layer"]
        values = dict.fromkeys((m["name"] for m in table), 0)
        values.update(first.layer)
        values["check.p50_ms"] = statistics.median(per_op_medians(passes, "check_ms"))
        chosen = values.pop("compose.chosen", 0)
        if values["compose.candidates"]:
            values["compose.candidate_yield"] = chosen / values["compose.candidates"]
        traced_s = statistics.median(p.work_s for p in passes)
        untraced_s = statistics.median(p.work_s for p in reference)
        values["trace.overhead_pct"] = 100.0 * (traced_s - untraced_s) / untraced_s
    else:
        table = spec["end_to_end"]
        op_ms = per_op_medians(passes, "op_ms")
        values = {
            "setup_s": statistics.median(p.setup_s for p in passes),
            "work_s": statistics.median(p.work_s for p in passes),
            "op_p50_ms": statistics.median(op_ms),
            "op_p90_ms": p90(op_ms),
            "peak_rss_mb": first.peak_rss_mb,
            "regs_after": first.qor["regs_after"],
            "clk_cap_pf": first.qor["clk_cap_pf"],
            "wirelength_um": first.qor["wirelength_um"],
        }

    record = {
        "workload": workload_name,
        "seed": seed,
        "passes": len(passes),
        "ops": len(passes[0].op_ms),
        "reads": len(first.check_ms),
        "wall_s": {
            kind: statistics.median(p.wall[kind] for p in passes)
            for kind in ("setup_s", "work_s")
        },
        "slowness": statistics.median(x for p in passes for x in p.slowness),
        "qor": first.qor,
        "counts": first.counts,
        "digests": first.digests,
        "informational": first.info,
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in table
        },
    }
    return {"record": record, "problems": problems, "result": result}


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--workload", required=True, choices=[w["name"] for w in spec["workloads"]]
    )
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument(
        "--seconds",
        type=float,
        required=True,
        help="minimum measured time; whole passes repeat until it is reached",
    )
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(
            f"perfbench: no repro package under {src}; run from a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, src)

    out = measure(spec, args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in out["problems"][:50]:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    print("record " + json.dumps(out["record"], sort_keys=True))
    for name, metric in out["result"]["metrics"].items():
        print(f"  {name:<30} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
