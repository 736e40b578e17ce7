#!/usr/bin/env python
"""Deterministic load generator for the compose service (``repro.serve``).

Builds N replica designs of one preset behind a :class:`ComposeServer`,
then drives a fully deterministic job list — one priming ``compose`` per
design followed by a seeded move storm of ``eco`` jobs per design —
through concurrent in-process client lanes.  The job list's per-design
order is preserved regardless of lane count (see
:func:`repro.serve.client.drive`), so the benchmark runs the *same*
workload twice:

1. serially (one client) — the reference world states;
2. concurrently (``--clients`` lanes) — the measured run.

Per-design ``placement_signature``/``timing_signature`` must be
bit-identical between the two runs (the paper's determinism contract,
extended to the service layer).  The script prints the measured run's
throughput and p50/p99 latency, and the serial run's cross-request
component cache hit-ratio, which ``--check`` holds above a floor.  It
keeps no history; the benchmark trajectory is perfbench's (``repro bench
record``).

Usage::

    PYTHONPATH=src python benchmarks/load_gen.py --preset D1 --replicas 2 \\
        --clients 4 --jobs 6 --scale 0.25 --seed 7
    PYTHONPATH=src python benchmarks/load_gen.py --check \\
        --manifest-out serve_manifest.json   # the CI serve-smoke shape
"""

from __future__ import annotations

import argparse
import asyncio
import statistics
import sys
import time

from repro import obs
from repro.check.oracles import placement_signature, timing_signature
from repro.serve import (
    ComposeServer,
    DesignRegistry,
    JobRequest,
    SharedComponentCache,
    drive,
)


def build_jobs(names: list[str], jobs_per_design: int, seed: int) -> list[JobRequest]:
    """The deterministic global job list: primes, then interleaved storms.

    Storm seeds repeat *across* designs (same seed sequence for every
    replica) — replicas are identical worlds, so repeated storms make
    cross-design shared-cache reuse observable, which is exactly the
    "repeated-storm workload" the acceptance criterion measures.
    """
    out = [
        JobRequest(kind="compose", design=name, id=f"prime-{name}")
        for name in names
    ]
    for k in range(jobs_per_design):
        for name in names:
            out.append(
                JobRequest(
                    kind="eco",
                    design=name,
                    params={"seed": seed + k, "moves": 2, "radius": 3.0},
                    id=f"eco-{name}-{k}",
                )
            )
    return out


def build_server(args) -> tuple[ComposeServer, list[str]]:
    shared = SharedComponentCache(spill_dir=args.spill_dir)
    registry = DesignRegistry(shared_cache=shared)
    registry.config.workers = args.workers
    names = []
    for i in range(args.replicas):
        name = f"{args.preset}-{i}"
        registry.add_preset(name, args.preset, scale=args.scale)
        names.append(name)
    queue_depth = max(args.queue_depth, args.clients)
    return ComposeServer(registry, queue_depth=queue_depth), names


def signatures(server: ComposeServer) -> dict[str, tuple]:
    """Exact per-design world state, for the serial-vs-concurrent check."""
    out = {}
    for name in server.registry.names():
        session = server.registry.session(name)
        out[name] = (
            sorted(placement_signature(session.design).items()),
            sorted(timing_signature(session.timer).items()),
        )
    return out


def run_once(args, clients: int) -> dict:
    """One fresh-world pass over the workload; returns states + metrics."""
    obs.set_registry(obs.MetricsRegistry())
    server, names = build_server(args)
    jobs = build_jobs(names, args.jobs, args.seed)

    async def _run():
        await server.start()
        t0 = time.perf_counter()
        responses, latencies = await drive(server, jobs, clients=clients)
        wall = time.perf_counter() - t0
        await server.aclose()
        return responses, latencies, wall

    responses, latencies, wall = asyncio.run(_run())
    failed = [r for r in responses.values() if not r.ok]
    if failed:
        first = failed[0]
        raise SystemExit(
            f"load_gen: {len(failed)} job(s) failed; first: "
            f"{first.id} [{first.error_code}] {first.error}"
        )
    counters = obs.get_registry().snapshot()["counters"]
    local_hits = counters.get("compose.cache.hits", 0)
    local_misses = counters.get("compose.cache.misses", 0)
    shared_hits = counters.get("serve.shared_cache.hits", 0)
    lookups = local_hits + local_misses
    # Cross-request hit ratio: fraction of component lookups answered by
    # *some* memo tier — the session's own (repeat requests to one design)
    # or the shared tier (requests to sibling designs / prior runs).
    hit_ratio = (local_hits + shared_hits) / lookups if lookups else 0.0
    lat_ms = sorted(x * 1000.0 for x in latencies)
    return {
        "signatures": signatures(server),
        "jobs": len(jobs),
        "wall_seconds": wall,
        "throughput_jobs_per_s": len(jobs) / wall if wall > 0 else 0.0,
        "p50_ms": statistics.median(lat_ms) if lat_ms else 0.0,
        "p99_ms": lat_ms[min(len(lat_ms) - 1, int(len(lat_ms) * 0.99))] if lat_ms else 0.0,
        "cache_hit_ratio": hit_ratio,
        "local_hits": local_hits,
        "local_misses": local_misses,
        "shared_hits": shared_hits,
        "shared_misses": counters.get("serve.shared_cache.misses", 0),
        "manifest": server.build_manifest(),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--preset", default="D1", choices=["D1", "D2", "D3", "D4", "D5"]
    )
    ap.add_argument("--scale", type=float, default=0.25)
    ap.add_argument(
        "--replicas", type=int, default=2, help="replica designs to serve"
    )
    ap.add_argument(
        "--clients", type=int, default=4, help="concurrent client lanes"
    )
    ap.add_argument(
        "--jobs", type=int, default=6, help="eco jobs per design after the prime"
    )
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--queue-depth", dest="queue_depth", type=int, default=64)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--spill-dir", dest="spill_dir")
    ap.add_argument(
        "--check",
        action="store_true",
        help="gate: nonzero exit when the serial cache hit-ratio falls below "
        "--min-hit-ratio",
    )
    ap.add_argument(
        "--min-hit-ratio",
        dest="min_hit_ratio",
        type=float,
        default=0.62,
        help="--check fails below this serial cross-request cache hit-ratio "
        "(0.7258 in the CI shape, less 15%%)",
    )
    ap.add_argument(
        "--manifest-out", dest="manifest_out", help="write the run manifest here"
    )
    args = ap.parse_args(argv)

    print(
        f"workload: {args.preset} x{args.replicas} @ scale {args.scale}, "
        f"{args.jobs} eco jobs/design, seed {args.seed}"
    )
    serial = run_once(args, clients=1)
    print(
        f"serial:     {serial['jobs']} jobs in {serial['wall_seconds']:.2f}s "
        f"({serial['throughput_jobs_per_s']:.1f} jobs/s), hit ratio "
        f"{serial['cache_hit_ratio']:.1%} ({serial['local_hits']} local + "
        f"{serial['shared_hits']} shared of "
        f"{serial['local_hits'] + serial['local_misses']} lookups)"
    )
    concurrent = run_once(args, clients=args.clients)
    print(
        f"concurrent: {concurrent['jobs']} jobs in "
        f"{concurrent['wall_seconds']:.2f}s with {args.clients} clients "
        f"({concurrent['throughput_jobs_per_s']:.1f} jobs/s, "
        f"p50 {concurrent['p50_ms']:.1f}ms, p99 {concurrent['p99_ms']:.1f}ms)"
    )
    print(
        f"cache: serial hit ratio {serial['cache_hit_ratio']:.1%} "
        f"(deterministic, gated), concurrent "
        f"{concurrent['cache_hit_ratio']:.1%} "
        f"({concurrent['local_hits']} local + {concurrent['shared_hits']} shared "
        f"of {concurrent['local_hits'] + concurrent['local_misses']} lookups)"
    )

    deterministic = serial["signatures"] == concurrent["signatures"]
    if deterministic:
        print("determinism: serial vs concurrent bit-identical per design")
    else:
        diverged = [
            name
            for name in serial["signatures"]
            if serial["signatures"][name] != concurrent["signatures"].get(name)
        ]
        print(f"determinism: DIVERGED on {diverged}", file=sys.stderr)

    if args.manifest_out:
        obs.write_manifest(args.manifest_out, concurrent["manifest"])
        print(f"wrote run manifest: {args.manifest_out}")

    if not deterministic:
        return 2
    if args.check:
        if serial["cache_hit_ratio"] < args.min_hit_ratio:
            print(
                f"CHECK FAILED: cache hit ratio "
                f"{serial['cache_hit_ratio']:.1%} < {args.min_hit_ratio:.0%}",
                file=sys.stderr,
            )
            return 1
        print("check: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
