"""The benchmark's three workloads.

Each workload runs in passes.  A pass builds fresh inputs, times the
workload's set-up and work, and returns a :class:`Pass` record; the first
measured pass of a run also runs the output checks (outside every timed
region), and every later pass must reproduce the first pass's output
digests exactly.  Set-up and work are timed with :class:`speed.Clock`, so
they read as seconds at a fixed interpreter speed; the raw wall times go
to the run's record.  Per-layer numbers are gathered only on traced
passes: from the benchmark's own timing of its calls into each layer, and
from what the program already returns (``FlowReport.trace``,
``CompositionResult.trace``, ``Timer.stats``, the ``repro.obs`` registry
and its spans).
"""

from __future__ import annotations

import asyncio
import hashlib
import os
import resource
import shutil
import statistics
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

from repro import obs
from repro.bench import generate_design, preset
from repro.bench.presets import PRESETS
from repro.check.invariants import check_all, check_design
from repro.check.oracles import (
    grouping_signature,
    placement_signature,
    timing_signature,
)
from repro.core.composer import compose_design
from repro.flow.driver import FlowConfig, run_flow
from repro.io.deffile import read_def, write_def
from repro.io.liberty import read_liberty, write_liberty
from repro.io.verilog import read_verilog, write_verilog
from repro.library import default_library
from repro.metrics.collect import collect_metrics
from repro.serve import (
    ComposeServer,
    DesignRegistry,
    JobRequest,
    JobResponse,
    SharedComponentCache,
)
from repro.serve.protocol import ERR_JOB_FAILED
from repro.sta.timer import Timer, TimerStats

import checks
from speed import Clock

FLOW_DESIGNS = ("D1", "D2", "D3", "D4", "D5")
FLOW_SCALE = 0.25
ECO_PRESET = "D1"
ECO_SCALE = 0.25
CLAMP_PROBE_SCALE = 0.5
ECO_REPLICAS = 2
ECO_ROUNDS = 100
ECO_SEGMENT_ROUNDS = 10
ECO_SETUPS = 3
ECO_CHECK_EVERY = 5
WINDOW_REGISTERS = 20_000
WINDOW_FRACTION = 0.2
WINDOW_PERIOD = 1.0
WINDOW_PARSES = 3

COMPOSE_STAGES = (
    "analyze",
    "graph",
    "partition",
    "enumerate",
    "solve",
    "apply",
    "scan",
    "legalize",
)
FLOW_STAGES = ("base-metrics", "compose", "skew", "sizing", "final-metrics")


@dataclass
class Pass:
    """What one pass measured, produced and found.

    ``op_ms`` and ``check_ms`` map a request (the flow batch, a job, the
    window compose) to its latency; the same key in several passes names
    the same request.  ``wall`` holds the raw wall seconds behind
    ``setup_s`` and ``work_s``, and ``slowness`` each timed region's
    :attr:`speed.Clock.slowness`.
    """

    setup_s: float = 0.0
    work_s: float = 0.0
    op_ms: dict[str, float] = field(default_factory=dict)
    check_ms: dict[str, float] = field(default_factory=dict)
    wall: dict[str, float] = field(default_factory=dict)
    slowness: list[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    qor: dict[str, float] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    layer: dict[str, float] = field(default_factory=dict)
    info: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed_ops: set[str] = field(default_factory=set)
    problems: list[str] = field(default_factory=list)

    def add(self, kind: str, clock: Clock) -> None:
        """Add a timed region to ``setup_s`` or ``work_s`` (``kind``)."""
        if kind == "setup_s":
            self.setup_s += clock.seconds
        else:
            self.work_s += clock.seconds
        self.wall[kind] = self.wall.get(kind, 0.0) + clock.wall
        self.slowness.append(clock.slowness)

    def set_up_median(self, clocks: list[Clock]) -> None:
        """Set ``setup_s`` to the median of several timed set-ups."""
        self.setup_s = statistics.median(c.seconds for c in clocks)
        self.wall["setup_s"] = statistics.median(c.wall for c in clocks)
        self.slowness += [c.slowness for c in clocks]

    def fail(self, op: str, problems: list[str]) -> None:
        if problems:
            self.failed_ops.add(op)
            self.problems += [f"{op}: {p}" for p in problems]


# -- helpers ----------------------------------------------------------------


def peak_rss_mb() -> float:
    """This process's peak resident set so far (``ru_maxrss`` is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def world_digests(prefix: str, design, timer, result=None) -> dict[str, str]:
    """Hashes of the grouping, placement and timing signatures.

    Group members are sorted: ``grouping_signature`` holds frozensets, whose
    iteration order depends on the per-process string hash seed.
    """
    out = {}
    if result is not None:
        groups = [
            (sorted(members), weight, bits, libcell, incomplete)
            for members, weight, bits, libcell, incomplete in grouping_signature(
                result
            )
        ]
        out[f"{prefix}.grouping"] = _digest(groups)
    out[f"{prefix}.placement"] = _digest(sorted(placement_signature(design).items()))
    out[f"{prefix}.timing"] = _digest(sorted(timing_signature(timer).items()))
    return out


def qor(metrics) -> dict[str, float]:
    """Table 1 quality of result summed over
    :class:`~repro.metrics.collect.DesignMetrics`."""
    metrics = list(metrics)
    return {
        "regs_after": sum(m.total_regs for m in metrics),
        "clk_cap_pf": sum(m.clk_cap for m in metrics),
        "wirelength_um": sum(m.wirelength_total for m in metrics),
        "tns_ns": sum(m.tns for m in metrics),
    }


@contextmanager
def observed(traced: bool):
    """A fresh metrics registry, and a tracer when ``traced``; restores the
    previous pair on exit."""
    registry = obs.MetricsRegistry()
    tracer = obs.Tracer(enabled=True) if traced else None
    prev_registry = obs.set_registry(registry)
    prev_tracer = obs.set_tracer(tracer)
    try:
        yield registry, tracer
    finally:
        obs.set_registry(prev_registry)
        obs.set_tracer(prev_tracer)


def span_seconds(tracer, name: str, **match) -> float:
    """Total duration of the tracer's spans called ``name`` whose args
    include ``match``."""
    return sum(
        r.dur_us / 1e6
        for r in tracer.records()
        if r.name == name and all(r.args.get(k) == v for k, v in match.items())
    )


def span_arg_total(tracer, name: str, arg: str) -> float:
    return sum(r.args.get(arg, 0) for r in tracer.records() if r.name == name)


def registry_layers(registry) -> dict[str, float]:
    """Per-layer numbers read from the ``repro.obs`` counters."""
    c = registry.snapshot()["counters"]
    hits = c.get("compose.cache.hits", 0)
    misses = c.get("compose.cache.misses", 0)
    explored = c.get("ilp.setpart.nodes_explored", 0)
    return {
        "sta.full_timings": c.get("sta.full_timings", 0),
        "sta.incremental_timings": c.get("sta.incremental_timings", 0),
        "sta.retimed_nodes": c.get("sta.retimed_nodes", 0),
        "compose.cache_lookups": hits + misses,
        "compose.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "ilp.solves": c.get("ilp.setpart.solves", 0),
        "ilp.nodes_explored": explored,
        "ilp.prune_ratio": (
            c.get("ilp.setpart.nodes_pruned", 0) / explored if explored else 0.0
        ),
        "eco.recompose_s": c.get("eco.full_seconds", 0.0)
        + c.get("eco.incremental_seconds", 0.0),
        "serve.shared_hit_ratio": (
            c.get("serve.shared_cache.hits", 0) / misses if misses else 0.0
        ),
    }


def retimed_fraction(stats_pairs) -> float:
    """Retimed nodes per node of every incremental timing, over
    ``(before, after)`` :class:`~repro.sta.timer.TimerStats` pairs."""
    stats_pairs = list(stats_pairs)
    retimed = sum(a.retimed_nodes - b.retimed_nodes for b, a in stats_pairs)
    swept = sum(
        (a.incremental_timings - b.incremental_timings) * a.graph_nodes
        for b, a in stats_pairs
    )
    return retimed / swept if swept else 0.0


def trace_layers(trace, prefix: str, stages) -> dict[str, float]:
    """Per-stage seconds of a :class:`~repro.engine.StageTrace`."""
    seconds = trace.aggregated()
    return {
        f"{prefix}.{name.replace('-', '_')}_s": seconds.get(name, 0.0)
        for name in stages
    }


def compose_counter_layers(trace) -> dict[str, float]:
    """Candidate and reuse counters of a compose :class:`StageTrace`."""
    return {
        "compose.candidates": trace.counter_total("candidates"),
        "compose.chosen": trace.counter_total("chosen"),
        "compose.registers_recomputed": trace.counter_total("registers_recomputed"),
        "compose.registers_reused": trace.counter_total("registers_reused"),
    }


def _add(into: dict, values: dict) -> None:
    for key, value in values.items():
        into[key] = into.get(key, 0) + value


# -- flow-d1d5 ------------------------------------------------------------------


class FlowD1D5:
    """``run_flow`` with the default ILP ``FlowConfig`` on D1-D5.

    The five designs are the presets' own (their generator seeds are part
    of the suite), so quality of result repeats exactly and the benchmark
    seed is not used.  Each design's flow is one checked operation; the
    latency a user waits for is the five-design batch, and the read is
    ``check_all`` over all five final worlds.
    """

    name = "flow-d1d5"
    passes = 1

    def __init__(self, seed: int, workdir: str, trace: bool) -> None:
        pass

    def close(self) -> None:
        pass

    def run_pass(self, traced: bool, check: bool) -> Pass:
        p = Pass()
        library = default_library()
        with observed(traced) as (registry, tracer):
            with Clock() as clock:
                bundles = {
                    name: generate_design(preset(name, FLOW_SCALE), library)
                    for name in FLOW_DESIGNS
                }
            p.add("setup_s", clock)
            if traced:
                p.layer["bench.generate_s"] = clock.wall
                p.layer["bench.input_violations"] = sum(
                    len(check_design(b.design)) for b in bundles.values()
                )
            reports = {}
            for name in FLOW_DESIGNS:
                b = bundles[name]
                with Clock() as clock:
                    reports[name] = run_flow(
                        b.design, b.timer, b.scan_model, FlowConfig()
                    )
                p.add("work_s", clock)
            p.op_ms["suite"] = p.work_s * 1000.0
            p.peak_rss_mb = peak_rss_mb()
            p.attempted = len(FLOW_DESIGNS)

        for name in FLOW_DESIGNS:
            b, r = bundles[name], reports[name]
            p.digests.update(world_digests(name, b.design, b.timer, r.composition))
            p.counts[f"{name}.registers"] = r.final.total_regs
            p.counts[f"{name}.composed"] = len(r.composition.composed)
            p.counts[f"{name}.ilp_nodes"] = r.composition.ilp_nodes
            p.counts[f"{name}.sized"] = r.sizing.num_swapped if r.sizing else 0
        p.qor = qor(r.final for r in reports.values())

        with Clock() as reads:
            findings = {
                name: check_all(b.design, b.timer, b.scan_model)
                for name, b in bundles.items()
            }
        p.check_ms["suite"] = reads.seconds * 1000.0
        for name in FLOW_DESIGNS:
            b, r = bundles[name], reports[name]
            if check:
                p.fail(name, checks.flow_problems(r, b.design, b.timer, findings[name]))
                p.counts[f"{name}.explained_by_sizing"] = checks.explained_by_sizing(
                    r, b.design
                )
            else:
                p.fail(name, [f"check_all: {v}" for v in findings[name]])

        if traced:
            layer = p.layer
            for r in reports.values():
                _add(layer, trace_layers(r.trace, "flow", FLOW_STAGES))
                compose = next(x for x in r.trace.records if x.name == "compose")
                _add(layer, trace_layers(compose.children, "compose", COMPOSE_STAGES))
                _add(layer, compose_counter_layers(compose.children))
            layer.update(registry_layers(registry))
            layer["sta.build_s"] = span_seconds(tracer, "sta.full_timing")
            layer["sta.retimed_fraction"] = retimed_fraction(
                [(TimerStats(), b.timer.stats) for b in bundles.values()]
            )
            layer["check.check_all_s"] = reads.wall
        return p


# -- eco-serve ------------------------------------------------------------------


def eco_jobs(names: list[str], seed: int) -> list[JobRequest]:
    """The closed loop's fixed interleaved job list.

    Each round sends one seeded ``eco`` job per design (2 moves within
    3 um, then an incremental recompose); every fifth round also sends one
    read-only ``check`` job per design.  Replicas get the same storm seeds,
    so their worlds stay identical and the shared cache sees repeats.
    """
    jobs = []
    for k in range(ECO_ROUNDS):
        storm = seed * 1_000_003 + k
        for name in names:
            jobs.append(
                JobRequest(
                    kind="eco",
                    design=name,
                    params={"seed": storm, "moves": 2, "radius": 3.0},
                    id=f"eco-{name}-{k}",
                )
            )
        if k % ECO_CHECK_EVERY == ECO_CHECK_EVERY - 1:
            for name in names:
                jobs.append(JobRequest(kind="check", design=name, id=f"check-{name}-{k}"))
    return jobs


def serve_replicas(names: list[str], library):
    """Generate the replicas, register them over one shared cache, and
    prime each with one ``compose`` job; returns the registry and the
    priming replies."""
    registry = DesignRegistry(shared_cache=SharedComponentCache())
    registry.config.workers = 1
    for name in names:
        bundle = generate_design(preset(ECO_PRESET, ECO_SCALE), library)
        registry.add_bundle(name, bundle)
    primes = [
        run_direct(registry, JobRequest(kind="compose", design=name, id=f"prime-{name}"))
        for name in names
    ]
    return registry, primes


def run_direct(registry, request: JobRequest) -> JobResponse:
    """Run one job on the calling thread and answer it as the server's
    executor would."""
    try:
        return JobResponse.success(request, registry.run_job(request))
    except Exception as exc:
        code = getattr(exc, "code", ERR_JOB_FAILED)
        return JobResponse.failure(request, code, f"{type(exc).__name__}: {exc}")


async def _closed_loop(server, jobs):
    """One in-process client per design sends that design's share of
    ``jobs`` in order, each waiting for its reply before sending the next
    job (a closed loop with one client per design); returns
    ``[(request, sent, answered, response)]`` with ``perf_counter`` times.

    Replicas run identical job sequences, so the clients stay in step and
    each read overlaps the other design's read, not a varying mix of jobs.
    """
    shares: dict[str, list[JobRequest]] = {}
    for request in jobs:
        shares.setdefault(request.design, []).append(request)
    replies = []

    async def client(share: list[JobRequest]) -> None:
        for request in share:
            sent = time.perf_counter()
            response = await server.submit(request)
            replies.append((request, sent, time.perf_counter(), response))

    await asyncio.gather(*(client(share) for share in shares.values()))
    return replies


def clamp_overshoots(library) -> int:
    """Registers a served ``eco`` job leaves outside the die when asked to
    move them past its right edge: one register of each register libcell
    of ``ECO_PRESET`` at :data:`CLAMP_PROBE_SCALE`, counted by the
    ``cell-outside-die`` findings of a ``check`` job.

    This keeps the serve layer's clamp rounding defect visible (NOTES.md,
    trap 3): eco-serve's own scale cannot hit it.
    """
    registry = DesignRegistry()
    registry.config.workers = 1
    bundle = generate_design(preset(ECO_PRESET, CLAMP_PROBE_SCALE), library)
    registry.add_bundle("probe", bundle)
    design = bundle.design
    first: dict[str, object] = {}
    for cell in sorted(design.registers(), key=lambda c: c.name):
        if not (cell.fixed or cell.dont_touch):
            first.setdefault(cell.libcell.name, cell)
    moves = [
        {"cell": cell.name, "x": design.die.xhi + 10.0, "y": cell.origin.y}
        for cell in first.values()
    ]
    registry.run_job(
        JobRequest(kind="eco", design="probe", params={"cells": moves}, id="probe")
    )
    report = registry.run_job(JobRequest(kind="check", design="probe", id="check"))
    return sum(line.startswith("[cell-outside-die]") for line in report["report"])


class EcoServe:
    """A ``ComposeServer`` over replicas of D1 sharing one component cache,
    driven by a seeded closed loop of eco writes and check reads, one
    client per replica.

    Set-up primes each replica with one ``compose`` job run on the main
    thread, so set-up is timed like the other workloads' single-threaded
    set-up; it runs :data:`ECO_SETUPS` times and the loop serves the last.
    The loop runs in segments of :data:`ECO_SEGMENT_ROUNDS` rounds, each
    under its own clock, and a job's latency, submit to response, is
    rescaled by its segment's slowness.
    """

    name = "eco-serve"
    passes = 1

    def __init__(self, seed: int, workdir: str, trace: bool) -> None:
        self.seed = seed

    def close(self) -> None:
        pass

    def run_pass(self, traced: bool, check: bool) -> Pass:
        p = Pass()
        library = default_library()
        names = [f"{ECO_PRESET}-{i}" for i in range(ECO_REPLICAS)]
        jobs = eco_jobs(names, self.seed)
        per_segment = len(jobs) * ECO_SEGMENT_ROUNDS // ECO_ROUNDS
        segments = [
            jobs[i : i + per_segment] for i in range(0, len(jobs), per_segment)
        ]
        loop = asyncio.new_event_loop()
        server = None
        try:
            with observed(False):
                setups, primes = [], []
                for _ in range(ECO_SETUPS):
                    registry = None  # the clock's collection frees the last set-up
                    with Clock() as clock:
                        registry, primed = serve_replicas(names, library)
                    setups.append(clock)
                    primes += primed
                p.set_up_median(setups)
                if traced:
                    t0 = time.perf_counter()
                    bundles = [
                        generate_design(preset(ECO_PRESET, ECO_SCALE), library)
                        for _ in names
                    ]
                    p.layer["bench.generate_s"] = time.perf_counter() - t0
                    p.layer["bench.input_violations"] = sum(
                        len(check_design(b.design)) for b in bundles
                    )
                server = ComposeServer(
                    registry, queue_depth=len(jobs), executor_threads=ECO_REPLICAS
                )
                loop.run_until_complete(server.start())
                sessions = [registry.session(n) for n in names]
                stats_before = [s.timer.stats.snapshot() for s in sessions]
                busy_before = sum(registry.entry(n).busy_seconds for n in names)
                replies = []
                with observed(traced) as (obs_registry, tracer):
                    for segment in segments:
                        with Clock(threaded=True) as clock:
                            answered = loop.run_until_complete(
                                _closed_loop(server, segment)
                            )
                        p.add("work_s", clock)
                        replies += [(*r, clock) for r in answered]
                    p.peak_rss_mb = peak_rss_mb()
        finally:
            if server is not None:
                loop.run_until_complete(server.aclose())
            loop.close()

        eco = [r for r in replies if r[0].kind == "eco"]
        p.op_ms = {rq.id: (t1 - t0) / c.slowness * 1e3 for rq, t0, t1, _, c in eco}
        p.check_ms = {
            rq.id: (t1 - t0) / c.slowness * 1e3
            for rq, t0, t1, _, c in replies
            if rq.kind == "check"
        }
        p.attempted = len(primes) + len(replies)
        for response in primes + [r[3] for r in replies]:
            p.fail(response.id, checks.response_problems(response))

        for name, session in zip(names, sessions):
            p.digests.update(world_digests(name, session.design, session.timer))
            p.counts[f"{name}.registers"] = session.design.total_register_count()
        p.counts["dirty_registers"] = sum(
            r[3].result.get("dirty_registers", 0) for r in eco
        )
        p.counts["composed"] = sum(r[3].result.get("composed", 0) for r in eco)
        p.qor = qor(collect_metrics(s.design, s.timer, s.scan_model) for s in sessions)

        if traced:
            layer = p.layer
            layer.update(registry_layers(obs_registry))
            layer["sta.build_s"] = span_seconds(tracer, "sta.full_timing")
            layer["sta.retimed_fraction"] = retimed_fraction(
                zip(stats_before, [s.timer.stats for s in sessions])
            )
            for stage in COMPOSE_STAGES:
                layer[f"compose.{stage}_s"] = span_seconds(tracer, f"stage.{stage}")
            layer["compose.candidates"] = span_arg_total(
                tracer, "stage.enumerate", "candidates"
            )
            layer["compose.chosen"] = span_arg_total(tracer, "stage.solve", "chosen")
            for key in ("registers_recomputed", "registers_reused"):
                layer[f"compose.{key}"] = span_arg_total(tracer, "stage.analyze", key)
            layer["eco.recompose_s"] = sum(
                r[3].result.get("runtime_seconds", 0.0) for r in eco
            )
            layer["eco.dirty_registers"] = p.counts["dirty_registers"]
            handler_s = (
                sum(registry.entry(n).busy_seconds for n in names) - busy_before
            )
            layer["serve.handler_s"] = handler_s
            layer["serve.overlap"] = handler_s / p.wall["work_s"]
            layer["serve.queue_wait_s"] = (
                sum(t1 - t0 for _, t0, t1, *_ in replies) - handler_s
            )
            layer["check.check_all_s"] = span_seconds(tracer, "serve.job", kind="check")
            p.info["serve.shared_hit_ratio"] = layer["serve.shared_hit_ratio"]
            layer["bench.clamp_overshoots"] = clamp_overshoots(library)

        if check:
            for i, session in enumerate(sessions):
                problems = checks.session_oracle_problems(
                    session, self.seed * 7919 + i
                )
                p.attempted += 1
                p.fail(f"oracle-{names[i]}", problems)
        return p


# -- window-20k -----------------------------------------------------------------


def parse_inputs(paths: dict[str, str]):
    library = read_liberty(paths["lib"])
    design = read_verilog(paths["v"], library)
    read_def(paths["def"], design)
    return design


def freeze_outside_window(design, fraction: float) -> int:
    """Mark every register outside the lower-left ``fraction`` x
    ``fraction`` die corner ``dont_touch``; returns how many registers
    remain composable."""
    die = design.die
    xhi = die.xlo + fraction * die.width
    yhi = die.ylo + fraction * die.height
    composable = 0
    for cell in design.registers():
        if cell.origin.x <= xhi and cell.origin.y <= yhi:
            composable += not (cell.dont_touch or cell.fixed)
        else:
            cell.dont_touch = True
    return composable


class Window20k:
    """The ``huge`` preset at 20 000 registers, written to Liberty/Verilog/
    DEF once per run; each pass parses the files, freezes everything
    outside the lower-left 20% x 20% corner, and composes the window."""

    name = "window-20k"
    passes = 1

    def __init__(self, seed: int, workdir: str, trace: bool) -> None:
        self.tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=workdir)
        self.paths = {
            ext: os.path.join(self.tmp, f"huge.{ext}") for ext in ("lib", "v", "def")
        }
        try:
            library = default_library()
            spec = replace(PRESETS["huge"], n_registers=WINDOW_REGISTERS)
            t0 = time.perf_counter()
            bundle = generate_design(spec, library)
            self.generate_s = time.perf_counter() - t0
            # The generator's own defect count, kept visible (see NOTES.md).
            self.input_violations = len(check_design(bundle.design)) if trace else 0
            write_liberty(library, self.paths["lib"])
            write_verilog(bundle.design, self.paths["v"])
            write_def(bundle.design, self.paths["def"])
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def run_pass(self, traced: bool, check: bool) -> Pass:
        p = Pass()
        with observed(traced) as (registry, tracer):
            parses = []
            for _ in range(WINDOW_PARSES):
                design = None  # the clock's collection frees the previous parse
                with Clock() as clock:
                    design = parse_inputs(self.paths)
                parses.append(clock)
            p.set_up_median(parses)
            composable = freeze_outside_window(design, WINDOW_FRACTION)
            frozen = {
                c.name: (c.origin.x, c.origin.y, c.libcell.name)
                for c in design.registers()
                if c.dont_touch
            } if check else {}
            registers_before = design.total_register_count()

            with Clock() as build:
                timer = Timer(design, WINDOW_PERIOD)
                timer.summary()
            p.add("work_s", build)
            with Clock() as clock:
                result = compose_design(design, timer, None, workers=1)
            p.add("work_s", clock)
            p.op_ms["window"] = p.work_s * 1000.0
            p.peak_rss_mb = peak_rss_mb()
            p.attempted = 1

        p.digests.update(world_digests("window", design, timer, result))
        p.counts.update(
            composable=composable,
            registers_before=registers_before,
            registers_after=result.registers_after,
            composed=len(result.composed),
            ilp_nodes=result.ilp_nodes,
        )
        p.qor = qor([collect_metrics(design, timer)])

        reads = None
        if check:
            with Clock() as reads:
                output_findings = check_design(design)
            p.check_ms["window"] = reads.seconds * 1000.0
            # Findings the parsed input already had are not the compose's:
            # parse the input again to tell them apart, only when needed.
            input_findings = (
                check_design(parse_inputs(self.paths)) if output_findings else []
            )
            p.fail(
                "window",
                checks.window_problems(
                    input_findings,
                    output_findings,
                    design,
                    timer,
                    frozen,
                    registers_before,
                ),
            )

        if traced:
            layer = p.layer
            layer["bench.generate_s"] = self.generate_s
            layer["bench.input_violations"] = self.input_violations
            layer["io.parse_s"] = p.wall["setup_s"]
            layer["sta.build_s"] = build.wall
            layer.update(registry_layers(registry))
            layer["sta.retimed_fraction"] = retimed_fraction(
                [(TimerStats(), timer.stats)]
            )
            layer.update(trace_layers(result.trace, "compose", COMPOSE_STAGES))
            layer.update(compose_counter_layers(result.trace))
            layer["check.check_all_s"] = reads.wall if reads else 0.0
        return p


WORKLOADS = {w.name: w for w in (FlowD1D5, EcoServe, Window20k)}
