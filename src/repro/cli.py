"""Command-line driver: MBR composition over liberty/verilog/DEF files.

Usage::

    python -m repro.cli run --preset D1 --scale 0.25 \\
        [--trace-out t.json] [--manifest-out m.json]
    python -m repro.cli compose --lib repro28.lib --verilog design.v \\
        --def design.def --period 1.2 --out-prefix composed \\
        [--heuristic] [--trace] [--trace-out t.json]
    python -m repro.cli trace out.json --preset D1
    python -m repro.cli generate --preset D1 --scale 0.25 --out-prefix d1
    python -m repro.cli report --lib repro28.lib --verilog d.v --def d.def --period 1.2
    python -m repro.cli eco --preset D1 --moves 20 [--audit]
    python -m repro.cli check --preset D1 --storms 5 --seed 7 [--replay f.json]
    python -m repro.cli bench record [--history BENCH_history.jsonl]
    python -m repro.cli bench report [--history BENCH_history.jsonl] [--check]
    python -m repro.cli obs critical-path trace.json
    python -m repro.cli obs diff manifest_a.json manifest_b.json
    python -m repro.cli serve --designs D1 D1 --scale 0.25 --port 7821
    python -m repro.cli submit eco --design D1-0 --params '{"seed":7,"moves":3}'

``run`` executes the full flow on a synthetic preset (no files needed)
and can export the observability artifacts: ``--trace-out`` writes a
Chrome ``trace_event`` JSON (open it in Perfetto / ``chrome://tracing``),
``--manifest-out`` writes the validated run manifest (config + metrics
registry + span roll-up).  ``trace OUT.json`` is shorthand for ``run
--trace-out OUT.json``.  ``generate`` writes a synthetic benchmark to
disk; ``compose`` runs the paper's flow on files and writes the composed
netlist/placement; ``report`` prints the Table-1-style metrics of a
placed design; ``eco`` demonstrates incremental recomposition — a seeded
storm of localized register moves, each followed by
``EcoSession.recompose()``, reporting how much cached work every edit
reused (``--audit``, or ``REPRO_ECO_AUDIT=1``, shadow-checks each
recompose against a from-scratch compose).  ``check`` runs seeded edit
storms through an ``EcoSession`` with every invariant checker and
differential oracle armed (``repro.check``): exit 0 when clean, else a
violation report plus a deterministic reproducer JSON that ``--replay``
re-executes.  Structured run logs are available everywhere via
``REPRO_LOG=1`` (text) / ``REPRO_LOG_JSON=1`` (JSON lines).

``serve`` starts the compose-as-a-service front-end (:mod:`repro.serve`):
named preset designs behind long-lived ``EcoSession`` s, one process-wide
component cache (optionally spilled to ``--spill-dir``), a bounded job
queue with explicit ``queue_full`` rejections, and a JSON-lines TCP
protocol.  ``submit`` is the matching one-shot client: one job per
invocation, or ``--stdin`` to pipe request frames.

Performance intelligence: ``--profile out.folded`` (or
``REPRO_PROFILE=1``) samples the run's span stacks into a
collapsed-stack flamegraph file; ``--progress`` (or ``REPRO_PROGRESS=1``)
emits heartbeat progress events with ETA on stderr; ``bench record``,
run from the repository root, appends one perfbench record per workload
to ``BENCH_history.jsonl``, and ``bench report`` judges its trajectories
against ``bench_policy.json`` (``--check`` is the CI regression gate);
``obs critical-path`` / ``obs diff`` analyze exported traces and
manifests.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time

from repro import obs
from repro.bench import generate_design, preset
from repro.flow import EcoSession, FlowConfig, run_flow
from repro.geometry import Point, clamp_to_die
from repro.io import (
    read_def,
    read_liberty,
    read_verilog,
    write_def,
    write_liberty,
    write_verilog,
)
from repro.library import default_library
from repro.metrics import collect_metrics
from repro.reporting import format_stage_counters, format_stage_runtimes, format_table1
from repro.scan import ScanModel
from repro.sta import Timer


def _load(args):
    library = read_liberty(args.lib) if args.lib else default_library()
    design = read_verilog(args.verilog, library)
    read_def(args.def_file, design)
    scan_model = ScanModel.from_design(design)
    timer = Timer(design, clock_period=args.period)
    return library, design, scan_model, timer


def _install_obs(args) -> None:
    """Run-scoped observability: fresh registry always; tracer only when an
    artifact that needs spans was requested (tracing off = near-zero cost).

    ``--profile`` (or ``REPRO_PROFILE=1``/``=path``) additionally starts
    the sampling profiler — which needs spans, so it forces the tracer
    on.  ``--progress`` (or ``REPRO_PROGRESS=1``) starts the heartbeat
    emitter on stderr; the RSS/CPU resource sampler runs whenever a
    manifest or progress was requested, so long runs leave a timeline.
    """
    from repro.obs.profile import (
        default_profile_path,
        profile_env_enabled,
        progress_env_enabled,
    )

    obs.configure_logging()
    obs.set_registry(obs.MetricsRegistry())
    manifest_out = getattr(args, "manifest_out", None)
    profile_out = getattr(args, "profile", None)
    if not profile_out and profile_env_enabled():
        profile_out = default_profile_path()
    args.profile_out = profile_out
    progress_on = bool(getattr(args, "progress", False) or progress_env_enabled())
    traced = bool(getattr(args, "trace_out", None) or manifest_out or profile_out)
    obs.install_tracer(enabled=traced)
    if profile_out:
        obs.install_profiler()
    if progress_on or manifest_out:
        args._resources = obs.ResourceSampler().start()
        hb = obs.Heartbeat(stream=sys.stderr if progress_on else None)
        obs.set_heartbeat(hb)
        hb.start()


def _flow_summary(report) -> dict:
    """The manifest's ``flow`` section: headline results of one run."""
    comp = report.composition
    return {
        "design": report.design_name,
        "runtime_seconds": round(report.runtime_seconds, 6),
        "registers_before": comp.registers_before,
        "registers_after": comp.registers_after,
        "register_reduction": comp.register_reduction,
        "composed_groups": len(comp.composed),
        "ilp_nodes": comp.ilp_nodes,
        "wns": report.final.wns,
        "tns": report.final.tns,
    }


def _export_obs(args, design_name: str, config=None, flow: dict | None = None) -> None:
    """Write ``--trace-out``/``--manifest-out``/``--profile`` artifacts."""
    tracer = obs.get_tracer()
    trace_out = getattr(args, "trace_out", None)
    manifest_out = getattr(args, "manifest_out", None)
    profiler = obs.set_profiler(None)
    if profiler is not None:
        profiler.stop()
        stacks = profiler.write_folded(args.profile_out)
        print(
            f"wrote folded profile: {args.profile_out} "
            f"({stacks} stacks, {profiler.total_samples} samples, "
            f"{profiler.idle_samples} idle)"
        )
    heartbeat = obs.set_heartbeat(None)
    progress = None
    if heartbeat is not None:
        heartbeat.stop()
        progress = heartbeat.as_dict()
    sampler = getattr(args, "_resources", None)
    resources = None
    if sampler is not None:
        sampler.stop()
        resources = sampler.as_dict()
        print(
            f"resources: peak RSS {resources['peak_rss_bytes'] / 1e6:.1f} MB "
            f"over {resources['samples']} samples"
        )
    if trace_out and tracer is not None:
        tracer.write_chrome_trace(trace_out)
        print(f"wrote Chrome trace: {trace_out} ({len(tracer.records())} spans)")
    if manifest_out:
        manifest = obs.build_manifest(
            {"name": design_name},
            config=config,
            flow=flow,
            resources=resources,
            progress=progress,
        )
        obs.write_manifest(manifest_out, manifest)
        print(f"wrote run manifest: {manifest_out}")


def _print_trace(report, timer) -> None:
    print()
    print(format_stage_runtimes([report]))
    print()
    print(format_stage_counters([report]))
    print()
    print(report.trace.format())
    stats = timer.stats
    print()
    print(
        f"incremental timing: {stats.changes_applied} changes, "
        f"{stats.incremental_timings} incremental / {stats.full_timings} full "
        f"propagations; {stats.retimed_nodes} nodes retimed total, "
        f"last cone {stats.last_retimed_nodes}/{stats.graph_nodes} nodes"
    )


def cmd_run(args) -> int:
    """Run the full flow on a synthetic preset; export trace/manifest."""
    _install_obs(args)
    library = default_library()
    bundle = generate_design(preset(args.preset, scale=args.scale), library)
    config = FlowConfig(
        algorithm="heuristic" if args.heuristic else "ilp",
        decompose_widths=tuple(args.decompose) if args.decompose else (),
    )
    report = run_flow(bundle.design, bundle.timer, bundle.scan_model, config)
    print(format_table1([report]))
    if args.trace:
        _print_trace(report, bundle.timer)
    _export_obs(args, report.design_name, config=config, flow=_flow_summary(report))
    return 0


def cmd_generate(args) -> int:
    library = default_library()
    bundle = generate_design(preset(args.preset, scale=args.scale), library)
    write_liberty(library, f"{args.out_prefix}.lib")
    write_verilog(bundle.design, f"{args.out_prefix}.v")
    write_def(bundle.design, f"{args.out_prefix}.def")
    print(
        f"wrote {args.out_prefix}.lib/.v/.def: "
        f"{len(bundle.design.cells)} cells, "
        f"{bundle.design.total_register_count()} registers, "
        f"clock period {bundle.clock_period} ns"
    )
    return 0


def cmd_compose(args) -> int:
    _install_obs(args)
    _, design, scan_model, timer = _load(args)
    config = FlowConfig(
        algorithm="heuristic" if args.heuristic else "ilp",
        decompose_widths=tuple(args.decompose) if args.decompose else (),
    )
    report = run_flow(design, timer, scan_model, config)
    print(format_table1([report]))
    if args.trace:
        _print_trace(report, timer)
    _export_obs(args, report.design_name, config=config, flow=_flow_summary(report))
    if args.out_prefix:
        write_verilog(design, f"{args.out_prefix}.v")
        write_def(design, f"{args.out_prefix}.def")
        print(f"wrote {args.out_prefix}.v and {args.out_prefix}.def")
    return 0


def cmd_trace(args) -> int:
    """``repro trace OUT.json`` — shorthand for ``run --trace-out OUT.json``."""
    args.trace_out = args.output
    return cmd_run(args)


def cmd_eco(args) -> int:
    """Seeded ECO storm: localized register moves + incremental recompose."""
    _install_obs(args)
    library = default_library()
    bundle = generate_design(preset(args.preset, scale=args.scale), library)
    design, timer = bundle.design, bundle.timer
    session = EcoSession(
        design,
        timer,
        bundle.scan_model,
        audit_mode=True if args.audit else None,
    )

    t0 = time.perf_counter()
    prime = session.recompose()
    print(
        f"prime: {design.name} composed {len(prime.result.composed)} groups, "
        f"{prime.result.registers_before} -> {prime.result.registers_after} "
        f"registers in {time.perf_counter() - t0:.2f}s"
    )

    rng = random.Random(args.seed)
    totals: dict[str, list[float]] = {}
    eco_seconds = 0.0
    for move in range(args.moves):
        movable = [
            c for c in design.registers() if not c.fixed and not c.dont_touch
        ]
        if not movable:
            print("no movable registers left")
            break
        cell = rng.choice(movable)
        r = args.radius
        x, y = clamp_to_die(
            design.die,
            cell.libcell.width,
            cell.libcell.height,
            cell.origin.x + rng.uniform(-r, r),
            cell.origin.y + rng.uniform(-r, r),
        )
        with session.edit():
            design.move_cell(cell, Point(x, y))
        t0 = time.perf_counter()
        stats = session.recompose()
        dt = time.perf_counter() - t0
        eco_seconds += dt
        for key, (reused, recomputed) in stats.reuse.items():
            slot = totals.setdefault(key, [0.0, 0.0])
            slot[0] += reused
            slot[1] += recomputed
        line = (
            f"move {move:>3}: {cell.name:<12} dirty={stats.dirty_registers:>4} "
            f"composed={len(stats.result.composed)} {dt * 1e3:6.1f}ms"
        )
        if stats.audit_checked:
            line += "  [audit ok]"
        print(line)

    summary = timer.summary()
    print(
        f"\n{args.moves} edits in {eco_seconds:.2f}s; "
        f"WNS {summary.wns:.3f} TNS {summary.tns:.2f}"
    )
    for key, (reused, recomputed) in sorted(totals.items()):
        whole = reused + recomputed
        frac = (recomputed / whole) if whole else 0.0
        print(
            f"  {key:<12} reused {reused:>7.0f}  recomputed {recomputed:>7.0f}"
            f"  ({frac:.1%} recomputed)"
        )
    print(_cache_efficiency_line())
    _export_obs(args, f"eco-{args.preset}")
    return 0


def _cache_efficiency_line() -> str:
    """One-line cache-efficiency summary, sourced from the metrics registry."""
    counters = obs.get_registry().snapshot()["counters"]
    hits = counters.get("compose.cache.hits", 0)
    misses = counters.get("compose.cache.misses", 0)
    lookups = hits + misses
    rate = hits / lookups if lookups else 0.0
    line = (
        f"cache: {hits}/{lookups} component hits ({rate:.1%}), "
        f"{counters.get('compose.cache.evictions', 0)} evictions"
    )
    incr_n = counters.get("eco.incremental_recomposes", 0)
    full_n = counters.get("eco.full_recomposes", 0)
    if incr_n and full_n:
        incr_avg = counters.get("eco.incremental_seconds", 0.0) / incr_n
        full_avg = counters.get("eco.full_seconds", 0.0) / full_n
        saved = 1.0 - incr_avg / full_avg if full_avg > 0 else 0.0
        line += (
            f"; incremental recompose {incr_avg * 1e3:.1f}ms avg "
            f"vs {full_avg * 1e3:.1f}ms full ({saved:.1%} runtime saved)"
        )
    return line


def cmd_check(args) -> int:
    """Edit-storm fuzzing with every invariant checker and oracle armed.

    Exits 0 when every storm stays clean; on any violation, prints the
    report and dumps a deterministic reproducer JSON (seed + concrete
    edit trace) that ``repro check --replay FILE`` re-executes.
    """
    from repro.check.fuzz import replay, run_check, write_reproducer

    _install_obs(args)
    if args.replay:
        report = replay(args.replay)
    else:
        report = run_check(
            preset_name=args.preset,
            scale=args.scale,
            storms=args.storms,
            seed=args.seed,
            edits_per_storm=args.edits_per_storm,
            inject_fault=args.inject_fault,
        )
    print(report.format())
    _export_obs(args, f"check-{report.preset}")
    if report.ok:
        return 0
    out = write_reproducer(report, args.reproducer_out)
    print(f"wrote reproducer: {out} (replay with: repro check --replay {out})")
    return 1


def cmd_report(args) -> int:
    _, design, scan_model, timer = _load(args)
    metrics = collect_metrics(design, timer, scan_model)
    print(f"design {design.name}")
    print(f"  area               {metrics.area:.1f} um^2")
    print(f"  cells              {metrics.total_cells}")
    print(f"  registers          {metrics.total_regs} "
          f"({metrics.comp_regs} composable)")
    print(f"  width histogram    {metrics.width_histogram}")
    print(f"  clock buffers      {metrics.clk_bufs}")
    print(f"  clock capacitance  {metrics.clk_cap:.4f} pF")
    print(f"  WNS / TNS          {metrics.wns:.3f} / {metrics.tns:.2f} ns")
    print(f"  failing endpoints  {metrics.failing_endpoints}/{metrics.total_endpoints}")
    print(f"  overflow edges     {metrics.overflow_edges}")
    print(f"  wirelength         clk {metrics.wirelength_clk:.0f} + "
          f"other {metrics.wirelength_other:.0f} um")
    return 0


def cmd_bench_record(args) -> int:
    """Run perfbench on every workload and append one ``repro.bench.run/1``
    line per workload to ``--history``; appends nothing unless every run
    is correct with no failed operation."""
    from repro.obs import sentinel

    try:
        records = sentinel.record_benchmark(os.getcwd())
    except FileNotFoundError as exc:
        print(f"{exc}; run bench record from the repository root", file=sys.stderr)
        return 2
    except sentinel.RecordError as exc:
        print(f"bench record: {exc}", file=sys.stderr)
        return 1
    with open(args.history, "a", encoding="utf-8") as fh:
        for record in records:
            json.dump(record, fh, separators=(",", ":"), sort_keys=True)
            fh.write("\n")
    for record in records:
        print(
            f"{record['workload']}: {len(record['metrics'])} metrics, "
            f"slowness {record['slowness']:.3f}"
        )
    print(f"appended {len(records)} records to {args.history}")
    return 0


def cmd_bench_report(args) -> int:
    """The regression sentinel: judge every ``BENCH_history.jsonl``
    trajectory against ``bench_policy.json``; ``--check`` makes any
    regression a nonzero exit (the CI gate)."""
    from repro.obs import sentinel

    policy_path = args.policy or sentinel.default_policy_path()
    if os.path.exists(policy_path):
        policy = sentinel.load_policy(policy_path)
    elif args.policy:
        print(f"policy file not found: {policy_path}", file=sys.stderr)
        return 2
    else:
        policy = sentinel.Policy()
    try:
        records = sentinel.load_history(args.history)
    except FileNotFoundError:
        print(f"history file not found: {args.history}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    report = sentinel.evaluate_history(records, policy)
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2)
            fh.write("\n")
        print(f"wrote report JSON: {args.json_out}")
    print(report.format())
    return 1 if (args.check and not report.ok) else 0


def cmd_serve(args) -> int:
    """Run the compose job server until interrupted (SIGINT/SIGTERM)."""
    import asyncio
    import signal

    from repro.serve import ComposeServer, DesignRegistry, SharedComponentCache

    _install_obs(args)
    shared = SharedComponentCache(
        max_entries=args.cache_entries,
        max_bytes=args.cache_mb * 1024 * 1024,
        spill_dir=args.spill_dir,
    )
    registry = DesignRegistry(shared_cache=shared)
    for i, preset_name in enumerate(args.designs):
        name = f"{preset_name}-{i}"
        registry.add_preset(name, preset_name, scale=args.scale)
        entry = registry.entry(name)
        print(
            f"design {name}: preset {preset_name} @ scale {args.scale} "
            f"({entry.session.design.total_register_count()} registers)"
        )

    async def _serve() -> dict:
        server = ComposeServer(registry, queue_depth=args.queue_depth)
        host, port = await server.serve(args.host, args.port)
        print(f"repro serve: listening on {host}:{port} (queue depth {args.queue_depth})")
        print(f"submit with: repro submit status --host {host} --port {port}")
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
            except NotImplementedError:
                pass
        try:
            await stop.wait()
        finally:
            manifest = server.build_manifest()
            await server.aclose()
        return manifest

    try:
        manifest = asyncio.run(_serve())
    except KeyboardInterrupt:
        print("\ninterrupted")
        return 130
    print("shutting down")
    if args.manifest_out:
        obs.write_manifest(args.manifest_out, manifest)
        print(f"wrote run manifest: {args.manifest_out}")
    return 0


def cmd_submit(args) -> int:
    """One-shot client of a running ``repro serve`` instance."""
    from repro.serve import TcpClient, submit_stdin_lines

    try:
        client = TcpClient(args.host, args.port, timeout=args.timeout)
    except OSError as exc:
        print(f"cannot reach {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 2
    try:
        if args.stdin:
            failures = 0
            for response in submit_stdin_lines(client, sys.stdin):
                print(json.dumps(response))
                if not response.get("ok"):
                    failures += 1
            return 1 if failures else 0
        try:
            params = json.loads(args.params) if args.params else {}
        except json.JSONDecodeError as exc:
            print(f"--params is not valid JSON: {exc}", file=sys.stderr)
            return 2
        response = client.submit(args.kind, design=args.design, params=params)
        print(json.dumps(response.to_wire(), indent=2))
        return 0 if response.ok else 1
    except ConnectionError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    finally:
        client.close()


def cmd_obs_critical_path(args) -> int:
    """Longest self-time chain through a Chrome trace's span tree."""
    from repro.obs import analyze

    try:
        data = analyze.load_chrome_trace(args.trace)
    except (OSError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(analyze.format_critical_path(analyze.critical_path(data)))
    return 0


def cmd_obs_diff(args) -> int:
    """Per-stage / per-counter deltas between two run manifests."""
    from repro.obs import analyze

    try:
        manifest_a = analyze.load_manifest(args.manifest_a)
        manifest_b = analyze.load_manifest(args.manifest_b)
    except (OSError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    diff = analyze.diff_manifests(manifest_a, manifest_b)
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump(diff, fh, indent=2)
            fh.write("\n")
        print(f"wrote diff JSON: {args.json_out}")
    print(analyze.format_manifest_diff(diff, top=args.top))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli", description="MBR composition flow over design files"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic benchmark to disk")
    gen.add_argument("--preset", choices=["D1", "D2", "D3", "D4", "D5", "huge"], default="D1")
    gen.add_argument("--scale", type=float, default=0.25)
    gen.add_argument("--out-prefix", required=True)
    gen.set_defaults(func=cmd_generate)

    def add_design_io(p):
        p.add_argument("--lib", help="liberty-subset library (default: built-in)")
        p.add_argument("--verilog", required=True)
        p.add_argument("--def", dest="def_file", required=True)
        p.add_argument("--period", type=float, required=True, help="clock period (ns)")

    def add_flow_options(p):
        p.add_argument("--heuristic", action="store_true", help="Fig. 6 baseline")
        p.add_argument(
            "--decompose",
            type=int,
            nargs="*",
            help="MBR widths to decompose before composition (e.g. --decompose 8)",
        )
        p.add_argument(
            "--trace",
            action="store_true",
            help="print per-stage runtimes (the pipeline's StageTrace) and "
            "incremental-timing effort (retimed-node counts vs graph size)",
        )

    def add_profile_options(p):
        p.add_argument(
            "--profile",
            metavar="OUT.folded",
            help="sample the run's span stacks into a collapsed-stack "
            "(flamegraph) file; also: REPRO_PROFILE=1 or =path",
        )
        p.add_argument(
            "--progress",
            action="store_true",
            help="emit heartbeat progress events (stage, work done, ETA) "
            "on stderr for long runs; also: REPRO_PROGRESS=1",
        )

    def add_obs_outputs(p):
        p.add_argument(
            "--trace-out",
            dest="trace_out",
            help="write a Chrome trace_event JSON of the run's spans "
            "(open in Perfetto / chrome://tracing)",
        )
        p.add_argument(
            "--manifest-out",
            dest="manifest_out",
            help="write the validated run manifest JSON "
            "(config + metrics registry + span roll-up + resource timeline)",
        )
        add_profile_options(p)

    run = sub.add_parser(
        "run", help="run the full flow on a synthetic preset (no files needed)"
    )
    run.add_argument("--preset", choices=["D1", "D2", "D3", "D4", "D5", "huge"], default="D1")
    run.add_argument("--scale", type=float, default=0.25)
    add_flow_options(run)
    add_obs_outputs(run)
    run.set_defaults(func=cmd_run)

    trc = sub.add_parser(
        "trace", help="run a preset flow and write its Chrome trace JSON"
    )
    trc.add_argument("output", help="Chrome trace_event JSON output path")
    trc.add_argument("--preset", choices=["D1", "D2", "D3", "D4", "D5", "huge"], default="D1")
    trc.add_argument("--scale", type=float, default=0.25)
    add_flow_options(trc)
    trc.add_argument(
        "--manifest-out",
        dest="manifest_out",
        help="also write the validated run manifest JSON",
    )
    add_profile_options(trc)
    trc.set_defaults(func=cmd_trace)

    comp = sub.add_parser("compose", help="run the composition flow on files")
    add_design_io(comp)
    add_flow_options(comp)
    add_obs_outputs(comp)
    comp.add_argument("--out-prefix", help="write the composed design here")
    comp.set_defaults(func=cmd_compose)

    rep = sub.add_parser("report", help="print Table-1 metrics of a design")
    add_design_io(rep)
    rep.set_defaults(func=cmd_report)

    eco = sub.add_parser(
        "eco", help="incremental recomposition demo: edit storm on a session"
    )
    eco.add_argument("--preset", choices=["D1", "D2", "D3", "D4", "D5", "huge"], default="D1")
    eco.add_argument("--scale", type=float, default=0.4)
    eco.add_argument("--moves", type=int, default=20, help="number of register moves")
    eco.add_argument("--seed", type=int, default=11)
    eco.add_argument(
        "--radius", type=float, default=3.0, help="max move distance (um)"
    )
    eco.add_argument(
        "--audit",
        action="store_true",
        help="shadow-check every incremental recompose against a "
        "from-scratch compose (also: REPRO_ECO_AUDIT=1)",
    )
    eco.set_defaults(func=cmd_eco)

    chk = sub.add_parser(
        "check",
        help="seeded edit-storm fuzzing with invariant checkers and "
        "differential oracles; nonzero exit + reproducer JSON on violation",
    )
    chk.add_argument("--preset", choices=["D1", "D2", "D3", "D4", "D5", "huge"], default="D1")
    chk.add_argument("--scale", type=float, default=0.15)
    chk.add_argument("--storms", type=int, default=5, help="edit storms to run")
    chk.add_argument("--seed", type=int, default=7)
    chk.add_argument(
        "--edits-per-storm",
        dest="edits_per_storm",
        type=int,
        default=8,
        help="random edits per storm before recomposing (default: 8)",
    )
    chk.add_argument(
        "--inject-fault",
        dest="inject_fault",
        action="store_true",
        help="plant a deliberate multi-driver corruption in the first storm "
        "(self-test: must exit nonzero and write a reproducer)",
    )
    chk.add_argument(
        "--reproducer-out",
        dest="reproducer_out",
        default="repro_check_reproducer.json",
        help="where to write the reproducer JSON on failure",
    )
    chk.add_argument(
        "--replay",
        help="re-execute a reproducer JSON instead of fuzzing "
        "(deterministic: same violations every run)",
    )
    add_obs_outputs(chk)
    chk.set_defaults(func=cmd_check)

    bench = sub.add_parser(
        "bench", help="benchmark-trajectory tools (the regression sentinel)"
    )
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)
    brec = bench_sub.add_parser(
        "record",
        help="run perfbench on every BENCHMARK.json workload (seed 1, untraced "
        "and traced) and append one record per workload; run from the repo root",
    )
    brec.add_argument(
        "--history",
        default="BENCH_history.jsonl",
        help="trajectory log to append to (default: ./BENCH_history.jsonl)",
    )
    brec.set_defaults(func=cmd_bench_record)
    brep = bench_sub.add_parser(
        "report",
        help="judge every BENCH_history.jsonl trajectory against "
        "bench_policy.json (median + MAD rolling baseline)",
    )
    brep.add_argument(
        "--history",
        default="BENCH_history.jsonl",
        help="trajectory log to judge (default: ./BENCH_history.jsonl)",
    )
    brep.add_argument(
        "--policy",
        help="bench_policy.json path (default: the repo's checked-in policy; "
        "built-in defaults when absent)",
    )
    brep.add_argument(
        "--json",
        dest="json_out",
        help="also write the machine-readable report (repro.bench.report/1)",
    )
    brep.add_argument(
        "--check",
        action="store_true",
        help="exit 1 when any trajectory regressed (the CI gate)",
    )
    brep.set_defaults(func=cmd_bench_report)

    srv = sub.add_parser(
        "serve",
        help="compose-as-a-service: asyncio job server over named EcoSessions",
    )
    srv.add_argument(
        "--designs",
        nargs="+",
        choices=["D1", "D2", "D3", "D4", "D5", "huge"],
        default=["D1"],
        help="presets to serve (repeat a name for replicas; designs are "
        "registered as PRESET-0, PRESET-1, ...)",
    )
    srv.add_argument("--scale", type=float, default=0.25)
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=7821)
    srv.add_argument(
        "--queue-depth",
        dest="queue_depth",
        type=int,
        default=64,
        help="max jobs in flight before submissions are rejected queue_full",
    )
    srv.add_argument(
        "--cache-entries",
        dest="cache_entries",
        type=int,
        default=65536,
        help="shared component cache entry budget",
    )
    srv.add_argument(
        "--cache-mb",
        dest="cache_mb",
        type=int,
        default=256,
        help="shared component cache byte budget (MiB)",
    )
    srv.add_argument(
        "--spill-dir",
        dest="spill_dir",
        help="spill shared cache entries to digest-named files here "
        "(reused across server restarts)",
    )
    add_obs_outputs(srv)
    srv.set_defaults(func=cmd_serve)

    sbm = sub.add_parser(
        "submit", help="submit one job to a running repro serve instance"
    )
    sbm.add_argument("kind", choices=["compose", "eco", "check", "status"])
    sbm.add_argument("--design", help="registered design name (see serve startup log)")
    sbm.add_argument(
        "--params",
        help='job params as JSON, e.g. \'{"seed": 7, "moves": 3, "radius": 3.0}\'',
    )
    sbm.add_argument("--host", default="127.0.0.1")
    sbm.add_argument("--port", type=int, default=7821)
    sbm.add_argument("--timeout", type=float, default=300.0)
    sbm.add_argument(
        "--stdin",
        action="store_true",
        help="read request frames (JSON lines) from stdin instead",
    )
    sbm.set_defaults(func=cmd_submit)

    obsg = sub.add_parser("obs", help="trace/manifest analytics")
    obs_sub = obsg.add_subparsers(dest="obs_command", required=True)
    ocp = obs_sub.add_parser(
        "critical-path",
        help="longest self-time chain through a Chrome trace's span tree",
    )
    ocp.add_argument("trace", help="Chrome trace_event JSON (repro run --trace-out)")
    ocp.set_defaults(func=cmd_obs_critical_path)
    odf = obs_sub.add_parser(
        "diff", help="per-stage/per-counter deltas between two run manifests"
    )
    odf.add_argument("manifest_a", help="baseline run manifest JSON")
    odf.add_argument("manifest_b", help="comparison run manifest JSON")
    odf.add_argument(
        "--top", type=int, default=15, help="rows per section (default: 15)"
    )
    odf.add_argument("--json", dest="json_out", help="also write the raw diff JSON")
    odf.set_defaults(func=cmd_obs_diff)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Reports are meant to be piped into head/grep; a closed pipe is a
        # normal way for the read side to say "seen enough", not an error.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
