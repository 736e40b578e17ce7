"""The server's design registry: named worlds, each behind an EcoSession.

A :class:`DesignRegistry` owns the long-lived state of the service — one
:class:`~repro.flow.session.EcoSession` per registered design, all wired
into one :class:`~repro.serve.cache.SharedComponentCache` — plus the
synchronous job handlers the server dispatches onto worker threads.
Handlers never run concurrently *for the same design* (the server
serializes each design's jobs through its queue), so a handler may
freely mutate its session's world; handlers for different designs run in
parallel and only meet inside the lock-protected shared cache and the
thread-safe obs registry.
"""

from __future__ import annotations

import math
import random
import time

from repro import obs
from repro.bench import generate_design, preset
from repro.core.composer import ComposerConfig
from repro.check.invariants import check_all, format_violations
from repro.flow.session import EcoSession, shared_session_cache
from repro.geometry.point import Point
from repro.library import default_library
from repro.serve.protocol import ERR_BAD_REQUEST, JobError, JobRequest

#: Per-job handler clock categories folded into a design's counters.
_MAX_VIOLATIONS_REPORTED = 50


class DesignEntry:
    """One named design and its session, plus per-design job counters."""

    def __init__(self, name: str, session: EcoSession, origin: dict | None = None):
        self.name = name
        self.session = session
        self.origin = dict(origin or {})
        self.jobs_done = 0
        self.jobs_failed = 0
        self.busy_seconds = 0.0

    def stats(self) -> dict:
        design = self.session.design
        return {
            "design": self.name,
            "primed": self.session._primed,
            "cells": len(design.cells),
            "registers": design.total_register_count(),
            "jobs_done": self.jobs_done,
            "jobs_failed": self.jobs_failed,
            "busy_seconds": round(self.busy_seconds, 6),
            "cache_components": len(self.session.cache.components),
            "cache_bytes": self.session.cache.total_bytes,
            **self.origin,
        }


class DesignRegistry:
    """Named designs sharing one process-wide component cache."""

    def __init__(self, shared_cache=None, config: ComposerConfig | None = None):
        self.shared_cache = shared_cache
        self.config = config or ComposerConfig()
        self._entries: dict[str, DesignEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def names(self) -> list[str]:
        return list(self._entries)

    def entry(self, name: str) -> DesignEntry:
        return self._entries[name]

    def session(self, name: str) -> EcoSession:
        return self._entries[name].session

    def add_bundle(self, name: str, bundle, origin: dict | None = None) -> DesignEntry:
        """Register a generated :class:`~repro.bench.generator.DesignBundle`."""
        if name in self._entries:
            raise ValueError(f"design {name!r} already registered")
        cache = None
        if self.shared_cache is not None:
            cache = shared_session_cache(
                bundle.design, self.config, self.shared_cache
            )
        session = EcoSession(
            bundle.design,
            bundle.timer,
            bundle.scan_model,
            config=self.config,
            cache=cache,
        )
        entry = DesignEntry(name, session, origin)
        self._entries[name] = entry
        return entry

    def add_preset(self, name: str, preset_name: str, scale: float = 1.0) -> DesignEntry:
        """Generate a synthetic preset world and register it under ``name``."""
        bundle = generate_design(preset(preset_name, scale=scale), default_library())
        return self.add_bundle(
            name, bundle, origin={"preset": preset_name, "scale": scale}
        )

    # -- job handlers (synchronous; called on a design's worker thread) -----

    def run_job(self, request: JobRequest) -> dict:
        """Dispatch one job against its design's session; returns the result
        payload.  Raises :class:`~repro.serve.protocol.JobError` for typed
        failures; any other exception is the server's cue to fail *this job
        only* (the session's committed state stays consistent — handlers
        mutate the world only through ``session.edit`` scopes that complete
        before recompose is entered)."""
        entry = self._entries[request.design]
        t0 = time.perf_counter()
        try:
            with obs.span(
                "serve.job",
                cat="serve",
                design=request.design,
                kind=request.kind,
                job=request.id,
            ):
                if request.kind == "compose":
                    result = self._run_compose(entry, request.params)
                elif request.kind == "eco":
                    result = self._run_eco(entry, request.params)
                elif request.kind == "check":
                    result = self._run_check(entry, request.params)
                else:  # "status" — the server answers globals; this is per-design
                    result = entry.stats()
            entry.jobs_done += 1
            reg = obs.get_registry()
            reg.counter(f"serve.design.{entry.name}.jobs_done").inc()
            return result
        except Exception:
            entry.jobs_failed += 1
            obs.get_registry().counter(f"serve.design.{entry.name}.jobs_failed").inc()
            raise
        finally:
            entry.busy_seconds += time.perf_counter() - t0

    def _recompose_summary(self, entry: DesignEntry, stats, params: dict) -> dict:
        session = entry.session
        result = stats.result
        summary = {
            "incremental": stats.incremental,
            "dirty_registers": stats.dirty_registers,
            "composed": len(result.composed),
            "registers_before": result.registers_before,
            "registers_after": result.registers_after,
            "runtime_seconds": round(result.runtime_seconds, 6),
        }
        if params.get("signatures"):
            # Exact-state digests, so a wire-only client can assert
            # bit-identity without reaching into the process.
            from repro.check.oracles import placement_signature, timing_signature

            summary["placement_digest"] = _digest(
                sorted(placement_signature(session.design).items())
            )
            summary["timing_digest"] = _digest(
                sorted(timing_signature(session.timer).items())
            )
        return summary

    def _run_compose(self, entry: DesignEntry, params: dict) -> dict:
        stats = entry.session.recompose(full=bool(params.get("full", False)))
        return self._recompose_summary(entry, stats, params)

    def _run_eco(self, entry: DesignEntry, params: dict) -> dict:
        session = entry.session
        design = session.design
        applied = 0
        explicit = params.get("cells")
        if explicit is not None:
            if not isinstance(explicit, list):
                raise JobError(ERR_BAD_REQUEST, "'cells' must be a list of moves")
            for move in explicit:
                cell = design.cells.get(str(move.get("cell")))
                if cell is None or not cell.is_register:
                    raise JobError(
                        ERR_BAD_REQUEST,
                        f"unknown or non-register cell {move.get('cell')!r}",
                    )
                x, y = _clamp_to_die(design, cell, float(move["x"]), float(move["y"]))
                with session.edit():
                    design.move_cell(cell, Point(x, y))
                applied += 1
        else:
            # Server-side seeded storm: planned against the *current* world,
            # one register at a time, so the plan never references a cell a
            # previous compose absorbed.  Deterministic given (seed, state).
            moves = int(params.get("moves", 0))
            radius = float(params.get("radius", 3.0))
            rng = random.Random(int(params.get("seed", 0)))
            for _ in range(moves):
                movable = [
                    c
                    for c in design.registers()
                    if not c.fixed and not c.dont_touch
                ]
                if not movable:
                    break
                cell = rng.choice(movable)
                x, y = _clamp_to_die(
                    design,
                    cell,
                    cell.origin.x + rng.uniform(-radius, radius),
                    cell.origin.y + rng.uniform(-radius, radius),
                )
                with session.edit():
                    design.move_cell(cell, Point(x, y))
                applied += 1
        if params.get("inject_fault"):
            # Test/ops hook (mirrors ``repro check --inject-fault``): blow up
            # after the edits committed, before recompose — exactly the shape
            # of a mid-job crash the fault tests must survive.
            raise RuntimeError("injected fault (inject_fault=true)")
        stats = session.recompose(full=bool(params.get("full", False)))
        summary = self._recompose_summary(entry, stats, params)
        summary["moves_applied"] = applied
        return summary

    def _run_check(self, entry: DesignEntry, params: dict) -> dict:
        sleep_s = float(params.get("sleep_s", 0.0))
        if sleep_s > 0:
            # Drain/back-pressure hook: hold the design's worker busy for a
            # bounded while (tests use it to fill the queue deterministically).
            time.sleep(min(sleep_s, 5.0))
        session = entry.session
        violations = check_all(
            session.design, timer=session.timer, scan_model=session.scan_model
        )
        report = format_violations(violations).splitlines()
        return {
            "clean": not violations,
            "violations": len(violations),
            "report": report[:_MAX_VIOLATIONS_REPORTED],
        }

    def stats(self) -> dict:
        data = {name: entry.stats() for name, entry in self._entries.items()}
        out = {"designs": data}
        if self.shared_cache is not None:
            out["shared_cache"] = self.shared_cache.stats()
        return out


def _digest(value) -> str:
    import hashlib

    return hashlib.sha256(repr(value).encode()).hexdigest()


def _clamp_to_die(design, cell, x: float, y: float) -> tuple[float, float]:
    """Clamp a requested origin so the cell's footprint stays on the die."""
    die = design.die
    lib = cell.libcell
    x = min(max(die.xlo, x), _last_origin(die.xhi, lib.width))
    y = min(max(die.ylo, y), _last_origin(die.yhi, lib.height))
    return x, y


def _last_origin(hi: float, size: float) -> float:
    """The largest origin whose extent ``origin + size`` stays ``<= hi``.

    ``hi - size`` can round up (79.7 - 6.68 == 73.02000000000001, which
    ends the footprint at 79.70000000000002), so step it down one float at
    a time until the sum holds; it is returned unchanged when it already
    does.
    """
    origin = hi - size
    while origin + size > hi:
        origin = math.nextafter(origin, -math.inf)
    return origin
