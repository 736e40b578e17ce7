"""Long-lived ECO composition sessions.

An :class:`EcoSession` owns a design, its timer, and its scan model, and
keeps the composition engine's analysis state alive between runs: the
per-register :class:`~repro.core.compatibility.RegisterInfo` map, the
compatibility graph, and a digest-keyed memo of solved connected
components (:class:`~repro.core.composer.CompositionCache`).

Feeding the session :class:`~repro.netlist.change.ChangeRecord` s (via
:meth:`EcoSession.edit` / :meth:`EcoSession.absorb` /
:meth:`EcoSession.observe`) and calling :meth:`EcoSession.recompose`
re-runs the analyze → graph → partition → enumerate → solve → apply →
scan → legalize pipeline scoped to the *dirty* registers — the ones whose
placement, connectivity, timing, or scan context changed — plus their
graph neighborhoods.  Components whose content fingerprint
(:func:`~repro.core.composer.component_digest`) is unchanged replay their
cached solver outcome without re-partitioning, re-enumerating, or
re-solving.

Because enumeration and solving are deterministic functions of component
content, an incremental recompose is *bit-identical* to running
:func:`~repro.core.composer.compose_design` from scratch on the same
netlist.  ``REPRO_ECO_AUDIT=1`` (or ``audit_mode=True``) shadow-checks
that claim after every incremental recompose: the pre-recompose design is
cloned, composed from scratch, and compared — groups, placements, nets,
chains, and the timing summary must all agree, else
:class:`EcoAuditError` is raised.

Edits the session cannot see — direct mutations made outside a
``session.edit()`` scope and never handed to ``absorb``/``observe`` —
void the cache's warranty; :meth:`recompose(full=True) <EcoSession.recompose>`
is the blanket resynchronization fallback.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, replace
from contextlib import contextmanager
from typing import Iterator

from repro import obs
from repro.check.oracles import (
    clone_world,
    composition_signature,
    placement_signature,
)
from repro.core.composer import (
    FINALIZE_PIPELINE,
    PASS_PIPELINE,
    ComposerConfig,
    ComposeState,
    CompositionCache,
    CompositionResult,
    compose_design,
)
from repro.engine import StageTrace
from repro.netlist.change import ChangeRecord, ChangeTracker
from repro.netlist.design import Design
from repro.netlist.store import NO_ID
from repro.scan.model import ScanModel
from repro.sta.timer import Timer

AUDIT_ENV = "REPRO_ECO_AUDIT"


def cache_namespace(design: Design, config: ComposerConfig) -> str:
    """Shared-cache namespace fingerprint for one session's world.

    :func:`~repro.core.composer.component_digest` deliberately excludes the
    library, the die, and the composer config ("fixed per session"), so a
    *cross-session* cache must carry them in its key.  Everything hashed
    here has a deterministic ``repr`` (dataclasses, plain values), so the
    namespace is stable across process restarts — which is what makes disk
    spill reusable between server runs.
    """
    h = hashlib.sha256()
    h.update(repr(design.library.name).encode())
    h.update(repr(sorted(c.name for c in design.library.cells())).encode())
    h.update(repr(design.die).encode())
    h.update(repr(config).encode())
    return f"{design.library.name}/{h.hexdigest()[:16]}"


def shared_session_cache(
    design: Design,
    config: ComposerConfig,
    shared: object,
) -> CompositionCache:
    """A session cache wired into a process-wide shared component tier.

    The returned :class:`~repro.core.composer.CompositionCache` falls
    through to ``shared`` on local misses, writes fresh solves through to
    it, and opts into full-mode replay (``replay_in_full``) so even a
    design's priming compose reuses components solved under another design
    or a previous server run.  This is the service-session configuration;
    plain :class:`EcoSession` construction keeps the classic per-session
    memo.
    """
    return CompositionCache(
        shared=shared,
        namespace=cache_namespace(design, config),
        library=design.library,
        replay_in_full=True,
    )


def _audit_env_enabled() -> bool:
    return os.environ.get(AUDIT_ENV, "") not in ("", "0")


class EcoAuditError(AssertionError):
    """An incremental recompose diverged from a from-scratch compose."""


@dataclass
class EcoStats:
    """What one :meth:`EcoSession.recompose` call did.

    ``incremental`` is whether the run was scoped to a dirty set (``False``
    for the priming compose, ``full=True``, or explicit ``passes``);
    ``dirty_registers`` is the initial work-set size.  The reuse counters
    fold the trace's per-stage ``*_reused``/``*_recomputed`` pairs.
    """

    result: CompositionResult
    incremental: bool
    dirty_registers: int
    audit_checked: bool = False

    @property
    def trace(self) -> StageTrace | None:
        return self.result.trace

    @property
    def reuse(self) -> dict[str, tuple[float, float]]:
        """Per-metric (reused, recomputed) totals of this recompose."""
        return self.trace.reuse_summary() if self.trace is not None else {}


class EcoSession:
    """A persistent composition context over one design.

    Parameters mirror :func:`~repro.core.composer.compose_design`;
    ``max_passes`` caps the convergence loop of an incremental recompose
    (default: ``config.passes``, the same bound the one-shot path uses) and
    ``audit_mode`` arms the shadow equivalence check (default: the
    ``REPRO_ECO_AUDIT`` environment variable).  ``cache`` lets repeated
    sessions over related designs share one
    :class:`~repro.core.composer.CompositionCache` — in particular its
    component memo, so components one session solved can be replayed in
    another instead of re-solved.
    """

    def __init__(
        self,
        design: Design,
        timer: Timer,
        scan_model: ScanModel | None = None,
        config: ComposerConfig | None = None,
        max_passes: int | None = None,
        audit_mode: bool | None = None,
        cache: CompositionCache | None = None,
    ) -> None:
        self.design = design
        self.timer = timer
        self.scan_model = scan_model
        self.config = config or ComposerConfig()
        self.max_passes = self.config.passes if max_passes is None else max_passes
        self.audit_mode = _audit_env_enabled() if audit_mode is None else audit_mode
        self.cache = cache if cache is not None else CompositionCache()
        self._primed = False
        self._pending: list[ChangeRecord] = []
        self._carry_records: list[ChangeRecord] = []
        self._carry_changed: set[str] | None = set()

    # -- feeding changes ----------------------------------------------------

    @contextmanager
    def edit(self) -> Iterator[ChangeTracker]:
        """Scope a design edit: the tracked record is absorbed on exit."""
        with self.design.track() as tracker:
            yield tracker
        self.absorb(tracker.record())

    def absorb(self, record: ChangeRecord) -> None:
        """Take ownership of an edit: patch the timer, queue for recompose."""
        self.timer.apply_change(record)
        if not record.is_empty:
            self._pending.append(record)

    def observe(self, record: ChangeRecord) -> None:
        """Queue an edit whose producer already patched the timer itself
        (e.g. sizing, which applies its own scoped changes)."""
        if not record.is_empty:
            self._pending.append(record)

    # -- recomposition ------------------------------------------------------

    def recompose(
        self, passes: int | None = None, full: bool = False
    ) -> EcoStats:
        """Re-run the composition pipeline over everything that changed.

        Incremental (the default once primed): the work-set is derived from
        the queued change records plus the timer's changed-cell ripples, and
        clean components replay their cached outcomes.  ``full=True`` — or an
        explicit ``passes`` count, which requests the one-shot
        :func:`~repro.core.composer.compose_design` semantics exactly —
        refreshes everything.
        """
        records = self._carry_records + self._pending
        self._pending = []
        self._carry_records = []

        incremental = self._primed and not full and passes is None
        ripples: set[str] | None = None
        if incremental:
            ripples = self.timer.drain_changed_cells()
            if ripples is None:
                incremental = False  # a full propagation happened: resync
            elif self._carry_changed is None:
                incremental = False
            else:
                ripples |= self._carry_changed
        self._carry_changed = set()

        reference = (
            clone_world(self.design, self.timer, self.scan_model)
            if incremental and self.audit_mode
            else None
        )

        t0 = time.perf_counter()
        trace = StageTrace()
        state = ComposeState(
            self.design,
            self.timer,
            self.scan_model,
            config=self.config,
            result=CompositionResult(
                registers_before=self.design.total_register_count()
            ),
            cache=self.cache,
        )
        if incremental:
            state.dirty, state.removed = self._dirty_from(records, ripples)
        dirty_count = len(state.dirty) if state.dirty is not None else len(
            self.design.registers()
        )

        limit = max(1, self.max_passes if passes is None else passes)
        consumed = 0
        hb = obs.get_heartbeat()
        if hb is not None:
            hb.update(dirty_registers=dirty_count, incremental=incremental)
        with obs.span(
            "eco.recompose",
            cat="eco",
            incremental=incremental,
            dirty_registers=dirty_count,
        ) as sp:
            for pass_index in range(limit):
                state.pass_index = pass_index
                if state.dirty is None:
                    # The analysis refreshes every register against current
                    # timing anyway: retire the ripple log so the next
                    # incremental recompose starts a clean epoch.
                    self.timer.drain_changed_cells()
                consumed = len(state.change_log)
                PASS_PIPELINE.run(state, trace)
                if not state.pass_cells or pass_index + 1 >= limit:
                    break
                if state.dirty is not None:
                    next_ripples = self.timer.drain_changed_cells()
                    if next_ripples is None:
                        state.dirty, state.removed = None, set()
                    else:
                        state.dirty, state.removed = self._dirty_from(
                            state.change_log[consumed:], next_ripples
                        )

            FINALIZE_PIPELINE.run(state, trace)
            sp.set(composed=len(state.result.composed))

        state.result.registers_after = self.design.total_register_count()
        state.result.runtime_seconds = time.perf_counter() - t0
        state.result.trace = trace

        reg = obs.get_registry()
        if incremental:
            reg.counter("eco.incremental_recomposes").inc()
            reg.counter("eco.incremental_seconds").inc(
                state.result.runtime_seconds
            )
        else:
            reg.counter("eco.full_recomposes").inc()
            reg.counter("eco.full_seconds").inc(state.result.runtime_seconds)
        obs.log(
            "eco.recompose",
            incremental=incremental,
            dirty_registers=dirty_count,
            composed=len(state.result.composed),
            runtime_seconds=round(state.result.runtime_seconds, 6),
        )

        # Everything logged after the last analysis refresh feeds the next
        # recompose's dirty set, together with the unclaimed timing ripples.
        self._carry_records = [
            r for r in state.change_log[consumed:] if not r.is_empty
        ]
        self._carry_changed = self.timer.drain_changed_cells()
        self._primed = True

        stats = EcoStats(
            result=state.result,
            incremental=incremental,
            dirty_registers=dirty_count,
        )
        if reference is not None:
            self._audit_compare(reference, limit, state.result)
            stats.audit_checked = True
        return stats

    # -- dirty-set derivation ----------------------------------------------

    def _dirty_from(
        self, records: list[ChangeRecord], ripples: set[str]
    ) -> tuple[set[str], set[str]]:
        """The registers an edit batch can have affected.

        A register's analysis (its ``info_signature``) reads three things:
        its own cell (library cell, flags, pin nets, position), the timing
        of its D and Q pins, and the bounding boxes of its D and Q nets.
        The dirty set is the union of the registers each can have changed
        for: (a) registers added/moved/resized/re-pinned by the records;
        (b) the timer's ripples, which name exactly the registers whose D
        or Q timing changed (skew assignments that never touched the
        netlist included); (c) registers with a D or Q pin on a rewired
        net or on a net of a cell in (a) — a neighbor's move can reshape a
        violating pin's net-bbox region even when its own delays happen
        not to change.

        Nets reach (c) only through D/Q pins: compatibility reads control
        and clock nets by *name*, never by geometry, so a register whose
        only pin on an edited net is a reset, scan-enable or clock pin has
        nothing to refresh.  Everything is read from store columns, so a
        reset net with thousands of sinks costs no views.
        """
        merged = ChangeRecord.merge(records)
        removed = set(merged.removed)
        store = self.design.store
        dirty: set[str] = set()
        affected_nets = {
            store.net_ids[name]
            for name in merged.rewired_nets
            if name in store.net_ids
        }

        movers = (
            list(merged.cells_added)
            + list(merged.moved)
            + list(merged.resized)
            + list(merged.touched)
        )
        for name in movers:
            cid = store.cell_ids.get(name)
            if cid is None:
                continue
            rec = store.libs[store.cell_lib[cid]]
            if rec.is_register:
                dirty.add(name)
            pin0 = int(store.cell_pin0[cid])
            affected_nets.update(store.pin_net[pin0 : pin0 + rec.n_pins].tolist())
        affected_nets.discard(NO_ID)

        for name in ripples:
            cid = store.cell_ids.get(name)
            if cid is not None and store.cell_is_register(cid):
                dirty.add(name)

        for nid in affected_nets:
            if store.net_clock[nid]:
                continue
            for tid in store.net_terminal_ids(nid):
                if tid & 1:
                    continue  # a design port
                slot = tid >> 1
                cid = int(store.pin_cell[slot])
                rec = store.libs[store.cell_lib[cid]]
                if slot - int(store.cell_pin0[cid]) in rec.dq_pins:
                    dirty.add(store.cell_name[cid])

        dirty -= removed
        return dirty, removed

    # -- audit mode ---------------------------------------------------------

    def _audit_compare(
        self,
        reference: tuple[Design, Timer, ScanModel | None],
        limit: int,
        result: CompositionResult,
    ) -> None:
        """Compose the pre-recompose clone from scratch and demand exact
        agreement."""
        ref_design, ref_timer, ref_scan = reference
        ref_result = compose_design(
            ref_design,
            ref_timer,
            ref_scan,
            config=replace(self.config, passes=limit),
        )

        groups = composition_signature(result)
        ref_groups = composition_signature(ref_result)
        if groups != ref_groups:
            raise EcoAuditError(
                "ECO audit: composed groups diverged from from-scratch compose\n"
                f"  incremental: {groups}\n"
                f"  reference:   {ref_groups}"
            )

        live = placement_signature(self.design)
        shadow = placement_signature(ref_design)
        if live != shadow:
            diff = {
                k
                for k in live.keys() | shadow.keys()
                if live.get(k) != shadow.get(k)
            }
            raise EcoAuditError(
                f"ECO audit: placements diverged on {sorted(diff)[:10]}"
            )

        if set(self.design.nets) != set(ref_design.nets):
            raise EcoAuditError(
                "ECO audit: net sets diverged: "
                f"{set(self.design.nets) ^ set(ref_design.nets)}"
            )

        if self.scan_model is not None:

            def chain_state(model: ScanModel):
                return {
                    name: (c.partition, c.ordered, tuple(c.cells))
                    for name, c in model.chains.items()
                }

            if chain_state(self.scan_model) != chain_state(ref_scan):
                raise EcoAuditError("ECO audit: scan chains diverged")

        live_summary = self.timer.summary()
        ref_summary = ref_timer.summary()
        if live_summary != ref_summary:
            raise EcoAuditError(
                "ECO audit: timing summaries diverged: "
                f"{live_summary} vs {ref_summary}"
            )
