"""The MBR composition engine, as a pipeline of typed stages.

This ties Sections 2-4 together.  Each incremental pass runs the stage
pipeline **analyze → graph → partition → enumerate → solve → apply**, and
the run finishes with **scan → legalize**:

* *analyze* — per-register compatibility analysis;
* *graph* — the compatibility graph;
* *partition* — clock-pin-driven decomposition into ≤30-node subgraphs;
* *enumerate* — weighted candidate MBRs per subgraph;
* *solve* — the set-partitioning ILPs, detached into pure picklable
  :class:`~repro.core.subproblem.SubproblemSpec` s and (optionally) fanned
  out across a process pool (``ComposerConfig.workers``);
* *apply* — map, place, and commit every selected candidate (serial: it
  mutates the netlist and the scan model);
* *scan* / *legalize* — chain reordering/restitching and row legalization.

Every stage execution is timed into the :class:`CompositionResult.trace`
(:class:`repro.engine.StageTrace`).
"""

from __future__ import annotations

import hashlib
import math
import pickle
import time
from collections import OrderedDict
from dataclasses import dataclass, field

import networkx as nx

from repro import obs
from repro.core.candidates import CandidateConfig, CandidateMBR, enumerate_candidates
from repro.core.compatibility import (
    CompatibilityConfig,
    RegisterInfo,
    analyze_composable_registers,
    analyze_register,
    composability,
    info_signature,
)
from repro.core.graph import build_compatibility_graph, patch_compatibility_graph
from repro.core.mapping import MappingChoice
from repro.core.mbr_placement import place_mbr
from repro.core.partition import DEFAULT_MAX_NODES, partition_component
from repro.core.subproblem import make_spec, solve_subproblems
from repro.engine import FlowContext, Pipeline, StageTrace, stage
from repro.geometry.rect import Rect
from repro.geometry.region import FeasibleRegion
from repro.library.functional import ScanStyle
from repro.netlist.design import Design
from repro.netlist.edit import ComposeError, compose_mbr
from repro.netlist.registers import RegisterBit, RegisterView
from repro.placement.legalize import LegalizeResult, PlacementRows, legalize
from repro.scan.model import ScanModel
from repro.sta.timer import Timer


@dataclass
class ComposerConfig:
    """All knobs of one composition run."""

    compatibility: CompatibilityConfig = field(default_factory=CompatibilityConfig)
    candidates: CandidateConfig = field(default_factory=CandidateConfig)
    max_subgraph_nodes: int = DEFAULT_MAX_NODES
    solver: str = "exact"  # "exact" (our branch-and-bound) or "scipy"
    placement_method: str = "pwl"  # "pwl" or "lp"
    run_legalize: bool = True
    legalize_max_displacement: float | None = None
    passes: int = 2
    """Incremental composition passes.  The paper applies composition
    incrementally, including on MBRs composed earlier; a second pass over
    the re-analyzed design merges newly-adjacent MBRs (e.g. two fresh 4-bit
    cells into an 8-bit) and groups whose polygons became clean when their
    blockers merged away."""
    workers: int = 1
    """Process-pool width of the solve stage.  The per-subgraph ILPs are
    independent (Section 3), so they fan out across processes; ``1`` keeps
    the historical in-process serial path.  Both paths are bit-identical."""


@dataclass
class ComposedGroup:
    """One applied composition."""

    new_cell: str
    libcell: str
    members: tuple[str, ...]
    bits: int
    weight: float
    incomplete: bool


@dataclass
class CompositionResult:
    """Statistics and records of a composition run."""

    composed: list[ComposedGroup] = field(default_factory=list)
    rejected: list[tuple[tuple[str, ...], str]] = field(default_factory=list)
    registers_before: int = 0
    registers_after: int = 0
    composable_registers: int = 0
    subgraphs: int = 0
    candidates_considered: int = 0
    ilp_nodes: int = 0
    runtime_seconds: float = 0.0
    legalization: LegalizeResult | None = None
    trace: StageTrace | None = None

    @property
    def register_reduction(self) -> int:
        return self.registers_before - self.registers_after


@dataclass
class ComponentCache:
    """Cached outcome of one connected component, keyed by content digest.

    ``chosen`` is the solver's selection for the component (non-singleton
    candidates only).  Enumeration and solving are deterministic functions
    of the component's content, so a digest hit may replay ``chosen``
    verbatim instead of re-partitioning/re-enumerating/re-solving.
    """

    digest: str
    nodes: tuple[str, ...]
    subgraphs: int
    candidates: int
    ilp_nodes: int
    chosen: tuple[CandidateMBR, ...]


#: Version tag of the serialized :class:`ComponentCache` payload.  A spill
#: file carrying any other tag is discarded, never reinterpreted.
ENTRY_CODEC_SCHEMA = "repro.compose.component/1"


def entry_payload(entry: ComponentCache) -> dict:
    """Pure-data form of a cache entry (the spill / accounting codec).

    Library cells are referenced **by name** — the netlist store interns
    libcells by object identity, so a decoded entry must rebind against the
    live :class:`~repro.library.library.CellLibrary` rather than carry its
    own unpickled copies.  Regions flatten to their rect coordinates.
    """
    chosen = []
    for c in entry.chosen:
        m = c.mapping
        region = None
        if c.region is not None:
            r = c.region.rect
            region = (r.xlo, r.ylo, r.xhi, r.yhi, bool(c.region.pinned))
        chosen.append(
            {
                "members": list(c.members),
                "bits": c.bits,
                "weight": c.weight,
                "blockers": c.blockers,
                "cell": None if m is None else m.cell.name,
                "incomplete": False if m is None else bool(m.incomplete),
                "spare_bits": 0 if m is None else m.spare_bits,
                "region": region,
            }
        )
    return {
        "digest": entry.digest,
        "nodes": list(entry.nodes),
        "subgraphs": entry.subgraphs,
        "candidates": entry.candidates,
        "ilp_nodes": entry.ilp_nodes,
        "chosen": chosen,
    }


def entry_from_payload(payload: dict, library) -> ComponentCache:
    """Rebuild a :class:`ComponentCache` from its pure-data payload.

    Raises ``KeyError`` when a referenced cell name is unknown to
    ``library`` — callers treat any exception as "payload not trusted".
    """
    chosen = []
    for c in payload["chosen"]:
        mapping = None
        if c["cell"] is not None:
            mapping = MappingChoice(
                cell=library.cell(c["cell"]),
                incomplete=bool(c["incomplete"]),
                spare_bits=int(c["spare_bits"]),
            )
        region = None
        if c["region"] is not None:
            xlo, ylo, xhi, yhi, pinned = c["region"]
            region = FeasibleRegion(Rect(xlo, ylo, xhi, yhi), pinned=bool(pinned))
        chosen.append(
            CandidateMBR(
                members=tuple(c["members"]),
                bits=int(c["bits"]),
                weight=float(c["weight"]),
                blockers=int(c["blockers"]),
                mapping=mapping,
                region=region,
            )
        )
    return ComponentCache(
        digest=payload["digest"],
        nodes=tuple(payload["nodes"]),
        subgraphs=int(payload["subgraphs"]),
        candidates=int(payload["candidates"]),
        ilp_nodes=int(payload["ilp_nodes"]),
        chosen=tuple(chosen),
    )


def entry_blob(entry: ComponentCache) -> bytes:
    """Self-describing binary form of an entry (schema-tagged pickle)."""
    return pickle.dumps(
        {"schema": ENTRY_CODEC_SCHEMA, "payload": entry_payload(entry)},
        protocol=pickle.HIGHEST_PROTOCOL,
    )


def entry_from_blob(blob: bytes, library) -> ComponentCache:
    """Decode :func:`entry_blob` output; raises on any mismatch or damage."""
    wrapper = pickle.loads(blob)
    if not isinstance(wrapper, dict) or wrapper.get("schema") != ENTRY_CODEC_SCHEMA:
        raise ValueError(f"unknown component payload schema: {wrapper!r:.80}")
    return entry_from_payload(wrapper["payload"], library)


@dataclass
class CompositionCache:
    """Cross-recompose memo of the composition pipeline.

    Owned by a :class:`repro.flow.session.EcoSession`; ``compose_design``
    itself runs cache-less (``ComposeState.cache is None``), which keeps the
    one-shot path byte-identical to the pre-cache implementation.

    ``infos`` and ``graph`` are the live analysis state (mutated in place by
    the incremental analyze/graph stages); ``components`` maps content
    digests (see :func:`component_digest`) to :class:`ComponentCache`
    entries, LRU-bounded by **both** ``max_components`` and ``max_bytes``
    (sizes per :func:`entry_blob`, so a long session cannot grow the memo
    without bound).

    When ``shared`` is attached (a :class:`repro.serve.SharedComponentCache`
    or anything duck-typed like it), local misses fall through to the
    process-wide tier and fresh entries are written through to it; the
    shared tier needs ``namespace`` (library/config fingerprint — those are
    out of :func:`component_digest` by the "fixed per session" contract) and
    ``library`` (to rebind spilled entries' cells by name).

    ``replay_in_full`` opts *full* composes into cache reads.  The default
    (off) keeps the classic contract — full mode never reads, so one-shot
    composes stay byte-identical to the pre-cache implementation; server
    sessions switch it on so priming a design replays components already
    solved for another design (sound: replay is bit-identical by the digest
    contract, which the ECO audit shadow-checks).
    """

    infos: dict[str, RegisterInfo] = field(default_factory=dict)
    graph: object | None = None
    components: "OrderedDict[str, ComponentCache]" = field(
        default_factory=OrderedDict
    )
    max_components: int = 8192
    max_bytes: int = 64 * 1024 * 1024
    total_bytes: int = 0
    shared: object | None = None
    namespace: str = ""
    library: object | None = None
    replay_in_full: bool = False
    _entry_bytes: dict[str, int] = field(default_factory=dict)
    incumbents: "OrderedDict[tuple[str, ...], tuple[frozenset[str], ...]]" = field(
        default_factory=OrderedDict
    )
    """Last solver selection per subgraph, keyed by its sorted node-name
    tuple and stored as member-name groups (non-singletons only).  Unlike
    ``components``, this survives *content* changes: when a digest misses
    but the same registers re-form a subgraph, the prior selection is
    re-weighed against the fresh candidates into a
    :class:`~repro.ilp.setpart.WarmStart` bound that prunes the new solve
    immediately."""

    def get(self, digest: str) -> ComponentCache | None:
        entry = self.components.get(digest)
        if entry is not None:
            self.components.move_to_end(digest)
            obs.get_registry().counter("compose.cache.hits").inc()
            return entry
        obs.get_registry().counter("compose.cache.misses").inc()
        if self.shared is not None:
            entry = self.shared.get(
                digest, namespace=self.namespace, library=self.library
            )
            if entry is not None:
                # Adopt locally so the next lookup is a local hit; the entry
                # is already in the shared tier, so no write-through.
                self._store(entry)
        return entry

    def put(self, entry: ComponentCache) -> None:
        blob = self._store(entry)
        if self.shared is not None:
            self.shared.put(entry, namespace=self.namespace, blob=blob)

    def _store(self, entry: ComponentCache) -> bytes:
        """Insert into the local memo, then evict LRU to both budgets."""
        blob = entry_blob(entry)
        digest = entry.digest
        self.total_bytes -= self._entry_bytes.get(digest, 0)
        self.components[digest] = entry
        self.components.move_to_end(digest)
        self._entry_bytes[digest] = len(blob)
        self.total_bytes += len(blob)
        evicted = 0
        while len(self.components) > 1 and (
            len(self.components) > self.max_components
            or self.total_bytes > self.max_bytes
        ):
            old, _ = self.components.popitem(last=False)
            self.total_bytes -= self._entry_bytes.pop(old, 0)
            evicted += 1
        if evicted:
            obs.get_registry().counter("compose.cache.evictions").inc(evicted)
        return blob

    def get_incumbent(
        self, nodes: tuple[str, ...]
    ) -> tuple[frozenset[str], ...] | None:
        groups = self.incumbents.get(nodes)
        if groups is not None:
            self.incumbents.move_to_end(nodes)
        return groups

    def put_incumbent(
        self, nodes: tuple[str, ...], groups: tuple[frozenset[str], ...]
    ) -> None:
        self.incumbents[nodes] = groups
        self.incumbents.move_to_end(nodes)
        while len(self.incumbents) > self.max_components:
            self.incumbents.popitem(last=False)


def component_digest(
    nodes: list[str],
    graph: "nx.Graph",
    infos: dict[str, RegisterInfo],
    all_regs,
    scan_model: ScanModel | None,
) -> str:
    """Content fingerprint of one connected component.

    Covers everything partition/enumerate/solve read for the component:

    * every member's :func:`~repro.core.compatibility.info_signature`
      (slacks, region, center, class, bits — bit-exact);
    * the member's scan context — partition, chain, ordered flag, and chain
      position for *ordered* chains (unordered positions are free to change
      without affecting enumeration, so they stay out of the key);
    * the component's internal edges;
    * the centers of *foreign* registers strictly inside the members'
      footprint bounding box.  Candidate test polygons are subsets of that
      box, and blockers are centers strictly inside a polygon — so these
      centers are the only out-of-component state the placement weights can
      observe, and freezing them makes weight reuse sound.

    The library, die, and composer config are fixed per session and stay
    out of the key.
    """
    h = hashlib.blake2b(digest_size=16)
    node_set = set(nodes)
    xlo = ylo = math.inf
    xhi = yhi = -math.inf
    for name in nodes:
        info = infos[name]
        h.update(repr(info_signature(info)).encode())
        fp = info.cell.footprint
        xlo, ylo = min(xlo, fp.xlo), min(ylo, fp.ylo)
        xhi, yhi = max(xhi, fp.xhi), max(yhi, fp.yhi)
        if scan_model is not None:
            chain = scan_model.chain_of(name)
            if chain is None:
                h.update(b"|scan:-")
            else:
                pos = chain.position(name) if chain.ordered else -1
                h.update(
                    f"|scan:{chain.partition}:{chain.name}:"
                    f"{int(chain.ordered)}:{pos}".encode()
                )
    for a in nodes:
        for b in sorted(graph.adj[a]):
            if a < b:
                h.update(f"|e:{a}~{b}".encode())
    if all_regs is not None:
        for cx, cy in all_regs.centers_in_box(xlo, ylo, xhi, yhi, node_set):
            h.update(f"|f:{cx!r},{cy!r}".encode())
    return h.hexdigest()


@dataclass
class ComposeState(FlowContext):
    """Shared context of the composition pipeline (one run, all passes).

    ``dirty`` is the stage work-set: ``None`` means "everything" (the
    classic full compose — also the only mode when ``cache`` is ``None``),
    a set of register names scopes the analyze/graph/partition stages to
    those registers and their components.  ``removed`` names registers gone
    from the design since the cache was last current.  ``change_log``
    collects the ChangeRecords of every mutating stage so a session can
    compute the next recompose's dirty set.
    """

    config: ComposerConfig = field(default_factory=ComposerConfig)
    result: CompositionResult = field(default_factory=CompositionResult)
    workers: int = 1
    pass_index: int = 0
    infos: dict[str, RegisterInfo] = field(default_factory=dict)
    all_regs: object | None = None
    graph: object | None = None
    parts: list = field(default_factory=list)
    candidates: list[list[CandidateMBR]] = field(default_factory=list)
    chosen: list[CandidateMBR] = field(default_factory=list)
    new_cells: list = field(default_factory=list)
    pass_cells: list = field(default_factory=list)
    dirty: set[str] | None = None
    removed: set[str] = field(default_factory=set)
    cache: CompositionCache | None = None
    change_log: list = field(default_factory=list)
    analysis_changed: set[str] | None = None
    reused_chosen: list[CandidateMBR] = field(default_factory=list)
    comp_work: list = field(default_factory=list)


@stage("analyze")
def _stage_analyze(state: ComposeState):
    """(Re-)analyze the work-set's compatibility profiles.

    Only registers that pass
    :func:`~repro.core.compatibility.composability` get a
    :class:`RegisterInfo`; the rest are never viewed or timed, and reach
    the weights only as blockers, through the store-fed
    :class:`~repro.core.weights.RegisterField`.

    Full mode (``dirty is None`` or no primed cache): every composable
    register.  Incremental mode: only the dirty registers are
    re-analyzed; a refreshed info replaces the cached one only when its
    *content* changed (clean registers keep their exact objects, so graph
    node attributes stay consistent), a dirty register that is no longer
    composable leaves ``infos`` like a removed one, and the set of
    actually-changed names is handed to the graph stage.
    """
    from repro.core.weights import RegisterField

    incremental = (
        state.dirty is not None
        and state.cache is not None
        and bool(state.cache.infos)
    )
    if not incremental:
        state.infos = analyze_composable_registers(
            state.design, state.timer, state.config.compatibility
        )
        state.analysis_changed = None
        if state.cache is not None:
            state.cache.infos = state.infos
        refreshed = len(state.infos)
    else:
        infos = state.cache.infos
        changed: set[str] = set()
        for name in state.removed:
            if infos.pop(name, None) is not None:
                changed.add(name)
        refreshed = 0
        store, library = state.design.store, state.design.library
        for name in sorted(state.dirty):
            cid = store.cell_ids.get(name)
            if (
                cid is None
                or not store.cell_is_register(cid)
                or composability(store, cid, library)
            ):
                if infos.pop(name, None) is not None:
                    changed.add(name)
                continue
            refreshed += 1
            fresh = analyze_register(
                state.design,
                store.cell_view(cid),
                state.timer,
                state.config.compatibility,
            )
            old = infos.get(name)
            if old is None or info_signature(old) != info_signature(fresh):
                infos[name] = fresh
                changed.add(name)
        state.infos = infos
        state.analysis_changed = changed
    if state.pass_index == 0:
        state.result.composable_registers = len(state.infos)
    state.all_regs = RegisterField.from_design(state.design, state.infos)
    return {
        "registers": len(state.infos),
        "registers_recomputed": refreshed,
        "registers_reused": len(state.infos) - refreshed,
    }


@stage("graph")
def _stage_graph(state: ComposeState):
    """Build — or incrementally patch — the compatibility graph."""
    if (
        state.analysis_changed is None
        or state.cache is None
        or state.cache.graph is None
    ):
        state.graph = build_compatibility_graph(
            state.infos, state.scan_model, state.config.compatibility
        )
        if state.cache is not None:
            state.cache.graph = state.graph
        retested = state.graph.number_of_nodes()
    else:
        state.graph = state.cache.graph
        retested = patch_compatibility_graph(
            state.graph,
            state.infos,
            state.analysis_changed,
            state.scan_model,
            state.config.compatibility,
        )
    return {
        "nodes": state.graph.number_of_nodes(),
        "edges": state.graph.number_of_edges(),
        "nodes_recomputed": retested,
        "nodes_reused": state.graph.number_of_nodes() - retested,
    }


@stage("partition")
def _stage_partition(state: ComposeState):
    """Cut the graph into independent ≤max_nodes subgraphs.

    With a cache, every connected component is fingerprinted
    (:func:`component_digest`); in incremental mode a digest hit replays the
    cached solver selection and skips partition/enumerate/solve for that
    component entirely.  Full mode never *reads* the cache (identical
    behavior to the classic path) but still records digests for later reuse
    — unless the cache opts in via ``replay_in_full`` (service sessions do,
    so priming one design replays components solved for another).
    """
    if state.config.max_subgraph_nodes < 2:
        raise ValueError("max_nodes must be at least 2")
    parts: list = []
    state.reused_chosen = []
    state.comp_work = []
    reused = 0
    n_components = 0
    for component in nx.connected_components(state.graph):
        n_components += 1
        nodes = sorted(component)
        digest = None
        if state.cache is not None:
            digest = component_digest(
                nodes, state.graph, state.infos, state.all_regs, state.scan_model
            )
            if state.dirty is not None or state.cache.replay_in_full:
                entry = state.cache.get(digest)
                if entry is not None:
                    reused += 1
                    state.reused_chosen.extend(entry.chosen)
                    continue
        start = len(parts)
        parts.extend(
            partition_component(state.graph, nodes, state.config.max_subgraph_nodes)
        )
        state.comp_work.append((digest, tuple(nodes), start, len(parts)))
    state.parts = parts
    state.result.subgraphs += len(parts)
    reg = obs.get_registry()
    reg.counter("compose.components_reused").inc(reused)
    reg.counter("compose.components_recomputed").inc(n_components - reused)
    return {
        "subgraphs": len(parts),
        "components": n_components,
        "components_reused": reused,
        "components_recomputed": n_components - reused,
    }


@stage("enumerate")
def _stage_enumerate(state: ComposeState):
    """Enumerate and weigh candidate MBRs per subgraph."""
    state.candidates = [
        enumerate_candidates(
            part,
            state.all_regs,
            state.design.library,
            state.scan_model,
            state.config.candidates,
        )
        for part in state.parts
    ]
    count = sum(len(c) for c in state.candidates)
    state.result.candidates_considered += count
    return {"candidates": count}


def _warm_bound(
    nodes: tuple[str, ...],
    candidates: list[CandidateMBR],
    groups: tuple[frozenset[str], ...] | None,
) -> float:
    """Re-weigh a prior selection against the current candidate list.

    Returns the current-weight objective of completing ``groups`` with
    singletons — a known-feasible solution of the *current* instance, hence
    a sound :class:`~repro.ilp.setpart.WarmStart` bound.  Returns ``inf``
    (no warm start) when the prior selection is no longer expressible: a
    group that is not among today's candidates, overlaps another, or a
    member whose singleton candidate disappeared.
    """
    if groups is None:
        return float("inf")
    by_members: dict[frozenset[str], float] = {}
    for c in candidates:
        key = frozenset(c.members)
        w = by_members.get(key)
        if w is None or c.weight < w:
            by_members[key] = c.weight
    node_set = set(nodes)
    covered: set[str] = set()
    total = 0.0
    for g in groups:
        w = by_members.get(g)
        if w is None or not g <= node_set or covered & g:
            return float("inf")
        covered |= g
        total += w
    for name in node_set - covered:
        w = by_members.get(frozenset((name,)))
        if w is None:
            return float("inf")
        total += w
    return total


@stage("solve")
def _stage_solve(state: ComposeState):
    """Solve every subgraph's set-partitioning ILP (pure; fans out).

    Components replayed from the cache contribute their recorded selection
    without a solve; freshly solved components write their outcome back to
    the cache under the digest the partition stage computed.  When the
    session cache holds a prior selection for a subgraph (same node set,
    different content — e.g. re-weighed after neighbors moved), it is
    re-weighed into a warm-start bound that prunes the fresh solve without
    changing its result.
    """
    specs = []
    warm_specs = 0
    for i, (part, cands) in enumerate(zip(state.parts, state.candidates)):
        spec = make_spec(i, part.nodes, cands, state.config.solver)
        if state.cache is not None:
            wb = _warm_bound(spec.nodes, cands, state.cache.get_incumbent(spec.nodes))
            if wb < float("inf"):
                spec = make_spec(i, part.nodes, cands, state.config.solver, wb)
                warm_specs += 1
        specs.append(spec)
    results = solve_subproblems(specs, workers=state.workers)
    chosen: list[CandidateMBR] = []
    part_chosen: list[list[CandidateMBR]] = [[] for _ in state.parts]
    nodes = 0
    for k, (res, cands) in enumerate(zip(results, state.candidates)):
        nodes += res.nodes_explored
        picked = [c for c in (cands[i] for i in res.chosen) if not c.is_singleton]
        part_chosen[k] = picked
        chosen.extend(picked)
    if state.cache is not None:
        for k, spec in enumerate(specs):
            state.cache.put_incumbent(
                spec.nodes, tuple(frozenset(c.members) for c in part_chosen[k])
            )
        for digest, comp_nodes, start, end in state.comp_work:
            if digest is None:
                continue
            state.cache.put(
                ComponentCache(
                    digest=digest,
                    nodes=comp_nodes,
                    subgraphs=end - start,
                    candidates=sum(
                        len(state.candidates[k]) for k in range(start, end)
                    ),
                    ilp_nodes=sum(
                        results[k].nodes_explored for k in range(start, end)
                    ),
                    chosen=tuple(
                        c for k in range(start, end) for c in part_chosen[k]
                    ),
                )
            )
    state.result.ilp_nodes += nodes
    state.chosen = state.reused_chosen + chosen
    return {
        "subproblems": len(specs),
        "ilp_nodes": nodes,
        "chosen": len(state.chosen),
        "workers": state.workers,
        "warm_starts": warm_specs,
    }


@stage("apply")
def _stage_apply(state: ComposeState):
    """Map, place, and commit the selected candidates (mutates the design)."""
    with state.design.track() as tracker:
        state.pass_cells = _apply_candidates(
            state.design,
            state.chosen,
            state.infos,
            state.scan_model,
            state.config,
            state.result,
        )
    state.new_cells = [
        c for c in state.new_cells if c.name in state.design.cells
    ] + state.pass_cells
    record = tracker.record()
    state.change_log.append(record)
    state.timer.apply_change(record)
    return {"composed": len(state.pass_cells)}


@stage("scan")
def _stage_scan(state: ComposeState):
    """Reorder and restitch scan chains around the new MBRs."""
    if state.scan_model is None:
        return {"chains": 0}
    state.scan_model.reorder_chains(state.design)
    with state.design.track() as tracker:
        state.scan_model.restitch(state.design)
    record = tracker.record()
    state.change_log.append(record)
    state.timer.apply_change(record)
    return {"chains": len(state.scan_model.chains)}


@stage("legalize")
def _stage_legalize(state: ComposeState):
    """Row-legalize the freshly placed MBRs."""
    live = [c for c in state.new_cells if c.name in state.design.cells]
    if not (state.config.run_legalize and live):
        return {"moved": 0}
    rows = PlacementRows(
        state.design.die,
        state.design.library.technology.row_height,
        state.design.library.technology.site_width,
    )
    with state.design.track() as tracker:
        state.result.legalization = legalize(
            state.design,
            rows,
            movable=live,
            max_displacement=state.config.legalize_max_displacement,
        )
    record = tracker.record()
    state.change_log.append(record)
    state.timer.apply_change(record)
    return {"moved": len(state.result.legalization.moved)}


PASS_PIPELINE: Pipeline[ComposeState] = Pipeline(
    (
        _stage_analyze,
        _stage_graph,
        _stage_partition,
        _stage_enumerate,
        _stage_solve,
        _stage_apply,
    )
)

FINALIZE_PIPELINE: Pipeline[ComposeState] = Pipeline((_stage_scan, _stage_legalize))


def compose_design(
    design: Design,
    timer: Timer,
    scan_model: ScanModel | None = None,
    config: ComposerConfig | None = None,
    workers: int | None = None,
) -> CompositionResult:
    """Run the full placement-aware ILP composition on a placed design.

    The design is edited in place; ``timer`` absorbs every edit through
    scoped :meth:`~repro.sta.timer.Timer.apply_change` calls (dirty-cone
    retiming instead of full invalidation).  ``workers`` overrides ``config.workers`` (process-pool width of the
    solve stage; any value returns bit-identical results).  Returns the
    :class:`CompositionResult` record, including its stage
    :class:`~repro.engine.StageTrace`.
    """
    config = config or ComposerConfig()
    t0 = time.perf_counter()
    result = CompositionResult(registers_before=design.total_register_count())
    trace = StageTrace()
    state = ComposeState(
        design,
        timer,
        scan_model,
        config=config,
        result=result,
        workers=config.workers if workers is None else workers,
    )

    with obs.span(
        "compose.run", cat="compose", registers=result.registers_before
    ) as sp:
        for pass_index in range(max(1, config.passes)):
            state.pass_index = pass_index
            with obs.span("compose.pass", cat="compose", index=pass_index):
                PASS_PIPELINE.run(state, trace)
            if not state.pass_cells:
                break

        FINALIZE_PIPELINE.run(state, trace)

        result.registers_after = design.total_register_count()
        sp.set(
            registers_after=result.registers_after,
            composed=len(result.composed),
            ilp_nodes=result.ilp_nodes,
        )
    result.runtime_seconds = time.perf_counter() - t0
    result.trace = trace
    obs.log(
        "compose.done",
        registers_before=result.registers_before,
        registers_after=result.registers_after,
        composed=len(result.composed),
        runtime_seconds=round(result.runtime_seconds, 6),
    )
    return result


def _bit_order(
    members: list[RegisterInfo], scan_model: ScanModel | None
) -> list[RegisterBit]:
    """Old register bits in the order they take the new cell's bit slots.

    Members on a scan chain come in chain order (so an internal-scan MBR
    preserves it); remaining members follow in name order.
    """

    def sort_key(info: RegisterInfo):
        if scan_model is not None:
            chain = scan_model.chain_of(info.name)
            if chain is not None:
                return (0, chain.name, chain.position(info.name))
        return (1, info.name, 0)

    ordered = sorted(members, key=sort_key)
    bits: list[RegisterBit] = []
    for info in ordered:
        bits.extend(RegisterView(info.cell).connected_bits())
    return bits


def _bit_map(bit_order: list[RegisterBit]) -> dict[str, tuple[int, ...]]:
    """Map each source register to the new-cell bit indices it occupies."""
    mapping: dict[str, list[int]] = {}
    for new_index, old_bit in enumerate(bit_order):
        mapping.setdefault(old_bit.cell.name, []).append(new_index)
    return {name: tuple(indices) for name, indices in mapping.items()}


def _apply_candidates(
    design: Design,
    chosen: list[CandidateMBR],
    infos: dict[str, RegisterInfo],
    scan_model: ScanModel | None,
    config: ComposerConfig,
    result: CompositionResult,
):
    """Map, place, and commit every selected multi-register candidate."""
    new_cells = []
    for cand in sorted(chosen, key=lambda c: (-c.bits, c.members)):
        members = [infos[m] for m in cand.members]
        target = cand.mapping.cell
        bit_order = _bit_order(members, scan_model)
        region = _placement_window(design, cand.region.rect, target)
        origin = place_mbr(region, target, bit_order, method=config.placement_method)
        try:
            new_cell = compose_mbr(
                design,
                [m.cell for m in members],
                target,
                origin,
                bit_order=bit_order,
            ).new_cell
        except ComposeError as exc:
            result.rejected.append((cand.members, str(exc)))
            continue
        if scan_model is not None:
            scan_model.replace_group(
                list(cand.members),
                new_cell.name,
                bit_map=_bit_map(bit_order),
                multi=target.scan_style is ScanStyle.MULTI,
            )
        new_cells.append(new_cell)
        result.composed.append(
            ComposedGroup(
                new_cell=new_cell.name,
                libcell=target.name,
                members=cand.members,
                bits=cand.bits,
                weight=cand.weight,
                incomplete=cand.is_incomplete,
            )
        )
    return new_cells


def _placement_window(design: Design, region: Rect, target) -> Rect:
    """Clip a feasible region so the new cell stays on the die."""
    window = Rect(
        design.die.xlo,
        design.die.ylo,
        max(design.die.xlo, design.die.xhi - target.width),
        max(design.die.ylo, design.die.yhi - target.height),
    )
    clipped = region.intersect(window)
    if clipped is None:
        # Fully constrained region outside the window: take the window point
        # nearest the region (degenerate but safe).
        return Rect.point(window.clamp_point(region.center))
    return clipped
