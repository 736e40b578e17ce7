"""The paper's contribution: placement-aware ILP-based MBR composition.

Pipeline (paper Sections 2-4):

1. :mod:`repro.core.compatibility` — per-register analysis and the
   functional / scan / placement / timing compatibility predicates;
2. :mod:`repro.core.graph` — the compatibility graph;
3. :mod:`repro.core.partition` — connected components + clock-position-
   driven K-partitioning into subgraphs of at most 30 nodes;
4. :mod:`repro.core.cliques` — Bron-Kerbosch maximal cliques and the
   dynamic-programming sub-clique enumeration against library widths;
5. :mod:`repro.core.candidates` — candidate MBRs, incomplete-MBR
   acceptance, and feasibility screening;
6. :mod:`repro.core.weights` — the convex-hull blocking test and the
   placement-aware weight w_i;
7. :mod:`repro.core.subproblem` — pure per-subgraph ILP specs/results,
   solved in-process one after another;
8. :mod:`repro.core.composer` — the stage pipeline (analyze → graph →
   partition → enumerate → solve → apply → scan → legalize) and solution
   application;
9. :mod:`repro.core.mapping` — library cell selection (drive resistance,
   clock-pin cap, scan style);
10. :mod:`repro.core.mbr_placement` — the wire-length LP placing each MBR;
11. :mod:`repro.core.heuristic` — the greedy pairwise baseline of Fig. 6
    (same stage pipeline, different solve stage).
"""

from repro.core.compatibility import (
    CompatibilityConfig,
    RegisterInfo,
    analyze_registers,
    functionally_compatible,
    placement_compatible,
    scan_compatible,
    timing_compatible,
)
from repro.core.graph import build_compatibility_graph
from repro.core.partition import partition_graph
from repro.core.cliques import enumerate_maximal_cliques, enumerate_subcliques
from repro.core.candidates import CandidateMBR, enumerate_candidates
from repro.core.weights import blocking_registers, candidate_weight
from repro.core.composer import (
    ComposerConfig,
    ComposeState,
    CompositionResult,
    compose_design,
)
from repro.core.heuristic import compose_design_heuristic
from repro.core.subproblem import (
    SubproblemResult,
    SubproblemSpec,
    solve_subproblem,
    solve_subproblems,
)
from repro.core.mapping import select_library_cell
from repro.core.mbr_placement import place_mbr

__all__ = [
    "CompatibilityConfig",
    "RegisterInfo",
    "analyze_registers",
    "functionally_compatible",
    "placement_compatible",
    "scan_compatible",
    "timing_compatible",
    "build_compatibility_graph",
    "partition_graph",
    "enumerate_maximal_cliques",
    "enumerate_subcliques",
    "CandidateMBR",
    "enumerate_candidates",
    "blocking_registers",
    "candidate_weight",
    "ComposerConfig",
    "ComposeState",
    "CompositionResult",
    "compose_design",
    "compose_design_heuristic",
    "SubproblemResult",
    "SubproblemSpec",
    "solve_subproblem",
    "solve_subproblems",
    "select_library_cell",
    "place_mbr",
]
