"""Trace analytics: critical paths through span trees, manifest diffs.

Two questions any two runs should answer in one command:

* ``repro obs critical-path trace.json`` — *where did the time actually
  go?*  Loads a Chrome ``trace_event`` export (ours or anyone's
  complete-event trace), rebuilds the span forest per ``(pid, tid)``
  track by interval containment, computes every span's **self time**
  (duration minus children), and reports the root-to-leaf chain with the
  largest total self time — the trace's one-line answer to "what should
  the next perf PR attack".
* ``repro obs diff manifest_a manifest_b`` — *what changed between two
  runs?*  Compares the span roll-ups, metrics counters, and flow
  headline numbers of two run manifests and prints the per-stage /
  per-counter deltas sorted by impact.

Both run on the artifacts ``repro run --trace-out/--manifest-out``
already writes, so any archived run is comparable forever.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


# -- chrome-trace loading ----------------------------------------------------


def load_chrome_trace(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    problems = validate_chrome_trace(data)
    if problems:
        raise ValueError(f"{path}: not a usable Chrome trace — " + "; ".join(problems))
    return data


def validate_chrome_trace(data: object) -> list[str]:
    """Schema check of a Chrome ``trace_event`` payload (empty = valid).

    Accepts the JSON-object form (``{"traceEvents": [...]}``); every
    complete (``ph == "X"``) event must carry numeric ``ts``/``dur`` and
    ``pid``/``tid`` — the fields the analytics (and Perfetto) key on.
    """
    problems: list[str] = []
    if not isinstance(data, dict):
        return [f"trace must be an object, got {type(data).__name__}"]
    events = data.get("traceEvents")
    if not isinstance(events, list):
        return ["'traceEvents' must be a list"]
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {i}: must be an object")
            continue
        ph = event.get("ph")
        if ph not in ("X", "M", "B", "E", "i", "C"):
            problems.append(f"event {i}: unknown phase {ph!r}")
            continue
        if ph != "X":
            continue
        if not isinstance(event.get("name"), str):
            problems.append(f"event {i}: 'name' must be a string")
        for key in ("ts", "dur"):
            value = event.get(key)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                problems.append(f"event {i}: {key!r} must be a number")
        if isinstance(event.get("dur"), (int, float)) and event["dur"] < 0:
            problems.append(f"event {i}: 'dur' must be non-negative")
        for key in ("pid", "tid"):
            if key not in event:
                problems.append(f"event {i}: missing {key!r}")
    return problems


@dataclass
class SpanNode:
    """One complete event in the reconstructed span forest."""

    name: str
    start_us: float
    dur_us: float
    pid: int
    tid: int
    children: list["SpanNode"] = field(default_factory=list)

    @property
    def self_us(self) -> float:
        return max(0.0, self.dur_us - sum(c.dur_us for c in self.children))


def build_span_forest(data: dict) -> list[SpanNode]:
    """Rebuild span nesting from a Chrome trace by interval containment.

    Chrome complete events carry no parent links; within one
    ``(pid, tid)`` track, a span's parent is the closest earlier span
    whose interval contains it (exactly how Perfetto stacks them).
    Returns the forest's roots — one tree per outermost span, each
    ``(pid, tid)`` track contributing its own roots.
    """
    nodes = [
        SpanNode(
            name=e["name"],
            start_us=float(e["ts"]),
            dur_us=float(e["dur"]),
            pid=e["pid"],
            tid=e["tid"],
        )
        for e in data.get("traceEvents", [])
        if e.get("ph") == "X"
    ]
    roots: list[SpanNode] = []
    by_track: dict[tuple[int, int], list[SpanNode]] = {}
    for node in nodes:
        by_track.setdefault((node.pid, node.tid), []).append(node)
    for track in by_track.values():
        # Sort by start; ties (a parent and child starting the same
        # microsecond) put the longer span first so it encloses.
        track.sort(key=lambda n: (n.start_us, -n.dur_us))
        stack: list[SpanNode] = []
        for node in track:
            while stack and (
                node.start_us >= stack[-1].start_us + stack[-1].dur_us
                or node.start_us + node.dur_us > stack[-1].start_us + stack[-1].dur_us
            ):
                stack.pop()
            if stack:
                stack[-1].children.append(node)
            else:
                roots.append(node)
            stack.append(node)
    return roots


@dataclass(frozen=True)
class PathStep:
    """One hop of a critical path."""

    name: str
    dur_us: float
    self_us: float
    pid: int


def critical_path(data: dict) -> list[PathStep]:
    """The root-to-leaf chain with the largest total self time.

    Walks every tree of the reconstructed forest with a bottom-up DP
    (best chain below each node), then returns the globally best chain,
    outermost span first.  Self time — not duration — is what the chain
    maximizes, so a thin wrapper span never outranks the stage doing the
    work under it.
    """
    best_chain: list[SpanNode] = []
    best_score = -1.0

    def visit(node: SpanNode) -> tuple[float, list[SpanNode]]:
        best_child_score, best_child_chain = 0.0, []
        for child in node.children:
            score, chain = visit(child)
            if score > best_child_score:
                best_child_score, best_child_chain = score, chain
        return node.self_us + best_child_score, [node] + best_child_chain

    for root in build_span_forest(data):
        score, chain = visit(root)
        if score > best_score:
            best_score, best_chain = score, chain
    return [
        PathStep(name=n.name, dur_us=n.dur_us, self_us=n.self_us, pid=n.pid)
        for n in best_chain
    ]


def format_critical_path(steps: list[PathStep]) -> str:
    if not steps:
        return "empty trace: no complete events"
    total_self = sum(s.self_us for s in steps)
    lines = [
        f"critical path: {len(steps)} spans, "
        f"{total_self / 1e6:.4f}s attributable self time",
        f"{'span':<40} {'total(s)':>10} {'self(s)':>10} {'self%':>7}",
        f"{'-' * 40} {'-' * 10} {'-' * 10} {'-' * 7}",
    ]
    for depth, step in enumerate(steps):
        name = "  " * depth + step.name
        share = step.self_us / total_self if total_self > 0 else 0.0
        lines.append(
            f"{name:<40} {step.dur_us / 1e6:>10.4f} "
            f"{step.self_us / 1e6:>10.4f} {share:>6.1%}"
        )
    return "\n".join(lines)


# -- manifest diffing --------------------------------------------------------


def load_manifest(path: str) -> dict:
    from repro.obs.manifest import validate_manifest

    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    problems = validate_manifest(data)
    if problems:
        raise ValueError(f"{path}: invalid manifest — " + "; ".join(problems))
    return data


def _numeric_items(mapping: dict) -> dict[str, float]:
    return {
        k: float(v)
        for k, v in mapping.items()
        if isinstance(v, (int, float)) and not isinstance(v, bool)
    }


def _diff_numbers(a: dict[str, float], b: dict[str, float]) -> list[dict]:
    rows = []
    for key in sorted(a.keys() | b.keys()):
        va, vb = a.get(key), b.get(key)
        row = {"name": key, "a": va, "b": vb}
        if va is not None and vb is not None:
            row["delta"] = vb - va
            row["ratio"] = (vb / va) if va else None
        rows.append(row)
    return rows


def diff_manifests(a: dict, b: dict) -> dict:
    """Per-stage / per-counter deltas between two run manifests.

    Returns ``{"spans": [...], "counters": [...], "gauges": [...],
    "flow": [...]}`` — each a list of ``{name, a, b, delta, ratio}``
    rows (``delta``/``ratio`` absent when a side is missing the entry).
    Span rows compare ``total_s``.
    """
    spans_a = {k: v.get("total_s", 0.0) for k, v in a.get("spans", {}).items()}
    spans_b = {k: v.get("total_s", 0.0) for k, v in b.get("spans", {}).items()}
    metrics_a, metrics_b = a.get("metrics", {}), b.get("metrics", {})
    return {
        "spans": _diff_numbers(spans_a, spans_b),
        "counters": _diff_numbers(
            _numeric_items(metrics_a.get("counters", {})),
            _numeric_items(metrics_b.get("counters", {})),
        ),
        "gauges": _diff_numbers(
            _numeric_items(metrics_a.get("gauges", {})),
            _numeric_items(metrics_b.get("gauges", {})),
        ),
        "flow": _diff_numbers(
            _numeric_items(a.get("flow", {})), _numeric_items(b.get("flow", {}))
        ),
    }


def format_manifest_diff(diff: dict, top: int = 15) -> str:
    """The human view: each section's rows sorted by |delta|, largest
    first, capped at ``top`` rows (the cap is printed, never silent)."""
    lines: list[str] = []
    for section in ("flow", "spans", "counters", "gauges"):
        rows = [r for r in diff.get(section, []) if r.get("delta") is not None]
        rows.sort(key=lambda r: abs(r["delta"]), reverse=True)
        changed = [r for r in rows if r["delta"] != 0]
        if not changed:
            continue
        lines.append(f"{section} ({len(changed)} changed):")
        for row in changed[:top]:
            ratio = f" ({row['ratio']:.3f}x)" if row.get("ratio") else ""
            lines.append(
                f"  {row['name']:<40} {row['a']:>14.6g} -> "
                f"{row['b']:>14.6g}  {row['delta']:+.6g}{ratio}"
            )
        if len(changed) > top:
            lines.append(f"  ... {len(changed) - top} more (use --top to widen)")
    if not lines:
        return "no differences in comparable numeric entries"
    return "\n".join(lines)
