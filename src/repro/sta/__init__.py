"""Static timing analysis.

A graph-based STA over the placed netlist with the linear delay model of
Section 4.1 (drive resistance x load + intrinsic) and Manhattan wire delays,
giving the quantities the composition flow consumes:

* per-register **D-pin slack** (setup margin of the path *into* the
  register) and **Q-pin slack** (worst margin of the paths *out of* it) —
  the inputs to timing compatibility (Section 2) and feasible-region
  computation;
* **WNS / TNS / failing endpoints** — the Table 1 QoR guard-rails;
* per-register **clock arrival offsets** so useful skew (Section 5 / [5])
  can be applied and re-evaluated.

Clocks are ideal plus an explicit per-register skew map: composition runs
before CTS, exactly as in the paper's flow (Fig. 4).

:class:`TimingGraph` (``sta/graph.py``) holds every arc once, as a row of
``src``/``dst``/``delay``/``alive`` columns over store terminal ids, and
patches those rows in place after each netlist edit;
:class:`~repro.sta.arraygraph.ArrayKernel` (``sta/arraygraph.py``) sweeps
the rows with vectorized level passes; :class:`Timer` (``sta/timer.py``)
owns the seeds, the dirty cones and the queries.
"""

from repro.sta.graph import GraphPatch, TimingGraph
from repro.sta.timer import (
    EndpointSlack,
    RegisterSlack,
    Timer,
    TimerStats,
    TimingAuditError,
    TimingSummary,
)

__all__ = [
    "GraphPatch",
    "TimingGraph",
    "Timer",
    "TimerStats",
    "TimingAuditError",
    "TimingSummary",
    "EndpointSlack",
    "RegisterSlack",
]
