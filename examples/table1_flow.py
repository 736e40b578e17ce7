"""Full evaluation: regenerate the paper's Table 1, Fig. 5, and Fig. 6.

Runs the incremental MBR composition flow (ILP and heuristic baseline) on
all five synthetic industrial benchmarks and prints the three artifacts of
the paper's Section 5.

Run:  python examples/table1_flow.py [scale]
      (scale defaults to 0.25; 1.0 runs the full presets, several minutes)
"""

import sys

from repro.bench import generate_design, preset
from repro.flow import FlowConfig, run_flow
from repro.library import default_library
from repro.reporting import (
    format_fig5_histograms,
    format_fig6_comparison,
    format_stage_runtimes,
    format_table1,
)

DESIGNS = ["D1", "D2", "D3", "D4", "D5"]


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.25
    library = default_library()

    ilp_reports, heur_reports = [], []
    for name in DESIGNS:
        for algorithm, sink in (("ilp", ilp_reports), ("heuristic", heur_reports)):
            bundle = generate_design(preset(name, scale=scale), library)
            config = FlowConfig(algorithm=algorithm)
            report = run_flow(bundle.design, bundle.timer, bundle.scan_model, config)
            sink.append(report)
        print(f"{name}: ilp {ilp_reports[-1].base.total_regs} -> "
              f"{ilp_reports[-1].final.total_regs} regs, "
              f"heuristic -> {heur_reports[-1].final.total_regs} regs")

    print("\n=== Table 1: design characteristics before/after MBR composition ===")
    print(format_table1(ilp_reports))

    print("\n=== Fig. 5: MBR bit widths before & after composition ===")
    print(format_fig5_histograms(ilp_reports))

    print("\n=== Fig. 6: normalized registers, ILP vs heuristic ===")
    print(format_fig6_comparison(ilp_reports, heur_reports))

    print("\n=== Per-stage runtimes (ILP flow) ===")
    print(format_stage_runtimes(ilp_reports))


if __name__ == "__main__":
    main()
