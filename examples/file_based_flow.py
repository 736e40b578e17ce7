"""File-based flow: library + netlist + placement through disk formats.

Demonstrates the I/O layer the way a tool user would drive it: write the
cell library as Liberty-style text and the design as Verilog + DEF, read
everything back, extract the scan chains from the netlist, and run MBR
composition on the loaded design.

Run:  python examples/file_based_flow.py
"""

import tempfile
from pathlib import Path

from repro.bench import generate_design, preset
from repro.check import check_design
from repro.core.composer import compose_design
from repro.io import (
    read_def,
    read_liberty,
    read_verilog,
    write_def,
    write_liberty,
    write_verilog,
)
from repro.library import default_library
from repro.scan import ScanModel
from repro.sta import Timer


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro_flow_"))
    print(f"working directory: {workdir}")

    # Producer side: build and save a design.
    library = default_library()
    bundle = generate_design(preset("D2", scale=0.15), library)
    write_liberty(library, workdir / "repro28.lib")
    write_verilog(bundle.design, workdir / "design.v")
    write_def(bundle.design, workdir / "design.def")
    for name in ("repro28.lib", "design.v", "design.def"):
        size = (workdir / name).stat().st_size
        print(f"wrote {name}: {size} bytes")

    # Consumer side: a fresh session loads everything from disk.
    lib = read_liberty(workdir / "repro28.lib")
    design = read_verilog(workdir / "design.v", lib)
    read_def(workdir / "design.def", design)
    scan_model = ScanModel.from_design(design)
    print(f"loaded {design.name}: {len(design.cells)} cells, "
          f"{design.total_register_count()} registers, "
          f"{len(scan_model.chains)} scan chains")

    timer = Timer(design, clock_period=bundle.clock_period)
    before = timer.summary()
    result = compose_design(design, timer, scan_model)
    after = timer.summary()

    print(f"composed {len(result.composed)} MBR groups: "
          f"{result.registers_before} -> {result.registers_after} registers")
    print(f"timing: TNS {before.tns:.2f} -> {after.tns:.2f} ns, "
          f"failing endpoints {before.failing_endpoints} -> {after.failing_endpoints}")
    errors = check_design(design)
    print(f"netlist validation: {'clean' if not errors else errors}")

    write_verilog(design, workdir / "design_composed.v")
    write_def(design, workdir / "design_composed.def")
    print(f"saved composed design to {workdir}/design_composed.[v,def]")


if __name__ == "__main__":
    main()
