"""The cell library container and its register-oriented queries."""

from __future__ import annotations

from dataclasses import dataclass

from repro.library.cells import (
    ClockBufferCell,
    ClockGateCell,
    CombCell,
    LibCell,
    RegisterCell,
)
from repro.library.functional import FunctionalClass, ScanStyle


@dataclass(frozen=True, slots=True)
class Technology:
    """Process/wire parameters shared by placement, STA, and CTS.

    ``wire_cap_per_um``
        Routed-wire capacitance per micron of Manhattan length (pF/um).
    ``wire_delay_per_um``
        Incremental path delay per micron of added wire length (ns/um); this
        is the constant Section 2 uses to convert positive slack into a
        timing-feasible move distance.
    ``row_height`` / ``site_width``
        Placement grid geometry (um).
    """

    wire_cap_per_um: float = 0.0002
    wire_delay_per_um: float = 0.0005
    row_height: float = 1.0
    site_width: float = 0.2


class CellLibrary:
    """A standard-cell library: combinational, clock, and register cells.

    Register cells are indexed by functional class so compatibility checking
    and MBR mapping (Sections 2 and 4.1) can enumerate the widths, scan
    styles, and drive strengths available to a group of design registers.
    """

    def __init__(self, name: str, technology: Technology | None = None) -> None:
        self.name = name
        self.technology = technology or Technology()
        self._cells: dict[str, LibCell] = {}
        self._registers_by_class: dict[FunctionalClass, list[RegisterCell]] = {}

    # -- population --------------------------------------------------------

    def add(self, cell: LibCell) -> None:
        if cell.name in self._cells:
            raise ValueError(f"duplicate library cell {cell.name!r}")
        self._cells[cell.name] = cell
        if isinstance(cell, RegisterCell):
            self._registers_by_class.setdefault(cell.func_class, []).append(cell)

    def __contains__(self, name: str) -> bool:
        return name in self._cells

    def __len__(self) -> int:
        return len(self._cells)

    def cell(self, name: str) -> LibCell:
        try:
            return self._cells[name]
        except KeyError:
            raise KeyError(f"library {self.name!r} has no cell {name!r}") from None

    def cells(self) -> list[LibCell]:
        return list(self._cells.values())

    # -- register queries ----------------------------------------------------

    def register_classes(self) -> list[FunctionalClass]:
        return list(self._registers_by_class.keys())

    def registers_of_class(self, func_class: FunctionalClass) -> list[RegisterCell]:
        """All register cells of a functional class (every width/drive/scan)."""
        return list(self._registers_by_class.get(func_class, ()))

    def widths_for(
        self,
        func_class: FunctionalClass,
        scan_styles: tuple[ScanStyle, ...] | None = None,
    ) -> tuple[int, ...]:
        """Sorted distinct MBR widths available for a functional class.

        This is the ``{1, 2, 3, 4, 8}`` set of Section 3 that clique
        enumeration matches bit counts against.
        """
        widths = {
            c.width_bits
            for c in self.registers_of_class(func_class)
            if scan_styles is None or c.scan_style in scan_styles
        }
        return tuple(sorted(widths))

    def register_cells(
        self,
        func_class: FunctionalClass,
        width_bits: int,
        scan_styles: tuple[ScanStyle, ...] | None = None,
    ) -> list[RegisterCell]:
        """Register cells of a class at an exact width (all drive strengths)."""
        return [
            c
            for c in self.registers_of_class(func_class)
            if c.width_bits == width_bits
            and (scan_styles is None or c.scan_style in scan_styles)
        ]

    def max_width_for(self, func_class: FunctionalClass) -> int:
        """The largest MBR width of a class (0 when the class is absent).

        Registers already at this width form "the largest possible MBR in
        their functional-equivalence class" and are not composable (Section 5).
        """
        widths = self.widths_for(func_class)
        return widths[-1] if widths else 0

    # -- clock cells ---------------------------------------------------------

    def clock_buffers(self) -> list[ClockBufferCell]:
        return sorted(
            (c for c in self._cells.values() if isinstance(c, ClockBufferCell)),
            key=lambda c: c.max_fanout_cap,
        )

    def clock_gates(self) -> list[ClockGateCell]:
        return [c for c in self._cells.values() if isinstance(c, ClockGateCell)]

    def comb_cells(self) -> list[CombCell]:
        return [c for c in self._cells.values() if isinstance(c, CombCell)]
