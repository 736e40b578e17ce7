"""Library cell definitions: combinational, register/MBR, clock cells.

Timing uses the linear model Section 4.1 of the paper describes: a cell's
delay through an output pin is ``intrinsic + drive_resistance * load_cap``.
A cell with low drive resistance drives more capacitance with less delay.
The paper uses CCS tables in production; the linear model preserves the
ordering that drives every mapping decision.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.library.functional import FunctionalClass, ScanStyle


class PinDirection(enum.Enum):
    INPUT = "input"
    OUTPUT = "output"


@dataclass(frozen=True, slots=True)
class PinDesc:
    """A library pin: name, direction, input capacitance, and the pin's
    offset from the cell origin (used by the Section 4.2 placement LP)."""

    name: str
    direction: PinDirection
    cap: float = 0.0  # pF, meaningful for inputs
    dx: float = 0.0  # microns from cell origin
    dy: float = 0.0


@dataclass(frozen=True)
class LibCell:
    """Base class for every library cell."""

    name: str
    area: float  # um^2
    width: float  # um (footprint)
    height: float  # um (row height)
    leakage: float  # nW
    pins: tuple[PinDesc, ...]
    drive_resistance: float  # kOhm-equivalent: ns per pF of load
    intrinsic_delay: float  # ns

    def pin(self, name: str) -> PinDesc:
        for p in self.pins:
            if p.name == name:
                return p
        raise KeyError(f"{self.name} has no pin {name!r}")

    def has_pin(self, name: str) -> bool:
        return any(p.name == name for p in self.pins)

    @property
    def input_pins(self) -> tuple[PinDesc, ...]:
        return tuple(p for p in self.pins if p.direction is PinDirection.INPUT)

    @property
    def output_pins(self) -> tuple[PinDesc, ...]:
        return tuple(p for p in self.pins if p.direction is PinDirection.OUTPUT)

    def delay(self, load_cap: float) -> float:
        """Pin-to-pin delay under the linear drive model (ns)."""
        return self.intrinsic_delay + self.drive_resistance * load_cap


@dataclass(frozen=True)
class CombCell(LibCell):
    """A combinational cell (INV, BUF, NAND2, ...)."""

    function: str = "buf"


@dataclass(frozen=True)
class ClockBufferCell(LibCell):
    """A clock buffer used by CTS-lite."""

    max_fanout_cap: float = 0.1  # pF the buffer is allowed to drive


@dataclass(frozen=True)
class ClockGateCell(LibCell):
    """An integrated clock gate (ICG).  Registers behind different ICGs have
    different effective clocks and are not functionally compatible."""


@dataclass(frozen=True)
class RegisterCell(LibCell):
    """A (multi-bit) register library cell.

    ``width_bits``
        Number of D/Q bit pairs.  Single-bit flops have ``width_bits == 1``.
    ``func_class``
        The functional signature shared by all widths of the family.
    ``scan_style``
        ``NONE`` / ``INTERNAL`` (one SI/SO, bits chained inside) / ``MULTI``
        (SI/SO per bit).
    ``clock_pin_cap``
        Capacitance of the (single, shared) clock pin — the quantity MBR
        composition reduces at the clock-tree leaves.
    ``setup`` / ``clk_to_q``
        Setup time at D and clock-to-Q delay intrinsic (per bit; the linear
        drive term is added on top of ``clk_to_q``).
    """

    width_bits: int = 1
    func_class: FunctionalClass = field(default_factory=FunctionalClass)
    scan_style: ScanStyle = ScanStyle.NONE
    clock_pin_cap: float = 0.001
    setup: float = 0.03
    hold: float = 0.01
    clk_to_q: float = 0.08

    # -- per-bit pin naming --------------------------------------------------

    def d_pin(self, bit: int) -> str:
        """Name of the D pin of ``bit`` (``D`` for 1-bit cells)."""
        self._check_bit(bit)
        return "D" if self.width_bits == 1 else f"D{bit}"

    def q_pin(self, bit: int) -> str:
        """Name of the Q pin of ``bit`` (``Q`` for 1-bit cells)."""
        self._check_bit(bit)
        return "Q" if self.width_bits == 1 else f"Q{bit}"

    def si_pin(self, bit: int = 0) -> str:
        """Scan-in pin: the cell's single SI for internal scan, per-bit SIn
        for multi-scan cells."""
        if self.scan_style is ScanStyle.MULTI:
            self._check_bit(bit)
            return "SI" if self.width_bits == 1 else f"SI{bit}"
        return "SI"

    def so_pin(self, bit: int = 0) -> str:
        """Scan-out pin (see :meth:`si_pin`)."""
        if self.scan_style is ScanStyle.MULTI:
            self._check_bit(bit)
            return "SO" if self.width_bits == 1 else f"SO{bit}"
        return "SO"

    def _check_bit(self, bit: int) -> None:
        if not 0 <= bit < self.width_bits:
            raise IndexError(f"{self.name}: bit {bit} out of range 0..{self.width_bits - 1}")

    # -- derived metrics -------------------------------------------------------

    @property
    def clock_pin_name(self) -> str:
        return "CKN" if self.func_class.negedge else "CK"

    @property
    def area_per_bit(self) -> float:
        """Area divided by bit count — the quantity the incomplete-MBR
        acceptance rule of Section 3 compares."""
        return self.area / self.width_bits

    @property
    def clock_cap_per_bit(self) -> float:
        return self.clock_pin_cap / self.width_bits

    def control_pins(self) -> tuple[str, ...]:
        """Control pin names this cell carries (shared across bits)."""
        pins = list(self.func_class.control_pin_names())
        return tuple(pins)

    def data_input_pins(self) -> tuple[str, ...]:
        return tuple(self.d_pin(b) for b in range(self.width_bits))

    def data_output_pins(self) -> tuple[str, ...]:
        return tuple(self.q_pin(b) for b in range(self.width_bits))


def register_pin_descs(
    width_bits: int,
    func_class: FunctionalClass,
    scan_style: ScanStyle,
    cell_width: float,
    cell_height: float,
    d_cap: float,
    clock_pin_cap: float,
    ctrl_cap: float,
) -> tuple[PinDesc, ...]:
    """Build the pin list of a register cell with evenly spread bit pins.

    D pins sit on the left edge, Q pins on the right, control pins on the
    bottom edge — a schematic but geometrically consistent layout so the
    Section 4.2 placement LP has real (dx, dy) pin offsets to work with.
    """
    pins: list[PinDesc] = []
    for b in range(width_bits):
        frac = (b + 0.5) / width_bits
        dname = "D" if width_bits == 1 else f"D{b}"
        qname = "Q" if width_bits == 1 else f"Q{b}"
        pins.append(PinDesc(dname, PinDirection.INPUT, d_cap, 0.0, frac * cell_height))
        pins.append(PinDesc(qname, PinDirection.OUTPUT, 0.0, cell_width, frac * cell_height))
    clk_name = "CKN" if func_class.negedge else "CK"
    pins.append(PinDesc(clk_name, PinDirection.INPUT, clock_pin_cap, cell_width / 2.0, 0.0))
    for i, ctrl in enumerate(func_class.control_pin_names()):
        pins.append(
            PinDesc(
                ctrl,
                PinDirection.INPUT,
                ctrl_cap,
                cell_width * (i + 1) / 5.0,
                0.0,
            )
        )
    if func_class.is_scan:
        if scan_style is ScanStyle.MULTI and width_bits > 1:
            for b in range(width_bits):
                frac = (b + 0.5) / width_bits
                pins.append(PinDesc(f"SI{b}", PinDirection.INPUT, d_cap, 0.0, frac * cell_height))
                pins.append(
                    PinDesc(f"SO{b}", PinDirection.OUTPUT, 0.0, cell_width, frac * cell_height)
                )
        else:
            pins.append(PinDesc("SI", PinDirection.INPUT, d_cap, 0.0, 0.0))
            pins.append(PinDesc("SO", PinDirection.OUTPUT, 0.0, cell_width, cell_height))
    return tuple(pins)
