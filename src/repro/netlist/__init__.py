"""Netlist database: cells, pins, nets, ports, and netlist editing.

This is the in-memory design representation every other substrate works on:
placement annotates cell origins, STA walks pins and nets, the composition
engine rewires registers into MBRs through :mod:`repro.netlist.edit`.
"""

from repro.netlist.change import ChangeRecord, ChangeTracker
from repro.netlist.db import Cell, Net, Pin, Port
from repro.netlist.design import Design
from repro.netlist.registers import RegisterBit, RegisterView
from repro.netlist.edit import ComposeError, compose_mbr

__all__ = [
    "Cell",
    "ChangeRecord",
    "ChangeTracker",
    "Net",
    "Pin",
    "Port",
    "Design",
    "RegisterBit",
    "RegisterView",
    "ComposeError",
    "compose_mbr",
]
