"""Instruction-set substrate for the SMT reproduction.

This package defines a small load/store RISC instruction set (standing in
for the Alpha ISA used by the paper), a two-pass assembler, a program image
container, and a functional emulator.  The emulator provides the
"oracle" stream of correct-path dynamic instructions that the timing core
consumes; wrong-path fetch reads static instructions straight from the
program image.
"""

from repro.isa.assembler import assemble
from repro.isa.emulator import Emulator

__all__ = ["Emulator", "assemble"]
