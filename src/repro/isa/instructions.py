"""Instruction definitions for the reproduction ISA.

The ISA is a conventional 64-bit load/store RISC, deliberately close in
spirit to the Alpha ISA the paper simulates: 32 integer registers, 32
floating-point registers, 4-byte instructions, and the instruction-class
latencies of Table 1 of the paper.

Only the pieces of the ISA that matter to a timing model are represented:
each static instruction knows its opcode, operand registers (and which
register file each lives in), immediate, and branch target.  The functional
emulator in :mod:`repro.isa.emulator` gives these instructions their
semantics.
"""

from __future__ import annotations

import enum
from dataclasses import FrozenInstanceError
from typing import Optional, Tuple


class RegFile(enum.IntEnum):
    """Which physical register file an operand register lives in."""

    INT = 0
    FP = 1


class InstrClass(enum.IntEnum):
    """Instruction classes; these determine latency (paper Table 1) and
    which instruction queue / functional unit an instruction uses."""

    INT_ALU = 0        # all other integer: latency 1
    INT_MUL = 1        # integer multiply: latency 8
    INT_MULQ = 2       # wide integer multiply: latency 16
    INT_CMP = 3        # compare: latency 0
    INT_CMOV = 4       # conditional move: latency 2
    FP_ALU = 5         # all other FP: latency 4
    FP_DIV = 6         # FP divide (single): latency 17
    FP_DIVD = 7        # FP divide (double): latency 30
    LOAD = 8           # load (cache hit): latency 1
    STORE = 9
    BRANCH = 10        # conditional branch
    JUMP = 11          # unconditional direct jump / call
    JUMP_IND = 12      # indirect jump / return
    NOP = 13
    HALT = 14


#: Instruction latencies in cycles, from Table 1 of the paper.  Latency is
#: the producer-to-consumer distance: a latency-1 producer issued at cycle
#: ``t`` can feed a consumer issued at ``t + 1``; a latency-0 compare can
#: feed a consumer issued in the same cycle.
INSTRUCTION_LATENCIES = {
    InstrClass.INT_ALU: 1,
    InstrClass.INT_MUL: 8,
    InstrClass.INT_MULQ: 16,
    InstrClass.INT_CMP: 0,
    InstrClass.INT_CMOV: 2,
    InstrClass.FP_ALU: 4,
    InstrClass.FP_DIV: 17,
    InstrClass.FP_DIVD: 30,
    InstrClass.LOAD: 1,
    InstrClass.STORE: 1,
    InstrClass.BRANCH: 1,
    InstrClass.JUMP: 1,
    InstrClass.JUMP_IND: 1,
    InstrClass.NOP: 1,
    InstrClass.HALT: 1,
}


class Opcode(enum.Enum):
    """Every opcode in the reproduction ISA.

    The value is ``(mnemonic, instruction class)``.
    """

    # Integer ALU, register-register.
    ADD = ("add", InstrClass.INT_ALU)
    SUB = ("sub", InstrClass.INT_ALU)
    AND = ("and", InstrClass.INT_ALU)
    OR = ("or", InstrClass.INT_ALU)
    XOR = ("xor", InstrClass.INT_ALU)
    SLL = ("sll", InstrClass.INT_ALU)
    SRL = ("srl", InstrClass.INT_ALU)
    SRA = ("sra", InstrClass.INT_ALU)
    # Integer ALU, register-immediate.
    ADDI = ("addi", InstrClass.INT_ALU)
    ANDI = ("andi", InstrClass.INT_ALU)
    ORI = ("ori", InstrClass.INT_ALU)
    XORI = ("xori", InstrClass.INT_ALU)
    SLLI = ("slli", InstrClass.INT_ALU)
    SRLI = ("srli", InstrClass.INT_ALU)
    LI = ("li", InstrClass.INT_ALU)
    # Multiplies (Table 1: "integer multiply 8,16").
    MUL = ("mul", InstrClass.INT_MUL)
    MULQ = ("mulq", InstrClass.INT_MULQ)
    # Compares (Table 1: "compare 0").
    CMPEQ = ("cmpeq", InstrClass.INT_CMP)
    CMPLT = ("cmplt", InstrClass.INT_CMP)
    CMPLE = ("cmple", InstrClass.INT_CMP)
    # Conditional move (Table 1: "conditional move 2").
    CMOVZ = ("cmovz", InstrClass.INT_CMOV)
    CMOVNZ = ("cmovnz", InstrClass.INT_CMOV)
    # Floating point (Table 1: "all other FP 4", "FP divide 17,30").
    FADD = ("fadd", InstrClass.FP_ALU)
    FSUB = ("fsub", InstrClass.FP_ALU)
    FMUL = ("fmul", InstrClass.FP_ALU)
    FCMP = ("fcmp", InstrClass.FP_ALU)
    FCVT = ("fcvt", InstrClass.FP_ALU)
    FMOV = ("fmov", InstrClass.FP_ALU)
    FDIV = ("fdiv", InstrClass.FP_DIV)
    FDIVD = ("fdivd", InstrClass.FP_DIVD)
    # Memory (Table 1: "load (cache hit) 1").
    LD = ("ld", InstrClass.LOAD)
    ST = ("st", InstrClass.STORE)
    FLD = ("fld", InstrClass.LOAD)
    FST = ("fst", InstrClass.STORE)
    # Control.
    BEQZ = ("beqz", InstrClass.BRANCH)
    BNEZ = ("bnez", InstrClass.BRANCH)
    J = ("j", InstrClass.JUMP)
    JAL = ("jal", InstrClass.JUMP)
    JR = ("jr", InstrClass.JUMP_IND)
    RET = ("ret", InstrClass.JUMP_IND)
    # Misc.
    NOP = ("nop", InstrClass.NOP)
    HALT = ("halt", InstrClass.HALT)

    # Members are singletons compared by identity, so hash them by
    # identity too: the C slot, where ``Enum.__hash__`` is a Python call
    # on every dict or set lookup keyed by an opcode.
    __hash__ = object.__hash__

    @property
    def mnemonic(self) -> str:
        return self.value[0]

    @property
    def iclass(self) -> InstrClass:
        return self.value[1]


#: Mnemonic -> Opcode lookup used by the assembler.
MNEMONIC_TO_OPCODE = {op.mnemonic: op for op in Opcode}

_CONTROL_CLASSES = frozenset(
    {InstrClass.BRANCH, InstrClass.JUMP, InstrClass.JUMP_IND}
)
_FP_CLASSES = frozenset({InstrClass.FP_ALU, InstrClass.FP_DIV, InstrClass.FP_DIVD})


def latency_for(iclass: InstrClass) -> int:
    """Return the Table-1 latency (in cycles) for an instruction class."""
    return INSTRUCTION_LATENCIES[iclass]


#: The nine fields that make an instruction, in constructor order.
_FIELDS = (
    "opcode", "rd", "rs1", "rs2", "imm", "target",
    "rd_file", "rs1_file", "rs2_file",
)


def _opcode_attributes(opcode: Opcode) -> tuple:
    """The twelve cached attributes that depend on the opcode alone, in
    the order :meth:`Instruction.__new__` unpacks them."""
    iclass = opcode.value[1]
    load, store = iclass is InstrClass.LOAD, iclass is InstrClass.STORE
    indirect = iclass is InstrClass.JUMP_IND
    return (
        iclass, INSTRUCTION_LATENCIES[iclass],
        iclass in _CONTROL_CLASSES, iclass is InstrClass.BRANCH,
        iclass is InstrClass.JUMP or indirect, indirect,
        opcode is Opcode.JAL, opcode is Opcode.RET,
        load, store, load or store, iclass in _FP_CLASSES,
    )


_OPCODE_ATTRIBUTES = {opcode: _opcode_attributes(opcode) for opcode in Opcode}


class _InstructionSlots:
    """The storage of an :class:`Instruction`, still writable.

    :class:`Instruction` fills one of these with plain attribute stores
    and then makes it an ``Instruction``; it is never seen otherwise.
    """

    __slots__ = _FIELDS + (
        # Static classification, precomputed once per static instruction.
        #
        # Every dynamic uop consults these (millions of reads per run); as
        # slots they are one fixed-offset load instead of a property call
        # chaining through two enum descriptor lookups.  ``is_fp``
        # follows the paper: the *integer* queue handles integer
        # instructions and all loads/stores (including FP ones); the FP
        # queue handles FP arithmetic only.
        "iclass", "latency", "is_control", "is_cond_branch", "is_jump",
        "is_indirect", "is_call", "is_return", "is_load", "is_store",
        "is_mem", "is_fp",
        # Operand-dependent, and the rename-stage fast path: the
        # (logical, is_fp) pairs and the destination file as plain
        # bools, so the per-uop rename loop never touches the RegFile
        # enum.
        "writes_reg", "_sources", "_sources_fp", "_rd_is_fp",
    )


_new_slots = object.__new__
_set_class = object.__setattr__
_FP = RegFile.FP

#: ``(rs1, rs1_file, rs2, rs2_file) -> (_sources, _sources_fp)``, one
#: pair of tuples shared by every instruction with those source operands.
#: Building an instruction then allocates one object the cyclic collector
#: tracks instead of up to seven, so building programs triggers far fewer
#: collections.  Register files are ``RegFile`` members, so equal keys
#: mean identical operands.
_SOURCES: dict = {}


def _share_sources(rs1, rs1_file, rs2, rs2_file) -> tuple:
    """Build, remember and return the source tuples for these operands."""
    sources = tuple((reg, rf) for reg, rf in ((rs1, rs1_file), (rs2, rs2_file))
                    if reg is not None)
    shared = (sources, tuple((reg, rf is _FP) for reg, rf in sources))
    _SOURCES[rs1, rs1_file, rs2, rs2_file] = shared
    return shared


class Instruction(_InstructionSlots):
    """One static instruction; immutable, equal and hashed by value.

    Operand conventions (register indices are 0..31):

    ``rd``
        destination register, or ``None``.
    ``rs1``, ``rs2``
        source registers, or ``None``.  For stores ``rs1`` is the base
        address register and ``rs2`` the value being stored.  For loads
        ``rs1`` is the base address register.
    ``imm``
        immediate / displacement.
    ``target``
        byte address of a direct branch/jump target (resolved by the
        assembler), or ``None`` for indirect jumps.

    ``rd_file`` / ``rs1_file`` / ``rs2_file`` say which register file each
    operand belongs to, so the renamer knows which physical pool to use.

    Construction fills all 25 slots in one pass: the nine fields, the
    twelve opcode-only attributes from a per-opcode table, and the four
    that depend on the operands.  It stores them into a writable
    :class:`_InstructionSlots` and then switches the object's class, so
    no store goes through the ``__setattr__`` that makes an
    ``Instruction`` immutable.  Instances have no ``__dict__``.
    """

    __slots__ = ()

    def __new__(
        cls,
        opcode: Opcode,
        rd: Optional[int] = None,
        rs1: Optional[int] = None,
        rs2: Optional[int] = None,
        imm: int = 0,
        target: Optional[int] = None,
        rd_file: RegFile = RegFile.INT,
        rs1_file: RegFile = RegFile.INT,
        rs2_file: RegFile = RegFile.INT,
    ) -> "Instruction":
        self = _new_slots(_InstructionSlots)
        self.opcode = opcode
        self.rd = rd
        self.rs1 = rs1
        self.rs2 = rs2
        self.imm = imm
        self.target = target
        self.rd_file = rd_file
        self.rs1_file = rs1_file
        self.rs2_file = rs2_file
        (self.iclass, self.latency, self.is_control, self.is_cond_branch,
         self.is_jump, self.is_indirect, self.is_call, self.is_return,
         self.is_load, self.is_store, self.is_mem,
         self.is_fp) = _OPCODE_ATTRIBUTES[opcode]
        self.writes_reg = rd is not None
        sources = _SOURCES.get((rs1, rs1_file, rs2, rs2_file))
        if sources is None:
            sources = _share_sources(rs1, rs1_file, rs2, rs2_file)
        self._sources, self._sources_fp = sources
        self._rd_is_fp = rd_file is _FP
        _set_class(self, "__class__", cls)
        return self

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _fields(self) -> tuple:
        return (self.opcode, self.rd, self.rs1, self.rs2, self.imm,
                self.target, self.rd_file, self.rs1_file, self.rs2_file)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __reduce__(self):
        return self.__class__, self._fields()

    def __repr__(self) -> str:
        return "Instruction(" + ", ".join(
            f"{name}={value!r}" for name, value in zip(_FIELDS, self._fields())
        ) + ")"

    def sources(self) -> Tuple[Tuple[int, RegFile], ...]:
        """Return the (register, regfile) pairs this instruction reads."""
        return self._sources

    # ------------------------------------------------------------------
    def __str__(self) -> str:
        op = self.opcode
        m = op.mnemonic
        def r(i, f):
            return ("f" if f is RegFile.FP else "r") + str(i)

        if op in (Opcode.NOP, Opcode.HALT, Opcode.RET):
            return m
        if op in (Opcode.LD, Opcode.FLD):
            return f"{m} {r(self.rd, self.rd_file)}, {self.imm}({r(self.rs1, self.rs1_file)})"
        if op in (Opcode.ST, Opcode.FST):
            return f"{m} {r(self.rs2, self.rs2_file)}, {self.imm}({r(self.rs1, self.rs1_file)})"
        if op in (Opcode.BEQZ, Opcode.BNEZ):
            return f"{m} {r(self.rs1, self.rs1_file)}, {self.target:#x}"
        if op in (Opcode.J, Opcode.JAL):
            return f"{m} {self.target:#x}"
        if op is Opcode.JR:
            return f"{m} {r(self.rs1, self.rs1_file)}"
        if op is Opcode.LI:
            return f"{m} {r(self.rd, self.rd_file)}, {self.imm}"
        parts = []
        if self.rd is not None:
            parts.append(r(self.rd, self.rd_file))
        if self.rs1 is not None:
            parts.append(r(self.rs1, self.rs1_file))
        if self.rs2 is not None:
            parts.append(r(self.rs2, self.rs2_file))
        if op.mnemonic.endswith("i") and op not in (Opcode.LI,):
            parts.append(str(self.imm))
        return f"{m} " + ", ".join(parts)
