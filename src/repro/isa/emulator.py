"""Functional emulator: the correct-path oracle.

The timing core never computes values; it follows *predicted* paths and
tracks dependences structurally.  What it needs from each correct-path
dynamic instruction is exactly what the emulator provides in an
:class:`OracleRecord`: the true next PC (so mispredictions can be detected
and resolved at the execute stage) and the true effective address of memory
operations (so the cache hierarchy sees the program's real access stream).

The emulator is deterministic: same program, same sequence of records.

Execution strategy: each program has one handler table, a slot per
*static* instruction, shared by every emulator of that program (a
program's correct-path stream producer, :mod:`repro.isa.stream`, and
any shadow or standalone emulator).  A slot starts as a stub; the
first time any emulator executes that PC, the stub compiles the slot
into a handler closure (operands, immediates and the fall-through PC
bound as closure constants), stores it in the table and runs it.  So a
program pays only for the instructions it executes, typically a small
fraction of its text.  A handler returns the instruction's stream
entry (effective address, or next PC and direction), from which
:meth:`Emulator.step` builds the record, so the stream producer pays
for no record.  Static instructions whose operand pattern falls
outside the assembler's conventions compile to :func:`_interpret`,
around :meth:`Emulator._step_interpreted`, the original if/elif
interpreter, which remains the semantic reference (the equivalence
tests run both and compare record streams).
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional

from repro.isa.instructions import Instruction, Opcode, RegFile
from repro.isa.program import DATA_BASE, INSTR_BYTES, TEXT_BASE, Program

_MASK64 = (1 << 64) - 1
_SIGN64 = 1 << 63


def _to_signed(value: int) -> int:
    value &= _MASK64
    return value - (1 << 64) if value & _SIGN64 else value


class OracleRecord:
    """One correct-path dynamic instruction, as the timing core sees it."""

    __slots__ = ("seq", "pc", "instr", "next_pc", "taken", "eff_addr")

    def __init__(
        self,
        seq: int,
        pc: int,
        instr: Instruction,
        next_pc: int,
        taken: bool,
        eff_addr: Optional[int],
    ):
        self.seq = seq
        self.pc = pc
        self.instr = instr
        self.next_pc = next_pc
        self.taken = taken          # for control instructions
        self.eff_addr = eff_addr    # for loads/stores

    def __repr__(self) -> str:
        return (
            f"OracleRecord(seq={self.seq}, pc={self.pc:#x}, "
            f"instr={self.instr!s}, next_pc={self.next_pc:#x})"
        )


class EmulatorError(Exception):
    """Raised when architectural execution goes somewhere undefined."""


# ----------------------------------------------------------------------
# Per-program compiled handler tables.  Kept out of Program.__dict__ so
# program images stay picklable; a weak key keeps the table alive exactly
# as long as its program.
# ----------------------------------------------------------------------
_HANDLER_CACHE: "weakref.WeakKeyDictionary[Program, list]" = (
    weakref.WeakKeyDictionary()
)

# Pure int ALU register-register expressions (int rd, int rs1, int rs2).
# Each lambda receives the int register file and the two source indices
# and returns the raw (unmasked) result.
_INT_RRR = {
    Opcode.ADD: lambda ir, a, b: ir[a] + ir[b],
    Opcode.SUB: lambda ir, a, b: ir[a] - ir[b],
    Opcode.AND: lambda ir, a, b: ir[a] & ir[b],
    Opcode.OR: lambda ir, a, b: ir[a] | ir[b],
    Opcode.XOR: lambda ir, a, b: ir[a] ^ ir[b],
    Opcode.SLL: lambda ir, a, b: ir[a] << (ir[b] & 63),
    Opcode.SRL: lambda ir, a, b: (ir[a] & _MASK64) >> (ir[b] & 63),
    Opcode.SRA: lambda ir, a, b: _to_signed(ir[a]) >> (ir[b] & 63),
    Opcode.MUL: lambda ir, a, b: ir[a] * ir[b],
    Opcode.MULQ: lambda ir, a, b: ir[a] * ir[b],
    Opcode.CMPEQ: lambda ir, a, b: int(ir[a] == ir[b]),
    Opcode.CMPLT: lambda ir, a, b: int(_to_signed(ir[a]) < _to_signed(ir[b])),
    Opcode.CMPLE: lambda ir, a, b: int(_to_signed(ir[a]) <= _to_signed(ir[b])),
    Opcode.CMOVZ: lambda ir, a, b: ir[b] if ir[a] == 0 else 0,
    Opcode.CMOVNZ: lambda ir, a, b: ir[b] if ir[a] != 0 else 0,
}

# Int ALU register-immediate expressions (int rd, int rs1, imm).
_INT_RRI = {
    Opcode.ADDI: lambda ir, a, imm: ir[a] + imm,
    Opcode.ANDI: lambda ir, a, imm: ir[a] & imm,
    Opcode.ORI: lambda ir, a, imm: ir[a] | imm,
    Opcode.XORI: lambda ir, a, imm: ir[a] ^ imm,
    Opcode.SLLI: lambda ir, a, imm: ir[a] << (imm & 63),
    Opcode.SRLI: lambda ir, a, imm: (ir[a] & _MASK64) >> (imm & 63),
}

# FP arithmetic with an FP destination (fp rd, fp rs1[, fp rs2]).
_FP_OPS = {
    Opcode.FADD: lambda fr, a, b: fr[a] + fr[b],
    Opcode.FSUB: lambda fr, a, b: fr[a] - fr[b],
    Opcode.FMUL: lambda fr, a, b: fr[a] * fr[b],
    Opcode.FDIV: lambda fr, a, b: fr[a] / fr[b] if fr[b] != 0.0 else 0.0,
    Opcode.FDIVD: lambda fr, a, b: fr[a] / fr[b] if fr[b] != 0.0 else 0.0,
    Opcode.FCVT: lambda fr, a, b: float(int(fr[a])),
    Opcode.FMOV: lambda fr, a, b: fr[a],
}


def _make_handler(instr, pc, data_size, text_end, words_get):
    """Compile one static instruction into a step closure, or return
    ``None`` if its operand pattern is unusual (interpreter fallback).

    A closure executes the instruction and returns its *stream entry*:
    the effective address of a memory op, the next PC of a control op
    with its direction in bit 0, ``None`` otherwise.  :meth:`Emulator.step` builds the record from it.  Every
    closure reproduces exactly the interpreter's semantics: same
    register-write masking, same address wrapping, same next PC, same
    error messages.
    """
    op = instr.opcode
    np = pc + INSTR_BYTES
    rd, rs1, rs2, imm = instr.rd, instr.rs1, instr.rs2, instr.imm
    target = instr.target

    if op in _INT_RRR:
        if (rd is None or rs1 is None or rs2 is None
                or instr.rd_file is not RegFile.INT):
            return None
        expr = _INT_RRR[op]
        # FCMP shares the shape but reads FP sources; handled separately.
        if instr.rs1_file is not RegFile.INT or instr.rs2_file is not RegFile.INT:
            return None
        if rd != 0:
            def h(self, _e=expr, _np=np, _rd=rd, _a=rs1, _b=rs2, _M=_MASK64):
                ir = self.int_regs
                ir[_rd] = _e(ir, _a, _b) & _M
                self.pc = _np
                self.instret += 1
        else:
            def h(self, _e=expr, _np=np, _a=rs1, _b=rs2):
                _e(self.int_regs, _a, _b)  # r0 is hardwired to zero
                self.pc = _np
                self.instret += 1
        return h

    if op in _INT_RRI:
        if (rd is None or rs1 is None
                or instr.rd_file is not RegFile.INT
                or instr.rs1_file is not RegFile.INT):
            return None
        expr = _INT_RRI[op]

        def h(self, _e=expr, _np=np, _rd=rd, _a=rs1, _imm=imm, _M=_MASK64):
            ir = self.int_regs
            if _rd:
                ir[_rd] = _e(ir, _a, _imm) & _M
            self.pc = _np
            self.instret += 1
        return h

    if op is Opcode.LI:
        if rd is None or instr.rd_file is not RegFile.INT:
            return None
        value = imm & _MASK64

        def h(self, _np=np, _rd=rd, _v=value):
            if _rd:
                self.int_regs[_rd] = _v
            self.pc = _np
            self.instret += 1
        return h

    if op in _FP_OPS:
        if rd is None or rs1 is None or instr.rd_file is not RegFile.FP:
            return None
        if op in (Opcode.FCVT, Opcode.FMOV):
            if instr.rs1_file is not RegFile.FP:
                return None
            b = rs1  # unused second operand
        else:
            if (rs2 is None or instr.rs1_file is not RegFile.FP
                    or instr.rs2_file is not RegFile.FP):
                return None
            b = rs2
        expr = _FP_OPS[op]

        def h(self, _e=expr, _np=np, _rd=rd, _a=rs1, _b=b):
            fr = self.fp_regs
            fr[_rd] = float(_e(fr, _a, _b))
            self.pc = _np
            self.instret += 1
        return h

    if op is Opcode.FCMP:
        # FP compare writes an *integer* destination (assembler rule).
        if (rd is None or rs1 is None or rs2 is None
                or instr.rd_file is not RegFile.INT
                or instr.rs1_file is not RegFile.FP
                or instr.rs2_file is not RegFile.FP):
            return None

        def h(self, _np=np, _rd=rd, _a=rs1, _b=rs2):
            fr = self.fp_regs
            if _rd:
                self.int_regs[_rd] = int(fr[_a] < fr[_b])
            self.pc = _np
            self.instret += 1
        return h

    if op is Opcode.LD:
        if (rd is None or rs1 is None
                or instr.rd_file is not RegFile.INT
                or instr.rs1_file is not RegFile.INT):
            return None

        def h(self, _np=np, _rd=rd, _a=rs1, _imm=imm, _M=_MASK64,
              _D=DATA_BASE, _sz=data_size, _get=words_get):
            ir = self.int_regs
            addr = _D + ((ir[_a] + _imm - _D) % _sz & ~0x7)
            mem = self._mem
            v = mem[addr] if addr in mem else _get(addr, 0)
            if _rd:
                ir[_rd] = v & _M
            self.pc = _np
            self.instret += 1
            return addr
        return h

    if op is Opcode.FLD:
        if (rd is None or rs1 is None
                or instr.rd_file is not RegFile.FP
                or instr.rs1_file is not RegFile.INT):
            return None

        def h(self, _np=np, _rd=rd, _a=rs1, _imm=imm, _M=_MASK64,
              _S=_SIGN64, _D=DATA_BASE, _sz=data_size, _get=words_get):
            addr = _D + ((self.int_regs[_a] + _imm - _D) % _sz & ~0x7)
            fmem = self._fmem
            if addr in fmem:
                v = fmem[addr]
            else:
                mem = self._mem
                w = (mem[addr] if addr in mem else _get(addr, 0)) & _M
                v = float(w - (1 << 64) if w & _S else w)
            self.fp_regs[_rd] = v
            self.pc = _np
            self.instret += 1
            return addr
        return h

    if op is Opcode.ST:
        if (rs1 is None or rs2 is None
                or instr.rs1_file is not RegFile.INT
                or instr.rs2_file is not RegFile.INT):
            return None

        def h(self, _np=np, _a=rs1, _b=rs2, _imm=imm, _M=_MASK64,
              _D=DATA_BASE, _sz=data_size):
            ir = self.int_regs
            addr = _D + ((ir[_a] + _imm - _D) % _sz & ~0x7)
            self._mem[addr] = ir[_b] & _M
            self.pc = _np
            self.instret += 1
            return addr
        return h

    if op is Opcode.FST:
        if (rs1 is None or rs2 is None
                or instr.rs1_file is not RegFile.INT
                or instr.rs2_file is not RegFile.FP):
            return None

        def h(self, _np=np, _a=rs1, _b=rs2, _imm=imm, _D=DATA_BASE,
              _sz=data_size):
            addr = _D + ((self.int_regs[_a] + _imm - _D) % _sz & ~0x7)
            self._fmem[addr] = self.fp_regs[_b]
            self.pc = _np
            self.instret += 1
            return addr
        return h

    if op in (Opcode.BEQZ, Opcode.BNEZ):
        if (rs1 is None or target is None
                or instr.rs1_file is not RegFile.INT):
            return None
        want_zero = op is Opcode.BEQZ

        def h(self, _np=np, _a=rs1, _t=target, _z=want_zero):
            if (self.int_regs[_a] == 0) == _z:
                self.pc = _t
                self.instret += 1
                return _t | 1
            self.pc = _np
            self.instret += 1
            return _np
        return h

    if op is Opcode.J:
        if target is None:
            return None

        def h(self, _t=target):
            self.pc = _t
            self.instret += 1
            return _t | 1
        return h

    if op is Opcode.JAL:
        if rd is None or target is None or instr.rd_file is not RegFile.INT:
            return None

        def h(self, _np=np, _rd=rd, _t=target):
            if _rd:
                self.int_regs[_rd] = _np  # return address (pc + 4 < 2**64)
            self.pc = _t
            self.instret += 1
            return _t | 1
        return h

    if op in (Opcode.JR, Opcode.RET):
        if rs1 is None or instr.rs1_file is not RegFile.INT:
            return None

        def h(self, _pc=pc, _a=rs1, _M=_MASK64, _T=TEXT_BASE, _end=text_end):
            nxt = self.int_regs[_a] & _M
            if nxt % INSTR_BYTES or not _T <= nxt < _end:
                raise EmulatorError(
                    f"indirect jump at {_pc:#x} to invalid target {nxt:#x}"
                )
            self.pc = nxt
            self.instret += 1
            return nxt | 1
        return h

    if op is Opcode.NOP:

        def h(self, _np=np):
            self.pc = _np
            self.instret += 1
        return h

    if op is Opcode.HALT:

        def h(self, _np=np):
            self.halted = True
            self.pc = _np
            self.instret += 1
        return h

    return None


def _interpret(emu: "Emulator") -> Optional[int]:
    """The handler of a slot the compiler leaves to the interpreter:
    the interpreted record's stream entry."""
    record = emu._step_interpreted()
    if record.eff_addr is not None:
        return record.eff_addr
    if record.instr.is_control:
        return record.next_pc | record.taken
    return None


def _compile_on_first_step(emu: "Emulator") -> Optional[int]:
    """The stub every handler slot starts as: compile the slot at the
    emulator's PC, store it in the program's shared table, and run it.

    Writes through ``emu._handlers`` rather than closing over the table,
    so no table sits in a reference cycle.
    """
    pc = emu.pc
    idx = (pc - TEXT_BASE) >> 2
    program = emu.program
    handler = _make_handler(
        program.instructions[idx], pc, emu._data_size, program.text_end,
        program.data.words.get,
    ) or _interpret
    emu._handlers[idx] = handler
    return handler(emu)


def _compile_handlers(program: Program) -> List:
    """The program's handler table: one slot per static instruction,
    each a stub that compiles itself on first execution."""
    return [_compile_on_first_step] * len(program.instructions)


class Emulator:
    """Architectural interpreter for one program (one thread).

    Use :meth:`step` to retrieve successive :class:`OracleRecord` objects.
    ``halted`` becomes true after a ``halt`` instruction executes; stepping
    a halted emulator raises :class:`EmulatorError`.  Workload programs are
    written as infinite outer loops, so in normal simulation the emulator
    never halts.
    """

    def __init__(self, program: Program):
        self.program = program
        self.pc: int = program.entry
        self.int_regs = [0] * 32
        self.fp_regs = [0.0] * 32
        # Runtime memory is an overlay over the program's initial data.
        self._mem: Dict[int, int] = {}
        self._fmem: Dict[int, float] = {}
        self.halted = False
        self.instret = 0  # architecturally retired instruction count
        data = program.data
        self._data_size = max(data.size, 8)
        handlers = _HANDLER_CACHE.get(program)
        if handlers is None:
            handlers = _compile_handlers(program)
            _HANDLER_CACHE[program] = handlers
        self._handlers = handlers

    # ------------------------------------------------------------------
    # Memory helpers.  Addresses are wrapped into the data region so that
    # synthetic programs can never wander out of bounds; the *wrapped*
    # address is what the cache hierarchy sees.
    # ------------------------------------------------------------------
    def _wrap(self, addr: int) -> int:
        return DATA_BASE + ((addr - DATA_BASE) % self._data_size & ~0x7)

    def read_word(self, addr: int) -> int:
        addr = self._wrap(addr)
        if addr in self._mem:
            return self._mem[addr]
        return self.program.data.read(addr)

    def write_word(self, addr: int, value: int) -> None:
        self._mem[self._wrap(addr)] = value & _MASK64

    def read_fp(self, addr: int) -> float:
        addr = self._wrap(addr)
        if addr in self._fmem:
            return self._fmem[addr]
        # Integer-initialised memory reads back as its numeric value.
        return float(_to_signed(self.read_word(addr)))

    def write_fp(self, addr: int, value: float) -> None:
        self._fmem[self._wrap(addr)] = value

    # ------------------------------------------------------------------
    def step(self) -> OracleRecord:
        """Execute one instruction; return its oracle record."""
        if self.halted:
            raise EmulatorError("stepping a halted emulator")
        pc = self.pc
        idx = (pc - TEXT_BASE) >> 2
        handlers = self._handlers
        if pc & 3 or not 0 <= idx < len(handlers):
            raise EmulatorError(
                f"architectural PC {pc:#x} outside text segment"
            )
        seq = self.instret
        entry = handlers[idx](self)
        instr = self.program.instructions[idx]
        if instr.is_mem:
            return OracleRecord(seq, pc, instr, pc + INSTR_BYTES, False,
                                entry)
        if instr.is_control:
            return OracleRecord(seq, pc, instr, entry ^ (entry & 1),
                                entry & 1 == 1, None)
        return OracleRecord(seq, pc, instr, pc + INSTR_BYTES, False, None)

    # ------------------------------------------------------------------
    def _step_interpreted(self) -> OracleRecord:
        """Reference interpreter: one instruction via the if/elif chain.

        Semantics source of truth; the compiled handlers must match this
        bit for bit (see ``tests/isa/test_emulator_compiled.py``).
        """
        if self.halted:
            raise EmulatorError("stepping a halted emulator")
        pc = self.pc
        instr = self.program.fetch(pc)
        if instr is None:
            raise EmulatorError(f"architectural PC {pc:#x} outside text segment")

        next_pc = pc + INSTR_BYTES
        taken = False
        eff_addr: Optional[int] = None
        op = instr.opcode
        ir = self.int_regs
        fr = self.fp_regs

        if op is Opcode.ADD:
            result = ir[instr.rs1] + ir[instr.rs2]
        elif op is Opcode.SUB:
            result = ir[instr.rs1] - ir[instr.rs2]
        elif op is Opcode.AND:
            result = ir[instr.rs1] & ir[instr.rs2]
        elif op is Opcode.OR:
            result = ir[instr.rs1] | ir[instr.rs2]
        elif op is Opcode.XOR:
            result = ir[instr.rs1] ^ ir[instr.rs2]
        elif op is Opcode.SLL:
            result = ir[instr.rs1] << (ir[instr.rs2] & 63)
        elif op is Opcode.SRL:
            result = (ir[instr.rs1] & _MASK64) >> (ir[instr.rs2] & 63)
        elif op is Opcode.SRA:
            result = _to_signed(ir[instr.rs1]) >> (ir[instr.rs2] & 63)
        elif op is Opcode.ADDI:
            result = ir[instr.rs1] + instr.imm
        elif op is Opcode.ANDI:
            result = ir[instr.rs1] & instr.imm
        elif op is Opcode.ORI:
            result = ir[instr.rs1] | instr.imm
        elif op is Opcode.XORI:
            result = ir[instr.rs1] ^ instr.imm
        elif op is Opcode.SLLI:
            result = ir[instr.rs1] << (instr.imm & 63)
        elif op is Opcode.SRLI:
            result = (ir[instr.rs1] & _MASK64) >> (instr.imm & 63)
        elif op is Opcode.LI:
            result = instr.imm
        elif op in (Opcode.MUL, Opcode.MULQ):
            result = ir[instr.rs1] * ir[instr.rs2]
        elif op is Opcode.CMPEQ:
            result = int(ir[instr.rs1] == ir[instr.rs2])
        elif op is Opcode.CMPLT:
            result = int(_to_signed(ir[instr.rs1]) < _to_signed(ir[instr.rs2]))
        elif op is Opcode.CMPLE:
            result = int(_to_signed(ir[instr.rs1]) <= _to_signed(ir[instr.rs2]))
        elif op is Opcode.CMOVZ:
            # Non-destructive select: rd = rs1 == 0 ? rs2 : 0.  (The timing
            # model only cares that cmov is a 2-cycle integer op.)
            result = ir[instr.rs2] if ir[instr.rs1] == 0 else 0
        elif op is Opcode.CMOVNZ:
            result = ir[instr.rs2] if ir[instr.rs1] != 0 else 0
        elif op is Opcode.FADD:
            result = fr[instr.rs1] + fr[instr.rs2]
        elif op is Opcode.FSUB:
            result = fr[instr.rs1] - fr[instr.rs2]
        elif op is Opcode.FMUL:
            result = fr[instr.rs1] * fr[instr.rs2]
        elif op is Opcode.FDIV or op is Opcode.FDIVD:
            denom = fr[instr.rs2]
            result = fr[instr.rs1] / denom if denom != 0.0 else 0.0
        elif op is Opcode.FCVT:
            result = float(int(fr[instr.rs1]))
        elif op is Opcode.FMOV:
            result = fr[instr.rs1]
        elif op is Opcode.FCMP:
            result = int(fr[instr.rs1] < fr[instr.rs2])
        elif op is Opcode.LD:
            eff_addr = self._wrap(ir[instr.rs1] + instr.imm)
            result = self.read_word(eff_addr)
        elif op is Opcode.FLD:
            eff_addr = self._wrap(ir[instr.rs1] + instr.imm)
            result = self.read_fp(eff_addr)
        elif op is Opcode.ST:
            eff_addr = self._wrap(ir[instr.rs1] + instr.imm)
            self.write_word(eff_addr, ir[instr.rs2])
            result = None
        elif op is Opcode.FST:
            eff_addr = self._wrap(ir[instr.rs1] + instr.imm)
            self.write_fp(eff_addr, fr[instr.rs2])
            result = None
        elif op is Opcode.BEQZ:
            taken = ir[instr.rs1] == 0
            if taken:
                next_pc = instr.target
            result = None
        elif op is Opcode.BNEZ:
            taken = ir[instr.rs1] != 0
            if taken:
                next_pc = instr.target
            result = None
        elif op is Opcode.J:
            taken = True
            next_pc = instr.target
            result = None
        elif op is Opcode.JAL:
            taken = True
            result = pc + INSTR_BYTES  # return address into r31
            next_pc = instr.target
        elif op is Opcode.JR or op is Opcode.RET:
            taken = True
            next_pc = ir[instr.rs1] & _MASK64
            if next_pc % INSTR_BYTES or not self.program.in_text(next_pc):
                raise EmulatorError(
                    f"indirect jump at {pc:#x} to invalid target {next_pc:#x}"
                )
            result = None
        elif op is Opcode.NOP:
            result = None
        elif op is Opcode.HALT:
            self.halted = True
            result = None
        else:  # pragma: no cover - exhaustive over Opcode
            raise EmulatorError(f"unimplemented opcode {op}")

        if instr.rd is not None and result is not None:
            if instr.rd_file.name == "FP":
                fr[instr.rd] = float(result)
            elif instr.rd != 0:  # r0 is hardwired to zero
                ir[instr.rd] = int(result) & _MASK64

        record = OracleRecord(self.instret, pc, instr, next_pc, taken, eff_addr)
        self.pc = next_pc
        self.instret += 1
        return record

    # ------------------------------------------------------------------
    def run(self, max_instructions: int = 1_000_000) -> int:
        """Run until ``halt`` or the instruction budget; return instret."""
        for _ in range(max_instructions):
            if self.halted:
                break
            self.step()
        return self.instret
