"""A two-pass assembler for the reproduction ISA.

Syntax example::

    .data
    table:  .space 1024          # reserve 1024 bytes (zeroed)
    seed:   .word  12345         # one 8-byte word

    .text
    _start:
        li    r1, table          # labels are usable as immediates
        li    r2, 0
    loop:
        ld    r3, 0(r1)
        add   r2, r2, r3
        addi  r1, r1, 8
        cmplt r4, r1, r5
        bnez  r4, loop
        halt

Integer registers are ``r0``..``r31`` (``r0`` is hardwired to zero;
``r31`` is the link register written by ``jal``).  FP registers are
``f0``..``f31``.  Comments run from ``#`` or ``;`` to end of line.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from repro.isa.instructions import (
    Instruction,
    MNEMONIC_TO_OPCODE,
    Opcode,
    RegFile,
)
from repro.isa.program import (
    DATA_BASE,
    DataSegment,
    INSTR_BYTES,
    Program,
    TEXT_BASE,
    WORD_BYTES,
)


class AssemblyError(Exception):
    """Raised for any syntax or semantic error in assembly source."""

    def __init__(self, message: str, line_no: Optional[int] = None):
        prefix = f"line {line_no}: " if line_no is not None else ""
        super().__init__(prefix + message)
        self.line_no = line_no


_LABEL_RE = re.compile(r"^[A-Za-z_.$][A-Za-z0-9_.$]*$")
_MEM_OPERAND_RE = re.compile(r"^(-?\w+)\s*\(\s*([rf]\d+)\s*\)$")

#: Opcodes whose final operand is an immediate.
_IMM_OPS = {
    Opcode.ADDI, Opcode.ANDI, Opcode.ORI, Opcode.XORI,
    Opcode.SLLI, Opcode.SRLI,
}
#: Three-register integer ops.
_RRR_OPS = {
    Opcode.ADD, Opcode.SUB, Opcode.AND, Opcode.OR, Opcode.XOR,
    Opcode.SLL, Opcode.SRL, Opcode.SRA, Opcode.MUL, Opcode.MULQ,
    Opcode.CMPEQ, Opcode.CMPLT, Opcode.CMPLE,
}
#: Conditional moves: rd, rs1 (cond), rs2 (value).
_CMOV_OPS = {Opcode.CMOVZ, Opcode.CMOVNZ}
#: Three-register FP ops.
_FRRR_OPS = {Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FDIV, Opcode.FDIVD}
#: rd, rs1 FP ops.
_FRR_OPS = {Opcode.FCVT, Opcode.FMOV}


#: The canonical register spellings, so the common case skips the regex.
_REGISTERS: Dict[str, Tuple[int, RegFile]] = {
    f"{prefix}{idx}": (idx, regfile)
    for prefix, regfile in (("r", RegFile.INT), ("f", RegFile.FP))
    for idx in range(32)
}


def _parse_reg(token: str, line_no: int) -> Tuple[int, RegFile]:
    reg = _REGISTERS.get(token)
    if reg is not None:
        return reg
    token = token.strip().lower()
    m = re.match(r"^([rf])(\d+)$", token)
    if not m:
        raise AssemblyError(f"expected register, got {token!r}", line_no)
    idx = int(m.group(2))
    if not 0 <= idx <= 31:
        raise AssemblyError(f"register index out of range: {token!r}", line_no)
    return idx, RegFile.INT if m.group(1) == "r" else RegFile.FP


def _strip_comment(line: str) -> str:
    for ch in "#;":
        pos = line.find(ch)
        if pos >= 0:
            line = line[:pos]
    return line.strip()


def _split_operands(rest: str) -> List[str]:
    return [tok.strip() for tok in rest.split(",")] if rest.strip() else []


class _Assembler:
    """Internal two-pass assembler state machine."""

    def __init__(self, source: str, name: str):
        self.source = source
        self.name = name
        self.symbols: Dict[str, int] = {}
        self.instructions: List[Instruction] = []
        self.data = DataSegment(words={}, size=0)

    # ------------------------------------------------------------------
    def assemble(self) -> Program:
        self._pass_two(self._pass_one(self.source.splitlines()))
        # Give the data segment generous headroom past the last initialiser
        # so stack-like access patterns near the end stay in-bounds.
        self.data.size = max(self.data.size, 1 << 16)
        return Program(
            self.instructions, data=self.data, symbols=self.symbols, name=self.name
        )

    # ------------------------------------------------------------------
    def _pass_one(self, lines: List[str]) -> List[Tuple[int, bool, str]]:
        """Assign addresses to every label without emitting code.

        Returns the statements left once comments, labels and section
        directives are gone, as ``(line_no, in_text, statement)``.
        """
        statements = []
        in_text = True
        text_idx = 0
        data_off = 0
        for line_no, raw in enumerate(lines, start=1):
            line = _strip_comment(raw)
            if not line:
                continue
            if line.startswith("."):
                directive, _, rest = line.partition(" ")
                if directive in (".text", ".data"):
                    in_text = directive == ".text"
                    continue
                raise AssemblyError(f"unexpected directive {directive!r}", line_no)
            label, line = self._take_label(line, line_no)
            if label is not None:
                addr = (
                    TEXT_BASE + INSTR_BYTES * text_idx
                    if in_text
                    else DATA_BASE + data_off
                )
                if label in self.symbols:
                    raise AssemblyError(f"duplicate label {label!r}", line_no)
                self.symbols[label] = addr
            if not line:
                continue
            if in_text:
                text_idx += 1
            else:
                data_off += self._data_size(line, line_no)
            statements.append((line_no, in_text, line))
        return statements

    def _pass_two(self, statements: List[Tuple[int, bool, str]]) -> None:
        """Emit instructions and data with all labels resolved.

        Every label is known by now, so equal statement text encodes to
        an equal instruction: each distinct text is encoded once (an
        error surfaces at its first occurrence) and its frozen
        :class:`Instruction` is shared by every repeat.
        """
        encoded: Dict[str, Instruction] = {}
        data_off = 0
        for line_no, in_text, line in statements:
            if in_text:
                instr = encoded.get(line)
                if instr is None:
                    instr = encoded[line] = self._encode(line, line_no)
                self.instructions.append(instr)
            else:
                data_off = self._emit_data(line, line_no, data_off)
        self.data.size = max(self.data.size, data_off)

    # ------------------------------------------------------------------
    @staticmethod
    def _take_label(line: str, line_no: int) -> Tuple[Optional[str], str]:
        if ":" not in line:
            return None, line
        label, _, rest = line.partition(":")
        label = label.strip()
        if not _LABEL_RE.match(label):
            raise AssemblyError(f"invalid label {label!r}", line_no)
        return label, rest.strip()

    # ------------------------------------------------------------------
    @staticmethod
    def _data_size(line: str, line_no: int) -> int:
        directive, _, rest = line.partition(" ")
        if directive == ".word":
            n_values = len(_split_operands(rest))
            if n_values == 0:
                raise AssemblyError(".word requires at least one value", line_no)
            return WORD_BYTES * n_values
        if directive == ".space":
            try:
                size = int(rest.strip(), 0)
            except ValueError:
                raise AssemblyError(f"bad .space size {rest!r}", line_no)
            if size <= 0 or size % WORD_BYTES:
                raise AssemblyError(
                    ".space size must be a positive multiple of 8", line_no
                )
            return size
        raise AssemblyError(f"unknown data directive {directive!r}", line_no)

    def _emit_data(self, line: str, line_no: int, off: int) -> int:
        directive, _, rest = line.partition(" ")
        if directive == ".word":
            for tok in _split_operands(rest):
                self.data.words[DATA_BASE + off] = self._int_value(tok, line_no)
                off += WORD_BYTES
            return off
        if directive == ".space":
            return off + int(rest.strip(), 0)
        raise AssemblyError(f"unknown data directive {directive!r}", line_no)

    def _int_value(self, token: str, line_no: int) -> int:
        token = token.strip()
        if token in self.symbols:
            return self.symbols[token]
        try:
            return int(token, 0)
        except ValueError:
            raise AssemblyError(f"bad integer or unknown symbol {token!r}", line_no)

    def _target(self, token: str, line_no: int) -> int:
        addr = self._int_value(token, line_no)
        if addr % INSTR_BYTES:
            raise AssemblyError(f"branch target {token!r} is misaligned", line_no)
        return addr

    # ------------------------------------------------------------------
    def _encode(self, line: str, line_no: int) -> Instruction:
        mnemonic, _, rest = line.partition(" ")
        mnemonic = mnemonic.lower()
        opcode = MNEMONIC_TO_OPCODE.get(mnemonic)
        if opcode is None:
            raise AssemblyError(f"unknown mnemonic {mnemonic!r}", line_no)
        ops = _split_operands(rest)

        def need(n: int) -> None:
            if len(ops) != n:
                raise AssemblyError(
                    f"{mnemonic} expects {n} operand(s), got {len(ops)}", line_no
                )

        if opcode in (Opcode.NOP, Opcode.HALT):
            need(0)
            return Instruction(opcode)

        if opcode is Opcode.RET:
            # ret is jr r31; it reads the link register.
            need(0)
            return Instruction(opcode, rs1=31)

        if opcode in _RRR_OPS:
            need(3)
            rd, _ = _parse_reg(ops[0], line_no)
            rs1, _ = _parse_reg(ops[1], line_no)
            rs2, _ = _parse_reg(ops[2], line_no)
            return Instruction(opcode, rd=rd, rs1=rs1, rs2=rs2)

        if opcode in _CMOV_OPS:
            need(3)
            rd, _ = _parse_reg(ops[0], line_no)
            rs1, _ = _parse_reg(ops[1], line_no)
            rs2, _ = _parse_reg(ops[2], line_no)
            return Instruction(opcode, rd=rd, rs1=rs1, rs2=rs2)

        if opcode in _IMM_OPS:
            need(3)
            rd, _ = _parse_reg(ops[0], line_no)
            rs1, _ = _parse_reg(ops[1], line_no)
            return Instruction(
                opcode, rd=rd, rs1=rs1, imm=self._int_value(ops[2], line_no)
            )

        if opcode is Opcode.LI:
            need(2)
            rd, _ = _parse_reg(ops[0], line_no)
            return Instruction(opcode, rd=rd, imm=self._int_value(ops[1], line_no))

        if opcode in _FRRR_OPS:
            need(3)
            rd, fd = _parse_reg(ops[0], line_no)
            rs1, f1 = _parse_reg(ops[1], line_no)
            rs2, f2 = _parse_reg(ops[2], line_no)
            if RegFile.INT in (fd, f1, f2):
                raise AssemblyError(f"{mnemonic} operands must be FP registers", line_no)
            return Instruction(
                opcode, rd=rd, rs1=rs1, rs2=rs2,
                rd_file=RegFile.FP, rs1_file=RegFile.FP, rs2_file=RegFile.FP,
            )

        if opcode in _FRR_OPS:
            need(2)
            rd, _ = _parse_reg(ops[0], line_no)
            rs1, _ = _parse_reg(ops[1], line_no)
            return Instruction(
                opcode, rd=rd, rs1=rs1, rd_file=RegFile.FP, rs1_file=RegFile.FP
            )

        if opcode is Opcode.FCMP:
            # fcmp rd(int), fs1, fs2 — produces an integer truth value.
            need(3)
            rd, fd = _parse_reg(ops[0], line_no)
            rs1, f1 = _parse_reg(ops[1], line_no)
            rs2, f2 = _parse_reg(ops[2], line_no)
            if fd is not RegFile.INT or f1 is not RegFile.FP or f2 is not RegFile.FP:
                raise AssemblyError("fcmp expects rd(int), fs1, fs2", line_no)
            return Instruction(
                opcode, rd=rd, rs1=rs1, rs2=rs2,
                rd_file=RegFile.INT, rs1_file=RegFile.FP, rs2_file=RegFile.FP,
            )

        if opcode in (Opcode.LD, Opcode.FLD):
            need(2)
            rd, fd = _parse_reg(ops[0], line_no)
            imm, base, base_file = self._mem_operand(ops[1], line_no)
            want = RegFile.FP if opcode is Opcode.FLD else RegFile.INT
            if fd is not want:
                raise AssemblyError(f"{mnemonic} destination register file mismatch", line_no)
            return Instruction(
                opcode, rd=rd, rs1=base, imm=imm,
                rd_file=want, rs1_file=base_file,
            )

        if opcode in (Opcode.ST, Opcode.FST):
            need(2)
            rv, fv = _parse_reg(ops[0], line_no)
            imm, base, base_file = self._mem_operand(ops[1], line_no)
            want = RegFile.FP if opcode is Opcode.FST else RegFile.INT
            if fv is not want:
                raise AssemblyError(f"{mnemonic} value register file mismatch", line_no)
            return Instruction(
                opcode, rs1=base, rs2=rv, imm=imm,
                rs1_file=base_file, rs2_file=want,
            )

        if opcode in (Opcode.BEQZ, Opcode.BNEZ):
            need(2)
            rs1, _ = _parse_reg(ops[0], line_no)
            return Instruction(opcode, rs1=rs1, target=self._target(ops[1], line_no))

        if opcode is Opcode.J:
            need(1)
            return Instruction(opcode, target=self._target(ops[0], line_no))

        if opcode is Opcode.JAL:
            need(1)
            # jal writes the return address to the link register r31.
            return Instruction(opcode, rd=31, target=self._target(ops[0], line_no))

        if opcode is Opcode.JR:
            need(1)
            rs1, _ = _parse_reg(ops[0], line_no)
            return Instruction(opcode, rs1=rs1)

        raise AssemblyError(f"unhandled opcode {mnemonic!r}", line_no)

    def _mem_operand(self, token: str, line_no: int) -> Tuple[int, int, RegFile]:
        m = _MEM_OPERAND_RE.match(token.strip())
        if not m:
            raise AssemblyError(f"expected disp(reg) operand, got {token!r}", line_no)
        disp = self._int_value(m.group(1), line_no)
        base, base_file = _parse_reg(m.group(2), line_no)
        return disp, base, base_file


def assemble(source: str, name: str = "anonymous") -> Program:
    """Assemble ``source`` into a :class:`~repro.isa.program.Program`.

    Raises :class:`AssemblyError` on any syntax or semantic problem.
    """
    return _Assembler(source, name).assemble()
