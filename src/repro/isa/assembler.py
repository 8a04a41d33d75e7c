"""The assembler for the reproduction ISA: one encoder, two front ends.

:class:`Assembler` is the statement-level entry.  It takes labels and
statements one at a time (an opcode, its operand fields, and branch
targets by label name), checks each statement against its opcode's
format, encodes each distinct statement once, and resolves every label
when :meth:`Assembler.program` builds the :class:`Program`.

:func:`assemble` is the text front end.  It parses source like::

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

line by line into those calls.  The workload generator
(:mod:`repro.workloads.synthetic`) is the other front end: it calls the
entry directly and formats no text.

Integer registers are ``r0``..``r31`` (``r0`` is hardwired to zero;
``r31`` is the link register written by ``jal``).  FP registers are
``f0``..``f31``.  Comments run from ``#`` or ``;`` to end of line.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple, Union

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

#: An immediate, displacement, branch target or data word: an integer,
#: or a token resolved once every label is known (a symbol name, else
#: an integer literal in Python syntax).
Value = Union[int, str]

_INT = RegFile.INT
_FP = RegFile.FP


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
#: Three-register FP ops.
_FRRR_OPS = {Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FDIV, Opcode.FDIVD}
#: rd, rs1 FP ops.
_FRR_OPS = {Opcode.FCVT, Opcode.FMOV}

_SPECIAL_OPERANDS = {
    Opcode.NOP: (), Opcode.HALT: (), Opcode.RET: (),
    Opcode.LI: ("rd", "imm"),
    Opcode.LD: ("rd", "mem"), Opcode.FLD: ("rd", "mem"),
    Opcode.ST: ("rs2", "mem"), Opcode.FST: ("rs2", "mem"),
    Opcode.BEQZ: ("rs1", "target"), Opcode.BNEZ: ("rs1", "target"),
    Opcode.J: ("target",), Opcode.JAL: ("target",),
    Opcode.JR: ("rs1",),
    **{op: ("rd", "rs1", "imm") for op in _IMM_OPS},
    **{op: ("rd", "rs1") for op in _FRR_OPS},
}
#: Each opcode's operands in source order.  ``rd``, ``rs1`` and ``rs2``
#: are registers; ``imm`` and ``target`` are values; ``mem`` is a
#: ``disp(base)`` operand, the displacement in ``imm`` and the base in
#: ``rs1``.  ``ret`` reads and ``jal`` writes ``r31`` implicitly.  Every
#: other opcode takes ``rd, rs1, rs2``.
_OPERANDS: Dict[Opcode, Tuple[str, ...]] = {
    op: _SPECIAL_OPERANDS.get(op, ("rd", "rs1", "rs2")) for op in Opcode
}

#: Per opcode: whether it names rd, rs1 and rs2, takes an immediate,
#: and takes a direct target.
_FORMATS = {
    op: (
        "rd" in kinds, "rs1" in kinds or "mem" in kinds, "rs2" in kinds,
        "imm" in kinds or "mem" in kinds, "target" in kinds,
    )
    for op, kinds in _OPERANDS.items()
}
#: The register indices.
_REGS = frozenset(range(32))
#: Loads and stores: the file of the destination or stored value, and
#: whether it is a store.
_MEM_OPS = {
    Opcode.LD: (_INT, False), Opcode.FLD: (_FP, False),
    Opcode.ST: (_INT, True), Opcode.FST: (_FP, True),
}


def _format_error(key: tuple, line_no: Optional[int]) -> AssemblyError:
    """The error for a statement whose fields do not fit its format."""
    opcode, rd, rs1, rs2, imm, target = key[:6]
    return AssemblyError(
        f"{opcode.mnemonic} takes "
        f"{', '.join(_OPERANDS[opcode]) or 'no operands'}; got rd={rd!r}, "
        f"rs1={rs1!r}, rs2={rs2!r}, imm={imm!r}, target={target!r}",
        line_no,
    )


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


class Assembler:
    """Assembles one program from labels and statements, in order.

    Call :meth:`label`, :meth:`instruction`, :meth:`words` and
    :meth:`space` in program order; :attr:`in_text` says which section
    the next label names (the text section to start with).  Then
    :meth:`program` resolves every label and returns the
    :class:`Program`.

    An operand that names a label may do so before the label is
    defined.  Every other check runs when its statement is given, and
    raises :class:`AssemblyError` carrying the ``line_no`` passed with
    the statement.  Once all labels are known, equal statements encode
    equal instructions, so each distinct statement is checked and
    encoded once and its one frozen :class:`Instruction` is shared by
    every repeat; an error surfaces at its first occurrence.
    """

    def __init__(self, name: str = "anonymous"):
        self.name = name
        self.symbols: Dict[str, int] = {}
        #: Whether a label names the next text address (else data).
        self.in_text = True
        # Per text statement, its index into ``_distinct``.
        self._slots: List[int] = []
        self._index: Dict[tuple, int] = {}
        # Each distinct statement, files resolved, with its first line.
        self._distinct: List[tuple] = []
        self._data_off = 0
        self._data: List[Tuple[int, List[Value], Optional[int]]] = []

    def __len__(self) -> int:
        """The number of text statements given so far."""
        return len(self._slots)

    # ------------------------------------------------------------------
    def label(self, name: str, line_no: Optional[int] = None) -> None:
        """Define ``name`` at the next address of the current section."""
        if not _LABEL_RE.match(name):
            raise AssemblyError(f"invalid label {name!r}", line_no)
        if name in self.symbols:
            raise AssemblyError(f"duplicate label {name!r}", line_no)
        self.symbols[name] = (
            TEXT_BASE + INSTR_BYTES * len(self._slots)
            if self.in_text
            else DATA_BASE + self._data_off
        )

    def instruction(
        self,
        opcode: Opcode,
        rd: Optional[int] = None,
        rs1: Optional[int] = None,
        rs2: Optional[int] = None,
        imm: Value = 0,
        target: Optional[Value] = None,
        rd_file: Optional[RegFile] = None,
        rs1_file: Optional[RegFile] = None,
        rs2_file: Optional[RegFile] = None,
        line_no: Optional[int] = None,
    ) -> None:
        """Append one instruction statement to the text section.

        The fields are :class:`Instruction`'s.  ``imm`` and ``target``
        may name a label.  A register file left ``None`` is the one the
        opcode's format puts that operand in; a file given where the
        format requires one (the FP operands of ``fadd``, the
        destination of a load, ...) must match it, and elsewhere the
        format's file wins, as it does for a register spelled ``f`` in
        an integer op.  ``jal`` writes and ``ret`` reads ``r31``
        implicitly.
        """
        key = (opcode, rd, rs1, rs2, imm, target, rd_file, rs1_file, rs2_file)
        slot = self._index.get(key)
        if slot is None:
            checked = self._check(key, line_no)
            slot = self._index[key] = len(self._distinct)
            self._distinct.append(checked)
        self._slots.append(slot)

    def words(self, values: List[Value], line_no: Optional[int] = None) -> None:
        """Append 8-byte words to the data section (``.word``)."""
        if not values:
            raise AssemblyError(".word requires at least one value", line_no)
        self._data.append((self._data_off, values, line_no))
        self._data_off += WORD_BYTES * len(values)

    def space(self, size: int, line_no: Optional[int] = None) -> None:
        """Reserve ``size`` zeroed bytes in the data section (``.space``)."""
        if size <= 0 or size % WORD_BYTES:
            raise AssemblyError(
                ".space size must be a positive multiple of 8", line_no
            )
        self._data_off += size

    def program(self) -> Program:
        """Resolve every label and return the assembled program."""
        encoded = [
            Instruction(
                opcode, rd, rs1, rs2, self._value(imm, line_no),
                None if target is None else self._target(target, line_no),
                rd_file, rs1_file, rs2_file,
            )
            for (opcode, rd, rs1, rs2, imm, target,
                 rd_file, rs1_file, rs2_file, line_no) in self._distinct
        ]
        data = DataSegment(words={}, size=0)
        for off, values, line_no in self._data:
            for value in values:
                data.words[DATA_BASE + off] = self._value(value, line_no)
                off += WORD_BYTES
        # Give the data segment generous headroom past the last initialiser
        # so stack-like access patterns near the end stay in-bounds.
        data.size = max(self._data_off, 1 << 16)
        return Program(
            [encoded[slot] for slot in self._slots],
            data=data, symbols=self.symbols, name=self.name,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _check(key: tuple, line_no: Optional[int]) -> tuple:
        """Check a statement against its opcode's format; return it with
        the implicit registers and the register files filled in."""
        (opcode, rd, rs1, rs2, imm, target,
         rd_file, rs1_file, rs2_file) = key
        takes_rd, takes_rs1, takes_rs2, takes_imm, takes_target = (
            _FORMATS[opcode])
        if not ((rd in _REGS if takes_rd else rd is None)
                and (rs1 in _REGS if takes_rs1 else rs1 is None)
                and (rs2 in _REGS if takes_rs2 else rs2 is None)
                and (takes_imm or imm == 0)
                and (target is not None) is takes_target):
            raise _format_error(key, line_no)

        if opcode is Opcode.RET:
            rs1 = 31  # ret is jr r31; it reads the link register
        elif opcode is Opcode.JAL:
            rd = 31  # jal writes the return address to r31

        # A file the format requires must be the one spelled (None
        # stands for it); elsewhere the format's file wins, except for
        # the base register of a memory operand, which keeps its own.
        if opcode in _FRRR_OPS:
            if _INT in (rd_file, rs1_file, rs2_file):
                raise AssemblyError(
                    f"{opcode.mnemonic} operands must be FP registers", line_no
                )
            files = (_FP, _FP, _FP)
        elif opcode is Opcode.FCMP:
            # fcmp rd(int), fs1, fs2 — produces an integer truth value.
            if rd_file is _FP or _INT in (rs1_file, rs2_file):
                raise AssemblyError("fcmp expects rd(int), fs1, fs2", line_no)
            files = (_INT, _FP, _FP)
        elif opcode in _FRR_OPS:
            files = (_FP, _FP, _INT)
        elif opcode in _MEM_OPS:
            want, is_store = _MEM_OPS[opcode]
            given = rs2_file if is_store else rd_file
            if given is not None and given is not want:
                role = "value" if is_store else "destination"
                raise AssemblyError(
                    f"{opcode.mnemonic} {role} register file mismatch", line_no
                )
            base = _INT if rs1_file is None else rs1_file
            files = (_INT, base, want) if is_store else (want, base, _INT)
        else:
            files = (_INT, _INT, _INT)
        return (opcode, rd, rs1, rs2, imm, target, *files, line_no)

    def _value(self, token: Value, line_no: Optional[int]) -> int:
        if type(token) is int:
            return token
        token = token.strip()
        if token in self.symbols:
            return self.symbols[token]
        try:
            return int(token, 0)
        except ValueError:
            raise AssemblyError(f"bad integer or unknown symbol {token!r}", line_no)

    def _target(self, token: Value, line_no: Optional[int]) -> int:
        addr = self._value(token, line_no)
        if addr % INSTR_BYTES:
            raise AssemblyError(f"branch target {token!r} is misaligned", line_no)
        return addr


# ----------------------------------------------------------------------
# The text front end.
# ----------------------------------------------------------------------
def _parse_line(asm: Assembler, line: str, line_no: int) -> None:
    """Feed one source line, comment already stripped, to ``asm``."""
    if line.startswith("."):
        directive = line.partition(" ")[0]
        if directive in (".text", ".data"):
            asm.in_text = directive == ".text"
            return
        if asm.in_text:
            raise AssemblyError(f"unexpected directive {directive!r}", line_no)
    elif ":" in line:
        label, _, line = line.partition(":")
        label = label.strip()
        asm.label(label, line_no)
        line = line.strip()
        if not line:
            return
    if asm.in_text:
        _parse_instruction(asm, line, line_no)
        return
    directive, _, rest = line.partition(" ")
    if directive == ".word":
        asm.words(_split_operands(rest), line_no)
    elif directive == ".space":
        try:
            size = int(rest.strip(), 0)
        except ValueError:
            raise AssemblyError(f"bad .space size {rest!r}", line_no)
        asm.space(size, line_no)
    else:
        raise AssemblyError(f"unknown data directive {directive!r}", line_no)


def _parse_instruction(asm: Assembler, line: str, line_no: int) -> None:
    mnemonic, _, rest = line.partition(" ")
    mnemonic = mnemonic.lower()
    opcode = MNEMONIC_TO_OPCODE.get(mnemonic)
    if opcode is None:
        raise AssemblyError(f"unknown mnemonic {mnemonic!r}", line_no)
    ops = _split_operands(rest)
    kinds = _OPERANDS[opcode]
    if len(ops) != len(kinds):
        raise AssemblyError(
            f"{mnemonic} expects {len(kinds)} operand(s), got {len(ops)}",
            line_no,
        )
    fields: Dict[str, object] = {}
    for kind, token in zip(kinds, ops):
        if kind in ("imm", "target"):
            fields[kind] = token
        elif kind == "mem":
            m = _MEM_OPERAND_RE.match(token.strip())
            if not m:
                raise AssemblyError(
                    f"expected disp(reg) operand, got {token!r}", line_no
                )
            fields["imm"] = m.group(1)
            fields["rs1"], fields["rs1_file"] = _parse_reg(m.group(2), line_no)
        else:
            fields[kind], fields[kind + "_file"] = _parse_reg(token, line_no)
    asm.instruction(opcode, line_no=line_no, **fields)


def assemble(source: str, name: str = "anonymous") -> Program:
    """Assemble ``source`` into a :class:`~repro.isa.program.Program`.

    Each line becomes one call on an :class:`Assembler`.  Raises
    :class:`AssemblyError` on any syntax or semantic problem.
    """
    asm = Assembler(name)
    for line_no, raw in enumerate(source.splitlines(), start=1):
        line = _strip_comment(raw)
        if line:
            _parse_line(asm, line, line_no)
    return asm.program()
