"""The statement-level entry, :class:`repro.isa.assembler.Assembler`.

The text front end (``assemble``) and direct calls must encode alike;
the direct path gets the same checks as the text syntax.
"""

import re

import pytest

from repro.isa.assembler import AssemblyError, Assembler, assemble
from repro.isa.instructions import Opcode, RegFile
from repro.isa.program import DATA_BASE, TEXT_BASE

SOURCE = """
.data
table: .word 7, done
.text
_start:
    li r1, table
    fld f2, 8(r1)
    fadd f3, f2, f2
    fst f3, 0(r1)
    fcmp r4, f3, f2
loop:
    addi r1, r1, -1
    bnez r1, loop
    jal done
done:
    ret
"""


def build_directly() -> Assembler:
    asm = Assembler()
    asm.in_text = False
    asm.label("table")
    asm.words([7, "done"])
    asm.in_text = True
    asm.label("_start")
    asm.instruction(Opcode.LI, rd=1, imm="table")
    asm.instruction(Opcode.FLD, rd=2, rs1=1, imm=8)
    asm.instruction(Opcode.FADD, 3, 2, 2)
    asm.instruction(Opcode.FST, rs1=1, rs2=3)
    asm.instruction(Opcode.FCMP, 4, 3, 2)
    asm.label("loop")
    asm.instruction(Opcode.ADDI, 1, 1, imm=-1)
    asm.instruction(Opcode.BNEZ, rs1=1, target="loop")
    asm.instruction(Opcode.JAL, target="done")
    asm.label("done")
    asm.instruction(Opcode.RET)
    return asm


def test_direct_calls_encode_like_text():
    text, direct = assemble(SOURCE), build_directly().program()
    assert direct.instructions == text.instructions
    assert direct.symbols == text.symbols
    assert direct.data.words == text.data.words
    assert direct.data.size == text.data.size
    assert direct.entry == text.entry


def test_files_default_to_the_format():
    fcmp = build_directly().program().instructions[4]
    assert (fcmp.rd_file, fcmp.rs1_file, fcmp.rs2_file) == (
        RegFile.INT, RegFile.FP, RegFile.FP)
    jal, ret = build_directly().program().instructions[-2:]
    assert jal.rd == 31 and ret.rs1 == 31


def test_labels_resolve_forward_and_backward():
    program = build_directly().program()
    assert program.instructions[0].imm == DATA_BASE
    assert program.instructions[6].target == TEXT_BASE + 5 * 4
    assert program.data.words[DATA_BASE + 8] == program.symbols["done"]


def test_equal_statements_share_one_instruction():
    asm = Assembler()
    for _ in range(3):
        asm.instruction(Opcode.ADD, 1, 2, 3)
    asm.instruction(Opcode.ADD, 1, 2, 4)
    first, second, third, other = asm.program().instructions
    assert first is second is third
    assert other is not first
    assert len(asm) == 4


@pytest.mark.parametrize("fields, message", [
    (dict(opcode=Opcode.ADD, rd=1, rs1=2),
     "add takes rd, rs1, rs2; got rd=1, rs1=2, rs2=None, imm=0, target=None"),
    (dict(opcode=Opcode.ADD, rd=1, rs1=2, rs2=32), "add takes rd, rs1, rs2;"),
    (dict(opcode=Opcode.NOP, rd=1), "nop takes no operands;"),
    (dict(opcode=Opcode.ADD, rd=1, rs1=2, rs2=3, imm=4),
     "add takes rd, rs1, rs2;"),
    (dict(opcode=Opcode.J), "j takes target;"),
    (dict(opcode=Opcode.JR, rs1=1, target="x"), "jr takes rs1;"),
    (dict(opcode=Opcode.FADD, rd=1, rs1=2, rs2=3, rs2_file=RegFile.INT),
     "fadd operands must be FP registers"),
    (dict(opcode=Opcode.FLD, rd=1, rs1=2, rd_file=RegFile.INT),
     "fld destination register file mismatch"),
    (dict(opcode=Opcode.ST, rs1=1, rs2=2, rs2_file=RegFile.FP),
     "st value register file mismatch"),
])
def test_direct_statements_are_checked_when_given(fields, message):
    with pytest.raises(AssemblyError, match=f"^line 9: {re.escape(message)}"):
        Assembler().instruction(**fields, line_no=9)


def test_labels_are_checked_when_given():
    asm = Assembler()
    asm.label("a")
    with pytest.raises(AssemblyError, match="duplicate label 'a'"):
        asm.label("a")
    with pytest.raises(AssemblyError, match="invalid label '1a'"):
        asm.label("1a")


def test_unknown_label_fails_at_program():
    asm = Assembler()
    asm.instruction(Opcode.J, target="nowhere", line_no=4)
    with pytest.raises(AssemblyError,
                       match="line 4: bad integer or unknown symbol 'nowhere'"):
        asm.program()
