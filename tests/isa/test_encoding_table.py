"""Every encoding the assembler accepts, pinned field by field.

For each opcode the table tries every INT/FP spelling of its register
operands. Each statement the assembler accepts must encode to the
:class:`~repro.isa.instructions.Instruction` recorded in
``tests/fixtures/instruction_table.json``: its nine fields, its sixteen
cached attributes and its ``str()``. The spellings it rejects must
still be rejected. The fixture was taken while ``Instruction`` was
still a frozen dataclass that set its attributes one at a time.
"""

import itertools
import json
import os

import pytest

from repro.isa.assembler import AssemblyError, assemble
from repro.isa.instructions import Opcode

FIXTURE = os.path.join(
    os.path.dirname(__file__), os.pardir, "fixtures", "instruction_table.json"
)

#: Every attribute an instruction carries: the nine fields, then the
#: sixteen values cached per instruction.
ATTRIBUTES = (
    "opcode", "rd", "rs1", "rs2", "imm", "target",
    "rd_file", "rs1_file", "rs2_file",
    "iclass", "latency", "is_control", "is_cond_branch", "is_jump",
    "is_indirect", "is_call", "is_return", "is_load", "is_store",
    "is_mem", "is_fp", "writes_reg", "_sources", "_sources_fp",
    "_rd_is_fp",
)

_RRR = "{}1, {}2, {}3"
#: Operand template per opcode; each ``{}`` takes an ``r`` or an ``f``.
TEMPLATES = {
    Opcode.NOP: "", Opcode.HALT: "", Opcode.RET: "",
    Opcode.ADDI: "{}1, {}2, 5", Opcode.ANDI: "{}1, {}2, 5",
    Opcode.ORI: "{}1, {}2, 5", Opcode.XORI: "{}1, {}2, 5",
    Opcode.SLLI: "{}1, {}2, 5", Opcode.SRLI: "{}1, {}2, 5",
    Opcode.LI: "{}1, -9",
    Opcode.FCVT: "{}1, {}2", Opcode.FMOV: "{}1, {}2",
    Opcode.LD: "{}1, 8({}2)", Opcode.FLD: "{}1, 8({}2)",
    Opcode.ST: "{}4, 8({}2)", Opcode.FST: "{}4, 8({}2)",
    Opcode.BEQZ: "{}1, L", Opcode.BNEZ: "{}1, L",
    Opcode.J: "L", Opcode.JAL: "L", Opcode.JR: "{}9",
}


def _plain(value):
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    if hasattr(value, "name") and hasattr(value, "value"):  # an enum member
        return f"{type(value).__name__}.{value.name}"
    return value


def encoding_table():
    """``{statement: [str, *attributes]}`` for every accepted spelling."""
    table = {}
    for opcode in Opcode:
        template = TEMPLATES.get(opcode, _RRR)
        for files in itertools.product("rf", repeat=template.count("{}")):
            statement = f"{opcode.mnemonic} {template.format(*files)}".strip()
            try:
                program = assemble(f".text\nL: nop\n {statement}")
            except AssemblyError:
                continue
            instr = program.instructions[1]
            table[statement] = [str(instr)] + [
                _plain(getattr(instr, name)) for name in ATTRIBUTES
            ]
    return table


@pytest.fixture(scope="module")
def pinned():
    with open(FIXTURE) as f:
        return json.load(f)


def test_accepted_spellings_are_pinned(pinned):
    assert sorted(encoding_table()) == sorted(pinned)


def test_every_encoding_matches_the_table(pinned):
    table = encoding_table()
    for statement, row in pinned.items():
        assert table[statement] == row, statement


def test_every_opcode_is_covered(pinned):
    assert {s.split()[0] for s in pinned} == {op.mnemonic for op in Opcode}
