"""Unit tests for the two-pass assembler."""

import re

import pytest

from repro.isa.assembler import AssemblyError, assemble
from repro.isa.instructions import Opcode, RegFile
from repro.isa.program import DATA_BASE, TEXT_BASE


def one(source_line: str):
    """Assemble a single instruction line and return it."""
    return assemble(".text\n" + source_line).instructions[0]


class TestBasicEncoding:
    def test_three_register_add(self):
        instr = one("add r1, r2, r3")
        assert instr.opcode is Opcode.ADD
        assert (instr.rd, instr.rs1, instr.rs2) == (1, 2, 3)

    def test_immediate_add(self):
        instr = one("addi r1, r2, -5")
        assert instr.opcode is Opcode.ADDI
        assert instr.imm == -5

    def test_load_immediate(self):
        instr = one("li r7, 0x1234")
        assert instr.opcode is Opcode.LI
        assert instr.imm == 0x1234

    def test_shifts(self):
        assert one("slli r1, r2, 3").imm == 3
        assert one("srl r1, r2, r3").opcode is Opcode.SRL

    def test_multiplies(self):
        assert one("mul r1, r2, r3").opcode is Opcode.MUL
        assert one("mulq r1, r2, r3").opcode is Opcode.MULQ

    def test_compares(self):
        assert one("cmplt r1, r2, r3").opcode is Opcode.CMPLT
        assert one("cmpeq r1, r2, r3").opcode is Opcode.CMPEQ
        assert one("cmple r1, r2, r3").opcode is Opcode.CMPLE

    def test_conditional_moves(self):
        assert one("cmovz r1, r2, r3").opcode is Opcode.CMOVZ
        assert one("cmovnz r1, r2, r3").opcode is Opcode.CMOVNZ

    def test_case_insensitive_mnemonics(self):
        assert one("ADD r1, r2, r3").opcode is Opcode.ADD


class TestMemoryEncoding:
    def test_load(self):
        instr = one("ld r4, 16(r2)")
        assert instr.opcode is Opcode.LD
        assert (instr.rd, instr.rs1, instr.imm) == (4, 2, 16)

    def test_store_operand_order(self):
        """st rVALUE, disp(rBASE): base in rs1, value in rs2."""
        instr = one("st r4, 8(r2)")
        assert instr.rs1 == 2 and instr.rs2 == 4 and instr.imm == 8

    def test_fp_load(self):
        instr = one("fld f3, 0(r5)")
        assert instr.opcode is Opcode.FLD
        assert instr.rd_file is RegFile.FP
        assert instr.rs1_file is RegFile.INT

    def test_fp_store(self):
        instr = one("fst f3, 0(r5)")
        assert instr.rs2 == 3 and instr.rs2_file is RegFile.FP

    def test_negative_displacement(self):
        assert one("ld r1, -8(r29)").imm == -8

    def test_ld_into_fp_register_rejected(self):
        with pytest.raises(AssemblyError):
            one("ld f1, 0(r2)")

    def test_fld_into_int_register_rejected(self):
        with pytest.raises(AssemblyError):
            one("fld r1, 0(r2)")


class TestFpEncoding:
    def test_fadd(self):
        instr = one("fadd f1, f2, f3")
        assert instr.rd_file is RegFile.FP
        assert all(f is RegFile.FP for _, f in instr.sources())

    def test_fp_op_rejects_int_registers(self):
        with pytest.raises(AssemblyError):
            one("fadd f1, r2, f3")

    def test_fcmp_writes_integer(self):
        instr = one("fcmp r1, f2, f3")
        assert instr.rd_file is RegFile.INT
        assert instr.rs1_file is RegFile.FP

    def test_fcmp_rejects_fp_destination(self):
        with pytest.raises(AssemblyError):
            one("fcmp f1, f2, f3")

    def test_fmov_fcvt(self):
        assert one("fmov f1, f2").opcode is Opcode.FMOV
        assert one("fcvt f1, f2").opcode is Opcode.FCVT


class TestControlFlow:
    def test_forward_label(self):
        program = assemble("""
        .text
        _start:
            beqz r1, done
            nop
        done:
            halt
        """)
        assert program.instructions[0].target == TEXT_BASE + 8

    def test_backward_label(self):
        program = assemble("""
        .text
        loop:
            addi r1, r1, -1
            bnez r1, loop
        """)
        assert program.instructions[1].target == TEXT_BASE

    def test_jal_writes_r31(self):
        program = assemble(".text\nf:\n jal f")
        assert program.instructions[0].rd == 31

    def test_ret_reads_r31(self):
        instr = one("ret")
        assert instr.rs1 == 31

    def test_jr(self):
        instr = one("jr r9")
        assert instr.opcode is Opcode.JR and instr.rs1 == 9

    def test_numeric_target(self):
        instr = one(f"j {TEXT_BASE}")
        assert instr.target == TEXT_BASE

    def test_misaligned_target_rejected(self):
        with pytest.raises(AssemblyError):
            one("j 0x10002")


class TestDataSegment:
    def test_word_directive(self):
        program = assemble("""
        .data
        x: .word 42
        .text
            nop
        """)
        assert program.data.words[DATA_BASE] == 42
        assert program.symbols["x"] == DATA_BASE

    def test_multiple_words(self):
        program = assemble("""
        .data
        t: .word 1, 2, 3
        .text
            nop
        """)
        assert [program.data.words[DATA_BASE + 8 * i] for i in range(3)] == [1, 2, 3]

    def test_space_directive(self):
        program = assemble("""
        .data
        a: .space 64
        b: .word 9
        .text
            nop
        """)
        assert program.symbols["b"] == DATA_BASE + 64
        assert program.data.words[DATA_BASE + 64] == 9

    def test_unlabelled_word(self):
        program = assemble(".data\n.word 5\n.text\nnop")
        assert program.data.words[DATA_BASE] == 5

    def test_unlabelled_space(self):
        program = assemble(".data\n.space 16\nx: .word 3\n.text\nnop")
        assert program.symbols["x"] == DATA_BASE + 16
        assert program.data.words[DATA_BASE + 16] == 3

    @pytest.mark.parametrize("directive", [".word 5", ".space 16"])
    def test_data_directive_in_text_rejected(self, directive):
        with pytest.raises(AssemblyError, match="line 2: unexpected "
                           "directive"):
            assemble(f".text\n{directive}\nnop")

    def test_space_must_be_word_multiple(self):
        with pytest.raises(AssemblyError):
            assemble(".data\nx: .space 7\n.text\nnop")

    def test_data_label_as_immediate(self):
        program = assemble("""
        .data
        buf: .space 16
        .text
            li r1, buf
        """)
        assert program.instructions[0].imm == DATA_BASE

    def test_data_label_as_displacement(self):
        program = assemble("""
        .data
        g: .space 16
        .text
            ld r1, g(r0)
        """)
        assert program.instructions[0].imm == DATA_BASE


class TestErrors:
    def test_unknown_mnemonic(self):
        with pytest.raises(AssemblyError, match="unknown mnemonic"):
            one("frobnicate r1, r2")

    def test_wrong_operand_count(self):
        with pytest.raises(AssemblyError, match="expects"):
            one("add r1, r2")

    def test_bad_register(self):
        for token, message in [
            ("r99", "register index out of range: 'r99'"),
            ("r32", "register index out of range: 'r32'"),
            ("f32", "register index out of range: 'f32'"),
            ("x1", "expected register, got 'x1'"),
            ("r-1", "expected register, got 'r-1'"),
            ("r", "expected register, got 'r'"),
        ]:
            with pytest.raises(AssemblyError, match=re.escape(message)):
                one(f"add r1, r2, {token}")

    def test_undefined_label(self):
        with pytest.raises(AssemblyError):
            one("j nowhere")

    def test_duplicate_label(self):
        with pytest.raises(AssemblyError, match="duplicate"):
            assemble(".text\na:\n nop\na:\n nop")

    def test_error_carries_line_number(self):
        try:
            assemble(".text\nnop\nbogus r1\n")
        except AssemblyError as e:
            assert e.line_no == 3
        else:
            pytest.fail("expected AssemblyError")

    def test_repeated_error_reports_first_occurrence(self):
        with pytest.raises(AssemblyError) as excinfo:
            assemble(".text\nnop\nbogus r1\nnop\nbogus r1\n")
        assert excinfo.value.line_no == 3

    def test_bad_memory_operand(self):
        with pytest.raises(AssemblyError, match="disp"):
            one("ld r1, r2")

    def test_empty_program_rejected(self):
        with pytest.raises(Exception):
            assemble(".text\n")


class TestRegisterSpellings:
    def test_upper_case_registers(self):
        assert one("add R5, r2, r3") == one("add r5, r2, r3")
        assert one("fadd F5, f2, f3") == one("fadd f5, f2, f3")

    def test_leading_zero_index(self):
        assert one("add r1, r07, r3") == one("add r1, r7, r3")
        assert one("ld r1, 8(r07)") == one("ld r1, 8(r7)")


class TestRepeatedStatements:
    SOURCE = """
    .text
    loop:
        add r1, r2, r3
        bnez r1, loop
        nop
        add r1, r2, r3   # same text, with a comment
        addi r1, r1, 1
    again: bnez r1, loop
        add r1, r2, r3
        bnez r1, loop
    """

    def test_repeats_encode_equal_instructions(self):
        program = assemble(self.SOURCE)
        adds = [i for i in program.instructions if i.opcode is Opcode.ADD]
        branches = [i for i in program.instructions
                    if i.opcode is Opcode.BNEZ]
        assert len(adds) == 3 and len(branches) == 3
        # Each repeat equals the statement assembled on its own, with
        # ``loop`` at the same address.
        assert all(i == one("add r1, r2, r3") for i in adds)
        alone = assemble(".text\nloop:\n bnez r1, loop").instructions[0]
        assert all(i == alone for i in branches)
        assert alone.target == TEXT_BASE
        assert program.symbols["again"] == TEXT_BASE + 5 * 4


class TestStructure:
    def test_comments_stripped(self):
        program = assemble("""
        .text
            nop  # hash comment
            nop  ; semicolon comment
        """)
        assert len(program.instructions) == 2

    def test_label_on_own_line(self):
        program = assemble("""
        .text
        here:
            nop
        """)
        assert program.symbols["here"] == TEXT_BASE

    def test_label_inline_with_instruction(self):
        program = assemble(".text\nstart: nop")
        assert program.symbols["start"] == TEXT_BASE

    def test_entry_is_start_symbol(self):
        program = assemble(".text\n nop\n_start:\n nop")
        assert program.entry == TEXT_BASE + 4

    def test_entry_defaults_to_text_base(self):
        program = assemble(".text\n nop")
        assert program.entry == TEXT_BASE

    def test_listing_contains_labels_and_addresses(self):
        program = assemble(".text\nmain:\n addi r1, r1, 1")
        listing = program.listing()
        assert "main:" in listing
        assert "addi" in listing
