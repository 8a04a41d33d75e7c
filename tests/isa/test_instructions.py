"""Unit tests for the instruction definitions (paper Table 1)."""

import pytest

from repro.isa.instructions import (
    INSTRUCTION_LATENCIES,
    Instruction,
    InstrClass,
    MNEMONIC_TO_OPCODE,
    Opcode,
    RegFile,
    latency_for,
)


class TestTable1Latencies:
    """The simulated latencies must match Table 1 of the paper."""

    def test_integer_multiply(self):
        assert latency_for(InstrClass.INT_MUL) == 8
        assert latency_for(InstrClass.INT_MULQ) == 16

    def test_conditional_move(self):
        assert latency_for(InstrClass.INT_CMOV) == 2

    def test_compare_is_zero_latency(self):
        assert latency_for(InstrClass.INT_CMP) == 0

    def test_all_other_integer(self):
        assert latency_for(InstrClass.INT_ALU) == 1

    def test_fp_divide(self):
        assert latency_for(InstrClass.FP_DIV) == 17
        assert latency_for(InstrClass.FP_DIVD) == 30

    def test_all_other_fp(self):
        assert latency_for(InstrClass.FP_ALU) == 4

    def test_load_cache_hit(self):
        assert latency_for(InstrClass.LOAD) == 1

    def test_every_class_has_a_latency(self):
        for iclass in InstrClass:
            assert iclass in INSTRUCTION_LATENCIES


class TestOpcodeTable:
    def test_mnemonics_unique(self):
        mnemonics = [op.mnemonic for op in Opcode]
        assert len(mnemonics) == len(set(mnemonics))

    def test_mnemonic_lookup_covers_all(self):
        assert len(MNEMONIC_TO_OPCODE) == len(list(Opcode))

    def test_iclass_access(self):
        assert Opcode.FDIV.iclass is InstrClass.FP_DIV
        assert Opcode.LD.iclass is InstrClass.LOAD
        assert Opcode.BEQZ.iclass is InstrClass.BRANCH


class TestClassificationPredicates:
    def test_conditional_branch(self):
        instr = Instruction(Opcode.BEQZ, rs1=1, target=0x10000)
        assert instr.is_control
        assert instr.is_cond_branch
        assert not instr.is_jump
        assert not instr.is_mem

    def test_direct_jump(self):
        instr = Instruction(Opcode.J, target=0x10000)
        assert instr.is_control and instr.is_jump
        assert not instr.is_indirect
        assert not instr.is_cond_branch

    def test_call_writes_link_register(self):
        instr = Instruction(Opcode.JAL, rd=31, target=0x10000)
        assert instr.is_call and instr.is_jump
        assert instr.writes_reg and instr.rd == 31

    def test_return_is_indirect(self):
        instr = Instruction(Opcode.RET, rs1=31)
        assert instr.is_return and instr.is_indirect and instr.is_control

    def test_jr_is_indirect_but_not_return(self):
        instr = Instruction(Opcode.JR, rs1=9)
        assert instr.is_indirect and not instr.is_return

    def test_load_store(self):
        ld = Instruction(Opcode.LD, rd=1, rs1=2)
        st = Instruction(Opcode.ST, rs1=2, rs2=1)
        assert ld.is_load and ld.is_mem and not ld.is_store
        assert st.is_store and st.is_mem and not st.is_load

    def test_fp_queue_routing(self):
        """FP arithmetic goes to the FP queue; FP loads/stores go to the
        integer queue (paper: the integer queue handles *all* memory)."""
        fadd = Instruction(Opcode.FADD, rd=1, rs1=2, rs2=3,
                           rd_file=RegFile.FP, rs1_file=RegFile.FP,
                           rs2_file=RegFile.FP)
        fld = Instruction(Opcode.FLD, rd=1, rs1=2, rd_file=RegFile.FP)
        assert fadd.is_fp
        assert not fld.is_fp
        assert fld.is_load

    def test_sources_pairs(self):
        instr = Instruction(Opcode.ADD, rd=1, rs1=2, rs2=3)
        assert instr.sources() == ((2, RegFile.INT), (3, RegFile.INT))

    def test_sources_store_includes_value(self):
        st = Instruction(Opcode.ST, rs1=2, rs2=7)
        assert (7, RegFile.INT) in st.sources()
        assert (2, RegFile.INT) in st.sources()

    def test_sources_empty_for_nop(self):
        assert Instruction(Opcode.NOP).sources() == ()

    def test_latency_property_matches_table(self):
        assert Instruction(Opcode.MUL, rd=1, rs1=2, rs2=3).latency == 8
        assert Instruction(Opcode.FDIVD, rd=1, rs1=2, rs2=3,
                           rd_file=RegFile.FP, rs1_file=RegFile.FP,
                           rs2_file=RegFile.FP).latency == 30


class TestInstructionFormatting:
    def test_str_load(self):
        instr = Instruction(Opcode.LD, rd=4, rs1=1, imm=16)
        assert str(instr) == "ld r4, 16(r1)"

    def test_str_store(self):
        instr = Instruction(Opcode.ST, rs1=1, rs2=5, imm=8)
        assert str(instr) == "st r5, 8(r1)"

    def test_str_branch(self):
        instr = Instruction(Opcode.BNEZ, rs1=2, target=0x10040)
        assert "bnez r2" in str(instr)
        assert "0x10040" in str(instr)

    def test_str_fp(self):
        instr = Instruction(Opcode.FADD, rd=1, rs1=2, rs2=3,
                            rd_file=RegFile.FP, rs1_file=RegFile.FP,
                            rs2_file=RegFile.FP)
        assert str(instr) == "fadd f1, f2, f3"

    def test_str_nullary(self):
        assert str(Instruction(Opcode.NOP)) == "nop"
        assert str(Instruction(Opcode.RET, rs1=31)) == "ret"

    def test_frozen(self):
        instr = Instruction(Opcode.NOP)
        with pytest.raises(Exception):
            instr.rd = 5


class TestValueSemantics:
    def test_no_instance_dict(self):
        assert not hasattr(Instruction(Opcode.NOP), "__dict__")

    def test_equal_fields_equal_and_hash_alike(self):
        a = Instruction(Opcode.ADD, rd=1, rs1=2, rs2=3)
        b = Instruction(Opcode.ADD, 1, 2, 3)
        assert a == b and hash(a) == hash(b)
        assert a != Instruction(Opcode.ADD, rd=1, rs1=2, rs2=4)

    def test_pickle_and_copy_round_trip(self):
        import copy
        import pickle

        instr = Instruction(Opcode.FLD, rd=3, rs1=5, imm=8,
                            rd_file=RegFile.FP)
        for clone in (pickle.loads(pickle.dumps(instr)), copy.copy(instr),
                      copy.deepcopy(instr)):
            assert clone == instr
            assert clone._sources_fp == instr._sources_fp

    def test_repr_names_the_fields(self):
        text = repr(Instruction(Opcode.J, target=0x10000))
        assert text.startswith("Instruction(opcode=<Opcode.J")
        assert "target=65536" in text
