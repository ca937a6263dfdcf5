"""Unit + property tests for instruction encode/decode."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import DecodingError, EncodingError
from repro.isa import (
    NCPU_EXTENSION_NAMES,
    RV32I_BASE_NAMES,
    SPECS,
    SPECS_BY_NAME,
    decode,
    encode,
)

REGS = st.integers(min_value=0, max_value=31)
IMM12 = st.integers(min_value=-2048, max_value=2047)


class TestSpecTable:
    def test_exactly_37_base_instructions(self):
        # Paper section IV.A: "37 RISC-V base instructions ... are supported".
        assert len(RV32I_BASE_NAMES) == 37

    def test_five_custom_instructions(self):
        assert set(NCPU_EXTENSION_NAMES) == {
            "mv_neu", "trans_bnn", "trigger_bnn", "sw_l2", "lw_l2",
        }

    def test_names_unique(self):
        names = [s.name for s in SPECS]
        assert len(names) == len(set(names))

    def test_custom_opcode_is_custom0(self):
        for name in NCPU_EXTENSION_NAMES:
            assert SPECS_BY_NAME[name].opcode == 0b0001011

    def test_load_store_classification(self):
        assert SPECS_BY_NAME["lw"].is_load
        assert SPECS_BY_NAME["lw_l2"].is_load
        assert SPECS_BY_NAME["sw"].is_store
        assert SPECS_BY_NAME["sw_l2"].is_store
        assert not SPECS_BY_NAME["add"].is_load

    def test_mv_neu_does_not_write_register(self):
        assert not SPECS_BY_NAME["mv_neu"].writes_rd

    def test_lw_l2_writes_register(self):
        assert SPECS_BY_NAME["lw_l2"].writes_rd


class TestEncodeDecode:
    def test_add_known_encoding(self):
        # add x1, x2, x3 == 0x003100B3
        assert encode("add", rd=1, rs1=2, rs2=3) == 0x003100B3

    def test_addi_known_encoding(self):
        # addi x1, x2, -1 == 0xFFF10093
        assert encode("addi", rd=1, rs1=2, imm=-1) == 0xFFF10093

    def test_lui_known_encoding(self):
        # lui x5, 0x12345 == 0x123452B7
        assert encode("lui", rd=5, imm=0x12345) == 0x123452B7

    def test_jal_known_encoding(self):
        # jal x1, 8 == 0x008000EF
        assert encode("jal", rd=1, imm=8) == 0x008000EF

    def test_sw_known_encoding(self):
        # sw x3, 12(x2) == 0x00312623
        assert encode("sw", rs1=2, rs2=3, imm=12) == 0x00312623

    def test_beq_known_encoding(self):
        # beq x1, x2, -4 == 0xFE208EE3
        assert encode("beq", rs1=1, rs2=2, imm=-4) == 0xFE208EE3

    def test_unknown_instruction(self):
        with pytest.raises(EncodingError):
            encode("fmadd")

    def test_register_out_of_range(self):
        with pytest.raises(EncodingError):
            encode("add", rd=32)

    def test_shift_amount_out_of_range(self):
        with pytest.raises(EncodingError):
            encode("slli", rd=1, rs1=1, imm=32)

    def test_decode_rejects_garbage(self):
        with pytest.raises(DecodingError):
            decode(0xFFFFFFFF)

    def test_decode_rejects_bad_shift_funct7(self):
        word = encode("srli", rd=1, rs1=1, imm=3) | (0b0010000 << 25)
        with pytest.raises(DecodingError):
            decode(word)

    def test_decode_remembers_each_word(self):
        word = encode("addi", rd=5, rs1=6, imm=-7)
        assert decode(word) is decode(word)
        # the key is the masked Python int, whatever integer type came in
        assert decode(word | (1 << 32)) is decode(word)
        assert decode(np.uint32(word)) is decode(word)
        assert type(decode(np.int64(word)).word) is int

    def test_decode_error_raises_every_time(self):
        for _ in range(3):
            with pytest.raises(DecodingError, match="0xffffffff"):
                decode(0xFFFFFFFF)

    @given(rd=REGS, rs1=REGS, rs2=REGS)
    def test_r_type_roundtrip(self, rd, rs1, rs2):
        for name in ("add", "sub", "sll", "slt", "sltu", "xor", "srl", "sra",
                     "or", "and", "mul"):
            instr = decode(encode(name, rd=rd, rs1=rs1, rs2=rs2))
            assert (instr.name, instr.rd, instr.rs1, instr.rs2) == (name, rd, rs1, rs2)

    @given(rd=REGS, rs1=REGS, imm=IMM12)
    def test_i_type_roundtrip(self, rd, rs1, imm):
        for name in ("addi", "slti", "sltiu", "xori", "ori", "andi", "jalr",
                     "lb", "lh", "lw", "lbu", "lhu", "lw_l2"):
            instr = decode(encode(name, rd=rd, rs1=rs1, imm=imm))
            assert (instr.name, instr.rd, instr.rs1, instr.imm) == (name, rd, rs1, imm)

    @given(rd=REGS, rs1=REGS, shamt=st.integers(min_value=0, max_value=31))
    def test_shift_imm_roundtrip(self, rd, rs1, shamt):
        for name in ("slli", "srli", "srai"):
            instr = decode(encode(name, rd=rd, rs1=rs1, imm=shamt))
            assert (instr.name, instr.imm) == (name, shamt)

    @given(rs1=REGS, rs2=REGS, imm=IMM12)
    def test_s_type_roundtrip(self, rs1, rs2, imm):
        for name in ("sb", "sh", "sw", "sw_l2"):
            instr = decode(encode(name, rs1=rs1, rs2=rs2, imm=imm))
            assert (instr.name, instr.rs1, instr.rs2, instr.imm) == (name, rs1, rs2, imm)

    @given(rs1=REGS, rs2=REGS,
           imm=st.integers(min_value=-2048, max_value=2047).map(lambda v: v * 2))
    def test_b_type_roundtrip(self, rs1, rs2, imm):
        for name in ("beq", "bne", "blt", "bge", "bltu", "bgeu"):
            instr = decode(encode(name, rs1=rs1, rs2=rs2, imm=imm))
            assert (instr.name, instr.imm) == (name, imm)

    @given(rd=REGS, imm=st.integers(min_value=0, max_value=0xFFFFF))
    def test_u_type_roundtrip(self, rd, imm):
        for name in ("lui", "auipc"):
            instr = decode(encode(name, rd=rd, imm=imm))
            assert instr.name == name
            assert (instr.imm & 0xFFFFFFFF) == (imm << 12) & 0xFFFFFFFF

    @given(rd=REGS,
           imm=st.integers(min_value=-(2 ** 19), max_value=2 ** 19 - 1).map(lambda v: v * 2))
    def test_j_type_roundtrip(self, rd, imm):
        instr = decode(encode("jal", rd=rd, imm=imm))
        assert (instr.name, instr.rd, instr.imm) == ("jal", rd, imm)

    @given(word=st.integers(min_value=0, max_value=0xFFFFFFFF))
    def test_decode_never_crashes_uncontrolled(self, word):
        try:
            instr = decode(word)
        except DecodingError:
            return
        # whatever decodes must re-encode onto a decodable word
        assert instr.name in SPECS_BY_NAME

    def test_every_spec_roundtrips_with_zero_operands(self):
        for spec in SPECS:
            word = encode(spec.name)
            assert decode(word).name == spec.name


class TestCustomInstructions:
    def test_mv_neu_roundtrip(self):
        instr = decode(encode("mv_neu", rd=7, rs1=10))
        assert instr.name == "mv_neu"
        assert instr.rd == 7  # transition neuron index
        assert instr.rs1 == 10

    def test_trans_bnn_roundtrip(self):
        instr = decode(encode("trans_bnn", imm=3))
        assert instr.name == "trans_bnn"
        assert instr.imm == 3

    def test_custom_does_not_alias_base(self):
        for name in NCPU_EXTENSION_NAMES:
            word = encode(name, rd=1 if name in ("mv_neu", "lw_l2") else 0, rs1=2)
            assert decode(word).spec.is_custom
