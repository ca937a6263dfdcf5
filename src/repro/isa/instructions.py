"""Instruction specifications for RV32I plus the NCPU custom extension.

The NCPU (paper section V.B) supports the 37 RV32I base instructions (the
computational subset: no FENCE/ECALL; EBREAK is kept as the simulator halt
convention) and five custom instructions that drive the reconfigurable core:

``Mv_Neu``      move a register value into a transition neuron (BNN config).
``Trans_BNN``   switch the core from CPU mode into BNN inference mode.
``Trigger_BNN`` launch a *separate* BNN accelerator core (heterogeneous
                baseline operation, used for the paper's comparisons).
``Sw_L2`` / ``Lw_L2``  write-through store / load directly against the shared
                global L2 memory, bypassing the local data cache.

Custom instructions use the RISC-V *custom-0* major opcode (0b0001011) with
funct3 selecting the operation, so they never collide with base RV32I.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.errors import DecodingError, EncodingError
from repro.isa import encoding as enc

OPCODE_LUI = 0b0110111
OPCODE_AUIPC = 0b0010111
OPCODE_JAL = 0b1101111
OPCODE_JALR = 0b1100111
OPCODE_BRANCH = 0b1100011
OPCODE_LOAD = 0b0000011
OPCODE_STORE = 0b0100011
OPCODE_OP_IMM = 0b0010011
OPCODE_OP = 0b0110011
OPCODE_SYSTEM = 0b1110011
OPCODE_NCPU = 0b0001011  # custom-0


@dataclass(frozen=True)
class InstrSpec:
    """Static description of one instruction."""

    name: str
    fmt: str  # one of R, I, S, B, U, J
    opcode: int
    funct3: Optional[int] = None
    funct7: Optional[int] = None
    is_custom: bool = False

    @property
    def is_load(self) -> bool:
        return self.opcode == OPCODE_LOAD or self.name == "lw_l2"

    @property
    def is_store(self) -> bool:
        return self.opcode == OPCODE_STORE or self.name == "sw_l2"

    @property
    def is_branch(self) -> bool:
        return self.opcode == OPCODE_BRANCH

    @property
    def writes_rd(self) -> bool:
        # mv_neu's rd field addresses a transition neuron, not a register.
        return self.fmt in ("R", "I", "U", "J") and self.name not in (
            "ebreak",
            "trans_bnn",
            "trigger_bnn",
            "mv_neu",
        )

    @property
    def reads_rs1(self) -> bool:
        return self.fmt in ("R", "I", "S", "B") and self.name not in ("ebreak",)

    @property
    def reads_rs2(self) -> bool:
        return self.fmt in ("R", "S", "B")


def _make_specs() -> Tuple[InstrSpec, ...]:
    specs = [
        InstrSpec("lui", "U", OPCODE_LUI),
        InstrSpec("auipc", "U", OPCODE_AUIPC),
        InstrSpec("jal", "J", OPCODE_JAL),
        InstrSpec("jalr", "I", OPCODE_JALR, funct3=0b000),
        InstrSpec("beq", "B", OPCODE_BRANCH, funct3=0b000),
        InstrSpec("bne", "B", OPCODE_BRANCH, funct3=0b001),
        InstrSpec("blt", "B", OPCODE_BRANCH, funct3=0b100),
        InstrSpec("bge", "B", OPCODE_BRANCH, funct3=0b101),
        InstrSpec("bltu", "B", OPCODE_BRANCH, funct3=0b110),
        InstrSpec("bgeu", "B", OPCODE_BRANCH, funct3=0b111),
        InstrSpec("lb", "I", OPCODE_LOAD, funct3=0b000),
        InstrSpec("lh", "I", OPCODE_LOAD, funct3=0b001),
        InstrSpec("lw", "I", OPCODE_LOAD, funct3=0b010),
        InstrSpec("lbu", "I", OPCODE_LOAD, funct3=0b100),
        InstrSpec("lhu", "I", OPCODE_LOAD, funct3=0b101),
        InstrSpec("sb", "S", OPCODE_STORE, funct3=0b000),
        InstrSpec("sh", "S", OPCODE_STORE, funct3=0b001),
        InstrSpec("sw", "S", OPCODE_STORE, funct3=0b010),
        InstrSpec("addi", "I", OPCODE_OP_IMM, funct3=0b000),
        InstrSpec("slti", "I", OPCODE_OP_IMM, funct3=0b010),
        InstrSpec("sltiu", "I", OPCODE_OP_IMM, funct3=0b011),
        InstrSpec("xori", "I", OPCODE_OP_IMM, funct3=0b100),
        InstrSpec("ori", "I", OPCODE_OP_IMM, funct3=0b110),
        InstrSpec("andi", "I", OPCODE_OP_IMM, funct3=0b111),
        InstrSpec("slli", "I", OPCODE_OP_IMM, funct3=0b001, funct7=0b0000000),
        InstrSpec("srli", "I", OPCODE_OP_IMM, funct3=0b101, funct7=0b0000000),
        InstrSpec("srai", "I", OPCODE_OP_IMM, funct3=0b101, funct7=0b0100000),
        InstrSpec("add", "R", OPCODE_OP, funct3=0b000, funct7=0b0000000),
        InstrSpec("sub", "R", OPCODE_OP, funct3=0b000, funct7=0b0100000),
        InstrSpec("sll", "R", OPCODE_OP, funct3=0b001, funct7=0b0000000),
        InstrSpec("slt", "R", OPCODE_OP, funct3=0b010, funct7=0b0000000),
        InstrSpec("sltu", "R", OPCODE_OP, funct3=0b011, funct7=0b0000000),
        InstrSpec("xor", "R", OPCODE_OP, funct3=0b100, funct7=0b0000000),
        InstrSpec("srl", "R", OPCODE_OP, funct3=0b101, funct7=0b0000000),
        InstrSpec("sra", "R", OPCODE_OP, funct3=0b101, funct7=0b0100000),
        InstrSpec("or", "R", OPCODE_OP, funct3=0b110, funct7=0b0000000),
        InstrSpec("and", "R", OPCODE_OP, funct3=0b111, funct7=0b0000000),
        # The paper's NCPU also implements a multiplier out of the neuron
        # adders (section IV.A, "a multiplier is also realized at the
        # Execution stages"), so MUL from the M extension is supported.
        InstrSpec("mul", "R", OPCODE_OP, funct3=0b000, funct7=0b0000001),
        # Halt convention for the simulator (not counted in the 37).
        InstrSpec("ebreak", "I", OPCODE_SYSTEM, funct3=0b000),
        # NCPU custom extension (custom-0 opcode, funct3-selected).
        InstrSpec("mv_neu", "R", OPCODE_NCPU, funct3=0b000, funct7=0b0000000,
                  is_custom=True),
        InstrSpec("trans_bnn", "I", OPCODE_NCPU, funct3=0b001, is_custom=True),
        InstrSpec("trigger_bnn", "I", OPCODE_NCPU, funct3=0b010, is_custom=True),
        InstrSpec("sw_l2", "S", OPCODE_NCPU, funct3=0b011, is_custom=True),
        InstrSpec("lw_l2", "I", OPCODE_NCPU, funct3=0b100, is_custom=True),
    ]
    return tuple(specs)


SPECS: Tuple[InstrSpec, ...] = _make_specs()
SPECS_BY_NAME: Dict[str, InstrSpec] = {s.name: s for s in SPECS}

#: The 37 RV32I base instructions the paper claims support for (Fig 11b).
RV32I_BASE_NAMES: Tuple[str, ...] = tuple(
    s.name for s in SPECS
    if not s.is_custom and s.name not in ("ebreak", "mul")
)

NCPU_EXTENSION_NAMES: Tuple[str, ...] = tuple(s.name for s in SPECS if s.is_custom)


def _lookup_key(spec: InstrSpec) -> Tuple:
    return (spec.opcode, spec.funct3, spec.funct7)


_DECODE_TABLE: Dict[Tuple, InstrSpec] = {}
for _spec in SPECS:
    _DECODE_TABLE[_lookup_key(_spec)] = _spec


def encode(name: str, rd: int = 0, rs1: int = 0, rs2: int = 0, imm: int = 0) -> int:
    """Encode an instruction into a 32-bit word.

    ``imm`` is interpreted per the instruction's format: byte offsets for
    loads/stores/branches/jumps, the upper 20-bit value for LUI/AUIPC, and the
    shift amount for SLLI/SRLI/SRAI.
    """
    spec = SPECS_BY_NAME.get(name)
    if spec is None:
        raise EncodingError(f"unknown instruction {name!r}")
    for reg, label in ((rd, "rd"), (rs1, "rs1"), (rs2, "rs2")):
        if not 0 <= reg <= 31:
            raise EncodingError(f"{label}={reg} out of range for {name}")

    word = spec.opcode
    if spec.fmt == "R":
        word = enc.set_bits(word, 11, 7, rd)
        word = enc.set_bits(word, 14, 12, spec.funct3)
        word = enc.set_bits(word, 19, 15, rs1)
        word = enc.set_bits(word, 24, 20, rs2)
        word = enc.set_bits(word, 31, 25, spec.funct7)
    elif spec.fmt == "I":
        word = enc.set_bits(word, 11, 7, rd)
        if spec.funct3 is not None:
            word = enc.set_bits(word, 14, 12, spec.funct3)
        word = enc.set_bits(word, 19, 15, rs1)
        if name in ("slli", "srli", "srai"):
            if not 0 <= imm <= 31:
                raise EncodingError(f"shift amount {imm} out of range [0, 31]")
            word = enc.set_bits(word, 24, 20, imm)
            word = enc.set_bits(word, 31, 25, spec.funct7)
        elif name == "ebreak":
            word = enc.set_bits(word, 31, 20, 1)
        else:
            word |= enc.encode_imm_i(imm)
    elif spec.fmt == "S":
        if spec.funct3 is not None:
            word = enc.set_bits(word, 14, 12, spec.funct3)
        word = enc.set_bits(word, 19, 15, rs1)
        word = enc.set_bits(word, 24, 20, rs2)
        word |= enc.encode_imm_s(imm)
    elif spec.fmt == "B":
        word = enc.set_bits(word, 14, 12, spec.funct3)
        word = enc.set_bits(word, 19, 15, rs1)
        word = enc.set_bits(word, 24, 20, rs2)
        word |= enc.encode_imm_b(imm)
    elif spec.fmt == "U":
        word = enc.set_bits(word, 11, 7, rd)
        word |= enc.encode_imm_u(imm)
    elif spec.fmt == "J":
        word = enc.set_bits(word, 11, 7, rd)
        word |= enc.encode_imm_j(imm)
    else:  # pragma: no cover - the spec table only holds known formats
        raise EncodingError(f"unsupported format {spec.fmt}")
    return word


@dataclass(frozen=True)
class DecodedInstr:
    """A fully decoded instruction word."""

    spec: InstrSpec
    rd: int
    rs1: int
    rs2: int
    imm: int
    word: int

    @property
    def name(self) -> str:
        return self.spec.name

    def __str__(self) -> str:
        from repro.isa.disassembler import format_instr

        return format_instr(self)


def decode(word: int) -> DecodedInstr:
    """Decode a 32-bit word into a :class:`DecodedInstr`.

    Raises :class:`~repro.errors.DecodingError` if the word does not match any
    supported instruction.
    """
    word &= enc.WORD_MASK
    opcode = enc.bits(word, 6, 0)
    funct3 = enc.bits(word, 14, 12)
    funct7 = enc.bits(word, 31, 25)

    spec = (
        _DECODE_TABLE.get((opcode, funct3, funct7))
        or _DECODE_TABLE.get((opcode, funct3, None))
        or _DECODE_TABLE.get((opcode, None, None))
    )
    if spec is None:
        raise DecodingError(f"cannot decode word {word:#010x}")

    rd = enc.bits(word, 11, 7)
    rs1 = enc.bits(word, 19, 15)
    rs2 = enc.bits(word, 24, 20)

    if spec.fmt in ("R",):
        imm = 0
    elif spec.name in ("slli", "srli", "srai"):
        imm = rs2
    elif spec.fmt == "I":
        imm = enc.decode_imm_i(word)
    elif spec.fmt == "S":
        imm = enc.decode_imm_s(word)
    elif spec.fmt == "B":
        imm = enc.decode_imm_b(word)
    elif spec.fmt == "U":
        imm = enc.decode_imm_u(word)
    else:  # J
        imm = enc.decode_imm_j(word)

    return DecodedInstr(spec=spec, rd=rd, rs1=rs1, rs2=rs2, imm=imm, word=word)
