"""Instruction execution semantics shared by the functional ISS and pipeline.

Keeping the EX-stage math in one place guarantees the cycle-accurate pipeline
and the golden-model ISS can never disagree about *what* an instruction does,
only about *when* it happens.  :func:`compile_ex` turns each decoded
instruction into one closure once; both simulators cache it beside their
decode and call it per execution.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from repro.errors import SimulationError
from repro.isa.instructions import DecodedInstr

#: bytes moved by each load/store mnemonic
MEM_SIZES = {"lb": 1, "lbu": 1, "lh": 2, "lhu": 2, "lw": 4, "lw_l2": 4,
             "sb": 1, "sh": 2, "sw": 4, "sw_l2": 4}

#: loads that sign-extend their result
SIGNED_LOADS = frozenset({"lb", "lh"})

_MASK = 0xFFFFFFFF
_SIGN = 0x80000000

#: ``fn(rs1_val, rs2_val, pc) -> (alu, redirect target or None)``: ``alu``
#: is the rd write value for ALU ops, the effective address for memory ops
#: and the link value (pc+4) for jumps
ExFn = Callable[[int, int, int], Tuple[int, Optional[int]]]


def compile_ex(instr: DecodedInstr) -> ExFn:
    """Compile the EX-stage outcome of ``instr`` into one closure.

    Every closure reduces its operands modulo 2**32 itself (``x & _MASK ^
    _SIGN`` orders values as signed 32-bit ints), so the pipeline may feed
    it the register file in place of a sign-extended ``lb``/``lh`` forward.
    """
    name = instr.name
    imm = instr.imm
    uimm = imm & _MASK
    shamt = imm & 0x1F

    if name in ("lui", "ebreak", "trans_bnn", "trigger_bnn"):
        constant = (uimm, None)
        return lambda a, b, pc: constant
    if name == "auipc":
        return lambda a, b, pc: ((pc + imm) & _MASK, None)
    if name == "jal":
        return lambda a, b, pc: ((pc + 4) & _MASK, (pc + imm) & _MASK)
    if name == "jalr":
        return lambda a, b, pc: ((pc + 4) & _MASK, (a + imm) & 0xFFFFFFFE)

    if name == "beq":
        return lambda a, b, pc: (0, (pc + imm) & _MASK if not (a - b) & _MASK else None)
    if name == "bne":
        return lambda a, b, pc: (0, (pc + imm) & _MASK if (a - b) & _MASK else None)
    if name == "blt":
        return lambda a, b, pc: (
            0, (pc + imm) & _MASK if (a & _MASK ^ _SIGN) < (b & _MASK ^ _SIGN) else None)
    if name == "bge":
        return lambda a, b, pc: (
            0, (pc + imm) & _MASK if (a & _MASK ^ _SIGN) >= (b & _MASK ^ _SIGN) else None)
    if name == "bltu":
        return lambda a, b, pc: (0, (pc + imm) & _MASK if (a & _MASK) < (b & _MASK) else None)
    if name == "bgeu":
        return lambda a, b, pc: (0, (pc + imm) & _MASK if (a & _MASK) >= (b & _MASK) else None)

    if name in MEM_SIZES or name == "addi":
        return lambda a, b, pc: ((a + imm) & _MASK, None)
    if name == "add":
        return lambda a, b, pc: ((a + b) & _MASK, None)
    if name == "sub":
        return lambda a, b, pc: ((a - b) & _MASK, None)
    if name == "andi":
        return lambda a, b, pc: (a & uimm, None)
    if name == "and":
        return lambda a, b, pc: (a & b & _MASK, None)
    if name == "ori":
        return lambda a, b, pc: ((a | uimm) & _MASK, None)
    if name == "or":
        return lambda a, b, pc: ((a | b) & _MASK, None)
    if name == "xori":
        return lambda a, b, pc: ((a ^ uimm) & _MASK, None)
    if name == "xor":
        return lambda a, b, pc: ((a ^ b) & _MASK, None)
    if name == "slti":
        bound = imm + _SIGN
        return lambda a, b, pc: (1 if (a & _MASK ^ _SIGN) < bound else 0, None)
    if name == "slt":
        return lambda a, b, pc: (1 if (a & _MASK ^ _SIGN) < (b & _MASK ^ _SIGN) else 0, None)
    if name == "sltiu":
        return lambda a, b, pc: (1 if (a & _MASK) < uimm else 0, None)
    if name == "sltu":
        return lambda a, b, pc: (1 if (a & _MASK) < (b & _MASK) else 0, None)
    if name == "slli":
        return lambda a, b, pc: ((a << shamt) & _MASK, None)
    if name == "sll":
        return lambda a, b, pc: ((a << (b & 0x1F)) & _MASK, None)
    if name == "srli":
        return lambda a, b, pc: ((a & _MASK) >> shamt, None)
    if name == "srl":
        return lambda a, b, pc: ((a & _MASK) >> (b & 0x1F), None)
    if name == "srai":
        return lambda a, b, pc: ((((a & _MASK ^ _SIGN) - _SIGN) >> shamt) & _MASK, None)
    if name == "sra":
        return lambda a, b, pc: (
            (((a & _MASK ^ _SIGN) - _SIGN) >> (b & 0x1F)) & _MASK, None)
    if name == "mul":
        return lambda a, b, pc: ((a * b) & _MASK, None)
    if name == "mv_neu":
        # The register payload travels on the ALU output into the transition
        # neuron addressed by the rd field (paper Fig 5c).
        return lambda a, b, pc: (a & _MASK, None)

    raise SimulationError(f"no semantics for instruction {name!r}")
