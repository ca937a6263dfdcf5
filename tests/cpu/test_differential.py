"""Differential testing: the pipeline must match the functional golden model.

Random programs (ALU ops, memory ops into a confined window, forward
branches; with ``ncpu=True`` also jumps, the NCPU custom instructions,
L2 traffic and undecodable words only a squashed fetch reaches) are
executed on both simulators; architectural state must agree.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu import CoreEnv, FlatMemory, FunctionalCPU, PipelinedCPU
from repro.errors import SimulationError
from repro.isa import assemble

_REGS = ["a0", "a1", "a2", "a3", "a4", "t0", "t1"]
_ALU_R = ["add", "sub", "and", "or", "xor", "slt", "sltu", "sll", "srl", "sra", "mul"]
_ALU_I = ["addi", "andi", "ori", "xori", "slti", "sltiu"]
_SHIFT_I = ["slli", "srli", "srai"]
_BRANCHES = ["beq", "bne", "blt", "bge", "bltu", "bgeu"]

# data window: [256, 288); the generator only produces offsets inside it
_BASE_REG = "s0"


_BASE_KINDS = ["alu_r", "alu_i", "shift", "load", "store", "branch", "lui"]
_NCPU_KINDS = ["jal", "jalr", "mv_neu", "trigger_bnn", "l2"]
#: an undecodable word: it raises only if decoded
_GARBAGE = ".word 0xFFFFFFFF"


@st.composite
def random_program(draw, ncpu=False):
    lines = [f"li {_BASE_REG}, 256"]
    for i, reg in enumerate(_REGS):
        lines.append(f"li {reg}, {draw(st.integers(-100, 100))}")
    count = draw(st.integers(min_value=5, max_value=40))
    kinds = _BASE_KINDS + (_NCPU_KINDS if ncpu else [])
    for index in range(count):
        kind = draw(st.sampled_from(kinds))
        rd = draw(st.sampled_from(_REGS))
        rs1 = draw(st.sampled_from(_REGS))
        rs2 = draw(st.sampled_from(_REGS))
        if kind == "alu_r":
            op = draw(st.sampled_from(_ALU_R))
            lines.append(f"{op} {rd}, {rs1}, {rs2}")
        elif kind == "alu_i":
            op = draw(st.sampled_from(_ALU_I))
            lines.append(f"{op} {rd}, {rs1}, {draw(st.integers(-512, 511))}")
        elif kind == "shift":
            op = draw(st.sampled_from(_SHIFT_I))
            lines.append(f"{op} {rd}, {rs1}, {draw(st.integers(0, 31))}")
        elif kind == "load":
            width = draw(st.sampled_from(["lw", "lh", "lhu", "lb", "lbu"]))
            offset = draw(st.integers(0, 6)) * 4
            lines.append(f"{width} {rd}, {offset}({_BASE_REG})")
        elif kind == "store":
            width = draw(st.sampled_from(["sw", "sh", "sb"]))
            offset = draw(st.integers(0, 6)) * 4
            lines.append(f"{width} {rs2}, {offset}({_BASE_REG})")
        elif kind == "lui":
            lines.append(f"lui {rd}, {draw(st.integers(0, 0xFFFFF))}")
        elif kind == "jal":
            # the word behind a taken jump is fetched and squashed, so it
            # may be undecodable
            lines.append(f"jal {rd}, L{index}")
            if draw(st.booleans()):
                lines.append(_GARBAGE)
            lines.append(f"addi {rs1}, {rs1}, 1")
            lines.append(f"L{index}:")
        elif kind == "jalr":
            # auipc forwards the base into jalr, which skips one slot
            lines.append("auipc t2, 0")
            lines.append(f"jalr {rd}, 12(t2)")
            lines.append(_GARBAGE if draw(st.booleans()) else f"addi {rs1}, {rs1}, 1")
        elif kind == "mv_neu":
            lines.append(f"mv_neu {draw(st.integers(0, 31))}, {rs1}")
        elif kind == "trigger_bnn":
            lines.append(f"trigger_bnn {draw(st.integers(-2048, 2047))}")
        elif kind == "l2":
            offset = draw(st.integers(0, 6)) * 4
            if draw(st.booleans()):
                lines.append(f"sw_l2 {rs2}, {offset}({_BASE_REG})")
            else:
                lines.append(f"lw_l2 {rd}, {offset}({_BASE_REG})")
        else:
            op = draw(st.sampled_from(_BRANCHES))
            skip = draw(st.integers(1, 3))
            lines.append(f"{op} {rs1}, {rs2}, L{index}")
            for sub in range(skip):
                filler_rd = draw(st.sampled_from(_REGS))
                lines.append(f"addi {filler_rd}, {filler_rd}, 1")
            lines.append(f"L{index}:")
    # without ncpu every program halts; with it, some switch to BNN mode
    # and some run off the end of the program
    lines.append(draw(st.sampled_from(["ebreak", "trans_bnn 3", ""]))
                 if ncpu else "ebreak")
    return "\n".join(lines)


@settings(max_examples=60, deadline=None)
@given(source=random_program())
def test_pipeline_matches_functional(source):
    program = assemble(source)

    f_mem = FlatMemory(size=512)
    p_mem = FlatMemory(size=512)
    functional = FunctionalCPU(program, memory=f_mem)
    pipelined = PipelinedCPU(program, memory=p_mem)

    f_result = functional.run(max_steps=20_000)
    p_result = pipelined.run(max_cycles=100_000)

    assert f_result.stop_reason == "halt"
    assert p_result.stop_reason == "halt"
    assert functional.regs.snapshot() == pipelined.regs.snapshot()
    assert f_mem.read_words(256, 8) == p_mem.read_words(256, 8)
    assert f_result.stats.instructions == p_result.stats.instructions
    # the pipeline can never be faster than one instruction per cycle
    assert p_result.stats.cycles >= f_result.stats.instructions


def _run_to_end(cpu, limit, chunk=None):
    """Run to a stop, optionally resuming every ``chunk`` cycles; returns
    (stop reason or the raised error's type, resume PC or None)."""
    try:
        if chunk is None:
            result = cpu.run(limit)
        else:
            result = cpu.run(max_cycles=cpu.stats.cycles + chunk)
            while result.stop_reason == "max_cycles":
                result = cpu.run(max_cycles=cpu.stats.cycles + chunk)
    except SimulationError as exc:
        return type(exc).__name__, None
    return result.stop_reason, result.pc


@settings(max_examples=80, deadline=None)
@given(source=random_program(ncpu=True), forwarding=st.booleans())
def test_ncpu_programs_match_functional(source, forwarding):
    program = assemble(source)
    cpus = []
    for cpu_class, kwargs in ((FunctionalCPU, {}),
                              (PipelinedCPU, {"forwarding": forwarding})):
        env = CoreEnv(l2=FlatMemory(size=512))
        cpu = cpu_class(program, memory=FlatMemory(size=512), env=env, **kwargs)
        cpus.append((cpu, _run_to_end(cpu, 100_000)))
    (functional, f_end), (pipelined, p_end) = cpus
    assert f_end == p_end
    assert f_end[0] in ("halt", "trans_bnn", "SimulationError")
    assert functional.regs.snapshot() == pipelined.regs.snapshot()
    assert functional.memory.read_words(256, 8) == pipelined.memory.read_words(256, 8)
    assert functional.stats.instructions == pipelined.stats.instructions
    f_env, p_env = functional.env, pipelined.env
    # cycle stamps differ by design; names, PCs and immediates may not
    assert ([(e.name, e.pc, e.imm) for e in f_env.events]
            == [(e.name, e.pc, e.imm) for e in p_env.events])
    assert f_env.transition_neurons == p_env.transition_neurons
    assert (f_env.l2_reads, f_env.l2_writes) == (p_env.l2_reads, p_env.l2_writes)
    assert f_env.l2.read_words(256, 8) == p_env.l2.read_words(256, 8)


@pytest.mark.parametrize("slot", ["jal", "branch", "jalr"])
def test_squashed_undecodable_word_never_raises(slot):
    """Only decode raises: a garbage word fetched into a squashed slot
    behind a taken control transfer is discarded on both simulators."""
    transfer = {"jal": "j skip", "branch": "beq x0, x0, skip",
                "jalr": "auipc t2, 0\njalr x0, 12(t2)"}[slot]
    program = assemble(f"li a0, 1\n{transfer}\n{_GARBAGE}\nskip:\n"
                       "addi a0, a0, 1\nebreak")
    for cpu in (FunctionalCPU(program), PipelinedCPU(program)):
        result = cpu.run(10_000)
        assert result.stop_reason == "halt"
        assert cpu.regs.read(10) == 2


#: ``PipelinedCPU``'s two ways in: ``run()``, which block-times a fresh,
#: forwarding, untraced ``FlatMemory`` run, and the cycle loop alone
PIPELINE_ENTRIES = ["run", "_run_cycles"]


@pytest.mark.parametrize("entry", PIPELINE_ENTRIES)
@settings(max_examples=30, deadline=None)
@given(source=random_program())
def test_pipeline_cycles_bounded_by_hazard_model(entry, source):
    """cycles == instructions + fill + stalls + flushes exactly, on both
    paths: the block-timed one derives its counts from this."""
    program = assemble(source)
    pipelined = PipelinedCPU(program, memory=FlatMemory(size=512))
    result = getattr(pipelined, entry)(max_cycles=100_000)
    stats = result.stats
    assert stats.cycles == stats.instructions + 4 + stats.stalls + stats.flushes


@st.composite
def looped_program(draw):
    """Programs with bounded countdown loops (possibly nested) whose bodies
    are random ALU/memory work — exercises repeated flushes, loop-carried
    dependencies, and store/load recurrences."""
    lines = [f"li {_BASE_REG}, 256"]
    for reg in _REGS:
        lines.append(f"li {reg}, {draw(st.integers(-50, 50))}")
    n_loops = draw(st.integers(1, 3))
    for loop_index in range(n_loops):
        iterations = draw(st.integers(1, 6))
        lines.append(f"li s1, {iterations}")
        lines.append(f"outer_{loop_index}:")
        body_len = draw(st.integers(1, 6))
        for sub in range(body_len):
            kind = draw(st.sampled_from(["alu", "mem", "inner"]))
            rd = draw(st.sampled_from(_REGS))
            rs = draw(st.sampled_from(_REGS))
            if kind == "alu":
                op = draw(st.sampled_from(_ALU_R))
                lines.append(f"{op} {rd}, {rs}, {draw(st.sampled_from(_REGS))}")
            elif kind == "mem":
                offset = draw(st.integers(0, 6)) * 4
                lines.append(f"sw {rs}, {offset}({_BASE_REG})")
                lines.append(f"lw {rd}, {offset}({_BASE_REG})")
            else:
                inner = draw(st.integers(1, 4))
                label = f"inner_{loop_index}_{sub}"
                lines.append(f"li s2, {inner}")
                lines.append(f"{label}:")
                lines.append(f"add {rd}, {rd}, {rs}")
                lines.append("addi s2, s2, -1")
                lines.append(f"bnez s2, {label}")
        lines.append("addi s1, s1, -1")
        lines.append(f"bnez s1, outer_{loop_index}")
    lines.append("ebreak")
    return "\n".join(lines)


@settings(max_examples=40, deadline=None)
@given(source=looped_program())
def test_looped_programs_match(source):
    program = assemble(source)
    f_mem = FlatMemory(size=512)
    p_mem = FlatMemory(size=512)
    functional = FunctionalCPU(program, memory=f_mem)
    pipelined = PipelinedCPU(program, memory=p_mem)
    f_result = functional.run(max_steps=200_000)
    p_result = pipelined.run(max_cycles=1_000_000)
    assert f_result.stop_reason == "halt"
    assert p_result.stop_reason == "halt"
    assert functional.regs.snapshot() == pipelined.regs.snapshot()
    assert f_mem.read_words(256, 8) == p_mem.read_words(256, 8)
    assert f_result.stats.instructions == p_result.stats.instructions


@settings(max_examples=15, deadline=None)
@given(source=looped_program())
def test_looped_programs_match_without_forwarding(source):
    """The ablated pipeline is slower but architecturally identical."""
    program = assemble(source)
    golden = FunctionalCPU(program, memory=FlatMemory(size=512))
    golden_result = golden.run(max_steps=200_000)
    ablated = PipelinedCPU(program, memory=FlatMemory(size=512),
                           forwarding=False)
    ablated_result = ablated.run(max_cycles=2_000_000)
    assert golden_result.stop_reason == ablated_result.stop_reason == "halt"
    assert golden.regs.snapshot() == ablated.regs.snapshot()
    assert ablated_result.stats.cycles >= golden_result.stats.instructions


def _pipeline_state(cpu, end):
    env = cpu.env
    return {
        "end": end,
        "regs": cpu.regs.snapshot(),
        "memory": cpu.memory.read_words(256, 8),
        "stats": cpu.stats.as_dict(),
        "events": [(e.name, e.cycle, e.pc, e.imm) for e in env.events],
        "neurons": list(env.transition_neurons),
        "l2": (env.l2_reads, env.l2_writes, env.l2.read_words(256, 8)),
    }


@settings(max_examples=40, deadline=None)
@given(source=random_program(ncpu=True), chunk=st.integers(1, 7),
       forwarding=st.booleans())
def test_resuming_in_chunks_matches_one_run(source, chunk, forwarding):
    """A run cut every ``chunk`` cycles by ``max_cycles`` and resumed ends
    in exactly the state of one uninterrupted run."""
    program = assemble(source)
    states = []
    for step in (None, chunk):
        cpu = PipelinedCPU(program, memory=FlatMemory(size=512),
                           env=CoreEnv(l2=FlatMemory(size=512)),
                           forwarding=forwarding)
        states.append(_pipeline_state(cpu, _run_to_end(cpu, 100_000, step)))
    assert states[0] == states[1]


_BRANCH_CONSUMER = "bltu a0, a2, skip\naddi a1, a1, 1\nskip:"


@pytest.mark.parametrize("entry", PIPELINE_ENTRIES)
@pytest.mark.parametrize("gap", [0, 1])
@pytest.mark.parametrize("load, stored", [("lb", 0x80), ("lh", 0x8001)])
@pytest.mark.parametrize("consumer", [
    "addi a1, a0, 3", "xori a1, a0, -1", "srli a1, a0, 4", "srai a1, a0, 4",
    "sltu a1, a0, a2", "slt a1, a0, a2", "sltiu a1, a0, 5", _BRANCH_CONSUMER,
    "sw a0, 4(s0)", "mv_neu 2, a0",
], ids=lambda consumer: consumer.split()[0])
def test_sign_extended_load_forwards_from_mem_wb(gap, load, stored, consumer, entry):
    """The modelled MEM/WB forward carries a ``lb``/``lh`` result raw,
    sign-extended; the simulator reads it from the register file that WB
    has just written instead.  Every consumer must still compute what the
    ISS computes from the register: the two agree because each consumer
    reduces its operands mod 2**32, and this test guards that in the
    cycle loop, the only path that forwards.  ``run()`` block-times most
    of these programs, and must leave the same stalls and state."""
    source = "\n".join([
        "li s0, 256", "li a2, 5", f"li t0, {stored}", "sw t0, 0(s0)",
        f"{load} a0, 0(s0)", *(["addi t1, t1, 1"] * gap), consumer, "ebreak"])
    program = assemble(source)
    golden = FunctionalCPU(program, memory=FlatMemory(size=512))
    pipelined = PipelinedCPU(program, memory=FlatMemory(size=512))
    assert golden.run(1_000).stop_reason == "halt"
    result = getattr(pipelined, entry)(1_000)
    assert result.stop_reason == "halt"
    # back to back, the consumer stalls once and then reads MEM/WB
    assert result.stats.stalls == (1 if gap == 0 else 0)
    assert pipelined.regs.snapshot() == golden.regs.snapshot()
    assert pipelined.memory.read_words(256, 2) == golden.memory.read_words(256, 2)
    assert pipelined.env.transition_neurons == golden.env.transition_neurons
