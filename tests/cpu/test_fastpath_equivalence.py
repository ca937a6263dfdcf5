"""Differential equivalence: FastCPU vs. the functional model and pipeline.

The fast-path interpreter must be *indistinguishable* from the functional
golden model: registers, memory, PC, stop reason, every :class:`ExecStats`
field (including the per-mnemonic histogram), core-environment events and
their recorded cycles — over the whole verification program suite,
hypothesis-generated programs with jumps and loops, step-limit boundaries
that land mid-block, and error paths.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu import (
    CoreEnv,
    FastCPU,
    FlatMemory,
    FunctionalCPU,
    PipelinedCPU,
)
from repro.cpu.fastpath import ALU_EXPRS, TERMINATORS
from repro.cpu.semantics import MEM_SIZES
from repro.engine import get_engine
from repro.errors import (
    ConfigurationError,
    DecodingError,
    MemoryError_,
    SimulationError,
)
from repro.isa import assemble
from repro.isa.instructions import SPECS
from repro.isa.program import Program
from repro.sim import use_session
from repro.trace import tracing
from repro.workloads.verification import PASS_VALUE, SIGNATURE_ADDR, generate_all


def _assert_identical(functional, f_result, fast, q_result,
                      mem_window=(0, 0)):
    assert functional.regs.snapshot() == fast.regs.snapshot()
    assert f_result.stop_reason == q_result.stop_reason
    assert f_result.pc == q_result.pc
    assert functional.stats.scalars() == fast.stats.scalars()
    assert functional.stats.instr_counts == fast.stats.instr_counts
    f_events = [(e.name, e.cycle, e.pc, e.imm) for e in functional.env.events]
    q_events = [(e.name, e.cycle, e.pc, e.imm) for e in fast.env.events]
    assert f_events == q_events
    assert functional.env.transition_neurons == fast.env.transition_neurons
    assert functional.env.l2_reads == fast.env.l2_reads
    assert functional.env.l2_writes == fast.env.l2_writes
    base, count = mem_window
    if count:
        assert functional.memory.read_words(base, count) == \
            fast.memory.read_words(base, count)


def _run_pair(program, max_steps=200_000, l2=False):
    f_env = CoreEnv(l2=FlatMemory(size=1 << 16)) if l2 else CoreEnv()
    q_env = CoreEnv(l2=FlatMemory(size=1 << 16)) if l2 else CoreEnv()
    functional = FunctionalCPU(program, memory=FlatMemory(), env=f_env)
    fast = FastCPU(program, memory=FlatMemory(), env=q_env)
    f_result = functional.run(max_steps=max_steps)
    q_result = fast.run(max_steps=max_steps)
    return functional, f_result, fast, q_result


class TestVerificationSuite:
    """Every self-checking ISA verification program, on all three engines."""

    @pytest.mark.parametrize("name", sorted(generate_all()))
    def test_matches_functional_and_pipeline(self, name):
        program = assemble(generate_all()[name])
        functional, f_result, fast, q_result = _run_pair(program)
        _assert_identical(functional, f_result, fast, q_result)
        assert fast.memory.load_word(SIGNATURE_ADDR) == PASS_VALUE

        pipelined = PipelinedCPU(program, memory=FlatMemory())
        p_result = pipelined.run(max_cycles=1_000_000)
        assert p_result.stop_reason == q_result.stop_reason
        assert pipelined.regs.snapshot() == fast.regs.snapshot()
        assert p_result.stats.instructions == q_result.stats.instructions


class TestCustomInstructions:
    def test_mv_neu_trigger_and_trans_event_cycles(self):
        source = """
            li a0, 7
            li a1, 3
            mv_neu 0, a0
            mv_neu 1, a1
            trigger_bnn 5
            addi a0, a0, 1
            trans_bnn 2
            ebreak
        """
        program = assemble(source)
        functional, f_result, fast, q_result = _run_pair(program)
        _assert_identical(functional, f_result, fast, q_result)
        assert q_result.stop_reason == "trans_bnn"
        names = [event.name for event in fast.env.events]
        assert names == ["trigger_bnn", "trans_bnn"]

    def test_l2_loads_and_stores(self):
        source = """
            li a0, 256
            li a1, 1234
            sw_l2 a1, 0(a0)
            lw_l2 a2, 0(a0)
            sw a2, 4(a0)
            ebreak
        """
        program = assemble(source)
        functional, f_result, fast, q_result = _run_pair(program, l2=True)
        _assert_identical(functional, f_result, fast, q_result,
                          mem_window=(256, 4))
        assert fast.env.l2_memory().load_word(256) == 1234
        assert fast.regs.read(12) == 1234


class TestStepLimits:
    """max_steps must cut execution at the exact same instruction."""

    SOURCE = """
        li a0, 0
        li a1, 5
    loop:
        addi a0, a0, 2
        addi a2, a0, 1
        sw   a2, 0x100(x0)
        addi a1, a1, -1
        bne  a1, x0, loop
        jal  ra, done
        addi a0, a0, 99
    done:
        ebreak
    """

    def test_every_step_boundary_matches(self):
        program = assemble(self.SOURCE)
        total = FunctionalCPU(program, memory=FlatMemory()) \
            .run(max_steps=1_000).stats.instructions
        for limit in range(total + 2):
            functional, f_result, fast, q_result = _run_pair(
                program, max_steps=limit)
            _assert_identical(functional, f_result, fast, q_result,
                              mem_window=(0x100, 1))
            expected = "halt" if limit > total else "max_cycles" \
                if limit < total else f_result.stop_reason
            assert q_result.stop_reason == expected

    def test_zero_steps(self):
        program = assemble(self.SOURCE)
        _, f_result, _, q_result = _run_pair(program, max_steps=0)
        assert f_result.stop_reason == q_result.stop_reason == "max_cycles"
        assert q_result.stats.instructions == 0

    def test_negative_steps_rejected_before_running(self):
        # a negative limit once sliced the block body from its end and
        # retired five of these ten instructions
        program = assemble("addi a0, a0, 1\n" * 10 + "loop: j loop")
        fast = FastCPU(program, memory=FlatMemory())
        with pytest.raises(ConfigurationError, match="^max_steps:"):
            fast.run(max_steps=-5)
        assert fast.stats.instructions == 0
        assert fast.regs.read(10) == 0
        assert fast.pc == 0

    def test_resumes_after_limit(self):
        program = assemble(self.SOURCE)
        fast = FastCPU(program, memory=FlatMemory())
        while fast.run(max_steps=3).stop_reason == "max_cycles":
            pass
        reference = FastCPU(program, memory=FlatMemory())
        reference.run(max_steps=10_000)
        assert fast.regs.snapshot() == reference.regs.snapshot()
        assert fast.stats.scalars() == reference.stats.scalars()


class TestErrorPaths:
    def test_running_off_the_program_raises_like_functional(self):
        program = assemble("addi a0, x0, 1")  # no ebreak
        functional = FunctionalCPU(program, memory=FlatMemory())
        fast = FastCPU(program, memory=FlatMemory())
        with pytest.raises(SimulationError) as f_exc:
            functional.run(max_steps=100)
        with pytest.raises(SimulationError) as q_exc:
            fast.run(max_steps=100)
        assert str(f_exc.value) == str(q_exc.value)
        assert functional.stats.scalars() == fast.stats.scalars()
        assert functional.pc == fast.pc

    def test_undecodable_word_raises_like_functional(self):
        good = assemble("addi a0, x0, 1").words[0]
        program = Program(words=[good, 0xFFFFFFFF])
        functional = FunctionalCPU(program, memory=FlatMemory())
        fast = FastCPU(program, memory=FlatMemory())
        with pytest.raises(DecodingError) as f_exc:
            functional.run(max_steps=100)
        with pytest.raises(DecodingError) as q_exc:
            fast.run(max_steps=100)
        assert str(f_exc.value) == str(q_exc.value)
        assert functional.stats.scalars() == fast.stats.scalars()
        assert functional.stats.instr_counts == fast.stats.instr_counts
        assert functional.pc == fast.pc

    @staticmethod
    def _assert_same_fault(source):
        """Run ``source`` on both models until it raises: the exception's
        type and text, every stat, the histogram, the PC and the registers
        must match.  Returns the fast CPU and its exception."""
        program = assemble(source)
        functional = FunctionalCPU(program, memory=FlatMemory(size=512))
        fast = FastCPU(program, memory=FlatMemory(size=512))
        with pytest.raises(Exception) as f_exc:
            functional.run(max_steps=100)
        with pytest.raises(Exception) as q_exc:
            fast.run(max_steps=100)
        assert type(f_exc.value) is type(q_exc.value)
        assert str(f_exc.value) == str(q_exc.value)
        assert functional.stats.scalars() == fast.stats.scalars()
        assert functional.stats.instr_counts == fast.stats.instr_counts
        assert functional.pc == fast.pc
        assert functional.regs.snapshot() == fast.regs.snapshot()
        return fast, q_exc.value

    def test_memory_fault_mid_block_commits_partial_stats(self):
        self._assert_same_fault("""
            addi a0, x0, 1
            addi a1, x0, 2
            lw   a2, 8(x0)
            lui  a3, 0xFFFFF
            lw   a4, 0(a3)
            ebreak
        """)

    def test_load_fault_after_folded_jal_takes_pc_from_block(self):
        # the lw is body op 3 of one superblock but sits at pc 20, not
        # 4 * 3: the fault PC must come from the block's PC table
        fast, exc = self._assert_same_fault("""
            lui  a3, 0xFFFFF
            addi a0, x0, 1
            jal  ra, far
            addi a0, a0, 99
            addi a0, a0, 99
        far:
            lw   a4, 0(a3)
            ebreak
        """)
        assert isinstance(exc, MemoryError_)
        assert fast.cached_blocks == 1
        assert fast.pc == 20
        assert fast.stats.instr_counts == {"lui": 1, "addi": 1, "jal": 1}

    @pytest.mark.parametrize("op", ["lw_l2 a2, 0(a0)", "sw_l2 a1, 0(a0)"])
    def test_l2_op_without_l2_raises_mid_block(self, op):
        fast, exc = self._assert_same_fault(f"""
            addi a0, x0, 256
            addi a1, x0, 7
            {op}
            addi a3, x0, 1
            ebreak
        """)
        assert type(exc) is RuntimeError
        assert fast.pc == 8
        assert fast.env.l2_reads == fast.env.l2_writes == 0


class TestSemanticsCoverage:
    def test_every_mnemonic_has_exactly_one_fast_path_rule(self):
        # an ISA addition without fast-path semantics fails here rather
        # than at its first execution
        groups = {"ALU_EXPRS": set(ALU_EXPRS), "MEM_SIZES": set(MEM_SIZES),
                  "TERMINATORS": set(TERMINATORS), "mv_neu": {"mv_neu"}}
        for spec in SPECS:
            homes = [group for group, names in groups.items()
                     if spec.name in names]
            assert len(homes) == 1, (spec.name, homes)
        assert set().union(*groups.values()) == {spec.name for spec in SPECS}


class TestSuperblocks:
    """Unconditional ``jal`` folding must be invisible architecturally."""

    # three calls into straight-line helpers, linked by unconditional
    # jumps — the whole chain should fold into one superblock
    CHAIN = """
        addi a0, x0, 1
        jal  ra, part2
        addi a0, a0, 99        # skipped: jal always takes
    part2:
        addi a1, a0, 2
        j    part3
        addi a1, a1, 99        # skipped
    part3:
        addi a2, a1, 3
        ebreak
    """

    def test_jal_chain_folds_into_one_superblock(self):
        program = assemble(self.CHAIN)
        functional, f_result, fast, q_result = _run_pair(program)
        _assert_identical(functional, f_result, fast, q_result)
        assert fast.cached_blocks == 1
        block = fast._blocks[program.base]
        assert block.counts["jal"] == 2  # both jumps folded into the body
        assert len(block.pcs) == block.n_body + 1

    def test_link_register_written_by_folded_jal(self):
        program = assemble(self.CHAIN)
        fast = FastCPU(program, memory=FlatMemory())
        fast.run()
        # ra holds the return address of the *first* jal (pc 4 -> ra 8)
        assert fast.regs.read(1) == 8

    def test_step_boundaries_across_folded_jumps(self):
        program = assemble(self.CHAIN)
        total = FunctionalCPU(program, memory=FlatMemory()) \
            .run(max_steps=100).stats.instructions
        for limit in range(total + 2):
            functional, f_result, fast, q_result = _run_pair(
                program, max_steps=limit)
            _assert_identical(functional, f_result, fast, q_result)

    def test_jal_cycle_terminates_compilation(self):
        # a backward jal into the already-decoded trace must stop folding
        # (else _build would never terminate) and still run correctly
        source = """
        top:
            addi a0, a0, 1
            j    top
        """
        program = assemble(source)
        functional, f_result, fast, q_result = _run_pair(
            program, max_steps=25)
        _assert_identical(functional, f_result, fast, q_result)
        assert q_result.stop_reason == "max_cycles"

    def test_self_jump_terminates_compilation(self):
        program = assemble("spin: j spin")
        functional, f_result, fast, q_result = _run_pair(
            program, max_steps=10)
        _assert_identical(functional, f_result, fast, q_result)

    def test_jal_off_the_program_raises_like_functional(self):
        program = assemble("addi a0, x0, 1\nj 64")
        functional = FunctionalCPU(program, memory=FlatMemory())
        fast = FastCPU(program, memory=FlatMemory())
        with pytest.raises(SimulationError) as f_exc:
            functional.run(max_steps=100)
        with pytest.raises(SimulationError) as q_exc:
            fast.run(max_steps=100)
        assert str(f_exc.value) == str(q_exc.value)
        assert functional.stats.scalars() == fast.stats.scalars()
        assert functional.stats.instr_counts == fast.stats.instr_counts
        assert functional.pc == fast.pc

    def test_body_cap_bounds_superblock_growth(self, monkeypatch):
        import repro.cpu.fastpath as fp

        monkeypatch.setattr(fp, "MAX_SUPERBLOCK_BODY", 2)
        program = assemble(self.CHAIN)
        functional, f_result, fast, q_result = _run_pair(program)
        _assert_identical(functional, f_result, fast, q_result)
        assert fast.cached_blocks > 1  # capped: the chain split into blocks


class TestBlockCacheAndProbes:
    def test_blocks_compiled_once(self):
        program = assemble(TestStepLimits.SOURCE)
        fast = FastCPU(program, memory=FlatMemory())
        result = fast.run()
        compiled = fast.cached_blocks
        # far fewer blocks than executed instructions: loop bodies replay
        assert 1 < compiled < result.stats.instructions
        # a mid-block step limit compiles at most one extra suffix block
        fast2 = FastCPU(program, memory=FlatMemory())
        fast2.run(max_steps=4)
        fast2.run()
        assert compiled <= fast2.cached_blocks <= compiled + 1

    def test_run_emits_fastpath_probe_and_scope(self):
        program = assemble("addi a0, x0, 1\nebreak")
        with use_session(cache_enabled=False) as session:
            with tracing(session) as tracer:
                _, result = get_engine("fast").run_program(
                    program, memory=FlatMemory())
            counters = session.stats
        assert result.stop_reason == "halt"
        (event,) = [e for e in tracer.events if e.name == "cpu.run"]
        assert event.track == "cpu.fastpath"
        assert event.args["simulator"] == "fastpath"
        assert event.args["instructions"] == 2
        assert counters["cpu.fastpath.runs"] == 1
        assert counters["cpu.fastpath.instructions"] == 2


# -- hypothesis: programs with loops, jumps, and custom instructions -----
_REGS = ["a0", "a1", "a2", "a3", "t0", "t1"]
_ALU_R = ["add", "sub", "and", "or", "xor", "slt", "sltu", "sll", "srl",
          "sra", "mul"]
_ALU_I = ["addi", "andi", "ori", "xori", "slti", "sltiu"]
_SHIFT_I = ["slli", "srli", "srai"]
_BRANCHES = ["beq", "bne", "blt", "bge", "bltu", "bgeu"]


@st.composite
def jumpy_program(draw):
    """Straight-line chunks joined by forward branches, jumps, and one
    bounded backward loop — exercises block boundaries of every kind."""
    lines = ["li s0, 256"]
    for reg in _REGS:
        lines.append(f"li {reg}, {draw(st.integers(-100, 100))}")
    loop_trips = draw(st.integers(1, 4))
    lines += [f"li s1, {loop_trips}", "loop_head:"]
    count = draw(st.integers(3, 25))
    for index in range(count):
        kind = draw(st.sampled_from(
            ["alu_r", "alu_i", "shift", "load", "store", "branch", "jal",
             "jalr", "mv_neu", "trigger"]))
        rd = draw(st.sampled_from(_REGS))
        rs1 = draw(st.sampled_from(_REGS))
        rs2 = draw(st.sampled_from(_REGS))
        if kind == "alu_r":
            lines.append(f"{draw(st.sampled_from(_ALU_R))} {rd}, {rs1}, {rs2}")
        elif kind == "alu_i":
            lines.append(f"{draw(st.sampled_from(_ALU_I))} {rd}, {rs1}, "
                         f"{draw(st.integers(-512, 511))}")
        elif kind == "shift":
            lines.append(f"{draw(st.sampled_from(_SHIFT_I))} {rd}, {rs1}, "
                         f"{draw(st.integers(0, 31))}")
        elif kind == "load":
            width = draw(st.sampled_from(["lw", "lh", "lhu", "lb", "lbu"]))
            lines.append(f"{width} {rd}, {draw(st.integers(0, 6)) * 4}(s0)")
        elif kind == "store":
            width = draw(st.sampled_from(["sw", "sh", "sb"]))
            lines.append(f"{width} {rs2}, {draw(st.integers(0, 6)) * 4}(s0)")
        elif kind == "branch":
            op = draw(st.sampled_from(_BRANCHES))
            lines.append(f"{op} {rs1}, {rs2}, S{index}")
            for _ in range(draw(st.integers(1, 3))):
                filler = draw(st.sampled_from(_REGS))
                lines.append(f"addi {filler}, {filler}, 1")
            lines.append(f"S{index}:")
        elif kind == "jal":
            lines += [f"jal t2, S{index}",
                      f"addi {rd}, {rd}, 13",  # skipped
                      f"S{index}:"]
        elif kind == "jalr":
            # t2 holds the link from `jal +8`: jumping back to it via jalr
            # lands on the instruction after the jal
            lines += [f"jal t2, S{index}",
                      f"jal x0, T{index}",
                      f"S{index}:", "jalr x0, t2, 0",
                      f"T{index}:"]
        elif kind == "mv_neu":
            lines.append(f"mv_neu {draw(st.integers(0, 7))}, {rs1}")
        else:
            lines.append(f"trigger_bnn {draw(st.integers(0, 15))}")
    lines += ["addi s1, s1, -1", "bne s1, x0, loop_head", "ebreak"]
    return "\n".join(lines)


@settings(max_examples=50, deadline=None)
@given(source=jumpy_program())
def test_fastpath_matches_functional_on_random_programs(source):
    program = assemble(source)
    functional, f_result, fast, q_result = _run_pair(program,
                                                     max_steps=50_000)
    assert q_result.stop_reason == "halt"
    _assert_identical(functional, f_result, fast, q_result,
                      mem_window=(256, 8))


@settings(max_examples=20, deadline=None)
@given(source=jumpy_program(), limit=st.integers(0, 60))
def test_fastpath_matches_functional_under_step_limits(source, limit):
    program = assemble(source)
    functional, f_result, fast, q_result = _run_pair(program,
                                                     max_steps=limit)
    _assert_identical(functional, f_result, fast, q_result,
                      mem_window=(256, 8))
