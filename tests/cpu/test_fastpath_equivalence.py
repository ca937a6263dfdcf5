"""Differential equivalence: FastCPU vs. the functional model and pipeline.

The fast-path interpreter must be *indistinguishable* from the functional
golden model: registers, memory, PC, stop reason, every :class:`ExecStats`
field (including the per-mnemonic histogram), core-environment events and
their recorded cycles — over the whole verification program suite,
hypothesis-generated programs with jumps and loops, step-limit boundaries
that land mid-block, and error paths.
"""

import gc
import weakref
from contextlib import contextmanager, nullcontext

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
from repro.cpu import fastpath as fp
from repro.cpu.fastpath import ALU_EXPRS, BRANCH_CONDS, OP_LINES
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
from tests.workloads.verification import PASS_VALUE, SIGNATURE_ADDR, generate_all


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


@contextmanager
def compiled_tier():
    """Every block a :class:`FastCPU` builds runs on its generated
    function from its first execution, unless it must stay on closures."""
    build = FastCPU._build

    def build_compiled(self, pc):
        block = build(self, pc)
        if block.countdown:
            block.fn, block.countdown = fp._translate(block), 0
        return block

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FastCPU, "_build", build_compiled)
        yield


def _run_compiled_pair(program, max_steps=200_000, l2=False):
    """:func:`_run_pair` on the compiled tier."""
    with compiled_tier():
        return _run_pair(program, max_steps=max_steps, l2=l2)


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
        assert functional.memory.load_count == fast.memory.load_count
        assert functional.memory.store_count == fast.memory.store_count
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
        groups = {"ALU_EXPRS": set(ALU_EXPRS),
                  "BRANCH_CONDS": set(BRANCH_CONDS), "OP_LINES": set(OP_LINES)}
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
        assert block.body_names.count("jal") == 2  # both jumps folded into the body
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
                _, result = get_engine("fast").run_program(program)
            counters = session.stats
        assert result.stop_reason == "halt"
        (event,) = [e for e in tracer.events if e.name == "cpu.run"]
        assert event.track == "cpu.fastpath"
        assert event.args["simulator"] == "fastpath"
        assert event.args["instructions"] == 2
        assert counters["cpu.fastpath.runs"] == 1
        assert counters["cpu.fastpath.instructions"] == 2


class TestCompiledTier:
    """Hot blocks run as one generated function each; nothing about the
    run may change."""

    @pytest.mark.parametrize("name", sorted(generate_all()))
    def test_verification_suite_on_compiled_blocks(self, name):
        program = assemble(generate_all()[name])
        functional, f_result, fast, q_result = _run_compiled_pair(program)
        _assert_identical(functional, f_result, fast, q_result)
        assert fast.memory.load_word(SIGNATURE_ADDR) == PASS_VALUE
        assert any(block.fn for block in fast._blocks.values())

    # the loop's access walks off the 512-byte memory on its third pass,
    # inside the loop block's generated function
    FAULTS = {
        "load": """
            addi a0, x0, 480
        loop:
            addi a1, a1, 1
            lw   a2, 0(a0)
            addi a0, a0, 16
            bne  a1, x0, loop
            ebreak
        """,
        "store-after-folded-jal": """
            addi a0, x0, 480
        loop:
            addi a1, a1, 1
            jal  ra, far
            addi a0, a0, 99
        far:
            sw   a1, 0(a0)
            addi a0, a0, 16
            bne  a1, x0, loop
            ebreak
        """,
    }

    @pytest.mark.parametrize("kind", FAULTS)
    def test_fault_inside_compiled_block(self, kind):
        with compiled_tier():
            fast, exc = TestErrorPaths._assert_same_fault(self.FAULTS[kind])
        assert isinstance(exc, MemoryError_)
        loop = fast._blocks[4]
        assert loop.fn is not None
        # the faulting op's PC comes from the block's table: after the
        # folded jal the store is body op 2 but sits at pc 16
        assert fast.pc == (16 if kind == "store-after-folded-jal" else 8)

    def test_step_limit_inside_compiled_block(self):
        program = assemble(TestStepLimits.SOURCE)
        total = FunctionalCPU(program, memory=FlatMemory()) \
            .run(max_steps=1_000).stats.instructions
        with compiled_tier():
            for limit in range(total + 2):
                functional, f_result, fast, q_result = _run_pair(
                    program, max_steps=limit)
                _assert_identical(functional, f_result, fast, q_result,
                                  mem_window=(0x100, 1))
            # a limit in the loop body stops inside a compiled block
            fast = FastCPU(program, memory=FlatMemory())
            fast.run(max_steps=4)
            assert fast._blocks[program.base].fn is not None
            assert fast.pc == 16

    def test_loads_and_stores_at_every_offset_sign(self):
        program = assemble("""
            li   a0, 0x120
            li   a1, -123457
            li   s1, 4
        loop:
            sw   a1, -8(a0)
            sh   a1, 0(a0)
            sb   a1, 6(a0)
            lw   a2, -8(a0)
            lh   a3, 0(a0)
            lhu  a4, -8(a0)
            lb   a5, 6(a0)
            lbu  a6, -5(a0)
            add  a1, a1, a2
            add  a1, a1, a5
            addi a0, a0, 12
            addi s1, s1, -1
            bne  s1, x0, loop
            ebreak
        """)
        functional, f_result, fast, q_result = _run_compiled_pair(program)
        _assert_identical(functional, f_result, fast, q_result,
                          mem_window=(0x100, 24))
        assert fast._blocks[program.symbols["loop"]].fn is not None

    def test_jalr_jumps_to_the_old_rs1_when_it_links_into_rs1(self):
        # jalr ra, ra: the target is ra before the link write; jumping to
        # the new ra would run the addi a0, a0, 100
        program = assemble("""
            li   s1, 3
        loop:
            auipc ra, 0
            addi ra, ra, 16
            jalr ra, ra, 0
            addi a0, a0, 100
            addi a0, a0, 1
            addi s1, s1, -1
            bne  s1, x0, loop
            ebreak
        """)
        for functional, f_result, fast, q_result in (
                _run_pair(program), _run_compiled_pair(program)):
            _assert_identical(functional, f_result, fast, q_result)
            assert fast.regs.read(10) == 3

    def test_events_keep_their_cycles_after_hot_blocks(self):
        source = """
            li a1, 6
        loop:
            addi a0, a0, 3
            addi a1, a1, -1
            bne  a1, x0, loop
            trigger_bnn 1
            li a1, 4
        again:
            addi a0, a0, 1
            trigger_bnn 2
            addi a1, a1, -1
            bne  a1, x0, again
            trans_bnn 3
            ebreak
        """
        program = assemble(source)
        functional, f_result, fast, q_result = _run_compiled_pair(program)
        _assert_identical(functional, f_result, fast, q_result)
        assert [e.name for e in fast.env.events] == \
            ["trigger_bnn"] * 5 + ["trans_bnn"]
        assert fast._blocks[4].fn is not None  # the first loop is compiled

    @pytest.mark.parametrize("hot_runs, compiled", [(4, True), (5, False)])
    def test_a_block_compiles_after_hot_block_runs(self, monkeypatch,
                                                   hot_runs, compiled):
        # the block at `loop` runs four whole times; its first pass is
        # part of the block at the program's start
        monkeypatch.setattr(fp, "HOT_BLOCK_RUNS", hot_runs)
        program = assemble(TestStepLimits.SOURCE)
        functional, f_result, fast, q_result = _run_pair(program)
        _assert_identical(functional, f_result, fast, q_result,
                          mem_window=(0x100, 1))
        loop = fast._blocks[program.symbols["loop"]]
        assert (loop.fn is not None) is compiled
        assert loop.countdown == hot_runs - 4

    def test_finished_cpu_memory_freed_without_gc(self):
        program = assemble(TestStepLimits.SOURCE)
        with compiled_tier():
            gc.disable()
            try:
                memory = FlatMemory()
                fast = FastCPU(program, memory=memory)
                fast.run()
                assert any(block.fn for block in fast._blocks.values())
                freed = weakref.ref(memory)
                del fast, memory
                assert freed() is None
            finally:
                gc.enable()


# -- every op shape on both tiers ------------------------------------------
#: registers each shape program starts from: a negative value, a small
#: positive one and the largest signed one, s0 pointing into a data
#: window whose words hold negative bytes and halves
_SHAPE_SETUP = """
    li   s0, 0x100
    li   a1, -123457
    li   a2, 13
    li   a3, 0x7FFFFFFF
    li   t0, 0x8081F2F3
    sw   t0, 0(s0)
    li   t0, 0x7F80FF01
    sw   t0, -4(s0)
    sw   a1, 4(s0)
"""
_SHAPE_WINDOW = (0xF0, 8)  # the data words around s0
#: destinations, one per line, so every result survives to the end
_SHAPE_DESTS = ["a0", "a4", "a5", "a6", "a7", "s1", "s2", "s3", "s4", "s5",
                "s6", "s7", "s8", "s9", "s10", "s11", "t1", "t2", "t3",
                "t4", "t5", "t6", "ra", "gp", "tp"]
#: cuts the two block-ending ``jal`` loops; every other case halts first
_SHAPE_STEPS = 200
_LOAD_OFFSETS = {1: (0, 3, -1, -3), 2: (0, 2, -2, -4), 4: (0, 4, -4)}
#: one store per word of the window, none on another's bytes
_STORE_OFFSETS = {1: (0, 9, -5, -11), 2: (0, 10, -6, -10), 4: (0, 8, -8, -12)}
#: the ops that reach the core environment, whose blocks stay on closures
_ENV_OP_NAMES = {"mv_neu", "lw_l2", "sw_l2", "trans_bnn", "trigger_bnn"}


def _shape_lines(templates):
    """``templates`` with ``{rd}`` filled from :data:`_SHAPE_DESTS` in
    turn; an x0 destination is written out in the template."""
    dests = iter(_SHAPE_DESTS)
    return "\n".join(line.format(rd=next(dests)) if "{rd}" in line else line
                     for line in templates)


def _branch_chain(op):
    """``op`` on operand pairs that order differently signed and
    unsigned, each falling through to a different bit of s2."""
    pairs = [("a1", "a2"), ("a2", "a1"), ("a1", "a1"), ("a1", "a3"),
             ("a3", "a1")]
    lines = []
    for index, (left, right) in enumerate(pairs):
        lines += [f"{op} {left}, {right}, L{index}",
                  f"addi s2, s2, {1 << index}", f"L{index}:"]
    return "\n".join(lines)


def _op_shape_cases():
    """``{case id: program}``; each id starts with the mnemonic it
    covers, and the cases cover every shape the op's fast-path line
    takes: x0 and other destinations, zero and signed offsets."""
    cases = {}
    for op in ("add", "sub", "sll", "slt", "sltu", "xor", "srl", "sra",
               "or", "and", "mul"):
        cases[op] = _shape_lines(
            [f"{op} {{rd}}, {a}, {b}" for a, b in (
                ("a1", "a2"), ("a2", "a1"), ("a1", "a1"), ("a3", "a1"),
                ("a1", "a3"), ("a2", "a3"))] + [f"{op} x0, a1, a2"])
    imm_ops = {op: (0, 1234, -1234)
               for op in ("addi", "slti", "sltiu", "xori", "ori", "andi")}
    imm_ops.update({op: (0, 5, 31) for op in ("slli", "srli", "srai")})
    for op, imms in imm_ops.items():
        cases[op] = _shape_lines(
            [f"{op} {{rd}}, {rs}, {imm}" for rs in ("a1", "a2", "a3")
             for imm in imms] + [f"{op} x0, a1, {imm}" for imm in imms])
    for op in ("lui", "auipc"):
        cases[op] = _shape_lines(
            [f"{op} {{rd}}, {imm}" for imm in (0, 0x10, 0x12345, 0xFFFFF)]
            + [f"{op} x0, 0x12345"])
    for op, size in MEM_SIZES.items():
        if op.endswith("_l2"):
            continue
        offsets = _LOAD_OFFSETS[size]
        if op[0] == "l":
            cases[op] = _shape_lines(
                [f"{op} {{rd}}, {offset}(s0)" for offset in offsets]
                + [f"{op} {{rd}}, 256(x0)"]
                + [f"{op} x0, {offset}(s0)" for offset in offsets])
        else:
            cases[op] = "\n".join(
                f"{op} {value}, {offset}(s0)" for value, offset in zip(
                    ("a1", "a3", "a2", "a1"), _STORE_OFFSETS[size]))
    for op in BRANCH_CONDS:
        cases[op] = _branch_chain(op)
    cases["jal-folded"] = """
            jal  ra, A
            addi s2, s2, 99
        A:  jal  x0, B
            addi s2, s2, 99
        B:  jal  t1, C
            addi s2, s2, 99
        C:  addi s2, s2, 1
    """
    # a jal back into its own trace ends the block; these loops run
    # until the step limit cuts them
    cases["jal-backward-link"] = "top: addi s2, s2, 1\njal ra, top"
    cases["jal-backward-x0"] = "top: addi s2, s2, 1\njal x0, top"
    cases["jalr"] = """
            la   t0, A
            jalr ra, t0, 0
            addi s2, s2, 99
        A:  la   t0, B
            addi t0, t0, -8
            jalr x0, t0, 8
            addi s2, s2, 99
        B:  la   t0, C
            addi t0, t0, 12
            jalr t1, t0, -12
            addi s2, s2, 99
        C:  la   t0, D
            jalr x0, t0, 0
            addi s2, s2, 99
        D:  addi s2, s2, 1
    """
    cases["ebreak"] = "addi a0, a1, 1"
    cases["mv_neu"] = """
            mv_neu 0, a1
            mv_neu 7, a2
            mv_neu 3, x0
            mv_neu 5, a3
    """
    l2 = """
            sw_l2 a1, 0(s0)
            sw_l2 a3, 8(s0)
            sw_l2 a2, -8(s0)
            lw_l2 a0, 0(s0)
            lw_l2 a4, 8(s0)
            lw_l2 a5, -8(s0)
            lw_l2 x0, 0(s0)
            lw_l2 x0, -8(s0)
    """
    cases["lw_l2"] = cases["sw_l2"] = l2
    cases["trigger_bnn"] = """
            trigger_bnn 5
            addi a0, a1, 1
            trigger_bnn 6
    """
    cases["trans_bnn"] = "addi a0, a1, 1\ntrans_bnn 2"
    return {case: f"{_SHAPE_SETUP}\n{body}\nebreak"
            for case, body in cases.items()}


OP_SHAPES = _op_shape_cases()


class TestEveryOpShape:
    """Each mnemonic's fast-path line in every shape it takes, on the
    closures and on the compiled tier, against the functional model."""

    def test_cases_cover_every_mnemonic(self):
        assert {case.split("-")[0] for case in OP_SHAPES} == \
            {spec.name for spec in SPECS}

    @pytest.mark.parametrize("compiled", [False, True],
                             ids=["closures", "compiled"])
    @pytest.mark.parametrize("case", sorted(OP_SHAPES))
    def test_op_shape_matches_functional(self, case, compiled):
        program = assemble(OP_SHAPES[case])
        run = _run_compiled_pair if compiled else _run_pair
        functional, f_result, fast, q_result = run(
            program, max_steps=_SHAPE_STEPS, l2=True)
        _assert_identical(functional, f_result, fast, q_result,
                          mem_window=_SHAPE_WINDOW)
        assert q_result.stop_reason == (
            "max_cycles" if "backward" in case
            else "trans_bnn" if case == "trans_bnn" else "halt")
        # the setup block holds the op (or its first branch), and it ran
        # on the tier under test unless an env op keeps it on closures
        translated = compiled and case.split("-")[0] not in _ENV_OP_NAMES
        assert (fast._blocks[program.base].fn is not None) is translated

    ODD_JALR = """
            la   t0, target
            jalr ra, t0, 1
            li   a0, 99
            ebreak
        target:
            li   a0, 7
            ebreak
    """

    @pytest.mark.parametrize("model", ["functional", "pipelined",
                                       "closures", "compiled"])
    def test_jalr_clears_bit_zero_of_an_odd_target(self, model):
        # the target is 20: without the clear a model fetches from 21,
        # outside the program
        program = assemble(self.ODD_JALR)
        make = {"functional": FunctionalCPU,
                "pipelined": PipelinedCPU}.get(model, FastCPU)
        with compiled_tier() if model == "compiled" else nullcontext():
            cpu = make(program, memory=FlatMemory())
            result = cpu.run()
        if model == "compiled":
            assert cpu._blocks[program.base].fn is not None
        assert result.stop_reason == "halt"
        assert cpu.regs.read(10) == 7
        assert cpu.regs.read(1) == 12  # the link, pc 8 + 4


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


@settings(max_examples=50, deadline=None)
@given(source=jumpy_program())
def test_compiled_blocks_match_functional_on_random_programs(source):
    program = assemble(source)
    functional, f_result, fast, q_result = _run_compiled_pair(
        program, max_steps=50_000)
    assert q_result.stop_reason == "halt"
    _assert_identical(functional, f_result, fast, q_result,
                      mem_window=(256, 8))


@settings(max_examples=20, deadline=None)
@given(source=jumpy_program(), limit=st.integers(0, 60))
def test_compiled_blocks_match_functional_under_step_limits(source, limit):
    program = assemble(source)
    functional, f_result, fast, q_result = _run_compiled_pair(
        program, max_steps=limit)
    _assert_identical(functional, f_result, fast, q_result,
                      mem_window=(256, 8))
