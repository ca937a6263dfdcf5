"""Cycle-accuracy tests for the 5-stage pipeline."""

import pytest

from repro.cpu import CoreEnv, FlatMemory, PipelinedCPU, run_pipelined
from repro.errors import ConfigurationError, SimulationError
from repro.isa import assemble


def run(source, memory=None, env=None):
    return run_pipelined(assemble(source), memory=memory, env=env)


class TestBasicTiming:
    def test_straight_line_fill_cost(self):
        # N instructions retire in N + 4 cycles (4-cycle pipeline fill).
        _, result = run("nop\nnop\nnop\nebreak")
        assert result.stats.instructions == 4
        assert result.stats.cycles == 8

    def test_single_instruction(self):
        _, result = run("ebreak")
        assert result.stats.cycles == 5

    def test_ipc_approaches_one(self):
        body = "\n".join(["addi a0, a0, 1"] * 200) + "\nebreak"
        _, result = run(body)
        assert result.stats.ipc > 0.97

    def test_stage_busy_counts(self):
        _, result = run("nop\nnop\nebreak")
        assert result.stats.stage_busy["WB"] == 3
        assert result.stats.stage_busy["IF"] == 3


class TestForwarding:
    def test_back_to_back_dependency(self):
        cpu, result = run("li a0, 1\naddi a1, a0, 1\naddi a2, a1, 1\nebreak")
        assert cpu.regs.read(12) == 3
        assert result.stats.stalls == 0  # pure ALU chain needs no stall

    def test_two_apart_dependency(self):
        cpu, result = run("li a0, 5\nnop\nadd a1, a0, a0\nebreak")
        assert cpu.regs.read(11) == 10
        assert result.stats.stalls == 0

    def test_three_apart_dependency_via_regfile(self):
        cpu, result = run("li a0, 5\nnop\nnop\nadd a1, a0, a0\nebreak")
        assert cpu.regs.read(11) == 10

    def test_newest_value_wins(self):
        cpu, _ = run("li a0, 1\naddi a0, a0, 1\nadd a1, a0, a0\nebreak")
        assert cpu.regs.read(11) == 4

    def test_store_data_forwarding(self):
        source = """
            li a1, 64
            li a0, 7
            sw a0, 0(a1)
            lw a2, 0(a1)
            ebreak
        """
        cpu, _ = run(source)
        assert cpu.regs.read(12) == 7


class TestLoadUseInterlock:
    def test_load_use_stalls_once(self):
        source = """
            li a1, 64
            li a0, 9
            sw a0, 0(a1)
            lw a2, 0(a1)
            addi a3, a2, 1
            ebreak
        """
        cpu, result = run(source)
        assert cpu.regs.read(13) == 10
        assert result.stats.stalls == 1

    def test_load_then_independent_no_stall(self):
        source = """
            li a1, 64
            lw a2, 0(a1)
            addi a3, a1, 1
            ebreak
        """
        _, result = run(source)
        assert result.stats.stalls == 0

    def test_load_use_gap_one_no_stall(self):
        source = """
            li a1, 64
            lw a2, 0(a1)
            nop
            addi a3, a2, 1
            ebreak
        """
        _, result = run(source)
        assert result.stats.stalls == 0

    def test_load_into_store_data_stalls(self):
        source = """
            li a1, 64
            li a0, 3
            sw a0, 0(a1)
            lw a2, 0(a1)
            sw a2, 4(a1)
            lw a4, 4(a1)
            ebreak
        """
        cpu, result = run(source)
        assert cpu.regs.read(14) == 3
        assert result.stats.stalls >= 1

    def test_load_to_x0_never_stalls(self):
        source = """
            li a1, 64
            lw x0, 0(a1)
            addi a2, x0, 1
            ebreak
        """
        _, result = run(source)
        assert result.stats.stalls == 0


class TestControlFlowTiming:
    def test_taken_branch_two_cycle_penalty(self):
        taken = """
            li a0, 1
            beq a0, a0, over
            nop
            nop
        over:
            ebreak
        """
        not_taken = """
            li a0, 1
            bne a0, a0, over
            nop
            nop
        over:
            ebreak
        """
        _, r_taken = run(taken)
        _, r_not = run(not_taken)
        # Both retire 3 instructions (taken) vs 5 (fall-through).
        assert r_taken.stats.instructions == 3
        assert r_not.stats.instructions == 5
        # taken path: 3 instr + 4 fill + 2 flush = 9 cycles
        assert r_taken.stats.cycles == 9
        assert r_taken.stats.flushes == 2
        assert r_not.stats.flushes == 0

    def test_jal_two_cycle_penalty(self):
        _, result = run("jal x0, over\nnop\nover: ebreak")
        assert result.stats.cycles == 2 + 4 + 2
        assert result.stats.instructions == 2

    def test_loop_cycles(self):
        source = """
            li a0, 0
            li a1, 10
        loop:
            addi a0, a0, 1
            bne a0, a1, loop
            ebreak
        """
        cpu, result = run(source)
        assert cpu.regs.read(10) == 10
        # 10 iterations x 2 instructions + 2 li + ebreak = 23 retired
        assert result.stats.instructions == 23
        # 9 taken branches x 2-cycle penalty
        assert result.stats.flushes == 18
        assert result.stats.cycles == 23 + 4 + 18

    def test_branch_correctness_with_dirty_shadow(self):
        # Squashed instructions must not commit architectural state.
        source = """
            li a0, 1
            li a2, 0
            beq a0, a0, over
            li a2, 99
            li a3, 99
        over:
            ebreak
        """
        cpu, _ = run(source)
        assert cpu.regs.read(12) == 0
        assert cpu.regs.read(13) == 0

    def test_squashed_store_does_not_write(self):
        source = """
            li a1, 64
            li a0, 1
            beq a0, a0, over
            sw a0, 0(a1)
        over:
            lw a2, 0(a1)
            ebreak
        """
        cpu, _ = run(source)
        assert cpu.regs.read(12) == 0


class TestCustomInstructionTiming:
    def test_trans_bnn_drains_and_reports_resume_pc(self):
        prog = assemble("li a0, 3\nmv_neu 1, a0\ntrans_bnn\nnop\nebreak")
        cpu = PipelinedCPU(prog)
        result = cpu.run()
        assert result.stop_reason == "trans_bnn"
        assert result.pc == 12
        assert result.env.transition_neurons[1] == 3

    def test_trigger_bnn_event_carries_cycle(self):
        _, result = run("nop\ntrigger_bnn 1\nnop\nebreak")
        events = result.env.events_named("trigger_bnn")
        assert len(events) == 1
        assert 0 < events[0].cycle < result.stats.cycles

    def test_l2_access(self):
        l2 = FlatMemory(size=128)
        env = CoreEnv(l2=l2)
        cpu, result = run(
            "li a0, 42\nsw_l2 a0, 8(zero)\nlw_l2 a1, 8(zero)\nebreak", env=env
        )
        assert l2.load(8, 4) == 42
        assert cpu.regs.read(11) == 42

    def test_lw_l2_load_use_stalls(self):
        l2 = FlatMemory(size=128)
        env = CoreEnv(l2=l2)
        _, result = run(
            "li a0, 42\nsw_l2 a0, 8(zero)\nlw_l2 a1, 8(zero)\naddi a2, a1, 1\nebreak",
            env=env,
        )
        assert result.stats.stalls == 1


class TestErrors:
    def test_runaway_fetch_raises(self):
        prog = assemble("nop\nnop")  # no halt: falls off the end
        with pytest.raises(SimulationError):
            PipelinedCPU(prog).run()

    def test_max_cycles(self):
        prog = assemble("loop: j loop")
        result = PipelinedCPU(prog).run(max_cycles=50)
        assert result.stop_reason == "max_cycles"
        assert result.stats.cycles == 50

    def test_negative_max_cycles_rejected(self):
        cpu = PipelinedCPU(assemble("li a0, 1\nloop: j loop"))
        with pytest.raises(ConfigurationError, match="^max_cycles:"):
            cpu.run(max_cycles=-5)
        assert cpu.stats.cycles == 0
