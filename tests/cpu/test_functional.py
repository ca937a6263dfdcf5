"""Instruction-semantics tests against the functional golden model."""

import pytest

from repro.cpu import CoreEnv, FlatMemory, FunctionalCPU, run_functional
from repro.errors import ConfigurationError
from repro.isa import assemble


def run(source, memory=None, env=None):
    return run_functional(assemble(source), memory=memory, env=env)


def reg(source, index, memory=None):
    cpu, result = run(source, memory=memory)
    assert result.halted
    return cpu.regs.read(index)


class TestArithmetic:
    def test_addi_add(self):
        assert reg("li a0, 5\nli a1, 7\nadd a2, a0, a1\nebreak", 12) == 12

    def test_sub_wraps(self):
        assert reg("li a0, 3\nli a1, 5\nsub a2, a0, a1\nebreak", 12) == 0xFFFFFFFE

    def test_add_overflow_wraps(self):
        assert reg("li a0, 0x7fffffff\naddi a1, a0, 1\nebreak", 11) == 0x80000000

    def test_logic_ops(self):
        source = """
            li a0, 0b1100
            li a1, 0b1010
            and a2, a0, a1
            or  a3, a0, a1
            xor a4, a0, a1
            ebreak
        """
        cpu, _ = run(source)
        assert cpu.regs.read(12) == 0b1000
        assert cpu.regs.read(13) == 0b1110
        assert cpu.regs.read(14) == 0b0110

    def test_immediates_logic(self):
        cpu, _ = run("li a0, 0b1100\nandi a1, a0, 0b1010\nori a2, a0, 0b1010\n"
                     "xori a3, a0, 0b1010\nebreak")
        assert cpu.regs.read(11) == 0b1000
        assert cpu.regs.read(12) == 0b1110
        assert cpu.regs.read(13) == 0b0110

    def test_shifts(self):
        cpu, _ = run("""
            li a0, 0x80000001
            slli a1, a0, 1
            srli a2, a0, 1
            srai a3, a0, 1
            li t0, 4
            sll a4, a0, t0
            srl a5, a0, t0
            sra a6, a0, t0
            ebreak
        """)
        assert cpu.regs.read(11) == 0x00000002
        assert cpu.regs.read(12) == 0x40000000
        assert cpu.regs.read(13) == 0xC0000000
        assert cpu.regs.read(14) == 0x00000010
        assert cpu.regs.read(15) == 0x08000000
        assert cpu.regs.read(16) == 0xF8000000

    def test_shift_amount_masked_to_5_bits(self):
        assert reg("li a0, 1\nli a1, 33\nsll a2, a0, a1\nebreak", 12) == 2

    def test_slt_family(self):
        cpu, _ = run("""
            li a0, -1
            li a1, 1
            slt  a2, a0, a1
            sltu a3, a0, a1
            slti a4, a0, 0
            sltiu a5, a1, -1
            ebreak
        """)
        assert cpu.regs.read(12) == 1  # -1 < 1 signed
        assert cpu.regs.read(13) == 0  # 0xffffffff > 1 unsigned
        assert cpu.regs.read(14) == 1
        assert cpu.regs.read(15) == 1  # 1 < 0xffffffff unsigned

    def test_mul(self):
        assert reg("li a0, -3\nli a1, 7\nmul a2, a0, a1\nebreak", 12) == 0xFFFFFFEB

    def test_lui_auipc(self):
        cpu, _ = run("lui a0, 0x12345\nauipc a1, 1\nebreak")
        assert cpu.regs.read(10) == 0x12345000
        assert cpu.regs.read(11) == 0x1004  # pc of auipc is 4

    def test_x0_writes_discarded(self):
        assert reg("li a0, 5\nadd x0, a0, a0\nadd a1, x0, x0\nebreak", 11) == 0


class TestControlFlow:
    def test_taken_branch_skips(self):
        source = """
            li a0, 1
            beq a0, a0, over
            li a1, 99
        over:
            ebreak
        """
        assert reg(source, 11) == 0

    def test_not_taken_branch_falls_through(self):
        source = """
            li a0, 1
            bne a0, a0, over
            li a1, 99
        over:
            ebreak
        """
        assert reg(source, 11) == 99

    def test_signed_vs_unsigned_branches(self):
        source = """
            li a0, -1
            li a1, 1
            blt a0, a1, signed_ok
            li a2, 1
        signed_ok:
            bltu a0, a1, unsigned_taken
            li a3, 1
        unsigned_taken:
            ebreak
        """
        cpu, _ = run(source)
        assert cpu.regs.read(12) == 0  # blt taken
        assert cpu.regs.read(13) == 1  # bltu NOT taken (0xffffffff > 1)

    def test_loop_sums(self):
        source = """
            li a0, 0      # sum
            li a1, 1      # i
            li a2, 11
        loop:
            add a0, a0, a1
            addi a1, a1, 1
            bne a1, a2, loop
            ebreak
        """
        assert reg(source, 10) == 55

    def test_jal_links(self):
        source = """
            jal ra, func
            ebreak
        func:
            li a0, 77
            ret
        """
        cpu, result = run(source)
        assert result.halted
        assert cpu.regs.read(10) == 77

    def test_jalr_computed_target(self):
        source = """
            la t0, target
            jalr ra, t0, 0
            li a0, 1
        target:
            ebreak
        """
        assert reg(source, 10) == 0

    def test_nested_calls(self):
        source = """
            li sp, 256
            call outer
            ebreak
        outer:
            addi sp, sp, -4
            sw ra, 0(sp)
            call inner
            lw ra, 0(sp)
            addi sp, sp, 4
            addi a0, a0, 1
            ret
        inner:
            li a0, 10
            ret
        """
        assert reg(source, 10) == 11


class TestMemoryOps:
    def test_word_roundtrip(self):
        source = """
            li a0, 0xabcd
            li a1, 64
            sw a0, 0(a1)
            lw a2, 0(a1)
            ebreak
        """
        assert reg(source, 12) == 0xABCD

    def test_byte_and_half_sign_extension(self):
        source = """
            li a0, 0xff
            li a1, 64
            sb a0, 0(a1)
            lb a2, 0(a1)
            lbu a3, 0(a1)
            li a0, 0x8000
            sh a0, 2(a1)
            lh a4, 2(a1)
            lhu a5, 2(a1)
            ebreak
        """
        cpu, _ = run(source)
        assert cpu.regs.read(12) == 0xFFFFFFFF
        assert cpu.regs.read(13) == 0xFF
        assert cpu.regs.read(14) == 0xFFFF8000
        assert cpu.regs.read(15) == 0x8000

    def test_negative_offset(self):
        source = """
            li a1, 64
            li a0, 5
            sw a0, -4(a1)
            lw a2, 60(zero)
            ebreak
        """
        assert reg(source, 12) == 5

    def test_stats_count_accesses(self):
        _, result = run("li a1, 64\nsw a1, 0(a1)\nlw a2, 0(a1)\nebreak")
        assert result.stats.mem_writes == 1
        assert result.stats.mem_reads == 1


class TestCustomInstructions:
    def test_mv_neu_writes_transition_neuron(self):
        cpu, result = run("li a0, 1234\nmv_neu 5, a0\nebreak")
        assert result.env.transition_neurons[5] == 1234
        assert cpu.regs.read(5) == 0  # x5 untouched

    def test_trans_bnn_stops_with_resume_pc(self):
        prog = assemble("nop\ntrans_bnn\nnop\nebreak")
        cpu = FunctionalCPU(prog)
        result = cpu.run()
        assert result.stop_reason == "trans_bnn"
        assert result.pc == 8  # instruction after trans_bnn
        assert len(result.env.events_named("trans_bnn")) == 1

    def test_trigger_bnn_continues(self):
        _, result = run("trigger_bnn 2\nli a0, 1\nebreak")
        events = result.env.events_named("trigger_bnn")
        assert len(events) == 1
        assert events[0].imm == 2
        assert result.halted

    def test_l2_ops_use_l2_memory(self):
        l2 = FlatMemory(size=256)
        env = CoreEnv(l2=l2)
        cpu, result = run(
            "li a0, 0xbeef\nsw_l2 a0, 0x40(zero)\nlw_l2 a1, 0x40(zero)\nebreak",
            env=env,
        )
        assert result.halted
        assert l2.load(0x40, 4) == 0xBEEF
        assert cpu.regs.read(11) == 0xBEEF
        assert env.l2_reads == 1 and env.l2_writes == 1
        # local data memory untouched
        assert cpu.memory.load(0x40, 4) == 0

    def test_l2_ops_without_l2_raise(self):
        with pytest.raises(RuntimeError):
            run("sw_l2 a0, 0(zero)\nebreak")


class TestRunControl:
    def test_max_steps(self):
        prog = assemble("loop: j loop")
        result = FunctionalCPU(prog).run(max_steps=100)
        assert result.stop_reason == "max_cycles"
        assert result.stats.instructions == 100

    def test_negative_max_steps_rejected(self):
        cpu = FunctionalCPU(assemble("li a0, 1\nloop: j loop"))
        with pytest.raises(ConfigurationError, match="^max_steps:"):
            cpu.run(max_steps=-5)
        assert cpu.stats.instructions == 0

    def test_instr_counts(self):
        _, result = run("li a0, 2\nli a1, 3\nadd a2, a0, a1\nebreak")
        assert result.stats.instr_counts["addi"] == 2
        assert result.stats.instr_counts["add"] == 1
        assert result.stats.instr_counts["ebreak"] == 1

    def test_functional_ipc_is_one(self):
        _, result = run("nop\nnop\nnop\nebreak")
        assert result.stats.ipc == 1.0
