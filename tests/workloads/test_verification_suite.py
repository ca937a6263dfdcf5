"""Run the riscv-tests-style self-checking suite on both simulators."""

import pytest

from repro.cpu import FlatMemory, FunctionalCPU, PipelinedCPU
from repro.isa import assemble
from tests.workloads.verification import (
    FAIL_BASE,
    PASS_VALUE,
    SIGNATURE_ADDR,
    generate_all,
)

SUITE = generate_all()


def run_signature(source: str, simulator) -> int:
    program = assemble(source)
    memory = FlatMemory(size=1 << 16)
    cpu = simulator(program, memory=memory)
    result = cpu.run()
    assert result.stop_reason == "halt", f"did not halt: {result.stop_reason}"
    return memory.load(SIGNATURE_ADDR, 4)


class TestSuiteStructure:
    def test_covers_the_compute_isa(self):
        # 8 R-type + 6 shifts + 6 I-type + 6 branches + memory + jumps
        assert len(SUITE) >= 28

    def test_every_program_assembles(self):
        for name, source in SUITE.items():
            program = assemble(source)
            assert len(program.words) > 10, name


@pytest.mark.parametrize("name", sorted(SUITE))
class TestOnFunctionalISS:
    def test_signature_passes(self, name):
        signature = run_signature(SUITE[name], FunctionalCPU)
        assert signature == PASS_VALUE, (
            f"{name}: failing case {signature - FAIL_BASE}"
        )


@pytest.mark.parametrize("name", sorted(SUITE))
class TestOnPipeline:
    def test_signature_passes(self, name):
        signature = run_signature(SUITE[name], PipelinedCPU)
        assert signature == PASS_VALUE, (
            f"{name}: failing case {signature - FAIL_BASE}"
        )


@pytest.mark.parametrize("name", ["add", "sra", "bltu", "loads_stores"])
class TestOnAblatedPipeline:
    def test_signature_passes_without_forwarding(self, name):
        program = assemble(SUITE[name])
        memory = FlatMemory(size=1 << 16)
        cpu = PipelinedCPU(program, memory=memory, forwarding=False)
        result = cpu.run()
        assert result.stop_reason == "halt"
        assert memory.load(SIGNATURE_ADDR, 4) == PASS_VALUE


class TestHarnessCatchesBugs:
    def test_wrong_expectation_fails(self):
        # sanity: the harness actually detects mismatches
        source = SUITE["add"].replace("li t3, 2\n", "li t3, 3\n", 1)
        if source == SUITE["add"]:
            pytest.skip("pattern not found; suite layout changed")
        signature = run_signature(source, FunctionalCPU)
        assert signature != PASS_VALUE
        assert FAIL_BASE <= signature < FAIL_BASE + 64
