"""Functional (instruction-accurate) RV32I simulator.

This is the golden model: one instruction per step, no timing.  The
cycle-accurate pipeline in :mod:`repro.cpu.pipeline` is validated against it
(same architectural results, different cycle counts).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.cpu.env import CoreEnv, ExecStats, RunResult, publish_run
from repro.cpu.memory import DataMemory, FlatMemory
from repro.cpu.semantics import MEM_SIZES, SIGNED_LOADS, ExFn, compile_ex
from repro.cpu.state import RegisterFile
from repro.errors import ConfigurationError, SimulationError
from repro.isa.instructions import DecodedInstr, decode
from repro.isa.program import Program

DEFAULT_MAX_STEPS = 50_000_000


class FunctionalCPU:
    """Single-step RV32I interpreter with NCPU extension support."""

    def __init__(
        self,
        program: Program,
        memory: Optional[DataMemory] = None,
        env: Optional[CoreEnv] = None,
        pc: Optional[int] = None,
    ):
        self.program = program
        self.memory = memory if memory is not None else FlatMemory()
        self.env = env if env is not None else CoreEnv()
        self.regs = RegisterFile()
        self.pc = program.base if pc is None else pc
        self.stats = ExecStats()
        self._decode_cache = {}

    # ------------------------------------------------------------------
    def _fetch(self, pc: int) -> Tuple[DecodedInstr, ExFn]:
        """The instruction at ``pc`` and its compiled EX closure."""
        cached = self._decode_cache.get(pc)
        if cached is not None:
            return cached
        try:
            word = self.program.word_at(pc)
        except IndexError as exc:
            raise SimulationError(str(exc)) from exc
        instr = decode(word)
        cached = self._decode_cache[pc] = (instr, compile_ex(instr))
        return cached

    def step(self) -> Optional[str]:
        """Execute one instruction; return a stop reason or ``None``."""
        pc = self.pc
        instr, ex = self._fetch(pc)
        name = instr.name

        regs = self.regs._regs
        rs2_val = regs[instr.rs2]
        alu, target = ex(regs[instr.rs1], rs2_val, pc)

        stop: Optional[str] = None
        if name in MEM_SIZES:
            size = MEM_SIZES[name]
            memory = self.env.l2_memory() if name.endswith("_l2") else self.memory
            if instr.spec.is_load:
                value = memory.load(alu, size, name in SIGNED_LOADS)
                self.regs.write(instr.rd, value)
                self.stats.mem_reads += 1
                if name.endswith("_l2"):
                    self.env.l2_reads += 1
            else:
                memory.store(alu, rs2_val, size)
                self.stats.mem_writes += 1
                if name.endswith("_l2"):
                    self.env.l2_writes += 1
        elif name == "ebreak":
            stop = "halt"
        elif name == "trans_bnn":
            self.env.record("trans_bnn", self.stats.cycles, pc, instr.imm)
            stop = "trans_bnn"
        elif name == "trigger_bnn":
            self.env.record("trigger_bnn", self.stats.cycles, pc, instr.imm)
        elif name == "mv_neu":
            self.env.write_transition_neuron(instr.rd, alu)
        elif instr.spec.writes_rd:
            self.regs.write(instr.rd, alu)

        self.pc = pc + 4 if target is None else target
        self.stats.instructions += 1
        self.stats.cycles += 1  # single-cycle model
        self.stats.instr_counts[name] += 1
        return stop

    def run(self, max_steps: int = DEFAULT_MAX_STEPS) -> RunResult:
        """Run until halt / mode switch / step limit.

        Adds the run's :class:`ExecStats` growth to the session counters
        under ``cpu.functional.*`` (:func:`~repro.cpu.env.publish_run`).
        """
        if max_steps < 0:
            raise ConfigurationError(f"max_steps: must be >= 0, got {max_steps}")
        before = self.stats.scalars()
        stop = None
        for _ in range(max_steps):
            stop = self.step()
            if stop is not None:
                break
        reason = stop if stop is not None else "max_cycles"
        publish_run("functional", reason, self.stats.delta(before))
        return RunResult(stats=self.stats, stop_reason=reason, pc=self.pc,
                         env=self.env)


def run_functional(
    program: Program,
    memory: Optional[DataMemory] = None,
    env: Optional[CoreEnv] = None,
    max_steps: int = DEFAULT_MAX_STEPS,
):
    """Convenience wrapper: build a :class:`FunctionalCPU`, run it, return it.

    Returns ``(cpu, result)`` so callers can inspect registers and memory.
    """
    cpu = FunctionalCPU(program, memory=memory, env=env)
    result = cpu.run(max_steps=max_steps)
    return cpu, result
