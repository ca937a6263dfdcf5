"""Cycle-accurate 5-stage in-order RV32I pipeline.

Models the paper's in-house Rocket-like core (section IV.A) that the NCPU
emulates on its neural layers:

* stages IF, ID, EX, MEM, WB (NeuroPC/NeuroIF, NeuroID, NeuroEX, NeuroMEM, WB),
* full operand forwarding from EX/MEM and MEM/WB into EX,
* a one-cycle load-use interlock,
* all control transfers resolved in EX with the target wired back to IF
  (two squashed slots per taken branch/jump — paper Fig 3),
* the NCPU custom instructions commit their side effects at WB.

Architectural results match :class:`repro.cpu.functional.FunctionalCPU`
exactly; only the cycle accounting differs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cpu.env import CoreEnv, ExecStats, RunResult
from repro.cpu.memory import DataMemory, FlatMemory
from repro.cpu.semantics import MEM_SIZES, SIGNED_LOADS, execute
from repro.cpu.state import RegisterFile
from repro.cpu.trace import PipelineTrace
from repro.errors import SimulationError
from repro.isa.instructions import DecodedInstr, decode
from repro.isa.program import Program
from repro.sim import get_session

DEFAULT_MAX_CYCLES = 100_000_000

STAGES = ("IF", "ID", "EX", "MEM", "WB")


@dataclass
class _IFID:
    pc: int
    word: int


@dataclass
class _IDEX:
    pc: int
    instr: DecodedInstr


@dataclass
class _EXMEM:
    pc: int
    instr: DecodedInstr
    alu: int
    store_val: int


@dataclass
class _MEMWB:
    pc: int
    instr: DecodedInstr
    value: int


class PipelinedCPU:
    """The cycle-accurate 5-stage pipeline simulator."""

    def __init__(
        self,
        program: Program,
        memory: Optional[DataMemory] = None,
        env: Optional[CoreEnv] = None,
        pc: Optional[int] = None,
        forwarding: bool = True,
        trace: Optional["PipelineTrace"] = None,
    ):
        """``forwarding=False`` ablates the operand-forwarding network: every
        RAW hazard then resolves through the register file by stalling in ID
        (the design-choice ablation for the paper's data-forwarding paths,
        section IV.A)."""
        self.program = program
        self.memory = memory if memory is not None else FlatMemory()
        self.env = env if env is not None else CoreEnv()
        self.regs = RegisterFile()
        self.pc = program.base if pc is None else pc
        self.forwarding = forwarding
        self.trace = trace
        self.stats = ExecStats()

        self.if_id: Optional[_IFID] = None
        self.id_ex: Optional[_IDEX] = None
        self.ex_mem: Optional[_EXMEM] = None
        self.mem_wb: Optional[_MEMWB] = None

        self._fetch_enabled = True
        self._stop_reason: Optional[str] = None
        self._resume_pc = 0
        self._decode_cache = {}
        #: session tracer, resolved once per run(); None keeps the
        #: untraced per-cycle cost to a single attribute load + None check
        self._tracer = None

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _decode(self, word: int) -> DecodedInstr:
        cached = self._decode_cache.get(word)
        if cached is None:
            cached = decode(word)
            self._decode_cache[word] = cached
        return cached

    def _forwarded(self, reg: int) -> int:
        """Operand value for EX with EX/MEM and MEM/WB forwarding."""
        if reg == 0:
            return 0
        if not self.forwarding:
            # ablated network: the interlock guarantees the register file
            # already holds the architectural value
            return self.regs.read(reg)
        fwd = self.ex_mem
        if fwd is not None and fwd.instr.spec.writes_rd and fwd.instr.rd == reg:
            if fwd.instr.spec.is_load:
                raise SimulationError(
                    "load-use hazard reached EX; interlock failed"
                )  # pragma: no cover - guarded by the interlock
            return fwd.alu
        fwd_wb = self.mem_wb
        if fwd_wb is not None and fwd_wb.instr.spec.writes_rd and fwd_wb.instr.rd == reg:
            return fwd_wb.value
        return self.regs.read(reg)

    def _consumer_sources(self):
        if self.if_id is None:
            return None
        consumer = self._decode(self.if_id.word)
        sources = set()
        if consumer.spec.reads_rs1 and consumer.rs1:
            sources.add(consumer.rs1)
        if consumer.spec.reads_rs2 and consumer.rs2:
            sources.add(consumer.rs2)
        return sources

    def _raw_hazard(self, new_ex_mem: Optional[_EXMEM],
                    new_mem_wb: Optional[_MEMWB]) -> bool:
        """True when the instruction in IF/ID must hold in decode.

        With forwarding, only the load-use case stalls (one bubble: the
        load's data forwards from MEM/WB).  Without forwarding (ablation),
        results are visible only through the register file, so the consumer
        waits until every in-flight producer has written back — two bubbles
        for a back-to-back dependency in this EX-read design.
        """
        sources = self._consumer_sources()
        if not sources:
            return False
        if self.forwarding:
            producing = new_ex_mem
            return (producing is not None and producing.instr.spec.is_load
                    and producing.instr.rd in sources)
        for latch in (new_ex_mem, new_mem_wb):
            if (latch is not None and latch.instr.spec.writes_rd
                    and latch.instr.rd in sources):
                return True
        return False

    # ------------------------------------------------------------------
    # one clock cycle
    # ------------------------------------------------------------------
    def _cycle(self) -> None:
        self.stats.cycles += 1

        if self.trace is not None:
            fetch_pc = self.pc if self._fetch_enabled else None
            self.trace.capture(self.stats.cycles, {
                "IF": fetch_pc,
                "ID": self.if_id.pc if self.if_id else None,
                "EX": self.id_ex.pc if self.id_ex else None,
                "MEM": self.ex_mem.pc if self.ex_mem else None,
                "WB": self.mem_wb.pc if self.mem_wb else None,
            })

        tracer = self._tracer
        if tracer is not None:
            tracer.cpu_cycle(
                self.stats.cycles,
                IF=self.pc if self._fetch_enabled else None,
                ID=self.if_id.pc if self.if_id else None,
                EX=self.id_ex.pc if self.id_ex else None,
                MEM=self.ex_mem.pc if self.ex_mem else None,
                WB=self.mem_wb.pc if self.mem_wb else None,
                wb_name=self.mem_wb.instr.name if self.mem_wb else None,
            )

        # ---- WB -------------------------------------------------------
        wb = self.mem_wb
        if wb is not None:
            self.stats.stage_busy["WB"] += 1
            instr = wb.instr
            name = instr.name
            if instr.spec.writes_rd:
                self.regs.write(instr.rd, wb.value)
            elif name == "mv_neu":
                self.env.write_transition_neuron(instr.rd, wb.value)
            elif name == "trigger_bnn":
                self.env.record("trigger_bnn", self.stats.cycles, wb.pc, instr.imm)
            self.stats.instructions += 1
            self.stats.instr_counts[name] += 1
            if name == "ebreak":
                self._stop_reason = "halt"
                self._resume_pc = wb.pc + 4
                return
            if name == "trans_bnn":
                self.env.record("trans_bnn", self.stats.cycles, wb.pc, instr.imm)
                self._stop_reason = "trans_bnn"
                self._resume_pc = wb.pc + 4
                return

        # ---- MEM ------------------------------------------------------
        new_mem_wb: Optional[_MEMWB] = None
        mem = self.ex_mem
        if mem is not None:
            self.stats.stage_busy["MEM"] += 1
            instr = mem.instr
            name = instr.name
            value = mem.alu
            if name in MEM_SIZES:
                size = MEM_SIZES[name]
                target = self.env.l2_memory() if name.endswith("_l2") else self.memory
                if instr.spec.is_load:
                    value = target.load(mem.alu, size, signed=name in SIGNED_LOADS)
                    self.stats.mem_reads += 1
                    if name.endswith("_l2"):
                        self.env.l2_reads += 1
                else:
                    target.store(mem.alu, mem.store_val, size)
                    self.stats.mem_writes += 1
                    if name.endswith("_l2"):
                        self.env.l2_writes += 1
            new_mem_wb = _MEMWB(pc=mem.pc, instr=instr, value=value)

        # ---- EX -------------------------------------------------------
        new_ex_mem: Optional[_EXMEM] = None
        redirect: Optional[int] = None
        ex = self.id_ex
        if ex is not None:
            self.stats.stage_busy["EX"] += 1
            instr = ex.instr
            rs1_val = self._forwarded(instr.rs1) if instr.spec.reads_rs1 else 0
            rs2_val = self._forwarded(instr.rs2) if instr.spec.reads_rs2 else 0
            outcome = execute(instr, rs1_val, rs2_val, ex.pc)
            alu = outcome.alu
            if instr.name == "mv_neu":
                alu = rs1_val
            new_ex_mem = _EXMEM(pc=ex.pc, instr=instr, alu=alu, store_val=rs2_val)
            if outcome.taken:
                redirect = outcome.target

        # latches EX and MEM produced this cycle become visible next cycle
        self.ex_mem = new_ex_mem
        self.mem_wb = new_mem_wb

        if redirect is not None:
            # Squash the two younger slots (IF/ID and this cycle's fetch)
            # and steer the PC to the branch target: a 2-cycle penalty.
            self.stats.flushes += 2
            if tracer is not None:
                tracer.instant("cpu.flush", track="cpu.pipeline",
                               ts=self.stats.cycles, cat="cpu",
                               cause="control", pc=ex.pc if ex else None,
                               target=redirect, squashed=2)
            self.if_id = None
            self.id_ex = None
            self.pc = redirect
            self._fetch_enabled = True
            return

        # ---- ID -------------------------------------------------------
        if self._raw_hazard(new_ex_mem, new_mem_wb):
            self.stats.stalls += 1
            if tracer is not None:
                tracer.instant("cpu.stall", track="cpu.pipeline",
                               ts=self.stats.cycles, cat="cpu",
                               cause=("load_use" if self.forwarding
                                      else "raw_interlock"),
                               pc=self.if_id.pc if self.if_id else None)
            self.id_ex = None  # bubble into EX; IF/ID and PC hold
            return

        if self.if_id is not None:
            self.stats.stage_busy["ID"] += 1
            instr = self._decode(self.if_id.word)
            self.id_ex = _IDEX(pc=self.if_id.pc, instr=instr)
            self.if_id = None
            if instr.name in ("ebreak", "trans_bnn"):
                self._fetch_enabled = False
        else:
            self.id_ex = None

        # ---- IF -------------------------------------------------------
        if self._fetch_enabled:
            try:
                word = self.program.word_at(self.pc)
            except IndexError as exc:
                # Speculative fetch past the program end is fine while an
                # older in-flight control transfer may still redirect the PC;
                # it is an error only once the pipeline has fully drained.
                if (self.if_id is None and self.id_ex is None
                        and self.ex_mem is None and self.mem_wb is None):
                    raise SimulationError(
                        f"instruction fetch outside program: {exc}"
                    ) from exc
                return
            self.stats.stage_busy["IF"] += 1
            self.if_id = _IFID(pc=self.pc, word=word)
            self.pc += 4

    # ------------------------------------------------------------------
    def run(self, max_cycles: int = DEFAULT_MAX_CYCLES) -> RunResult:
        """Run until halt / mode switch / cycle limit.

        Completed runs mirror their :class:`ExecStats` growth into the
        session :class:`~repro.sim.StatsRegistry` under ``cpu.pipeline.*``
        and emit a ``cpu.run`` probe event.
        """
        before = self.stats.scalars()
        session = get_session()
        self._tracer = session.tracer
        while self._stop_reason is None and self.stats.cycles < max_cycles:
            self._cycle()
        reason = self._stop_reason or "max_cycles"
        pc = self._resume_pc if self._stop_reason else self.pc
        delta = self.stats.delta(before)
        registry = session.stats
        scope = registry.scope("cpu.pipeline")
        scope.incr("runs")
        scope.incr_many(delta)
        registry.emit("cpu.run", simulator="pipeline", stop_reason=reason,
                      **delta)
        return RunResult(stats=self.stats, stop_reason=reason, pc=pc, env=self.env)


def run_pipelined(
    program: Program,
    memory: Optional[DataMemory] = None,
    env: Optional[CoreEnv] = None,
    max_cycles: int = DEFAULT_MAX_CYCLES,
):
    """Build a :class:`PipelinedCPU`, run it, and return ``(cpu, result)``."""
    cpu = PipelinedCPU(program, memory=memory, env=env)
    result = cpu.run(max_cycles=max_cycles)
    return cpu, result
