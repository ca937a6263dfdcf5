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

from typing import Optional

from repro.cpu.env import CoreEnv, ExecStats, RunResult, publish_run
from repro.cpu.memory import DataMemory, FlatMemory
from repro.cpu.semantics import MEM_SIZES, SIGNED_LOADS, compile_ex
from repro.cpu.state import RegisterFile
from repro.errors import ConfigurationError, SimulationError
from repro.isa.instructions import DecodedInstr, decode
from repro.isa.program import Program
from repro.sim import get_session
from repro.trace.tracer import CPU_TRACK, FLUSH_EVENT, STAGES, STALL_EVENT

DEFAULT_MAX_CYCLES = 100_000_000

_MASK = 0xFFFFFFFF


class _Op:
    """One instruction word, decoded once into what the stages read.

    ``rd`` is the register written at WB and ``rs1``/``rs2`` the registers
    EX reads, each 0 when unused (x0 never matches a hazard or forwarding
    source); ``srcs`` is their non-zero set for the ID hazard check.
    ``wb`` names the custom instructions that act at WB instead of writing
    a register, and ``drains`` stops fetch behind a halt or mode switch.
    """

    __slots__ = ("instr", "name", "rd", "rs1", "rs2", "srcs", "size", "signed", "l2",
                 "is_load", "wb", "drains", "ex")

    def __init__(self, instr: DecodedInstr):
        spec = instr.spec
        name = self.name = spec.name
        self.instr = instr
        self.rd = instr.rd if spec.writes_rd else 0
        self.rs1 = instr.rs1 if spec.reads_rs1 else 0
        self.rs2 = instr.rs2 if spec.reads_rs2 else 0
        self.srcs = frozenset(reg for reg in (self.rs1, self.rs2) if reg)
        self.size = MEM_SIZES.get(name, 0)
        self.signed = name in SIGNED_LOADS
        self.l2 = name.endswith("_l2")
        self.is_load = spec.is_load
        self.wb = name if name in ("mv_neu", "trigger_bnn", "ebreak", "trans_bnn") else None
        self.drains = name in ("ebreak", "trans_bnn")
        self.ex = compile_ex(instr)


class PipelinedCPU:
    """The cycle-accurate 5-stage pipeline simulator."""

    def __init__(
        self,
        program: Program,
        memory: Optional[DataMemory] = None,
        env: Optional[CoreEnv] = None,
        pc: Optional[int] = None,
        forwarding: bool = True,
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
        self.stats = ExecStats()

        # latches, None = bubble: IF/ID (pc, word), ID/EX (pc, op),
        # EX/MEM (pc, op, alu, store value), MEM/WB (pc, op, value)
        self.if_id = self.id_ex = self.ex_mem = self.mem_wb = None

        self._fetch_enabled = True
        self._stop_reason: Optional[str] = None
        self._resume_pc = 0
        #: instruction word -> _Op, filled at ID so that an undecodable
        #: word fetched into a squashed slot never raises
        self._ops = {}

    def run(self, max_cycles: int = DEFAULT_MAX_CYCLES) -> RunResult:
        """Run until halt / mode switch / cycle limit.

        Each cycle runs WB, MEM, EX, the EX redirect, the ID hazard check,
        ID and IF in that order, on latches and counters held in locals that
        the ``finally`` writes back: a fault or the cycle limit leaves the
        exact state a later ``run()`` resumes from.

        With a tracer installed, each cycle's stage occupancy and each stall
        and flush are recorded on the ``cpu.pipeline`` track from its cursor:
        a run starts where the track's last run ended, and a resumed run
        continues its own stamps.  A completed run ends with a ``cpu.run``
        instant.

        Completed runs add their :class:`ExecStats` growth to the session
        counters under ``cpu.pipeline.*``
        (:func:`~repro.cpu.env.publish_run`).
        """
        if max_cycles < 0:
            raise ConfigurationError(f"max_cycles: must be >= 0, got {max_cycles}")
        stats = self.stats
        before = stats.scalars()
        # resolved once per run; untraced, a cycle pays one None check
        tracer = get_session().tracer
        env, memory, regs, ops = self.env, self.memory, self.regs._regs, self._ops
        program = self.program
        words, base, n_words = program.words, program.base, len(program.words)
        forwarding = self.forwarding

        if_id, id_ex, ex_mem, mem_wb = self.if_id, self.id_ex, self.ex_mem, self.mem_wb
        pc, fetching, stop = self.pc, self._fetch_enabled, self._stop_reason
        cycles, instructions, stalls, flushes = (stats.cycles, stats.instructions,
                                                 stats.stalls, stats.flushes)
        mem_reads, mem_writes = stats.mem_reads, stats.mem_writes
        busy_if = busy_id = busy_ex = busy_mem = busy_wb = 0
        retired = {}
        # trace stamp of this CPU's cycle 0 (the cursor holds whole cycles)
        origin = int(tracer.cursor(CPU_TRACK)) - cycles if tracer is not None else 0
        try:
            while stop is None and cycles < max_cycles:
                cycles += 1
                if tracer is not None:
                    tracer.cpu_cycle(origin + cycles,
                                     IF=pc if fetching else None,
                                     ID=if_id[0] if if_id is not None else None,
                                     EX=id_ex[0] if id_ex is not None else None,
                                     MEM=ex_mem[0] if ex_mem is not None else None,
                                     WB=mem_wb[0] if mem_wb is not None else None,
                                     wb_name=mem_wb[1].name if mem_wb is not None else None)

                # ---- WB ---------------------------------------------------
                # wb_rd / mem_rd: the forwarding sources EX sees this cycle
                wb_rd = 0
                if mem_wb is not None:
                    wb_pc, op, wb_value = mem_wb
                    busy_wb += 1
                    if op.rd:
                        regs[op.rd] = wb_value & _MASK
                        if forwarding:
                            wb_rd = op.rd
                    elif op.wb == "mv_neu":
                        env.write_transition_neuron(op.instr.rd, wb_value)
                    elif op.wb == "trigger_bnn":
                        env.record("trigger_bnn", cycles, wb_pc, op.instr.imm)
                    instructions += 1
                    retired[op.name] = retired.get(op.name, 0) + 1
                    if op.drains:
                        if op.wb == "trans_bnn":
                            env.record("trans_bnn", cycles, wb_pc, op.instr.imm)
                        stop = "halt" if op.wb == "ebreak" else op.wb
                        self._resume_pc = wb_pc + 4
                        break

                # ---- MEM --------------------------------------------------
                mem_op = new_mem_wb = None
                mem_rd = 0
                if ex_mem is not None:
                    mem_pc, mem_op, mem_value, store_value = ex_mem
                    busy_mem += 1
                    size = mem_op.size
                    if size:
                        target = env.l2_memory() if mem_op.l2 else memory
                        if mem_op.is_load:
                            mem_value = target.load(mem_value, size, signed=mem_op.signed)
                            mem_reads += 1
                            if mem_op.l2:
                                env.l2_reads += 1
                        else:
                            target.store(mem_value, store_value, size)
                            mem_writes += 1
                            if mem_op.l2:
                                env.l2_writes += 1
                    if forwarding:
                        mem_rd = mem_op.rd
                    new_mem_wb = (mem_pc, mem_op, mem_value)

                # ---- EX ---------------------------------------------------
                # operands forward from EX/MEM first, then MEM/WB, else come
                # from the register file (which WB already wrote this cycle)
                ex_op = redirect = None
                if id_ex is not None:
                    ex_pc, ex_op = id_ex
                    busy_ex += 1
                    if mem_rd in ex_op.srcs and mem_op.is_load:
                        raise SimulationError("load-use hazard reached EX; interlock failed")
                    reg = ex_op.rs1
                    rs1_val = (0 if not reg else mem_value if reg == mem_rd
                               else wb_value if reg == wb_rd else regs[reg])
                    reg = ex_op.rs2
                    rs2_val = (0 if not reg else mem_value if reg == mem_rd
                               else wb_value if reg == wb_rd else regs[reg])
                    alu, redirect = ex_op.ex(rs1_val, rs2_val, ex_pc)
                    ex_mem = (ex_pc, ex_op, alu, rs2_val)
                else:
                    ex_mem = None
                # latches EX and MEM produced this cycle are visible next cycle
                mem_wb = new_mem_wb

                if redirect is not None:
                    # Squash the two younger slots (IF/ID and this cycle's
                    # fetch) and steer the PC to the target: a 2-cycle penalty.
                    flushes += 2
                    if tracer is not None:
                        tracer.instant(FLUSH_EVENT, track=CPU_TRACK, ts=origin + cycles, cat="cpu",
                                       cause="control", pc=ex_pc, target=redirect, squashed=2)
                    if_id = id_ex = None
                    pc = redirect
                    fetching = True
                    continue

                # ---- ID ---------------------------------------------------
                if if_id is not None:
                    id_pc, word = if_id
                    op = ops.get(word)
                    if op is None:
                        op = ops[word] = _Op(decode(word))
                    # With forwarding only a load in EX/MEM stalls (its data
                    # forwards from MEM/WB next cycle).  Without it, results
                    # reach EX only through the register file, so the consumer
                    # waits for every in-flight producer to write back: two
                    # bubbles for a back-to-back dependency.
                    srcs = op.srcs
                    if forwarding:
                        hazard = ex_op is not None and ex_op.is_load and ex_op.rd in srcs
                    else:
                        hazard = ((ex_op is not None and ex_op.rd in srcs)
                                  or (mem_op is not None and mem_op.rd in srcs))
                    if hazard:
                        stalls += 1
                        if tracer is not None:
                            tracer.instant(STALL_EVENT, track=CPU_TRACK, ts=origin + cycles,
                                           cat="cpu", pc=id_pc,
                                           cause="load_use" if forwarding else "raw_interlock")
                        id_ex = None  # bubble into EX; IF/ID and PC hold
                        continue
                    busy_id += 1
                    id_ex = (id_pc, op)
                    if_id = None
                    if op.drains:
                        fetching = False
                else:
                    id_ex = None

                # ---- IF ---------------------------------------------------
                if fetching:
                    index = (pc - base) >> 2
                    if pc & 3 or not 0 <= index < n_words:
                        # Speculative fetch past the program end is fine while
                        # an older in-flight control transfer may still
                        # redirect the PC; it is an error only once the
                        # pipeline has fully drained.
                        if id_ex is None and ex_mem is None and mem_wb is None:
                            try:
                                program.word_at(pc)
                            except IndexError as exc:
                                raise SimulationError(
                                    f"instruction fetch outside program: {exc}") from exc
                        continue
                    busy_if += 1
                    if_id = (pc, words[index])
                    pc += 4
        finally:
            if tracer is not None:
                tracer.advance(CPU_TRACK, cycles - stats.cycles)
            self.if_id, self.id_ex, self.ex_mem, self.mem_wb = if_id, id_ex, ex_mem, mem_wb
            self.pc, self._fetch_enabled, self._stop_reason = pc, fetching, stop
            stats.cycles, stats.instructions = cycles, instructions
            stats.stalls, stats.flushes = stalls, flushes
            stats.mem_reads, stats.mem_writes = mem_reads, mem_writes
            # a stage first fills after the one before it, so adding the
            # counts in pipeline order keeps the Counter's key order
            for stage, count in zip(STAGES, (busy_if, busy_id, busy_ex, busy_mem, busy_wb)):
                if count:
                    stats.stage_busy[stage] += count
            for name, count in retired.items():
                stats.instr_counts[name] += count

        reason = stop or "max_cycles"
        publish_run("pipeline", reason, stats.delta(before))
        return RunResult(stats=stats, stop_reason=reason,
                         pc=self._resume_pc if stop else pc, env=self.env)


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
