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
exactly; only the cycle accounting differs.  Within a cycle the simulator
runs WB before EX, so EX reads the MEM/WB forward from the register file
that WB has just written.  That is exact: the register holds the forwarded
value mod 2**32, and every consumer reduces its operands mod 2**32 (each
:func:`~repro.cpu.semantics.compile_ex` closure; a store writes only the
low bytes).

With forwarding on, the timing is a function of the dynamic instruction
stream alone: from an empty pipeline to the halting ``ebreak``,
``cycles = instructions + 4 + stalls + flushes``, with one stall per
load followed by an instruction reading its (non-x0) ``rd``, two
flushed cycles per redirect (a taken branch, any ``jal`` or ``jalr``),
and IF busy once per instruction plus once per redirect whose next slot
is a program word.  So a run that starts on a fresh CPU, with forwarding
on, no tracer installed, a :class:`~repro.cpu.memory.FlatMemory` and a
program with no environment op and no branch to its own ``pc + 4``, is
first **block-timed**: it executes on
:class:`~repro.cpu.fastpath.FastCPU`'s superblocks, counts each block's
runs and redirects, and derives every statistic from per-block tallies
(:meth:`PipelinedCPU._run_blocks`).  If that run raises or would pass
``max_cycles``, its memory writes are undone
(:class:`~repro.cpu.memory.StoreJournal`) and the cycle loop runs from
the start, so faults, partial state and resume points are the cycle
loop's.
"""

from __future__ import annotations

from typing import Optional

from repro.cpu.env import CoreEnv, ExecStats, RunResult, publish_run
from repro.cpu.fastpath import FastCPU
from repro.cpu.memory import DataMemory, FlatMemory, StoreJournal
from repro.cpu.semantics import MEM_SIZES, SIGNED_LOADS, compile_ex
from repro.cpu.state import RegisterFile
from repro.errors import ConfigurationError, SimulationError
from repro.isa.encoding import encode_imm_b
from repro.isa.instructions import OPCODE_BRANCH, OPCODE_NCPU, DecodedInstr, decode
from repro.isa.program import Program
from repro.sim import get_session
from repro.trace.tracer import CPU_TRACK, FLUSH_EVENT, STAGES, STALL_EVENT

DEFAULT_MAX_CYCLES = 100_000_000


class _Op:
    """One instruction word, decoded once into what the stages read.

    ``rd`` is the register written at WB and ``rs1``/``rs2`` the registers
    EX reads, each 0 when unused (x0 never matches a hazard or forwarding
    source); ``srcs`` is their non-zero set for the ID hazard check.
    ``fwd_rd`` is ``rd`` on a forwarding CPU and ``load_rd`` is ``rd`` for a
    load, each else 0.  ``wb`` names the custom instructions that act at WB,
    ``drains`` stops fetch behind a halt or mode switch, and ``retired``
    counts retirements in the current run.
    """

    __slots__ = ("instr", "name", "rd", "rs1", "rs2", "srcs", "fwd_rd", "load_rd", "size",
                 "signed", "l2", "is_load", "wb", "drains", "ex", "retired")

    def __init__(self, instr: DecodedInstr, forwarding: bool):
        spec = instr.spec
        name = self.name = spec.name
        self.instr = instr
        self.rd = instr.rd if spec.writes_rd else 0
        self.rs1 = instr.rs1 if spec.reads_rs1 else 0
        self.rs2 = instr.rs2 if spec.reads_rs2 else 0
        self.srcs = frozenset(reg for reg in (self.rs1, self.rs2) if reg)
        self.fwd_rd = self.rd if forwarding else 0
        self.size = MEM_SIZES.get(name, 0)
        self.signed = name in SIGNED_LOADS
        self.l2 = name.endswith("_l2")
        self.is_load = spec.is_load
        self.load_rd = self.rd if self.is_load else 0
        self.wb = name if name in ("mv_neu", "trigger_bnn", "ebreak", "trans_bnn") else None
        self.drains = name in ("ebreak", "trans_bnn")
        self.ex = compile_ex(instr)
        self.retired = 0


#: the opcode and immediate bits of a B-type word (``encode_imm_b(-2)``
#: sets every immediate bit), and their value in a conditional branch to
#: its own ``pc + 4``
_BRANCH_BITS = 0x7F | encode_imm_b(-2)
_BRANCH_TO_NEXT = OPCODE_BRANCH | encode_imm_b(4)


def _block_timeable(words) -> bool:
    """Whether the block tallies can time a program of ``words``: none is
    an NCPU environment op (the custom-0 opcode), which stamps events with
    the cycle count, or a conditional branch to its own ``pc + 4``, which
    returns the same PC taken or not.  A data word that looks like one
    only costs the block-timed path."""
    for word in words:
        if word & 0x7F == OPCODE_NCPU or word & _BRANCH_BITS == _BRANCH_TO_NEXT:
            return False
    return True


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

        # latch fields, a None op (or IF/ID slot) = bubble: IF/ID pc, slot;
        # ID/EX pc, op; EX/MEM pc, op, alu, store value; MEM/WB pc, op, value
        self._latches = (0, None, 0, None, 0, None, 0, 0, 0, None, 0)

        self._fetch_enabled = True
        self._stop_reason: Optional[str] = None
        self._resume_pc = 0
        #: program slot -> _Op, filled at ID so that an undecodable word
        #: fetched into a squashed slot never raises; ``_ops`` maps each word
        #: to its _Op in the order ID built them, that of their first
        #: retirements (an op leaving ID is never squashed)
        self._slot_ops, self._ops = [None] * len(program.words), {}

    def run(self, max_cycles: int = DEFAULT_MAX_CYCLES) -> RunResult:
        """Run until halt / mode switch / cycle limit.

        A CPU that has run no cycle yet, with forwarding on, a memory of
        type :class:`FlatMemory` (no subclass), no tracer installed and a
        program the block tallies can time (:func:`_block_timeable`), is
        block-timed first (see the module docstring); every other run, and
        a run the block-timed path gives up, goes through the cycle loop,
        :meth:`_run_cycles`.  Both return and publish the same results.
        """
        if max_cycles < 0:
            raise ConfigurationError(f"max_cycles: must be >= 0, got {max_cycles}")
        if (self.forwarding and not self.stats.cycles
                and type(self.memory) is FlatMemory and get_session().tracer is None
                and _block_timeable(self.program.words)):
            result = self._run_blocks(max_cycles)
            if result is not None:
                return result
        return self._run_cycles(max_cycles)

    def _run_blocks(self, max_cycles: int) -> Optional[RunResult]:
        """The block-timed run: execute on :class:`FastCPU` superblocks
        and derive :class:`ExecStats` from their tallies.

        Returns None, with the CPU, its memory and the session as they
        were, if the run raises or would pass ``max_cycles``.  Its
        instruction budget, ``max_cycles - 4``, is the most a run within
        ``max_cycles`` retires.
        """
        program = self.program
        journal = StoreJournal(self.memory)
        fast = FastCPU(program, memory=journal, env=self.env, pc=self.pc)
        regs = fast.regs._regs = list(self.regs._regs)
        halt = None
        try:
            halt = fast._run_timed(max_cycles - 4)
        except Exception:
            pass  # the cycle loop raises it again, from the start
        finally:
            if halt is None:
                journal.undo()
        if halt is None:
            return None
        instructions = stalls = redirects = squashed = 0
        last = program.end - 4  # a redirect below it squashes a fetched word
        for block in fast._blocks.values():
            runs, taken = block.runs, block.redirects
            instructions += runs * (block.n_body + 1)
            stalls += runs * block.hazards
            redirects += runs * block.jumps + taken
            squashed += runs * block.squashed + (taken if block.term_pc < last else 0)
        cycles = instructions + 4 + stalls + 2 * redirects
        if cycles > max_cycles:
            journal.undo()
            return None

        # each block ran whole right after its build, so FastCPU's commit
        # order (blocks as built, ops in order) is first-retirement order
        fast._commit()
        stats, done = self.stats, fast.stats
        before = stats.scalars()
        stats.cycles += cycles
        stats.instructions += instructions
        stats.stalls += stalls
        stats.flushes += 2 * redirects
        stats.mem_reads += done.mem_reads
        stats.mem_writes += done.mem_writes
        stats.instr_counts.update(done.instr_counts)
        for stage, count in zip(STAGES, (instructions + squashed,) + (instructions,) * 4):
            stats.stage_busy[stage] += count
        self.regs._regs[:] = regs
        self.pc = self._resume_pc = halt.term_pc + 4
        self._fetch_enabled, self._stop_reason = False, "halt"
        publish_run("pipeline", "halt", stats.delta(before))
        return RunResult(stats=stats, stop_reason="halt", pc=self._resume_pc, env=self.env)

    def _run_cycles(self, max_cycles: int) -> RunResult:
        """The cycle loop.

        Each cycle runs WB, MEM, EX, the EX redirect, the ID hazard check,
        ID and IF in that order, on latches and counters held in locals that
        the ``finally`` writes back: a fault or the cycle limit leaves the
        exact state a later ``run()`` resumes from.  A faulting stage leaves
        the latch it fills empty, so nothing retires or executes twice.

        With a tracer installed, each cycle's stage occupancy and each stall
        and flush are recorded on the ``cpu.pipeline`` track from its cursor:
        a run starts where the track's last run ended, and a resumed run
        continues its own stamps.  A completed run ends with a ``cpu.run``
        instant.

        Completed runs add their :class:`ExecStats` growth to the session
        counters under ``cpu.pipeline.*``
        (:func:`~repro.cpu.env.publish_run`).
        """
        stats = self.stats
        before = stats.scalars()
        # resolved once per run; untraced, a cycle pays one None check
        tracer = get_session().tracer
        env, memory, regs = self.env, self.memory, self.regs._regs
        slot_ops, ops, forwarding = self._slot_ops, self._ops, self.forwarding
        program = self.program
        words, base, n_words = program.words, program.base, len(slot_ops)

        (id_pc, id_slot, ex_pc, ex_op, mem_pc, mem_op, mem_alu, store_value,
         wb_pc, wb_op, wb_value) = self._latches
        pc, fetching, stop = self.pc, self._fetch_enabled, self._stop_reason
        cycles, stalls, flushes = stats.cycles, stats.stalls, stats.flushes
        mem_reads, mem_writes = stats.mem_reads, stats.mem_writes
        busy_if = busy_id = busy_ex = busy_mem = 0
        # trace stamp of this CPU's cycle 0 (the cursor holds whole cycles)
        origin = int(tracer.cursor(CPU_TRACK)) - cycles if tracer is not None else 0
        try:
            for cycles in range(cycles + 1, max_cycles + 1 if stop is None else 0):
                if tracer is not None:
                    tracer.cpu_cycle(origin + cycles,
                                     IF=pc if fetching else None,
                                     ID=id_pc if id_slot is not None else None,
                                     EX=ex_pc if ex_op is not None else None,
                                     MEM=mem_pc if mem_op is not None else None,
                                     WB=wb_pc if wb_op is not None else None,
                                     wb_name=wb_op.name if wb_op is not None else None)

                # ---- WB ---------------------------------------------------
                if wb_op is not None:
                    wb_op.retired += 1
                    if wb_op.rd:
                        regs[wb_op.rd] = wb_value & 0xFFFFFFFF
                    elif wb_op.wb is not None:
                        if wb_op.wb == "mv_neu":
                            env.write_transition_neuron(wb_op.instr.rd, wb_value)
                        elif wb_op.wb != "ebreak":  # trigger_bnn, trans_bnn
                            env.record(wb_op.wb, cycles, wb_pc, wb_op.instr.imm)
                        if wb_op.drains:
                            stop = "halt" if wb_op.wb == "ebreak" else wb_op.wb
                            self._resume_pc = wb_pc + 4
                            break

                # ---- MEM --------------------------------------------------
                if mem_op is not None:
                    busy_mem += 1
                    if mem_op.size:
                        wb_op = None  # WB has retired it: a faulting access leaves MEM/WB empty
                        target = env.l2_memory() if mem_op.l2 else memory
                        if mem_op.is_load:
                            mem_alu = target.load(mem_alu, mem_op.size, mem_op.signed)
                            mem_reads += 1
                            if mem_op.l2:
                                env.l2_reads += 1
                        else:
                            target.store(mem_alu, store_value, mem_op.size)
                            mem_writes += 1
                            if mem_op.l2:
                                env.l2_writes += 1
                    wb_pc, wb_op, wb_value = mem_pc, mem_op, mem_alu
                    fwd_rd = mem_op.fwd_rd
                else:
                    wb_op, fwd_rd = None, 0

                # ---- EX ---------------------------------------------------
                # operands forward from EX/MEM (fwd_rd), else, MEM/WB's too,
                # come from the register file (see the module docstring)
                mem_op = ex_op
                if ex_op is not None:
                    busy_ex += 1
                    rs1_val, rs2_val = regs[ex_op.rs1], regs[ex_op.rs2]
                    if fwd_rd in ex_op.srcs:
                        if wb_op.is_load:
                            raise SimulationError("load-use hazard reached EX; interlock failed")
                        if ex_op.rs1 == fwd_rd:
                            rs1_val = wb_value
                        if ex_op.rs2 == fwd_rd:
                            rs2_val = wb_value
                    mem_alu, redirect = ex_op.ex(rs1_val, rs2_val, ex_pc)
                    mem_pc, store_value, ex_op = ex_pc, rs2_val, None
                    if redirect is not None:
                        # Squash the two younger slots (IF/ID, this cycle's
                        # fetch), steer the PC to the target: 2 cycles lost.
                        flushes += 2
                        if tracer is not None:
                            tracer.instant(FLUSH_EVENT, track=CPU_TRACK, ts=origin + cycles,
                                           cat="cpu", cause="control", pc=mem_pc,
                                           target=redirect, squashed=2)
                        id_slot = None
                        pc = redirect
                        fetching = True
                        continue

                # ---- ID ---------------------------------------------------
                # ID/EX is empty (as a decode error leaves it); mem_op: EX's op, wb_op: MEM's
                if id_slot is not None:
                    op = slot_ops[id_slot]
                    if op is None:
                        word = words[id_slot]
                        op = ops.get(word)
                        if op is None:
                            op = ops[word] = _Op(decode(word), forwarding)
                        slot_ops[id_slot] = op
                    # With forwarding only a load in EX/MEM stalls (its data
                    # forwards from MEM/WB next cycle).  Without it, a consumer
                    # waits for every in-flight producer to write back: two
                    # bubbles for a back-to-back dependency.
                    srcs = op.srcs
                    if forwarding:
                        hazard = mem_op is not None and mem_op.load_rd in srcs
                    else:
                        hazard = ((mem_op is not None and mem_op.rd in srcs)
                                  or (wb_op is not None and wb_op.rd in srcs))
                    if hazard:
                        stalls += 1
                        if tracer is not None:
                            tracer.instant(STALL_EVENT, track=CPU_TRACK, ts=origin + cycles,
                                           cat="cpu", pc=id_pc,
                                           cause="load_use" if forwarding else "raw_interlock")
                        continue  # a bubble into EX; IF/ID and PC hold
                    busy_id += 1
                    ex_pc, ex_op, id_slot = id_pc, op, None
                    if op.drains:
                        fetching = False

                # ---- IF ---------------------------------------------------
                if fetching:
                    index = (pc - base) >> 2
                    if pc & 3 or not 0 <= index < n_words:
                        # Speculative fetch past the program end is fine while
                        # an older control transfer may still redirect the PC;
                        # it is an error only once the pipeline has drained.
                        if ex_op is None and mem_op is None and wb_op is None:
                            try:
                                program.word_at(pc)
                            except IndexError as exc:
                                raise SimulationError(
                                    f"instruction fetch outside program: {exc}") from exc
                        continue
                    busy_if += 1
                    id_pc, id_slot = pc, index
                    pc += 4
        finally:
            if tracer is not None:
                tracer.advance(CPU_TRACK, cycles - stats.cycles)
            self._latches = (id_pc, id_slot, ex_pc, ex_op, mem_pc, mem_op, mem_alu, store_value,
                             wb_pc, wb_op, wb_value)
            self.pc, self._fetch_enabled, self._stop_reason = pc, fetching, stop
            stats.cycles, stats.stalls, stats.flushes = cycles, stalls, flushes
            stats.mem_reads, stats.mem_writes = mem_reads, mem_writes
            # ops in first-retirement order keep instr_counts' key order
            for op in ops.values():
                if op.retired:
                    stats.instr_counts[op.name] += op.retired
                    stats.instructions += op.retired
                    op.retired = 0
            # a stage first fills after the one before it, so adding the
            # counts in pipeline order keeps the Counter's key order
            busy_wb = stats.instructions - before["instructions"]
            for stage, count in zip(STAGES, (busy_if, busy_id, busy_ex, busy_mem, busy_wb)):
                if count:
                    stats.stage_busy[stage] += count

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
