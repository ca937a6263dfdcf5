"""Fast-path RV32I interpreter: decoded basic blocks replayed as closures.

:class:`FastCPU` is the CPU half of the ``--engine fast`` execution engine.
It computes exactly the architectural state the golden-model
:class:`~repro.cpu.functional.FunctionalCPU` computes — same registers,
memory, events, :class:`~repro.cpu.env.ExecStats` (single-cycle timing) and
stop reasons — but instead of decode/execute dispatch per step it compiles
each **superblock** once into a list of specialised Python closures and
replays the list on every revisit:

* every straight-line instruction becomes one closure over its decoded
  fields that mutates the register list in place (x0 writes are elided and
  constants like AUIPC results are folded at compile time),
* unconditional ``jal`` jumps are *folded into the body*: decoding
  continues at the (always-taken) target, so call-heavy code compiles
  into superblocks — precomputed decode traces spanning taken jumps —
  instead of stopping at every ``call``/``j`` (formation stops when a
  target was already decoded into the trace, on a decode error, or at
  :data:`MAX_SUPERBLOCK_BODY` body instructions),
* the block's terminator (conditional branch / ``jalr`` / ``ebreak`` /
  ``trans_bnn`` / ``trigger_bnn`` / decode error / unfoldable ``jal``) is
  one closure returning the next PC and an optional stop reason,
* per-instruction statistics are committed in bulk per block, with the
  per-mnemonic histogram flushed lazily at the end of the run; a per-op
  PC table keeps partial commits (step limits, faults) landing on the
  exact faulting PC even across folded jumps.

``trans_bnn``/``trigger_bnn`` events still record the exact pre-instruction
cycle count, and exceptions (memory faults, decode errors) leave ``stats``
and ``pc`` exactly as the functional model would — the differential suite in
``tests/cpu/test_fastpath_equivalence.py`` pins all of this against both the
functional model and the cycle-accurate pipeline.  The pipeline remains the
timing oracle; this engine only changes how fast the *simulation* runs.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, List, Optional, Tuple

from repro.cpu.env import CoreEnv, ExecStats, RunResult
from repro.cpu.functional import DEFAULT_MAX_STEPS
from repro.cpu.memory import DataMemory, FlatMemory
from repro.cpu.semantics import MEM_SIZES, SIGNED_LOADS
from repro.cpu.state import RegisterFile
from repro.errors import ConfigurationError, SimulationError
from repro.isa.instructions import DecodedInstr, decode
from repro.isa.program import Program
from repro.sim import get_session

_MASK = 0xFFFFFFFF
_SIGN_BIT = 0x80000000
_TWO32 = 0x100000000

#: mnemonics that end a basic block (control transfer or environment call
#: that must observe an exact cycle count)
TERMINATORS = frozenset({
    "jal", "jalr", "beq", "bne", "blt", "bge", "bltu", "bgeu",
    "ebreak", "trans_bnn", "trigger_bnn",
})

#: cap on body instructions folded into one superblock; bounds compile
#: time and memory for pathological jump chains
MAX_SUPERBLOCK_BODY = 4096

_BodyFn = Callable[[List[int]], None]
_TermFn = Callable[[List[int]], Tuple[int, Optional[str]]]


class _Block:
    """One compiled superblock: jump-folded body + one terminator."""

    __slots__ = ("start_pc", "term_pc", "pcs", "body", "body_names",
                 "n_body", "n_reads", "n_writes", "terminator", "counts")

    def __init__(self, start_pc: int, term_pc: int, pcs: List[int],
                 body: List[_BodyFn], body_names: List[str], n_reads: int,
                 n_writes: int, terminator: _TermFn,
                 term_name: Optional[str]):
        self.start_pc = start_pc
        self.term_pc = term_pc
        # pcs[k] is the PC of body op k; pcs[n_body] is the terminator's
        # PC — with folded jumps the body is no longer straight-line, so
        # partial commits resume from this table instead of start_pc + 4k
        self.pcs = tuple(pcs) + (term_pc,)
        self.body = body
        self.body_names = body_names
        self.n_body = len(body)
        self.n_reads = n_reads
        self.n_writes = n_writes
        self.terminator = terminator
        # mnemonic histogram of one full execution (body + terminator);
        # flushed lazily per (block, repeat count) at the end of a run
        self.counts = Counter(body_names)
        if term_name is not None:
            self.counts[term_name] += 1


def _signed(value: int) -> int:
    return value - _TWO32 if value >= _SIGN_BIT else value


class FastCPU:
    """Basic-block RV32I interpreter, architecturally identical to
    :class:`~repro.cpu.functional.FunctionalCPU`."""

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
        self._blocks: dict = {}

    # -- block compiler ---------------------------------------------------
    @property
    def cached_blocks(self) -> int:
        """Number of basic blocks compiled so far (decode-cache size)."""
        return len(self._blocks)

    def _compile_body(self, instr: DecodedInstr, pc: int) -> _BodyFn:
        """One straight-line instruction as a closure over the register list.

        Every write keeps the register-file invariant (unsigned 32-bit
        values), matching :class:`~repro.cpu.state.RegisterFile.write`.
        """
        name = instr.name
        rd, rs1, rs2, imm = instr.rd, instr.rs1, instr.rs2, instr.imm

        if name in MEM_SIZES:
            return self._compile_mem(instr)
        if name == "mv_neu":
            env = self.env

            def fn(r, _w=env.write_transition_neuron):
                _w(rd, r[rs1])
            return fn
        if rd == 0:  # architectural no-op, still costs a cycle
            return lambda r: None

        if name == "addi":
            return lambda r: r.__setitem__(rd, (r[rs1] + imm) & _MASK)
        if name == "add":
            return lambda r: r.__setitem__(rd, (r[rs1] + r[rs2]) & _MASK)
        if name == "sub":
            return lambda r: r.__setitem__(rd, (r[rs1] - r[rs2]) & _MASK)
        if name == "lui":
            const = imm & _MASK
            return lambda r: r.__setitem__(rd, const)
        if name == "auipc":
            const = (pc + imm) & _MASK  # folded: pc is known at compile time
            return lambda r: r.__setitem__(rd, const)
        if name in ("andi", "ori", "xori"):
            uimm = imm & _MASK
            if name == "andi":
                return lambda r: r.__setitem__(rd, r[rs1] & uimm)
            if name == "ori":
                return lambda r: r.__setitem__(rd, r[rs1] | uimm)
            return lambda r: r.__setitem__(rd, r[rs1] ^ uimm)
        if name == "and":
            return lambda r: r.__setitem__(rd, r[rs1] & r[rs2])
        if name == "or":
            return lambda r: r.__setitem__(rd, r[rs1] | r[rs2])
        if name == "xor":
            return lambda r: r.__setitem__(rd, r[rs1] ^ r[rs2])
        if name == "slti":
            return lambda r: r.__setitem__(rd, 1 if _signed(r[rs1]) < imm else 0)
        if name == "sltiu":
            uimm = imm & _MASK
            return lambda r: r.__setitem__(rd, 1 if r[rs1] < uimm else 0)
        if name == "slt":
            return lambda r: r.__setitem__(
                rd, 1 if _signed(r[rs1]) < _signed(r[rs2]) else 0)
        if name == "sltu":
            return lambda r: r.__setitem__(rd, 1 if r[rs1] < r[rs2] else 0)
        if name == "slli":
            sh = imm & 0x1F
            return lambda r: r.__setitem__(rd, (r[rs1] << sh) & _MASK)
        if name == "srli":
            sh = imm & 0x1F
            return lambda r: r.__setitem__(rd, r[rs1] >> sh)
        if name == "srai":
            sh = imm & 0x1F
            return lambda r: r.__setitem__(rd, (_signed(r[rs1]) >> sh) & _MASK)
        if name == "sll":
            return lambda r: r.__setitem__(rd, (r[rs1] << (r[rs2] & 0x1F)) & _MASK)
        if name == "srl":
            return lambda r: r.__setitem__(rd, r[rs1] >> (r[rs2] & 0x1F))
        if name == "sra":
            return lambda r: r.__setitem__(
                rd, (_signed(r[rs1]) >> (r[rs2] & 0x1F)) & _MASK)
        if name == "mul":
            return lambda r: r.__setitem__(
                rd, (_signed(r[rs1]) * _signed(r[rs2])) & _MASK)
        raise SimulationError(f"no fast-path semantics for {name!r}")

    def _compile_mem(self, instr: DecodedInstr) -> _BodyFn:
        name = instr.name
        rd, rs1, rs2, imm = instr.rd, instr.rs1, instr.rs2, instr.imm
        size = MEM_SIZES[name]
        signed = name in SIGNED_LOADS
        env = self.env
        mem = self.memory

        if name == "lw_l2":
            def fn(r):
                value = env.l2_memory().load((r[rs1] + imm) & _MASK, 4)
                env.l2_reads += 1
                if rd:
                    r[rd] = value & _MASK
            return fn
        if name == "sw_l2":
            def fn(r):
                env.l2_memory().store((r[rs1] + imm) & _MASK, r[rs2], 4)
                env.l2_writes += 1
            return fn
        if instr.spec.is_load:
            if rd:
                def fn(r, _load=mem.load):
                    r[rd] = _load((r[rs1] + imm) & _MASK, size, signed) & _MASK
            else:
                def fn(r, _load=mem.load):
                    _load((r[rs1] + imm) & _MASK, size, signed)
            return fn

        def fn(r, _store=mem.store):
            _store((r[rs1] + imm) & _MASK, r[rs2], size)
        return fn

    def _compile_terminator(self, instr: DecodedInstr,
                            pc: int) -> Tuple[_TermFn, str]:
        name = instr.name
        rd, rs1, rs2, imm = instr.rd, instr.rs1, instr.rs2, instr.imm
        fall = (pc + 4) & _MASK

        if name == "jal":
            tgt = (pc + imm) & _MASK
            if rd:
                def term(r):
                    r[rd] = fall
                    return tgt, None
            else:
                def term(r):
                    return tgt, None
        elif name == "jalr":
            if rd:
                def term(r):
                    # target from the *old* rs1 even when rd == rs1
                    tgt = (r[rs1] + imm) & 0xFFFFFFFE
                    r[rd] = fall
                    return tgt, None
            else:
                def term(r):
                    return (r[rs1] + imm) & 0xFFFFFFFE, None
        elif name == "beq":
            tgt = (pc + imm) & _MASK

            def term(r):
                return (tgt if r[rs1] == r[rs2] else fall), None
        elif name == "bne":
            tgt = (pc + imm) & _MASK

            def term(r):
                return (tgt if r[rs1] != r[rs2] else fall), None
        elif name == "blt":
            tgt = (pc + imm) & _MASK

            def term(r):
                return (tgt if _signed(r[rs1]) < _signed(r[rs2]) else fall), None
        elif name == "bge":
            tgt = (pc + imm) & _MASK

            def term(r):
                return (tgt if _signed(r[rs1]) >= _signed(r[rs2]) else fall), None
        elif name == "bltu":
            tgt = (pc + imm) & _MASK

            def term(r):
                return (tgt if r[rs1] < r[rs2] else fall), None
        elif name == "bgeu":
            tgt = (pc + imm) & _MASK

            def term(r):
                return (tgt if r[rs1] >= r[rs2] else fall), None
        elif name == "ebreak":
            def term(r):
                return fall, "halt"
        elif name in ("trans_bnn", "trigger_bnn"):
            # env.record must see the cycle count *before* this instruction;
            # body stats are committed before the terminator runs, so
            # stats.cycles is exact here even with bulk accounting.
            env = self.env
            stats = self.stats
            stop = "trans_bnn" if name == "trans_bnn" else None

            def term(r):
                env.record(name, stats.cycles, pc, imm)
                return fall, stop
        else:  # pragma: no cover - TERMINATORS covers exactly these names
            raise SimulationError(f"{name!r} is not a terminator")
        return term, name

    def _build(self, start_pc: int) -> _Block:
        """Decode forward from ``start_pc`` until a terminator and compile.

        Unconditional ``jal`` jumps are folded into the body (the link
        register write becomes a body closure and decoding continues at
        the target), growing basic blocks into superblocks.  Folding
        stops — leaving ``jal`` as an ordinary terminator — when the
        target was already decoded into this trace (a jump cycle), or
        when the body reaches :data:`MAX_SUPERBLOCK_BODY`.
        """
        body: List[_BodyFn] = []
        names: List[str] = []
        pcs: List[int] = []
        n_reads = n_writes = 0
        pc = start_pc
        visited = {start_pc}
        while True:
            try:
                instr = decode(self.program.word_at(pc))
            except IndexError as exc:
                # fetching off the program raises exactly like the
                # functional model (SimulationError wrapping the message)
                message = str(exc)

                def term(r, _msg=message):
                    raise SimulationError(_msg)
                term_name = None
                break
            except Exception as exc:
                exc_type, exc_args = type(exc), exc.args

                def term(r, _t=exc_type, _a=exc_args):
                    raise _t(*_a)
                term_name = None
                break
            if instr.name == "jal":
                tgt = (pc + instr.imm) & _MASK
                if tgt not in visited and len(body) < MAX_SUPERBLOCK_BODY:
                    rd = instr.rd
                    fall = (pc + 4) & _MASK
                    if rd:
                        body.append(
                            lambda r, _rd=rd, _f=fall: r.__setitem__(_rd, _f))
                    else:
                        body.append(lambda r: None)
                    names.append("jal")
                    pcs.append(pc)
                    pc = tgt
                    visited.add(pc)
                    continue
            if instr.name in TERMINATORS:
                term, term_name = self._compile_terminator(instr, pc)
                break
            body.append(self._compile_body(instr, pc))
            names.append(instr.name)
            pcs.append(pc)
            if instr.spec.is_load:
                n_reads += 1
            elif instr.spec.is_store:
                n_writes += 1
            pc += 4
            visited.add(pc)
        block = _Block(start_pc, pc, pcs, body, names, n_reads, n_writes,
                       term, term_name)
        self._blocks[start_pc] = block
        return block

    # -- execution --------------------------------------------------------
    def _commit_partial(self, block: _Block, executed: int) -> None:
        """Account for the first ``executed`` body instructions of a block
        (exception or step-limit path)."""
        stats = self.stats
        stats.instructions += executed
        stats.cycles += executed
        names = block.body_names[:executed]
        stats.instr_counts.update(names)
        for name in names:
            if name in MEM_SIZES:
                if name[0] == "l":
                    stats.mem_reads += 1
                else:
                    stats.mem_writes += 1

    def run(self, max_steps: int = DEFAULT_MAX_STEPS) -> RunResult:
        """Run until halt / mode switch / step limit.

        Mirrors the run's :class:`ExecStats` growth into the session
        :class:`~repro.sim.StatsRegistry` under ``cpu.fastpath.*``.
        """
        if max_steps < 0:
            raise ConfigurationError(f"max_steps: must be >= 0, got {max_steps}")
        before = self.stats.scalars()
        stats = self.stats
        regs = self.regs._regs
        blocks = self._blocks
        pending: dict = {}  # block -> full executions (lazy histogram)
        remaining = max_steps
        reason = "max_cycles"
        try:
            while True:
                pc = self.pc
                block = blocks.get(pc)
                if block is None:
                    block = self._build(pc)
                n_body = block.n_body
                if remaining <= n_body:
                    # step limit lands inside the body: resume from the
                    # per-op PC table (the body may span folded jumps)
                    executed = 0
                    try:
                        for fn in block.body[:remaining]:
                            fn(regs)
                            executed += 1
                    finally:
                        self._commit_partial(block, executed)
                        self.pc = block.pcs[executed]
                    break
                executed = 0
                try:
                    for fn in block.body:
                        fn(regs)
                        executed += 1
                except BaseException:
                    self._commit_partial(block, executed)
                    self.pc = block.pcs[executed]
                    raise
                stats.instructions += n_body
                stats.cycles += n_body
                stats.mem_reads += block.n_reads
                stats.mem_writes += block.n_writes
                try:
                    next_pc, stop = block.terminator(regs)
                except BaseException:
                    stats.instr_counts.update(block.body_names)
                    self.pc = block.term_pc
                    raise
                stats.instructions += 1
                stats.cycles += 1
                pending[block] = pending.get(block, 0) + 1
                self.pc = next_pc
                remaining -= n_body + 1
                if stop is not None:
                    reason = stop
                    break
                if remaining <= 0:
                    break
        finally:
            counts = stats.instr_counts
            for block, times in pending.items():
                for name, count in block.counts.items():
                    counts[name] += count * times
        delta = stats.delta(before)
        session = get_session()
        scope = session.stats.scope("cpu.fastpath")
        scope.incr("runs")
        scope.incr_many(delta)
        if session.tracer is not None:
            session.tracer.cpu_run("fastpath", reason, delta)
        return RunResult(stats=stats, stop_reason=reason, pc=self.pc,
                         env=self.env)


def run_fastpath(
    program: Program,
    memory: Optional[DataMemory] = None,
    env: Optional[CoreEnv] = None,
    max_steps: int = DEFAULT_MAX_STEPS,
):
    """Convenience wrapper: build a :class:`FastCPU`, run it, return it.

    Returns ``(cpu, result)`` so callers can inspect registers and memory.
    """
    cpu = FastCPU(program, memory=memory, env=env)
    result = cpu.run(max_steps=max_steps)
    return cpu, result

