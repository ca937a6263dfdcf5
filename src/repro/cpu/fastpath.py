"""Fast-path RV32I interpreter: decoded superblocks, hot ones compiled.

:class:`FastCPU` is the CPU half of the ``--engine fast`` execution engine.
It computes exactly the architectural state the golden-model
:class:`~repro.cpu.functional.FunctionalCPU` computes — same registers,
memory, events, :class:`~repro.cpu.env.ExecStats` (single-cycle timing) and
stop reasons — but instead of decode/execute dispatch per step it decodes
each **superblock** once and replays it on every revisit, in one of two
tiers.  Each op's semantics is written once, as one line of Python in
:data:`ALU_EXPRS`, :data:`BRANCH_CONDS` or :data:`OP_LINES`, and both
tiers are derived from that line:

* on the closure tier every op is one closure running its line, with the
  names the line uses bound as closure cells (x0 writes are elided),
* unconditional ``jal`` jumps are *folded into the body*: decoding
  continues at the (always-taken) target, so call-heavy code compiles
  into superblocks — precomputed decode traces spanning taken jumps —
  instead of stopping at every ``call``/``j`` (formation stops when a
  target was already decoded into the trace, on a decode error, or at
  :data:`MAX_SUPERBLOCK_BODY` body instructions),
* the block's terminator (conditional branch / ``jalr`` / ``ebreak`` /
  ``trans_bnn`` / ``trigger_bnn`` / decode error / unfoldable ``jal``) is
  one closure returning the next PC and an optional stop reason,
* a block that has run :data:`HOT_BLOCK_RUNS` times on its closures is
  translated into one generated function, ``blk(r, load, store) ->
  (next pc, stop reason)``: the same lines, one per op, with the names
  written in as literals, kept with the block.  Blocks that reach the
  core environment (``mv_neu``, the L2 ops, ``trans_bnn``,
  ``trigger_bnn``) or end in a decode error stay on their closures,
* statistics of whole block executions are committed in bulk at the end
  of the run (and before an event is stamped); a per-op PC table keeps
  partial commits (step limits, faults) landing on the exact faulting
  PC even across folded jumps.

The semantics here are written apart from
:func:`~repro.cpu.semantics.compile_ex` on purpose, so that
``tests/cpu/test_fastpath_equivalence.py`` compares two implementations:
registers, events with their exact pre-instruction cycle counts, and
the ``stats`` and ``pc`` an exception leaves, against both the
functional model and the cycle-accurate pipeline.  The pipeline remains
the timing oracle; this engine only changes how fast the *simulation*
runs.  The pipeline's block-timed runs execute on these superblocks too
(:meth:`FastCPU._run_timed`), timed from tallies each build takes
(:class:`_Block`).
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Callable, List, Optional, Tuple

from repro.cpu.env import CoreEnv, ExecStats, RunResult, publish_run
from repro.cpu.functional import DEFAULT_MAX_STEPS
from repro.cpu.memory import DataMemory, FlatMemory
from repro.cpu.semantics import MEM_SIZES
from repro.cpu.state import RegisterFile
from repro.errors import ConfigurationError, SimulationError
from repro.isa.instructions import DECODE_CACHE_SIZE, DecodedInstr, decode
from repro.isa.program import Program

_MASK = 0xFFFFFFFF

#: cap on body instructions folded into one superblock; bounds compile
#: time and memory for pathological jump chains
MAX_SUPERBLOCK_BODY = 4096

#: full executions on closures after which a superblock is translated
#: into one generated function
HOT_BLOCK_RUNS = 64

#: the rd value of each ALU op, as a Python expression over the register
#: list ``r`` and the decoded constants ``rs1``, ``rs2``, ``imm``, ``uimm``
#: (``imm`` mod 2**32), ``sh`` (``imm``'s low five bits) and ``pc``.
#: Registers hold unsigned 32-bit values: ``x ^ 0x80000000`` orders them
#: as signed ints, and ``(x ^ 0x80000000) - 0x80000000`` is the signed value.
ALU_EXPRS = {
    "lui": "uimm",
    "auipc": "(pc + imm) & 0xFFFFFFFF",
    "addi": "(r[rs1] + imm) & 0xFFFFFFFF",
    "slti": "1 if (r[rs1] ^ 0x80000000) - 0x80000000 < imm else 0",
    "sltiu": "1 if r[rs1] < uimm else 0",
    "xori": "r[rs1] ^ uimm",
    "ori": "r[rs1] | uimm",
    "andi": "r[rs1] & uimm",
    "slli": "(r[rs1] << sh) & 0xFFFFFFFF",
    "srli": "r[rs1] >> sh",
    "srai": "((r[rs1] ^ 0x80000000) - 0x80000000 >> sh) & 0xFFFFFFFF",
    "add": "(r[rs1] + r[rs2]) & 0xFFFFFFFF",
    "sub": "(r[rs1] - r[rs2]) & 0xFFFFFFFF",
    "sll": "(r[rs1] << (r[rs2] & 0x1F)) & 0xFFFFFFFF",
    "slt": "1 if (r[rs1] ^ 0x80000000) < (r[rs2] ^ 0x80000000) else 0",
    "sltu": "1 if r[rs1] < r[rs2] else 0",
    "xor": "r[rs1] ^ r[rs2]",
    "srl": "r[rs1] >> (r[rs2] & 0x1F)",
    "sra": "((r[rs1] ^ 0x80000000) - 0x80000000 >> (r[rs2] & 0x1F)) & 0xFFFFFFFF",
    "or": "r[rs1] | r[rs2]",
    "and": "r[rs1] & r[rs2]",
    "mul": "(r[rs1] * r[rs2]) & 0xFFFFFFFF",
}

#: the taken condition of each conditional branch, over the same names
BRANCH_CONDS = {
    "beq": "r[rs1] == r[rs2]",
    "bne": "r[rs1] != r[rs2]",
    "blt": "(r[rs1] ^ 0x80000000) < (r[rs2] ^ 0x80000000)",
    "bge": "(r[rs1] ^ 0x80000000) >= (r[rs2] ^ 0x80000000)",
    "bltu": "r[rs1] < r[rs2]",
    "bgeu": "r[rs1] >= r[rs2]",
}

#: every other op as one line of statements over the same names, the CPU
#: memory's ``load``/``store``, the core environment ``env``, the CPU's
#: ``stats``, and ``fall``/``taken``: the ``(pc, None)`` results of falling
#: through and of jumping to ``pc + imm``.  A terminator's line returns
#: the next ``(pc, stop reason)``; ``n`` is the body ops its block ran.
OP_LINES = {
    "lb": "r[rd] = load((r[rs1] + imm) & 0xFFFFFFFF, 1, True) & 0xFFFFFFFF",
    "lh": "r[rd] = load((r[rs1] + imm) & 0xFFFFFFFF, 2, True) & 0xFFFFFFFF",
    "lw": "r[rd] = load((r[rs1] + imm) & 0xFFFFFFFF, 4, False)",
    "lbu": "r[rd] = load((r[rs1] + imm) & 0xFFFFFFFF, 1, False)",
    "lhu": "r[rd] = load((r[rs1] + imm) & 0xFFFFFFFF, 2, False)",
    "sb": "store((r[rs1] + imm) & 0xFFFFFFFF, r[rs2], 1)",
    "sh": "store((r[rs1] + imm) & 0xFFFFFFFF, r[rs2], 2)",
    "sw": "store((r[rs1] + imm) & 0xFFFFFFFF, r[rs2], 4)",
    "lw_l2": "r[rd] = env.l2_memory().load((r[rs1] + imm) & 0xFFFFFFFF, 4); "
             "env.l2_reads += 1",
    "sw_l2": "env.l2_memory().store((r[rs1] + imm) & 0xFFFFFFFF, r[rs2], 4); "
             "env.l2_writes += 1",
    "mv_neu": "env.write_transition_neuron(rd, r[rs1])",
    "jal": "r[rd] = fall[0]; return taken",
    # the target comes from the old rs1, even when rd == rs1
    "jalr": "t = (r[rs1] + imm) & 0xFFFFFFFE; r[rd] = fall[0]; return t, None",
    "ebreak": "return fall[0], 'halt'",
    "trans_bnn": "env.record('trans_bnn', stats.cycles + n, pc, imm); "
                 "return fall[0], 'trans_bnn'",
    "trigger_bnn": "env.record('trigger_bnn', stats.cycles + n, pc, imm); "
                   "return fall",
}

#: each mnemonic's line
_LINES = {**{name: f"r[rd] = {expr}" for name, expr in ALU_EXPRS.items()},
          **{name: f"return taken if {cond} else fall"
             for name, cond in BRANCH_CONDS.items()},
          **OP_LINES}

#: how the closure tier binds a line's names beyond the decoded ``rd``,
#: ``rs1``, ``rs2`` and ``imm``, the op's ``pc`` and ``n``: the first two
#: once per word, the rest once per op (``cpu`` is the :class:`FastCPU`)
_BINDINGS = {
    "uimm": "imm & 0xFFFFFFFF",
    "sh": "imm & 0x1F",
    "fall": "((pc + 4) & 0xFFFFFFFF, None)",
    "taken": "((pc + imm) & 0xFFFFFFFF, None)",
    "load": "cpu.memory.load",
    "store": "cpu.memory.store",
    "env": "cpu.env",
    "stats": "cpu.stats",
}
_PER_WORD = ("uimm", "sh")

#: a name a line uses (an attribute such as ``env.l2_memory().load`` is not)
_NAME = re.compile(r"(?<![\w.])(rd|rs1|rs2|imm|pc|n|"
                   + "|".join(_BINDINGS) + r")\b")

#: mnemonics that end a basic block (control transfer or environment call
#: that must observe an exact cycle count): those whose line returns
TERMINATORS = frozenset(name for name, line in _LINES.items()
                        if "return" in line)

#: ops that reach the core environment; a block holding one is never
#: translated
_ENV_OPS = frozenset(name for name, line in _LINES.items()
                     if "env" in _NAME.findall(line))

_BodyFn = Callable[[List[int]], None]
_TermFn = Callable[[List[int]], Tuple[int, Optional[str]]]


@lru_cache(maxsize=None)  # a few shapes per mnemonic
def _line(name: str, rd: bool, imm: bool, in_body: bool) -> str:
    """The line of ``name`` in one shape: ``rd`` and ``imm`` say whether
    those fields are non-zero.  A zero offset addresses ``r[rs1]`` (a
    memory op's address is ``addi``'s value, and registers hold unsigned
    32-bit values); a write to x0 keeps only a load, which can still
    fault; in a body (a folded ``jal``) the return goes, and control
    falls into the jump target."""
    statements = []
    for statement in _LINES[name].split("; "):
        if in_body and statement.startswith("return "):
            continue
        if not imm:
            statement = statement.replace(ALU_EXPRS["addi"], "r[rs1]")
        if not rd and statement.startswith("r[rd] = "):
            statement = statement[len("r[rd] = "):]
            if "load(" not in statement:
                continue
        statements.append(statement)
    return "; ".join(statements) or "pass"


def _shape(instr: DecodedInstr, in_body: bool = False) -> str:
    """``instr``'s line in the shape its fields give it."""
    return _line(instr.name, instr.rd != 0, instr.imm != 0, in_body)


@lru_cache(maxsize=None)  # one per line shape, a few per mnemonic
def _factory(line: str) -> Callable:
    """The closure factory of ``line``: ``shape(rd, rs1, rs2, imm)``
    returns ``make(pc, cpu, n)``, which returns the op's closure
    ``fn(r)``.  Each level binds, as closure cells, only the names the
    line uses; a line that uses no per-op name gets one closure per
    word, which ``make`` returns to every block."""
    used = set(_NAME.findall(line))
    binds = {name: f"{name} = {expr}" for name, expr in _BINDINGS.items()
             if name in used}
    source = ["def shape(rd, rs1, rs2, imm):"] + [
        "    " + binds.pop(name) for name in _PER_WORD if name in binds]
    if binds or used & {"pc", "n"}:
        source += ["    def make(pc, cpu, n):",
                   *("        " + bind for bind in binds.values()),
                   "        def fn(r):", "            " + line,
                   "        return fn"]
    else:
        source += ["    def fn(r):", "        " + line,
                   "    def make(pc, cpu, n):", "        return fn"]
    namespace: dict = {}
    exec("\n".join(source + ["    return make"]), namespace)
    return namespace.pop("shape")


@lru_cache(maxsize=DECODE_CACHE_SIZE)
def _op(word: int) -> Tuple[str, int, Callable, Optional[Callable], int, int]:
    """``(name, imm, make, fold, loads, reads)`` of the instruction
    ``word``: ``make`` builds its closure, and ``fold`` (``jal`` only) its
    closure folded into a body; ``loads`` has bit ``rd`` set for a load
    into a register other than x0, and ``reads`` the bits of the registers
    it reads (the block-timed pipeline's load-use test).  Remembered per
    word, as :func:`decode` is; a decoding error is not."""
    instr = decode(word)
    spec = instr.spec
    fields = instr.rd, instr.rs1, instr.rs2, instr.imm
    make = _factory(_shape(instr))(*fields)
    fold = _factory(_shape(instr, True))(*fields) \
        if instr.name == "jal" else None
    loads = 1 << instr.rd if spec.is_load and instr.rd else 0
    reads = ((1 << instr.rs1 if spec.reads_rs1 else 0)
             | (1 << instr.rs2 if spec.reads_rs2 else 0))
    return instr.name, instr.imm, make, fold, loads, reads


# -- translation: one generated function per hot superblock ---------------
@lru_cache(maxsize=None)  # one per line shape
def _template(line: str) -> str:
    """``line`` as a ``str.format`` template over the decoded fields and
    ``pc``, with the names ``_BINDINGS`` derives from them spelled out
    (the compiler folds them into constants); ``load`` and ``store`` stay
    the generated function's arguments."""
    def field(match: re.Match) -> str:
        name = match[1]
        if name in ("load", "store"):
            return name
        if name in _BINDINGS:
            return "(" + _NAME.sub(field, _BINDINGS[name]) + ")"
        return "{" + name + "}"
    return _NAME.sub(field, line)


def _inline(instr: DecodedInstr, pc: int, in_body: bool) -> str:
    """``instr``'s line with its names written in as literals."""
    return _template(_shape(instr, in_body)).format(
        rd=instr.rd, rs1=instr.rs1, rs2=instr.rs2, imm=instr.imm, pc=pc)


def _translate(block: "_Block") -> Callable:
    """The generated function of ``block``.  Body op k is line k + 2 of
    its source, which is how a fault inside it is placed
    (:func:`_retired_before`)."""
    lines = ["def blk(r, load, store):"]
    *body, (term_pc, term_word) = zip(block.pcs, block.words)
    lines += [_inline(decode(word), pc, True) for pc, word in body]
    lines.append(_inline(decode(term_word), term_pc, False))
    namespace: dict = {}
    exec(compile("\n    ".join(lines), f"<superblock {block.start_pc:#x}>",
                 "exec"), namespace)
    return namespace.pop("blk")  # no cycle through the function's globals


def _retired_before(block: "_Block", exc: BaseException) -> int:
    """Body ops a compiled block retired before raising ``exc``: the
    line its frame stopped on, less the ``def`` line and one."""
    code = block.fn.__code__
    tb = exc.__traceback__
    while tb is not None and tb.tb_frame.f_code is not code:
        tb = tb.tb_next
    if tb is None:  # raised before the block's first line
        return 0
    return min(max(tb.tb_lineno - 2, 0), block.n_body)


class _Block:
    """One superblock: jump-folded body + one terminator, as closures,
    and its generated function once it is hot.

    The pipeline's block-timed path (:mod:`repro.cpu.pipeline`) derives
    its cycle counts from each block's ``runs`` and ``redirects`` and from
    tallies the build takes once: ``hazards`` (load-use pairs in one
    run), ``jumps`` (folded ``jal`` ops, each a redirect), ``squashed``
    (those whose next slot is a program word, which the pipeline fetches
    and squashes) and ``fall``, the PC the terminator returns when it
    does not redirect: ``pc + 4`` after a conditional branch or
    ``ebreak``, -1 after a jump (always a redirect), None after an error.
    That path takes no program holding an environment op or a branch to
    its own fall-through, which these tallies cannot time.
    """

    __slots__ = ("start_pc", "term_pc", "pcs", "body", "body_names",
                 "n_body", "n_reads", "n_writes", "terminator", "term_name",
                 "records", "words", "fn", "countdown", "runs", "hazards",
                 "jumps", "squashed", "fall", "redirects")

    def __init__(self, start_pc: int, term_pc: int, pcs: List[int],
                 body: List[_BodyFn], body_names: List[str], n_reads: int,
                 n_writes: int, terminator: _TermFn,
                 term_name: Optional[str],
                 words: Optional[List[int]], hazards: int, jumps: int,
                 squashed: int, fall: Optional[int]):
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
        # None when the terminator raises (it never completes a run)
        self.term_name = term_name
        # the terminator stamps an event with the cycle count, so every
        # execution before it must be committed first
        self.records = term_name in ("trans_bnn", "trigger_bnn")
        # translation: no words = stays on closures; no fn = not hot yet
        self.words = words
        self.fn = None
        self.countdown = HOT_BLOCK_RUNS if words is not None else 0
        # whole executions not yet committed to the CPU's stats
        self.runs = 0
        self.hazards = hazards
        self.jumps = jumps
        self.squashed = squashed
        self.fall = fall
        self.redirects = 0


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

    def _build(self, start_pc: int) -> _Block:
        """Decode forward from ``start_pc`` until a terminator and compile.

        Unconditional ``jal`` jumps are folded into the body (the link
        register write becomes a body closure and decoding continues at
        the target), growing basic blocks into superblocks.  Folding
        stops — leaving ``jal`` as an ordinary terminator — when the
        target was already decoded into this trace (a jump cycle), or
        when the body reaches :data:`MAX_SUPERBLOCK_BODY`.
        """
        program = self.program
        program_words, base = program.words, program.base
        n_words = len(program_words)
        body: List[_BodyFn] = []
        names: List[str] = []
        pcs: List[int] = []
        words: Optional[List[int]] = []  # None once the block is untranslatable
        n_reads = n_writes = 0
        # the block-timed pipeline's tallies (see _Block); ``loaded`` is
        # the register bit the previous op loads
        hazards = jumps = squashed = loaded = 0
        pc = start_pc
        visited = {start_pc}
        while True:
            index = (pc - base) >> 2
            try:
                if pc & 3 or not 0 <= index < n_words:
                    program.word_at(pc)  # raises its IndexError
                word = program_words[index]
                name, imm, make, fold, loads, reads = _op(word)
            except Exception as exc:
                # the op raises when it runs, as in the functional model:
                # fetching off the program as a SimulationError with the
                # message, a decoding error as itself
                error, args = (SimulationError, (str(exc),)) \
                    if isinstance(exc, IndexError) else (type(exc), exc.args)

                def term(r, _error=error, _args=args):
                    raise _error(*_args)
                term_name = words = fall = None
                break
            if loaded & reads:
                hazards += 1
            loaded = loads
            if name in _ENV_OPS:
                words = None
            elif words is not None:
                words.append(word)
            if fold is not None:
                tgt = (pc + imm) & _MASK
                if tgt not in visited and len(body) < MAX_SUPERBLOCK_BODY:
                    body.append(fold(pc, self, 0))
                    names.append(name)
                    pcs.append(pc)
                    jumps += 1
                    squashed += index + 1 < n_words
                    pc = tgt
                    visited.add(pc)
                    continue
            if name in TERMINATORS:
                term = make(pc, self, len(body))
                term_name = name
                fall = -1 if name in ("jal", "jalr") else (pc + 4) & _MASK
                break
            body.append(make(pc, self, 0))
            names.append(name)
            pcs.append(pc)
            if name in MEM_SIZES:
                if name[0] == "l":
                    n_reads += 1
                else:
                    n_writes += 1
            pc += 4
            visited.add(pc)
        block = _Block(start_pc, pc, pcs, body, names, n_reads, n_writes,
                       term, term_name, words, hazards, jumps, squashed, fall)
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

    def _commit(self) -> None:
        """Account for every block's whole executions since the last
        commit."""
        stats = self.stats
        counts = stats.instr_counts
        for block in self._blocks.values():
            times = block.runs
            if not times:
                continue
            block.runs = 0
            retired = times * (block.n_body + 1)
            stats.instructions += retired
            stats.cycles += retired
            stats.mem_reads += times * block.n_reads
            stats.mem_writes += times * block.n_writes
            for name in block.body_names:
                counts[name] += times
            counts[block.term_name] += times

    def run(self, max_steps: int = DEFAULT_MAX_STEPS) -> RunResult:
        """Run until halt / mode switch / step limit.

        Adds the run's :class:`ExecStats` growth to the session counters
        under ``cpu.fastpath.*`` (:func:`~repro.cpu.env.publish_run`).
        """
        if max_steps < 0:
            raise ConfigurationError(f"max_steps: must be >= 0, got {max_steps}")
        before = self.stats.scalars()
        regs = self.regs._regs
        blocks = self._blocks
        load, store = self.memory.load, self.memory.store
        remaining = max_steps
        reason = "max_cycles"
        pc = self.pc
        try:
            while True:
                block = blocks.get(pc)
                if block is None:
                    block = self._build(pc)
                n_body = block.n_body
                if remaining <= n_body:
                    # step limit lands inside the body: run its closures
                    # and resume from the per-op PC table (the body may
                    # span folded jumps)
                    executed = 0
                    try:
                        for op in block.body[:remaining]:
                            op(regs)
                            executed += 1
                    finally:
                        self._commit_partial(block, executed)
                        pc = block.pcs[executed]
                    break
                fn = block.fn
                if fn is not None:
                    try:
                        pc, stop = fn(regs, load, store)
                    except BaseException as exc:
                        executed = _retired_before(block, exc)
                        self._commit_partial(block, executed)
                        pc = block.pcs[executed]
                        raise
                else:
                    executed = 0
                    try:
                        for op in block.body:
                            op(regs)
                            executed += 1
                        if block.records:
                            self._commit()
                        pc, stop = block.terminator(regs)
                    except BaseException:
                        self._commit_partial(block, executed)
                        pc = block.pcs[executed]
                        raise
                    if block.countdown:
                        block.countdown -= 1
                        if not block.countdown:
                            block.fn = _translate(block)
                block.runs += 1
                remaining -= n_body + 1
                if stop is not None:
                    reason = stop
                    break
                if remaining <= 0:
                    break
        finally:
            self.pc = pc
            self._commit()
        publish_run("fastpath", reason, self.stats.delta(before))
        return RunResult(stats=self.stats, stop_reason=reason, pc=self.pc,
                         env=self.env)

    def _run_timed(self, budget: int) -> Optional[_Block]:
        """Run whole blocks from ``self.pc`` for the pipeline's
        block-timed path, counting each block's ``runs`` and terminator
        ``redirects`` (see :class:`_Block`); return the block that halted.

        Return None, with the blocks' state partial, at the first block
        that would take the run past ``budget`` instructions; a block's
        exception propagates the same way.  Like :meth:`run`, it
        translates hot blocks, but it commits no stats and publishes
        nothing.
        """
        regs = self.regs._regs
        blocks = self._blocks
        load, store = self.memory.load, self.memory.store
        pc = self.pc
        while True:
            block = blocks.get(pc)
            if block is None:
                block = self._build(pc)
            budget -= block.n_body + 1
            if budget < 0:
                return None
            fn = block.fn
            if fn is not None:
                pc, stop = fn(regs, load, store)
            else:
                for op in block.body:
                    op(regs)
                pc, stop = block.terminator(regs)
                if block.countdown:
                    block.countdown -= 1
                    if not block.countdown:
                        block.fn = _translate(block)
            block.runs += 1
            if pc != block.fall:
                block.redirects += 1
            if stop is not None:
                return block
