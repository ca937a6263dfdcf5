"""The block-timed pipeline path against the cycle loop.

``PipelinedCPU.run`` times a fresh, forwarding, untraced run on a
``FlatMemory``, of a program with no environment op and no branch to its
own ``pc + 4``, from ``FastCPU`` superblocks (``_run_blocks``) and leaves
every other run, and every run that path gives up on, to the cycle loop
(``_run_cycles``).  Each test here runs programs both ways, reaching the
cycle loop through its private entry, and asserts that the two leave the
same result or exception, ``ExecStats`` with the key orders of
``instr_counts`` and ``stage_busy``, registers, PC, memory bytes, memory
access counts, core environment and session counters.
"""

import pytest
from hypothesis import given, settings

from repro.cpu import CoreEnv, FlatMemory, PipelinedCPU
from repro.cpu import pipeline
from repro.cpu.fastpath import _ENV_OPS
from repro.cpu.memory import StoreJournal
from repro.isa import assemble
from repro.isa.instructions import OPCODE_NCPU, SPECS
from repro.mem.sram import SRAMBank
from repro.sim import use_session
from repro.trace import install_tracer, uninstall_tracer
from repro.workloads.dhrystone import dhrystone_asm
from tests.cpu.test_differential import looped_program, random_program
from tests.cpu.test_pipeline_golden import FAULT_SOURCES, RUNNERS


def _state(cpu, outcome) -> dict:
    stats, memory, env = cpu.stats, cpu.memory, cpu.env
    return {
        "outcome": outcome,
        "stats": stats.as_dict(),
        "instr_order": list(stats.instr_counts),
        "stage_order": list(stats.stage_busy),
        "regs": cpu.regs.snapshot(),
        "pc": cpu.pc,
        "memory": bytes(memory._bytes),
        "accesses": (memory.load_count, memory.store_count),
        "env": ([(e.name, e.cycle, e.pc, e.imm) for e in env.events],
                list(env.transition_neurons), env.l2_reads, env.l2_writes),
    }


def _call(run, max_cycles):
    """``run(max_cycles)``'s stop reason and PC, or what it raised."""
    try:
        result = run(max_cycles)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc).__name__, str(exc)
    return result.stop_reason, result.pc


def _run(program, cycle_loop, max_cycles=100_000, chunk=None):
    """A fresh pipeline over ``program`` run to ``max_cycles`` (then on in
    chunks of ``chunk`` cycles while it stops at the limit), through
    ``run()`` or the cycle loop alone; returns the CPU and its state."""
    with use_session() as session:
        cpu = PipelinedCPU(program, memory=FlatMemory(size=512),
                           env=CoreEnv(l2=FlatMemory(size=512)))
        run = cpu._run_cycles if cycle_loop else cpu.run
        outcome = _call(run, max_cycles)
        while chunk is not None and outcome[0] == "max_cycles":
            outcome = _call(run, cpu.stats.cycles + chunk)
        state = _state(cpu, outcome)
        state["session"] = dict(session.stats)
    return cpu, state


def _agree(source, **kwargs):
    """Run ``source`` both ways, assert the states match, and return the
    ``run()`` CPU and its state."""
    program = assemble(source)
    cpu, timed = _run(program, cycle_loop=False, **kwargs)
    _, looped = _run(program, cycle_loop=True, **kwargs)
    assert timed == looped
    return cpu, timed


#: the cases the block tallies get wrong most easily; ``True`` where
#: ``run()`` takes the block-timed path
PINNED = {
    "branch-to-next-taken": (False, """
        li a0, 1
        beq a0, a0, next
    next:
        addi a1, a0, 2
        ebreak
    """),
    "branch-to-next-not-taken": (False, """
        li a0, 1
        bne a0, a0, next
    next:
        addi a1, a0, 2
        ebreak
    """),
    "branch-to-next-in-loop": (False, """
        li a0, 6
    loop:
        andi a1, a0, 1
        beqz a1, next
    next:
        addi a0, a0, -1
        bnez a0, loop
        ebreak
    """),
    "jump-to-next": (True, """
        li a0, 1
        j next
    next:
        addi a1, a0, 2
        ebreak
    """),
    "load-then-folded-jal": (True, """
        li s0, 256
        li t0, 7
        sw t0, 0(s0)
        lw a0, 0(s0)
        j over
        addi a0, a0, 9
    over:
        addi a1, a0, 1
        ebreak
    """),
    "load-use-after-folded-jal": (True, """
        li s0, 256
        li t0, 7
        sw t0, 0(s0)
        j over
        addi a0, a0, 9
    over:
        lw a0, 0(s0)
        addi a1, a0, 1
        ebreak
    """),
    "load-use-into-taken-branch": (True, """
        li s0, 256
        li t0, 7
        sw t0, 0(s0)
        lw a0, 0(s0)
        bnez a0, over
        addi a1, a1, 9
    over:
        ebreak
    """),
    "load-into-x0": (True, """
        li s0, 256
        lw x0, 0(s0)
        addi a2, x0, 1
        ebreak
    """),
    "folded-jump-as-last-word": (True, """
        li a0, 3
        j loop
    out:
        ebreak
    loop:
        addi a0, a0, -1
        beqz a0, out
        j loop
    """),
    "taken-branch-as-last-word": (True, """
        li a0, 3
        j loop
    out:
        ebreak
    loop:
        addi a0, a0, -1
        beqz a0, out
        beq x0, x0, loop
    """),
    "return-as-last-word": (True, """
        li a0, 1
        call f
        addi a0, a0, 1
        ebreak
    f:
        addi a0, a0, 5
        ret
    """),
    "ebreak-as-last-word": (True, """
        li a0, 1
        addi a0, a0, 1
        ebreak
    """),
    "hot-loop": (True, """
        li s0, 256
        li a0, 100
    loop:
        sw a0, 0(s0)
        lw a1, 0(s0)
        add a2, a2, a1
        addi a0, a0, -1
        bnez a0, loop
        ebreak
    """),
}


@pytest.mark.parametrize("case", list(PINNED))
def test_pinned_programs_agree(case):
    timed_path, source = PINNED[case]
    cpu, state = _agree(source)
    assert state["outcome"][0] == "halt"
    assert (not cpu._ops) == timed_path


@settings(max_examples=60, deadline=None)
@given(source=random_program())
def test_random_programs_agree(source):
    _agree(source)


@settings(max_examples=60, deadline=None)
@given(source=random_program(ncpu=True))
def test_ncpu_programs_agree(source):
    _agree(source)


@settings(max_examples=40, deadline=None)
@given(source=looped_program())
def test_looped_programs_agree(source):
    _agree(source)


#: a loop full of flushes, then stores: a run cut before its last cycles
#: has stored nothing, though the block-timed attempt got to the halt
LATE_STORES = """
    li s0, 256
    li a0, 20
loop:
    lw a1, 0(s0)
    addi a0, a0, -1
    bnez a0, loop
    li t0, 5
    sw t0, 0(s0)
    sw t0, 4(s0)
    sw t0, 8(s0)
    ebreak
"""


def test_late_stores_timing():
    """The cycle budgets below sit around this program's counts."""
    _, state = _agree(LATE_STORES)
    stats = state["stats"]
    assert (stats["cycles"], stats["instructions"]) == (109, 67)


@pytest.mark.parametrize("max_cycles", [0, 4, 5, 71, 108, 109, 110])
def test_cycle_limit_agrees(max_cycles):
    """At the limit the block-timed attempt is undone, memory bytes and
    access counts too: with 71 cycles it retires every instruction within
    its budget, stores included, but the cycle loop stops in the loop.  A
    run that halts on its last allowed cycle still halts."""
    _, state = _agree(LATE_STORES, max_cycles=max_cycles)
    assert state["outcome"][0] == ("halt" if max_cycles >= 109 else "max_cycles")
    if max_cycles == 71:
        assert state["accesses"][1] == 0


#: a program that never halts, storing on every pass
STORE_LOOP = """
    li s0, 256
loop:
    sw a0, 0(s0)
    addi a0, a0, 1
    j loop
"""


def test_endless_store_loop_keeps_the_journal_bounded(monkeypatch):
    """An attempt cut by ``max_cycles`` after ten thousand stores undoes
    them from one page copy, no larger than the memory."""
    journals = []

    class Recording(StoreJournal):
        def __init__(self, memory):
            super().__init__(memory)
            journals.append(self)

    monkeypatch.setattr(pipeline, "StoreJournal", Recording)
    _, state = _agree(STORE_LOOP, max_cycles=30_000)
    assert state["outcome"][0] == "max_cycles"
    (journal,) = journals  # the cycle loop alone makes none
    assert [len(old) for _, old in journal.pages.values()] == [512]


@pytest.mark.parametrize("chunk", [1, 3, 7, 40])
@pytest.mark.parametrize("case", ["hot-loop", "folded-jump-as-last-word"])
def test_resumed_in_chunks_agrees(case, chunk):
    """A run stopped by ``max_cycles`` and resumed in chunks ends in the
    state of one uninterrupted run."""
    source = PINNED[case][1]
    _, chunked = _agree(source, max_cycles=chunk, chunk=chunk)
    _, whole = _agree(source)
    for state in (chunked, whole):
        del state["session"]  # one publish per call
    assert chunked == whole


@pytest.mark.parametrize("case", list(FAULT_SOURCES))
def test_faulting_programs_agree(case):
    """The attempt gives a fault to the cycle loop, which raises it with
    its own counters, PC and registers; nothing is published."""
    _, state = _agree(FAULT_SOURCES[case], max_cycles=1_000)
    assert state["outcome"][0] in ("MemoryError_", "DecodingError", "SimulationError")
    assert state["session"] == {}


def test_run_after_halt_agrees():
    program = assemble(PINNED["hot-loop"][1])
    states = []
    for cycle_loop in (False, True):
        with use_session() as session:
            cpu = PipelinedCPU(program, memory=FlatMemory(size=512))
            run = cpu._run_cycles if cycle_loop else cpu.run
            first, again = _call(run, 100_000), _call(run, 100_000)
            states.append((first, again, _state(cpu, None), dict(session.stats)))
    assert states[0] == states[1]
    assert states[0][1] == states[0][0] == ("halt", 32)


def _observe(runner, monkeypatch, cycle_loop):
    """``runner()``'s pins, plus the state and path of every pipeline run
    it makes and the session counters."""
    states, timed = [], []
    run = PipelinedCPU.run

    def recording(self, *args, **kwargs):
        result = run(self, *args, **kwargs)
        states.append(_state(self, (result.stop_reason, result.pc)))
        timed.append(not self._ops)
        return result

    with monkeypatch.context() as patch:
        patch.setattr(PipelinedCPU, "run", recording)
        if cycle_loop:
            patch.setattr(PipelinedCPU, "_run_blocks", lambda self, max_cycles: None)
        with use_session() as session:
            pins = runner()
    return (pins, states, dict(session.stats)), timed


@pytest.mark.parametrize("case", sorted(RUNNERS))
def test_golden_workloads_agree(case, monkeypatch):
    """Every golden workload's pins and end states match; all but the
    forwarding-off and environment-op ones are block-timed."""
    timed, paths = _observe(RUNNERS[case], monkeypatch, cycle_loop=False)
    looped, _ = _observe(RUNNERS[case], monkeypatch, cycle_loop=True)
    assert timed == looped
    assert paths and all(paths) == (
        case not in ("dhrystone-3-no-forwarding", "custom-instructions"))


def test_eligible_run_builds_no_op():
    """A fresh, forwarding, untraced run on a ``FlatMemory`` never steps
    the cycle loop, so it decodes no ``_Op``."""
    with use_session():
        cpu = PipelinedCPU(assemble(dhrystone_asm(2)))
        assert cpu.run().stop_reason == "halt"
    assert cpu._ops == {}
    assert cpu.stats.cycles > cpu.stats.instructions + 4


def _cycle_loop_run(variant: str) -> PipelinedCPU:
    source = dhrystone_asm(1)
    kwargs = {}
    if variant == "no-forwarding":
        kwargs["forwarding"] = False
    elif variant == "sram-bank":
        kwargs["memory"] = SRAMBank("data", 1 << 20)
    elif variant == "env-op":
        source = "li a0, 3\nmv_neu 1, a0\nebreak"
    elif variant == "branch-to-next":
        source = PINNED["branch-to-next-in-loop"][1]
    cpu = PipelinedCPU(assemble(source), **kwargs)
    with use_session() as session:
        if variant == "traced":
            install_tracer(session)
        try:
            assert cpu.run().stop_reason == "halt"
        finally:
            uninstall_tracer(session)
    return cpu


@pytest.mark.parametrize("variant", ["traced", "no-forwarding", "sram-bank", "env-op",
                                     "branch-to-next"])
def test_other_runs_take_the_cycle_loop(variant, monkeypatch):
    """These runs go straight to the cycle loop, with no attempt."""
    def attempt(self, max_cycles):
        raise AssertionError("block-timed attempt")

    monkeypatch.setattr(PipelinedCPU, "_run_blocks", attempt)
    assert _cycle_loop_run(variant)._ops


def test_env_ops_are_the_custom_opcode():
    """``_block_timeable`` finds the environment ops by their opcode."""
    assert _ENV_OPS == {spec.name for spec in SPECS if spec.opcode == OPCODE_NCPU}


#: one-program sources and whether the word scan lets ``run()`` block-time them
SCANNED = {
    "beq-to-next": ("beq a0, a1, next\nnext:\nebreak", False),
    "bgeu-to-next": ("bgeu a0, a1, next\nnext:\nebreak", False),
    "beq-over-next": ("beq a0, a1, skip\nnop\nskip:\nebreak", True),
    "bne-to-itself": ("back:\nbne a0, a1, back\nebreak", True),
    "j-to-next": ("j next\nnext:\nebreak", True),
    "jalr-to-next": ("jal ra, next\nnext:\njalr x0, 4(ra)\nebreak", True),
    "lw_l2": ("lw_l2 a0, 0(s0)\nebreak", False),
    "sw_l2": ("sw_l2 a0, 0(s0)\nebreak", False),
    "mv_neu": ("mv_neu 1, a0\nebreak", False),
    "trigger_bnn": ("trigger_bnn 3\nebreak", False),
    "trans_bnn": ("trans_bnn 3", False),
}


@pytest.mark.parametrize("case", list(SCANNED))
def test_block_timeable_words(case):
    source, timeable = SCANNED[case]
    assert pipeline._block_timeable(assemble(source).words) == timeable
