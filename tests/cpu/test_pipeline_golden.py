"""Golden pins of the cycle-accurate pipeline on real workloads.

Every value below was recorded from the per-cycle model before a rewrite
of its loop for speed: the counters, stage occupancy, events and trace
digests before the first, the counters' key order and the first-fault
states before the second.  A change that moves one simulated cycle,
stall, flush, stage occupancy, retired-instruction count, key or event
stamp fails here, even when the architectural results still match the ISS.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.bnn import BNNModel, binarize_sign
from repro.cpu import CoreEnv, FlatMemory, FunctionalCPU, PipelinedCPU
from repro.isa import assemble
from repro.sim import use_session
from repro.trace import STAGES, install_tracer, uninstall_tracer
from repro.workloads import mibench
from repro.workloads.bnn_kernels import run_software_bnn
from repro.workloads.dhrystone import dhrystone_asm

#: a short program that reaches every CoreEnv hook the NCPU extension has,
#: behind a load-use stall on ``lw_l2`` and a taken branch
CUSTOM_SOURCE = """
    li a0, 7
    li t0, 64
    mv_neu 3, a0
    trigger_bnn 5
    sw_l2 a0, 0(t0)
    lw_l2 a1, 0(t0)
    addi a2, a1, 1
    beq a2, a2, done
    trigger_bnn 9
done:
    mv_neu 4, a2
    trigger_bnn 6
    trans_bnn 2
    ebreak
"""


def _digest(value) -> str:
    text = json.dumps(value, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _pin(stats, events=()) -> dict:
    exported = stats.as_dict()
    return {
        "scalars": [exported[name] for name in
                    ("cycles", "instructions", "stalls", "flushes",
                     "mem_reads", "mem_writes")],
        "stage_busy": [exported["stage_busy"].get(stage, 0)
                       for stage in STAGES],
        "events": [(event.name, event.cycle, event.pc, event.imm)
                   for event in events],
        "sha256": _digest(exported),
        # _digest sorts keys, so these pin the counters' key order, which
        # float sums over instr_counts (the Fig 11 power overhead) follow
        "instr_order": list(stats.instr_counts),
        "stage_order": list(stats.stage_busy),
    }


def _run_dhrystone(iterations: int, forwarding: bool) -> dict:
    cpu = PipelinedCPU(assemble(dhrystone_asm(iterations)),
                       forwarding=forwarding)
    result = cpu.run()
    assert result.stop_reason == "halt"
    return _pin(result.stats, result.env.events)


def _run_custom() -> dict:
    env = CoreEnv(l2=FlatMemory(size=256))
    cpu = PipelinedCPU(assemble(CUSTOM_SOURCE), env=env)
    result = cpu.run()
    assert result.stop_reason == "trans_bnn"
    assert env.transition_neurons[3:5] == [7, 8]
    return _pin(result.stats, env.events)


def _run_kernel(name: str) -> dict:
    result = mibench.run_kernel(name, seed=0)
    assert result.passed
    return _pin(result.stats)


def _run_software_bnn() -> dict:
    model = BNNModel.random([33, 20, 20, 5], np.random.default_rng(1))
    x = binarize_sign(np.random.default_rng(2).standard_normal(33))
    prediction, stats = run_software_bnn(model, x, "naive")
    assert prediction == model.predict(x)
    return _pin(stats)


RUNNERS = {
    "dhrystone-3": lambda: _run_dhrystone(3, forwarding=True),
    "dhrystone-3-no-forwarding": lambda: _run_dhrystone(3, forwarding=False),
    "custom-instructions": _run_custom,
    "software-bnn": _run_software_bnn,
    **{f"mibench-{name}": (lambda name=name: _run_kernel(name))
       for name in mibench.KERNEL_NAMES},
}

GOLDEN = {
    "custom-instructions": {
        "scalars": [18, 11, 1, 2, 1, 1],
        "stage_busy": [12, 11, 11, 11, 11],
        "events": [("trigger_bnn", 8, 12, 5), ("trigger_bnn", 17, 40, 6), ("trans_bnn", 18, 44, 2)],
        "sha256": "153fb5ae3a25de24ea6ab78a7bfb3f650d802fee1ba4b656887cea8995a1eb65",
        "instr_order": ["addi", "mv_neu", "trigger_bnn", "sw_l2", "lw_l2", "beq", "trans_bnn"],
        "stage_order": list(STAGES),
    },
    "dhrystone-3": {
        "scalars": [2178, 1620, 168, 386, 264, 145],
        "stage_busy": [1813, 1620, 1620, 1620, 1620],
        "events": [],
        "sha256": "f1a71528e7ce6d1b629982bff86c760604baf1cdafa471ce59a4af0bc4e22d67",
        "instr_order": ["lui", "addi", "slli", "add", "sw", "blt", "jal", "lw", "jalr", "andi",
                        "bne", "sub", "xor", "and", "or", "srai", "beq", "ebreak"],
        "stage_order": list(STAGES),
    },
    "dhrystone-3-no-forwarding": {
        "scalars": [3700, 1620, 1690, 386, 264, 145],
        "stage_busy": [1813, 1620, 1620, 1620, 1620],
        "events": [],
        "sha256": "8e9dcfb8954568f1062aebadaf2ec3b4a228b7487c7ae5322e67f2e5bc33c20e",
        "instr_order": ["lui", "addi", "slli", "add", "sw", "blt", "jal", "lw", "jalr", "andi",
                        "bne", "sub", "xor", "and", "or", "srai", "beq", "ebreak"],
        "stage_order": list(STAGES),
    },
    "mibench-bitcount": {
        "scalars": [1216, 1070, 48, 94, 48, 1],
        "stage_busy": [1117, 1070, 1070, 1070, 1070],
        "events": [],
        "sha256": "f2e395bd4e3c4407ce7448e1dd245390c8ec2860db714cf23e29ba3926180c92",
        "instr_order": ["lui", "addi", "slli", "add", "lw", "srli", "and", "sub", "andi", "blt",
                        "sw", "ebreak"],
        "stage_order": list(STAGES),
    },
    "mibench-crc32": {
        "scalars": [5321, 3729, 64, 1524, 64, 1],
        "stage_busy": [4491, 3729, 3729, 3729, 3729],
        "events": [],
        "sha256": "35d5510a3b110c6450c081898d79adce03c92efaa4f916fee3cb6555ef63a692",
        "instr_order": ["lui", "addi", "add", "lbu", "xor", "andi", "srli", "beq", "blt",
                        "xori", "sw", "ebreak"],
        "stage_order": list(STAGES),
    },
    "mibench-dijkstra": {
        "scalars": [3265, 2191, 332, 738, 342, 43],
        "stage_busy": [2560, 2191, 2191, 2191, 2191],
        "events": [],
        "sha256": "319454fdfe53b6beed36c5e50495416cf887b1b9456429e7a6907f29040054e6",
        "instr_order": ["lui", "addi", "slli", "add", "sw", "blt", "lw", "bne", "bge", "mul",
                        "beq", "ebreak"],
        "stage_order": list(STAGES),
    },
    "mibench-fir": {
        "scalars": [7363, 5993, 456, 910, 912, 57],
        "stage_busy": [6448, 5993, 5993, 5993, 5993],
        "events": [],
        "sha256": "f6b6eb26609611682549ff7714789d02c54ec236ea01d926fbc61bf5ab34b94b",
        "instr_order": ["lui", "addi", "add", "slli", "lw", "mul", "blt", "srai", "sw", "ebreak"],
        "stage_order": list(STAGES),
    },
    "mibench-fnv1a": {
        "scalars": [973, 683, 96, 190, 96, 1],
        "stage_busy": [778, 683, 683, 683, 683],
        "events": [],
        "sha256": "d32a2e7825125dffd68712847cc8138a939c28832b24946e5c3b23eb4a187b6c",
        "instr_order": ["lui", "addi", "add", "lbu", "xor", "mul", "blt", "sw", "ebreak"],
        "stage_order": list(STAGES),
    },
    "mibench-isqrt": {
        "scalars": [4256, 2990, 0, 1262, 24, 24],
        "stage_busy": [3621, 2990, 2990, 2990, 2990],
        "events": [],
        "sha256": "237cc5c0e914119f88d74b3eca2db9a9f4123f998425664881b46df69d895617",
        "instr_order": ["lui", "addi", "slli", "add", "lw", "beq", "srli", "bltu", "sub", "jal",
                        "sw", "blt", "ebreak"],
        "stage_order": list(STAGES),
    },
    "mibench-matmul": {
        "scalars": [10986, 9448, 512, 1022, 1024, 64],
        "stage_busy": [9959, 9448, 9448, 9448, 9448],
        "events": [],
        "sha256": "ca8f2c0bbb7b1c840c6e73fd867405e786b1d1e664a984a78769a7cef6e7aee3",
        "instr_order": ["lui", "addi", "mul", "add", "slli", "lw", "blt", "sw", "ebreak"],
        "stage_order": list(STAGES),
    },
    "mibench-quicksort": {
        "scalars": [5352, 4078, 232, 1038, 552, 454],
        "stage_busy": [4534, 4078, 4078, 4078, 4078],
        "events": [],
        "sha256": "94c4964da9ea2a6c8dc7d9b3091a19f58a4b19e0e43e5568ecb2f2f282de65c1",
        "instr_order": ["lui", "addi", "jal", "bge", "sw", "slli", "add", "lw", "jalr", "ebreak"],
        "stage_order": list(STAGES),
    },
    "mibench-sort": {
        "scalars": [3124, 2292, 252, 576, 283, 258],
        "stage_busy": [2580, 2292, 2292, 2292, 2292],
        "events": [],
        "sha256": "5b5fc5792d82ed1c5828f3f1dd4160c667eeca40a6e92f330c206a017a4db998",
        "instr_order": ["lui", "addi", "slli", "add", "lw", "blt", "bge", "sw", "jal", "ebreak"],
        "stage_order": list(STAGES),
    },
    "mibench-stringsearch": {
        "scalars": [794, 542, 54, 194, 108, 1],
        "stage_busy": [639, 542, 542, 542, 542],
        "events": [],
        "sha256": "220ad72aed007afb8b7e0eb2520cd64620386a85648f19741f87bb29ceaaa18f",
        "instr_order": ["lui", "addi", "add", "lbu", "bne", "blt", "jal", "sw", "ebreak"],
        "stage_order": list(STAGES),
    },
    "software-bnn": {
        "scalars": [15795, 12263, 1164, 2364, 2370, 46],
        "stage_busy": [13445, 12263, 12263, 12263, 12263],
        "events": [],
        "sha256": "6b001b778d2a9b444f7cdac424c843602ed027b724c10b2396dda99f16226783",
        "instr_order": ["lui", "addi", "slli", "add", "lw", "lb", "mul", "blt", "bge", "sw",
                        "ebreak"],
        "stage_order": list(STAGES),
    },
}


@pytest.mark.parametrize("case", sorted(RUNNERS))
def test_stats_and_events_match_golden(case):
    with use_session():
        assert RUNNERS[case]() == GOLDEN[case]


TRACE_GOLDEN = {
    "cycles": 1495,
    "records": 1495,
    "records_sha256": "825fe189d061311fac7c13863ab8cb022459ee3145412a61b3890b5c009d8955",
    "events": 1738,
    "events_sha256": "9a05fb7779861cc64e946592c9e98664c4648d08bda80d2ad577df1228ccc3ab",
}


def test_dhrystone_trace_and_tracer_events_match_golden():
    with use_session() as session:
        tracer = install_tracer(session, capacity=None)
        try:
            cpu = PipelinedCPU(assemble(dhrystone_asm(2)))
            result = cpu.run()
        finally:
            uninstall_tracer(session)
    assert result.stop_reason == "halt"
    # one [cycle, [PC per stage]] record per cycle, as the per-cycle
    # occupancy was recorded when these digests were taken
    records = [[event.ts + 1, [event.args[stage] for stage in STAGES]]
               for event in tracer.events if event.name == "cpu.cycle"]
    events = [event.to_dict() for event in tracer.events
              if event.name in ("cpu.cycle", "cpu.stall", "cpu.flush")]
    got = {
        "cycles": result.stats.cycles,
        "records": len(records),
        "records_sha256": _digest(records),
        "events": len(events),
        "events_sha256": _digest(events),
    }
    assert got == TRACE_GOLDEN


#: three programs that fault on a 512-byte data memory: a load outside it
#: (it faults in MEM, behind a load-use stall), an undecodable word that
#: reaches ID, and a loop whose last pass falls off the program's end
FAULT_SOURCES = {
    "load-outside-memory": """
        li a0, 2
        lui t0, 0x100
        addi a1, a0, 1
        lw a2, 0(t0)
        add a0, a2, a0
        ebreak
    """,
    "undecodable-word": """
        li a0, 1
        sw a0, 8(zero)
        addi a0, a0, 1
        .word 0xffffffff
        ebreak
    """,
    "fall-off-end": """
        li a0, 2
    loop:
        addi a1, a1, 5
        addi a0, a0, -1
        sw a1, 4(zero)
        bne a0, zero, loop
    """,
}


def _faulted_cpu(case: str, forwarding: bool):
    """A pipeline over ``FAULT_SOURCES[case]`` after its first raise, and
    what it raised."""
    cpu = PipelinedCPU(assemble(FAULT_SOURCES[case]),
                       memory=FlatMemory(size=512), forwarding=forwarding)
    with pytest.raises(Exception) as raised:
        cpu.run(1_000)
    return cpu, [type(raised.value).__name__, str(raised.value)]


FAULT_GOLDEN = {
    ("load-outside-memory", True): {
        "raised": ["MemoryError_", "address 0x100000 outside memory [0x0, 0x200)"],
        "scalars": [7, 3, 1, 0, 0, 0],
        "instr_counts": [["addi", 2], ["lui", 1]],
        "stage_busy": [["IF", 5], ["ID", 4], ["EX", 4], ["MEM", 4], ["WB", 3]],
        "pc": 20,
        "regs": {5: 0x100000, 10: 2, 11: 3},
    },
    ("load-outside-memory", False): {
        "raised": ["MemoryError_", "address 0x100000 outside memory [0x0, 0x200)"],
        "scalars": [8, 3, 2, 0, 0, 0],
        "instr_counts": [["addi", 2], ["lui", 1]],
        "stage_busy": [["IF", 5], ["ID", 4], ["EX", 4], ["MEM", 4], ["WB", 3]],
        "pc": 20,
        "regs": {5: 0x100000, 10: 2, 11: 3},
    },
    ("undecodable-word", True): {
        "raised": ["DecodingError", "cannot decode word 0xffffffff"],
        "scalars": [5, 1, 0, 0, 0, 1],
        "instr_counts": [["addi", 1]],
        "stage_busy": [["IF", 4], ["ID", 3], ["EX", 3], ["MEM", 2], ["WB", 1]],
        "pc": 16,
        "regs": {10: 1},
    },
    ("undecodable-word", False): {
        "raised": ["DecodingError", "cannot decode word 0xffffffff"],
        "scalars": [7, 1, 2, 0, 0, 1],
        "instr_counts": [["addi", 1]],
        "stage_busy": [["IF", 4], ["ID", 3], ["EX", 3], ["MEM", 2], ["WB", 1]],
        "pc": 16,
        "regs": {10: 1},
    },
    ("fall-off-end", True): {
        "raised": ["SimulationError",
                   "instruction fetch outside program: address 0x14 outside program [0x0, 0x14)"],
        "scalars": [15, 9, 0, 2, 0, 2],
        "instr_counts": [["addi", 5], ["sw", 2], ["bne", 2]],
        "stage_busy": [["IF", 9], ["ID", 9], ["EX", 9], ["MEM", 9], ["WB", 9]],
        "pc": 20,
        "regs": {11: 10},
    },
    ("fall-off-end", False): {
        "raised": ["SimulationError",
                   "instruction fetch outside program: address 0x14 outside program [0x0, 0x14)"],
        "scalars": [18, 9, 3, 2, 0, 2],
        "instr_counts": [["addi", 5], ["sw", 2], ["bne", 2]],
        "stage_busy": [["IF", 9], ["ID", 9], ["EX", 9], ["MEM", 9], ["WB", 9]],
        "pc": 20,
        "regs": {11: 10},
    },
}


@pytest.mark.parametrize("forwarding", [True, False], ids=["forwarding", "no-forwarding"])
@pytest.mark.parametrize("case", list(FAULT_SOURCES))
def test_first_fault_state_matches_golden(case, forwarding):
    """What a run that faults leaves behind at its first raise: the
    exception, the counters in their key order, the PC and registers."""
    with use_session():
        cpu, raised = _faulted_cpu(case, forwarding)
    stats = cpu.stats
    got = {
        "raised": raised,
        "scalars": list(stats.scalars().values()),
        "instr_counts": [list(item) for item in stats.instr_counts.items()],
        "stage_busy": [list(item) for item in stats.stage_busy.items()],
        "pc": cpu.pc,
        "regs": {index: value for index, value in enumerate(cpu.regs.snapshot()) if value},
    }
    assert got == FAULT_GOLDEN[case, forwarding]


@pytest.mark.parametrize("forwarding", [True, False], ids=["forwarding", "no-forwarding"])
@pytest.mark.parametrize("case", list(FAULT_SOURCES))
def test_run_after_fault_retires_nothing_twice(case, forwarding):
    """Every later ``run()`` raises the first fault again, retiring and
    executing nothing twice: once the instructions older than the fault
    have drained, the pipeline holds the ISS's state at its fault."""
    with use_session():
        cpu, raised = _faulted_cpu(case, forwarding)
        for _ in range(5):
            with pytest.raises(Exception) as again:
                cpu.run(1_000)
            assert [type(again.value).__name__, str(again.value)] == raised
        iss = FunctionalCPU(cpu.program, memory=FlatMemory(size=512))
        with pytest.raises(Exception) as iss_raised:
            iss.run(1_000)
    assert type(iss_raised.value).__name__ == raised[0]
    assert cpu.stats.instructions == iss.stats.instructions
    assert cpu.stats.instr_counts == iss.stats.instr_counts
    assert cpu.regs.snapshot() == iss.regs.snapshot()
    assert cpu.memory.read_words(0, 128) == iss.memory.read_words(0, 128)
