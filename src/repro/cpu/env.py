"""Core environment shared by the CPU simulators.

The NCPU custom instructions interact with machinery outside the pipeline:
transition neurons (``mv_neu``), the mode controller (``trans_bnn``), a
separate accelerator core (``trigger_bnn``), and the global L2 memory
(``sw_l2``/``lw_l2``).  :class:`CoreEnv` is the small bag of hooks both the
functional ISS and the cycle-accurate pipeline use to reach them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import List, Optional

from repro.cpu.memory import DataMemory
from repro.sim import get_session

#: number of transition neuron cells per core (one per neural layer group,
#: sized generously; the rd field addresses up to 32)
NUM_TRANSITION_NEURONS = 32


@dataclass
class CoreEvent:
    """A custom-instruction side effect observed during execution."""

    name: str
    cycle: int
    pc: int
    imm: int = 0

    def __str__(self) -> str:
        return f"{self.name}@cycle={self.cycle} pc={self.pc:#x} imm={self.imm}"


class CoreEnv:
    """Hooks from the CPU core out to the rest of the NCPU system."""

    def __init__(self, l2: Optional[DataMemory] = None):
        self.l2 = l2
        self.transition_neurons: List[int] = [0] * NUM_TRANSITION_NEURONS
        self.events: List[CoreEvent] = []
        self.l2_reads = 0
        self.l2_writes = 0

    def record(self, name: str, cycle: int, pc: int, imm: int = 0) -> None:
        self.events.append(CoreEvent(name=name, cycle=cycle, pc=pc, imm=imm))

    def write_transition_neuron(self, index: int, value: int) -> None:
        self.transition_neurons[index % NUM_TRANSITION_NEURONS] = value & 0xFFFFFFFF

    def l2_memory(self) -> DataMemory:
        if self.l2 is None:
            raise RuntimeError(
                "sw_l2/lw_l2 executed but no L2 memory is attached to this core"
            )
        return self.l2

    def events_named(self, name: str) -> List[CoreEvent]:
        return [e for e in self.events if e.name == name]


#: the scalar ExecStats fields counted into the session's ``stats``
SCALAR_STATS = ("cycles", "instructions", "stalls", "flushes",
                "mem_reads", "mem_writes")


@dataclass
class ExecStats:
    """Execution statistics common to both simulators."""

    cycles: int = 0
    instructions: int = 0
    stalls: int = 0
    flushes: int = 0
    mem_reads: int = 0
    mem_writes: int = 0
    instr_counts: Counter = field(default_factory=Counter)
    stage_busy: Counter = field(default_factory=Counter)

    def scalars(self) -> dict:
        """The plain counter fields as a dict (counters/JSON export)."""
        return {name: getattr(self, name) for name in SCALAR_STATS}

    def delta(self, before: dict) -> dict:
        """Scalar growth since a :meth:`scalars` snapshot."""
        return {name: getattr(self, name) - before.get(name, 0)
                for name in SCALAR_STATS}

    def as_dict(self) -> dict:
        """Full structured export (JSON-ready)."""
        exported = self.scalars()
        exported["ipc"] = self.ipc
        exported["instr_counts"] = dict(self.instr_counts)
        exported["stage_busy"] = dict(self.stage_busy)
        return exported

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0

    def merge(self, other: "ExecStats") -> "ExecStats":
        merged = ExecStats(
            cycles=self.cycles + other.cycles,
            instructions=self.instructions + other.instructions,
            stalls=self.stalls + other.stalls,
            flushes=self.flushes + other.flushes,
            mem_reads=self.mem_reads + other.mem_reads,
            mem_writes=self.mem_writes + other.mem_writes,
        )
        merged.instr_counts = self.instr_counts + other.instr_counts
        merged.stage_busy = self.stage_busy + other.stage_busy
        return merged


def publish_run(simulator: str, stop_reason: str, delta: dict) -> None:
    """Publish one run of a CPU simulator to the session.

    Adds ``cpu.<simulator>.runs`` and each non-zero field of ``delta``
    (the run's :meth:`ExecStats.delta`) to ``session.stats``, then, with a
    tracer installed, records the run's ``cpu.run`` instant.
    """
    session = get_session()
    counters = session.stats
    prefix = f"cpu.{simulator}."
    counters[prefix + "runs"] += 1
    for name, amount in delta.items():
        if amount:
            counters[prefix + name] += amount
    if session.tracer is not None:
        session.tracer.cpu_run(simulator, stop_reason, delta)


@dataclass
class RunResult:
    """Outcome of a simulator run."""

    stats: ExecStats
    stop_reason: str  # 'halt' | 'trans_bnn' | 'max_cycles'
    pc: int  # resume PC (instruction after the stopping instruction)
    env: CoreEnv

    @property
    def halted(self) -> bool:
        return self.stop_reason == "halt"
