"""CPU simulators: functional golden model and cycle-accurate 5-stage pipeline."""

from repro.cpu.env import CoreEnv, CoreEvent, ExecStats, RunResult
from repro.cpu.fastpath import FastCPU
from repro.cpu.functional import FunctionalCPU, run_functional
from repro.cpu.memory import DataMemory, FlatMemory
from repro.cpu.pipeline import PipelinedCPU, run_pipelined
from repro.cpu.semantics import compile_ex
from repro.cpu.state import RegisterFile

__all__ = [
    "CoreEnv",
    "CoreEvent",
    "ExecStats",
    "RunResult",
    "FastCPU",
    "FunctionalCPU",
    "run_functional",
    "PipelinedCPU",
    "run_pipelined",
    "DataMemory",
    "FlatMemory",
    "RegisterFile",
    "compile_ex",
]
