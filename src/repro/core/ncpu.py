"""The reconfigurable NCPU core (paper sections IV-V).

One :class:`NCPUCore` owns the banked SRAM (:class:`repro.mem.NCPUMemory`),
a core environment (transition neurons, L2 hooks), a local cycle clock, and
a :class:`~repro.core.events.Timeline`.  It can:

* run RV32I programs on the cycle-accurate 5-stage pipeline against the
  reused SRAM banks (CPU mode),
* flip into BNN mode when a program executes ``trans_bnn`` (or explicitly),
  classify the bit-packed inputs sitting in the image memory, and write the
  winning classes into the output memory,
* flip back and keep executing — data stays local the whole time, which is
  the paper's core end-to-end argument.

This is the *functional fidelity* path: real instructions against real
banks, real XNOR/popcount inference from the banks' contents.  The
multi-core latency experiments use the faster phase-level scheduler in
:mod:`repro.core.scheduler`, calibrated by cycle counts measured here.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.bnn import quantize as q
from repro.bnn.accelerator import AcceleratorConfig, BNNAccelerator
from repro.bnn.model import BNNModel
from repro.core import events
from repro.core.transition import (
    TN_BATCH,
    TN_INPUT_SIZE,
    TN_LAYERS,
    TransitionPolicy,
)
from repro.cpu import CoreEnv, PipelinedCPU, RunResult
from repro.cpu.memory import DataMemory
from repro.engine import resolve_engine
from repro.errors import ConfigurationError, SimulationError
from repro.isa import Program
from repro.mem.memory_map import CoreMode, NCPUMemory
from repro.sim import get_session


class NCPUCore:
    """One reconfigurable Neural CPU core."""

    def __init__(
        self,
        name: str = "ncpu0",
        l2: Optional[DataMemory] = None,
        accelerator_config: Optional[AcceleratorConfig] = None,
        transition_policy: Optional[TransitionPolicy] = None,
        engine=None,
    ):
        self.name = name
        self.memory = NCPUMemory()
        self.env = CoreEnv(l2=l2)
        self.accelerator = BNNAccelerator(accelerator_config)
        self.policy = transition_policy if transition_policy is not None \
            else TransitionPolicy()
        self.timeline = events.Timeline()
        self.clock = 0
        self.model: Optional[BNNModel] = None
        self.registers = None  # regfile of the most recent CPU-mode run
        self._weight_stream_pending = 0
        #: pinned engine (name or object); None tracks the session config
        self._engine = resolve_engine(engine) if engine is not None else None

    # ------------------------------------------------------------------
    @property
    def engine(self):
        """The resolved execution engine driving this core's BNN mode.

        Pinned at construction when ``engine=`` was given; otherwise the
        session scenario's engine is resolved on each access, so a core
        built before a session on another engine is installed still
        honours it.
        """
        return self._engine if self._engine is not None else resolve_engine()

    @property
    def mode(self) -> CoreMode:
        return self.memory.mode

    def _advance(self, cycles: int, kind: str, label: str = "") -> None:
        if cycles < 0:
            raise ConfigurationError("cannot advance the clock backwards")
        if cycles:
            self.timeline.add(self.name, kind, self.clock, self.clock + cycles,
                              label)
            self.clock += cycles

    def idle(self, cycles: int) -> None:
        """Model waiting (e.g. for a sensor) as explicit idle time."""
        self._advance(cycles, events.IDLE)

    # -- model management ------------------------------------------------
    def load_model(self, model: BNNModel) -> None:
        """Place a BNN's weights/biases into the local banks.

        The non-resident layers' DMA streaming cost is remembered and
        charged (or hidden) at the next mode switch per the zero-latency
        policy.
        """
        self.accelerator.check_model(model)
        self.memory.load_model(model)
        self.model = model
        self._weight_stream_pending = self.accelerator.weight_stream_cycles(model)

    # -- CPU mode ----------------------------------------------------------
    def run_cpu_program(self, program: Program,
                        max_cycles: int = 50_000_000,
                        label: str = "") -> RunResult:
        """Execute a program on the pipeline against the banked data cache.

        If the program executes ``trans_bnn``, the core switches to BNN mode
        (charging the transition cost) and the result's ``stop_reason``
        says so; the caller then typically calls :meth:`run_bnn`.
        """
        if self.mode is not CoreMode.CPU:
            raise SimulationError(f"{self.name} is in BNN mode; switch first")
        # CPU mode always runs the cycle-accurate pipeline: the core's
        # clock and timeline are the timing oracle the experiments (and
        # the fast-path calibration) are pinned against, so the engine
        # seam only swaps the BNN inference math, never CPU-mode timing.
        cpu = PipelinedCPU(program, memory=self.memory.data_memory(),
                           env=self.env)
        result = cpu.run(max_cycles=max_cycles)
        self.registers = cpu.regs  # architectural state of the last run
        self._advance(result.stats.cycles, events.CPU, label or "program")
        if result.stop_reason == "trans_bnn":
            self._switch_to_bnn()
        return result

    def _switch_to_bnn(self) -> None:
        cost = self.policy.to_bnn_cycles(
            0 if self.policy.hides_weight_stream() else self._weight_stream_pending
        )
        self._advance(cost, events.SWITCH, "trans_bnn")
        self.memory.set_mode(CoreMode.BNN)
        tracer = get_session().tracer
        if tracer is not None:
            tracer.mode_switch(self.name, "bnn", self.clock, cost)

    def switch_to_cpu(self) -> None:
        if self.mode is CoreMode.CPU:
            return
        cost = self.policy.to_cpu_cycles()
        self._advance(cost, events.SWITCH, "trans_cpu")
        self.memory.set_mode(CoreMode.CPU)
        tracer = get_session().tracer
        if tracer is not None:
            tracer.mode_switch(self.name, "cpu", self.clock, cost)

    def switch_to_bnn(self) -> None:
        """Explicit switch (normally driven by the trans_bnn instruction)."""
        if self.mode is CoreMode.BNN:
            return
        self._switch_to_bnn()

    # -- BNN mode ----------------------------------------------------------
    def _read_packed_inputs(self, n_inputs: int, input_bits: int) -> np.ndarray:
        bank = self.memory.banks["image"]
        words_per_input = (input_bits + 31) // 32
        needed = 4 * words_per_input * n_inputs
        if needed > bank.size:
            raise ConfigurationError(
                f"{n_inputs} x {input_bits}-bit inputs exceed the image memory"
            )
        inputs = []
        for index in range(n_inputs):
            base = bank.base + 4 * words_per_input * index
            words = np.array(bank.read_words(base, words_per_input),
                             dtype=np.uint32)
            inputs.append(q.bits_to_sign(q.unpack_bits(words, input_bits)))
        return np.array(inputs)

    def run_bnn(self, n_inputs: Optional[int] = None) -> List[int]:
        """Classify the packed inputs in the image memory (BNN mode).

        The batch size and input size come from the transition neurons when
        set (``mv_neu``), mirroring how the chip's CPU-mode code configures
        the following BNN run; explicit arguments override.
        """
        if self.mode is not CoreMode.BNN:
            raise SimulationError(f"{self.name} is in CPU mode; switch first")
        if self.model is None:
            raise SimulationError("no BNN model loaded")
        # smaller networks are configured through the ISA (transition
        # neuron 2 limits the active layer count, paper section VIII.A)
        active_layers = self.env.transition_neurons[TN_LAYERS]
        model = (self.model.truncated(active_layers)
                 if 0 < active_layers < self.model.n_layers else self.model)
        input_bits = self.env.transition_neurons[TN_INPUT_SIZE] \
            or model.input_size
        if input_bits != model.input_size:
            raise ConfigurationError(
                f"transition neuron input size {input_bits} does not match "
                f"the loaded model ({model.input_size})"
            )
        if n_inputs is None:
            n_inputs = self.env.transition_neurons[TN_BATCH] or 1

        x_signs = self._read_packed_inputs(n_inputs, input_bits)
        # engine-aware: the resolved engine's BNN half does the math (the
        # fast engine swaps in its row-blocked GEMM kernel); predictions
        # are identical either way, only host speed changes
        predictions = self.engine.predict(model, x_signs)
        timing = self.accelerator.batch_timing(
            model, n_inputs,
            stream_weights=self.policy.hides_weight_stream()
            and self._weight_stream_pending > 0,
        )
        self._weight_stream_pending = 0
        self._advance(timing.total_cycles, events.BNN,
                      f"infer x{n_inputs}")
        for index, prediction in enumerate(predictions):
            self.memory.write_result(index, int(prediction))
        return [int(p) for p in predictions]

    def read_results(self, count: int) -> List[int]:
        return [self.memory.read_result(i) for i in range(count)]

    # -- accounting ---------------------------------------------------------
    def utilization(self) -> float:
        return self.timeline.utilization(self.name)
