"""Cycle-level model of the BNN accelerator (paper Fig 2).

The fabricated accelerator is a 4-deep pipeline of neuron layers with
``neurons_per_layer`` XNOR neurons each (100 on the chip).  Every cycle, one
input value is broadcast to all neurons of a layer, so a layer's compute time
is its fan-in (plus a small fixed overhead for bias add / sign / handoff).
Layers are pipelined: while layer 2 digests image *i*, layer 1 can start
image *i+1*, giving a steady-state interval equal to the slowest layer.

Deeper logical networks wrap back to the first physical layer (paper
section IV.A), which forfeits cross-image pipelining.

Weight residency follows section V.A: layer-1 weights stay resident in a
local SRAM bank; the remaining layers stream from global L2 via DMA, and the
zero-latency transition scheme overlaps that streaming with inference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.bnn.model import BNNModel
from repro.engine import resolve_engine
from repro.errors import ConfigurationError
from repro.sim import get_session

#: fixed per-layer pipeline overhead (bias add, sign, output handoff)
LAYER_OVERHEAD_CYCLES = 4


@dataclass(frozen=True)
class AcceleratorConfig:
    """Physical parameters of the accelerator array."""

    neurons_per_layer: int = 100
    n_physical_layers: int = 4
    #: DMA bandwidth for weight streaming, 32-bit words per core cycle
    dma_words_per_cycle: float = 0.5
    #: number of layers whose weights stay resident in local SRAM
    resident_layers: int = 1

    def __post_init__(self):
        if self.neurons_per_layer <= 0 or self.n_physical_layers <= 0:
            raise ConfigurationError("array dimensions must be positive")
        if self.dma_words_per_cycle <= 0:
            raise ConfigurationError("DMA bandwidth must be positive")

    @property
    def peak_macs_per_cycle(self) -> int:
        """All physical neurons firing at once (paper's TOPS accounting)."""
        return self.neurons_per_layer * self.n_physical_layers


@dataclass
class InferenceResult:
    """Functional + timing outcome of classifying one input."""

    prediction: int
    scores: np.ndarray
    cycles: int
    macs: int
    layer_cycles: List[int]


@dataclass
class BatchTiming:
    """Timing of a pipelined batch of inferences."""

    n_inputs: int
    latency_cycles: int  # first result
    total_cycles: int  # last result
    interval_cycles: int
    macs: int
    weight_stream_cycles: int

    @property
    def cycles_per_inference(self) -> float:
        return self.total_cycles / self.n_inputs if self.n_inputs else 0.0


class BNNAccelerator:
    """Executes a :class:`BNNModel` with the chip's timing behaviour."""

    def __init__(self, config: Optional[AcceleratorConfig] = None):
        self.config = config if config is not None else AcceleratorConfig()

    # -- structural checks ----------------------------------------------
    def check_model(self, model: BNNModel) -> None:
        too_wide = max(layer.fan_out for layer in model.layers)
        if too_wide > self.config.neurons_per_layer:
            raise ConfigurationError(
                f"model layer width {too_wide} exceeds the array's "
                f"{self.config.neurons_per_layer} neurons per layer"
            )

    def wraps(self, model: BNNModel) -> bool:
        """True when the logical depth exceeds the physical pipeline."""
        return model.n_layers > self.config.n_physical_layers

    # -- timing ----------------------------------------------------------
    def layer_cycles(self, model: BNNModel) -> List[int]:
        """Per-layer compute time: one broadcast input per cycle."""
        return [layer.fan_in + LAYER_OVERHEAD_CYCLES for layer in model.layers]

    def layer_macs(self, model: BNNModel) -> List[int]:
        """Per-layer MAC counts (one XNOR-popcount step == one MAC)."""
        return [layer.fan_in * layer.fan_out for layer in model.layers]

    def latency_cycles(self, model: BNNModel) -> int:
        """Cycles from input available to classification committed."""
        return sum(self.layer_cycles(model))

    def interval_cycles(self, model: BNNModel) -> int:
        """Steady-state cycles between results for back-to-back inputs."""
        if self.wraps(model):
            return self.latency_cycles(model)  # wrapping blocks pipelining
        return max(self.layer_cycles(model))

    def weight_stream_cycles(self, model: BNNModel) -> int:
        """DMA cycles to stream the non-resident layers' weights from L2."""
        streamed = model.layers[self.config.resident_layers:]
        words = sum(layer.weight_bytes // 4 for layer in streamed)
        return int(np.ceil(words / self.config.dma_words_per_cycle))

    def batch_timing(self, model: BNNModel, n_inputs: int,
                     stream_weights: bool = True) -> BatchTiming:
        """Timing for classifying ``n_inputs`` back-to-back.

        With the zero-latency transition scheme the weight streaming overlaps
        inference (layer-1 weights are resident so image 1 can start
        immediately); the batch therefore takes
        ``max(compute, weight streaming)`` rather than their sum.
        """
        self.check_model(model)
        if n_inputs <= 0:
            raise ConfigurationError("batch size must be positive")
        latency = self.latency_cycles(model)
        interval = self.interval_cycles(model)
        compute = latency + (n_inputs - 1) * interval
        stream = self.weight_stream_cycles(model) if stream_weights else 0
        total = max(compute, stream)
        timing = BatchTiming(
            n_inputs=n_inputs,
            latency_cycles=latency,
            total_cycles=total,
            interval_cycles=interval,
            macs=model.total_macs * n_inputs,
            weight_stream_cycles=stream,
        )
        session = get_session()
        counters = session.stats
        counters["bnn.batches"] += 1
        counters["bnn.inferences"] += n_inputs
        counters["bnn.cycles"] += total
        counters["bnn.macs"] += timing.macs
        if stream:
            counters["bnn.weight_stream_cycles"] += stream
        if session.tracer is not None:
            session.tracer.bnn_batch(timing, self.layer_cycles(model),
                                     self.layer_macs(model))
        return timing

    # -- functional execution --------------------------------------------
    def infer(self, model: BNNModel, x_sign: np.ndarray) -> InferenceResult:
        """Classify one sign-domain input with full timing accounting."""
        self.check_model(model)
        scores = model.scores(x_sign)
        result = InferenceResult(
            prediction=int(np.argmax(scores)),
            scores=scores,
            cycles=self.latency_cycles(model),
            macs=model.total_macs,
            layer_cycles=self.layer_cycles(model),
        )
        session = get_session()
        counters = session.stats
        counters["bnn.inferences"] += 1
        counters["bnn.cycles"] += result.cycles
        counters["bnn.macs"] += result.macs
        if session.tracer is not None:
            session.tracer.bnn_infer(result, self.layer_macs(model))
        return result

    def infer_batch(self, model: BNNModel, x_signs: Sequence[np.ndarray],
                    stream_weights: bool = True,
                    engine: Optional[str] = None):
        """Classify a batch; returns ``(predictions, BatchTiming)``.

        ``engine`` selects the functional kernel: an engine name
        (``accurate`` or ``fast``) or engine object; ``None`` follows
        the session's ``SimConfig.engine``.  Every engine classifies
        identically, and the timing/trace accounting (``bnn.batch``,
        cycle/MAC counters) is engine-independent — the fast engines
        change how long the *simulation* takes, never what it reports.
        """
        predictions = resolve_engine(engine).predict(model,
                                                     np.asarray(x_signs))
        timing = self.batch_timing(model, len(x_signs),
                                   stream_weights=stream_weights)
        return predictions, timing

    # -- throughput metrics ----------------------------------------------
    def effective_macs_per_cycle(self, model: BNNModel, n_inputs: int = 100) -> float:
        timing = self.batch_timing(model, n_inputs, stream_weights=False)
        return timing.macs / timing.total_cycles

    def peak_ops_per_cycle(self) -> int:
        """Peak binary ops/cycle; the paper counts one MAC as one op."""
        return self.config.peak_macs_per_cycle
