"""Cycle-cost model for running BNN inference *in software* on the RV32I CPU.

Table 1 of the paper compares a standalone CPU doing BNN inference in
software against the accelerator.  This module provides analytic cycle
estimates for two software implementations:

* ``naive``  — int8 weights, scalar multiply-accumulate loop (what a simple
  C compiler emits; the paper's standalone-CPU baseline),
* ``packed`` — bit-packed weights with XNOR + SWAR popcount (an optimized
  hand-written kernel).

The constants are *measured* from the actual generated assembly kernels in
:mod:`repro.workloads.bnn_kernels` running on the cycle-accurate pipeline —
the unit tests cross-validate the model against the simulator, so these are
not free parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bnn.model import BNNModel

# Per-element costs measured on the 5-stage pipeline by least-squares over
# the generated kernels of five model shapes (see
# tests/workloads/test_bnn_kernels.py, which asserts the analytic model
# tracks the simulator within a tight tolerance).
NAIVE_CYCLES_PER_MAC = 13.0  # lb weight, lw act, mul, accumulate, loop
NAIVE_CYCLES_PER_NEURON = 14.8  # bias load, sign, store activation
PACKED_CYCLES_PER_WORD = 32.9  # lw x2, xnor, SWAR popcount, accumulate, loop
PACKED_CYCLES_PER_NEURON = 23.6
FIXED_OVERHEAD_CYCLES = 66.0  # setup/argmax


@dataclass(frozen=True)
class SoftwareBNNEstimate:
    """Estimated cycles for one software inference."""

    cycles: int
    implementation: str
    macs: int

    def speedup_vs(self, accelerator_cycles: int) -> float:
        return self.cycles / accelerator_cycles


def naive_inference_cycles(model: BNNModel) -> SoftwareBNNEstimate:
    """Scalar int8 MAC loop (the unoptimized CPU baseline)."""
    cycles = FIXED_OVERHEAD_CYCLES
    for layer in model.layers:
        cycles += layer.macs * NAIVE_CYCLES_PER_MAC
        cycles += layer.fan_out * NAIVE_CYCLES_PER_NEURON
    return SoftwareBNNEstimate(cycles=int(round(cycles)), implementation="naive",
                               macs=model.total_macs)


def packed_inference_cycles(model: BNNModel) -> SoftwareBNNEstimate:
    """Bit-packed XNOR/popcount kernel (optimized software)."""
    cycles = FIXED_OVERHEAD_CYCLES
    for layer in model.layers:
        words_per_neuron = (layer.fan_in + 31) // 32
        cycles += layer.fan_out * words_per_neuron * PACKED_CYCLES_PER_WORD
        cycles += layer.fan_out * PACKED_CYCLES_PER_NEURON
    return SoftwareBNNEstimate(cycles=int(cycles), implementation="packed",
                               macs=model.total_macs)
