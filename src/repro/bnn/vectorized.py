"""Whole-batch GEMM BNN kernels (the ``fast`` engine's BNN half).

The scalar path (:meth:`BNNModel.scores`) evaluates one image at a time
with int32 matmuls.  This module pushes the *entire* batch through each
layer as one float32 matmul per layer, so BLAS does the heavy lifting.

With ±1 weights ``W`` and sign inputs written as ``x = 2a − 1`` for
``a ∈ {0,1}``, the pre-activation collapses to
``W·x + b = 2·(a @ Wᵀ) − rowsum(W) + b``, and thresholding at zero
becomes ``a @ Wᵀ ≥ (rowsum(W) − b) / 2``.  Every partial sum is an
integer with magnitude ≤ fan_in, and float32 represents integers exactly
up to 2**24, so the matmul is exact whenever
``fan_in < GEMM_MAX_FAN_IN`` (the thresholds are half-integers, which
float32 also represents exactly at these magnitudes).  A model with a
wider layer scores through the oracle's whole-batch int32 matmul
(:meth:`BNNModel.scores_batch`, :meth:`BNNModel.hidden_forward_batch`)
instead, which stays exact while every fan-in is below 2**31.

Either way the result is bit-identical to the scalar path — the
differential suites pin scores, predictions and hidden activations
against both engines.  :class:`repro.engine.FastEngine` calls the three
``vectorized_*`` functions below.  See ``docs/KERNELS.md`` for the
kernel and decision tables (lint-checked by ``tools/check_docs.py``).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import List

import numpy as np

from repro.bnn import quantize as q
from repro.bnn.model import BNNModel
from repro.errors import ConfigurationError

#: largest fan-in for which the float32 GEMM kernel is exact: every
#: partial sum is an integer of magnitude < 2**24 (float32's exact
#: integer range), with headroom for the half-integer thresholds
GEMM_MAX_FAN_IN = 1 << 23


@dataclass(frozen=True)
class _GemmLayer:
    """One layer lowered for the float32 GEMM kernel."""

    weights_t: np.ndarray  # (fan_in, fan_out) float32, ±1, C-contiguous
    weight_sums: np.ndarray  # (fan_out,) float32 — row sums of W
    bias: np.ndarray  # (fan_out,) float32
    thresholds: np.ndarray  # (fan_out,) float32 — (sums − bias) / 2


class VectorizedModel:
    """A :class:`BNNModel` lowered for the whole-batch GEMM kernel.

    ``exact`` is False when a layer is too wide for float32 to hold its
    partial sums exactly; such a model gets no GEMM lowering and scores
    through the model's own int32 batch matmul.
    """

    def __init__(self, model: BNNModel):
        self.exact = max(layer.fan_in
                         for layer in model.layers) < GEMM_MAX_FAN_IN
        layers: List[_GemmLayer] = []
        for layer in model.layers if self.exact else ():
            weights = layer.weights.astype(np.float32)
            sums = weights.sum(axis=1, dtype=np.float32)
            bias = layer.bias.astype(np.float32)
            layers.append(_GemmLayer(
                weights_t=np.ascontiguousarray(weights.T),
                weight_sums=sums,
                bias=bias,
                thresholds=(sums - bias) / np.float32(2.0),
            ))
        self.gemm_layers = layers

    def _gemm_bits(self, x01: np.ndarray, layers: List[_GemmLayer]
                   ) -> np.ndarray:
        for layer in layers:
            x01 = (x01 @ layer.weights_t >= layer.thresholds).astype(
                np.float32)
        return x01

    def gemm_scores(self, x01: np.ndarray) -> np.ndarray:
        bits = self._gemm_bits(x01, self.gemm_layers[:-1])
        last = self.gemm_layers[-1]
        pre = np.float32(2.0) * (bits @ last.weights_t)
        # exact: every term is an integer within float32's exact range
        return (pre - last.weight_sums + last.bias).astype(np.int32)

    def gemm_hidden(self, x01: np.ndarray) -> np.ndarray:
        bits = self._gemm_bits(x01, self.gemm_layers)
        return q.bits_to_sign(bits.astype(np.uint8))


#: lowered-model cache: lowering is O(weights) and models are immutable
#: in practice, so one lowering per live model instance is kept (weakly
#: — dropping the model drops its lowering)
_VECTORIZED_CACHE: "weakref.WeakKeyDictionary[BNNModel, VectorizedModel]" = \
    weakref.WeakKeyDictionary()


def vectorized_model(model: BNNModel) -> VectorizedModel:
    """The (cached) :class:`VectorizedModel` lowering of ``model``."""
    lowered = _VECTORIZED_CACHE.get(model)
    if lowered is None:
        lowered = VectorizedModel(model)
        _VECTORIZED_CACHE[model] = lowered
    return lowered


def _as_sign_batch(model: BNNModel, x_signs: np.ndarray) -> np.ndarray:
    """Validate a ``(batch, input_size)`` sign batch against ``model``."""
    x = q.check_sign_domain(np.atleast_2d(np.asarray(x_signs)))
    if x.ndim != 2:
        raise ConfigurationError("batched input must be (batch, input_size)")
    if x.shape[1] != model.input_size:
        raise ConfigurationError(
            f"input size {x.shape[1]} != model input {model.input_size}")
    return x


def vectorized_scores(model: BNNModel, x_signs: np.ndarray) -> np.ndarray:
    """Integer class scores ``(batch, n_classes)``, bit-identical to the
    scalar path (``np.stack([model.scores(x) for x in x_signs])``)."""
    x = _as_sign_batch(model, x_signs)
    lowered = vectorized_model(model)
    if not lowered.exact:
        return model.scores_batch(x)
    return lowered.gemm_scores((x > 0).astype(np.float32))


def vectorized_predict(model: BNNModel, x_signs: np.ndarray) -> np.ndarray:
    """Vectorized argmax classification through the whole-batch kernel."""
    return np.argmax(vectorized_scores(model, x_signs), axis=1)


def vectorized_hidden_forward(model: BNNModel,
                              x_signs: np.ndarray) -> np.ndarray:
    """Sign activations after *every* layer, bit-identical to
    :meth:`BNNModel.hidden_forward_batch`."""
    x = _as_sign_batch(model, x_signs)
    lowered = vectorized_model(model)
    if not lowered.exact:
        return model.hidden_forward_batch(x)
    return lowered.gemm_hidden((x > 0).astype(np.float32))

