"""Row-blocked GEMM BNN kernels (the ``fast`` engine's BNN half).

The scalar path (:meth:`BNNModel.scores`) evaluates one image at a time
with int32 matmuls.  This module pushes a batch through every layer in
blocks of at most ``GEMM_ROW_BLOCK`` rows, as one float32 matmul per
layer and block, so BLAS does the heavy lifting on a cache-sized
working set.  A batch of at most one block goes through in one piece,
without a copy.

With ±1 weights ``W`` and sign inputs written as ``x = 2a − 1`` for
``a ∈ {0,1}``, the pre-activation collapses to
``W·x + b = 2·(a @ Wᵀ) − rowsum(W) + b``, and thresholding at zero
becomes ``a @ Wᵀ ≥ (rowsum(W) − b) / 2``.  Every partial sum is an
integer with magnitude ≤ fan_in, and float32 represents integers exactly
up to 2**24, so the matmul is exact whenever
``fan_in < GEMM_MAX_FAN_IN`` (the thresholds are half-integers, which
float32 also represents exactly at these magnitudes).  A model with a
wider layer scores each block through the oracle's batch int32 matmul
(:meth:`BNNModel.scores_batch`, :meth:`BNNModel.hidden_forward_batch`)
instead, which stays exact while every fan-in is below 2**31.

Either way the result is bit-identical to the scalar path — the
differential suites pin scores, predictions and hidden activations
against both engines.  :class:`repro.engine.FastEngine` calls the three
``vectorized_*`` functions below.  See ``docs/KERNELS.md`` for the
kernel and decision tables (lint-checked by ``tools/check_docs.py``).
"""

from __future__ import annotations

import ctypes
import glob
import logging
import os
import weakref
from dataclasses import dataclass
from typing import List

import numpy as np

import repro
from repro.bnn import quantize as q
from repro.bnn.model import BNNModel
from repro.errors import ConfigurationError

logger = logging.getLogger(__name__)

#: largest fan-in for which the float32 GEMM kernel is exact: every
#: partial sum is an integer of magnitude < 2**24 (float32's exact
#: integer range), with headroom for the half-integer thresholds
GEMM_MAX_FAN_IN = 1 << 23

#: rows per block: validation, the 0/1 float32 conversion, the layer
#: GEMMs and the argmax run block by block, so the working set stays
#: cache-sized (a block's float32 input is 3 MiB at 784 inputs) instead
#: of growing with the batch
GEMM_ROW_BLOCK = 1024


def _one_blas_thread() -> None:
    """Set numpy's bundled OpenBLAS to one thread, unless the caller set
    ``OPENBLAS_NUM_THREADS``.

    ``import repro`` sets that variable, but OpenBLAS reads it only when
    numpy loads, so a script that imported numpy first keeps OpenBLAS's
    thread pool, which can stall each small float32 GEMM of this kernel
    for ~24 ms.
    """
    if "OPENBLAS_NUM_THREADS" not in repro._BLAS_DEFAULTED:
        return
    libraries = glob.glob(os.path.join(os.path.dirname(np.__file__),
                                       os.pardir, "numpy.libs",
                                       "libscipy_openblas64_*.so"))
    try:
        set_threads = ctypes.CDLL(
            libraries[0]).scipy_openblas_set_num_threads64_
    except (IndexError, OSError, AttributeError):
        logger.debug("numpy has no bundled scipy-openblas; its BLAS keeps "
                     "its own thread count")
        return
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    set_threads(1)


_one_blas_thread()


@dataclass(frozen=True)
class _GemmLayer:
    """One layer lowered for the float32 GEMM kernel."""

    weights_t: np.ndarray  # (fan_in, fan_out) float32, ±1, C-contiguous
    weight_sums: np.ndarray  # (fan_out,) float32 — row sums of W
    bias: np.ndarray  # (fan_out,) float32
    thresholds: np.ndarray  # (fan_out,) float32 — (sums − bias) / 2


class VectorizedModel:
    """A :class:`BNNModel` lowered for the float32 GEMM kernel.

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


def _block_scores(model: BNNModel, lowered: VectorizedModel,
                  block: np.ndarray) -> np.ndarray:
    if not lowered.exact:
        return model.scores_batch(block)
    return lowered.gemm_scores((block > 0).astype(np.float32))


def _block_predict(model: BNNModel, lowered: VectorizedModel,
                   block: np.ndarray) -> np.ndarray:
    return np.argmax(_block_scores(model, lowered, block), axis=1)


def _block_hidden(model: BNNModel, lowered: VectorizedModel,
                  block: np.ndarray) -> np.ndarray:
    if not lowered.exact:
        return model.hidden_forward_batch(block)
    return lowered.gemm_hidden((block > 0).astype(np.float32))


def _by_row_blocks(kernel, model: BNNModel,
                   x_signs: np.ndarray) -> np.ndarray:
    """``kernel`` over a ``(batch, input_size)`` sign batch in blocks of
    ``GEMM_ROW_BLOCK`` rows, each sign-checked first, with the blocks'
    results stacked in row order.  A batch of at most one block, an
    empty one included, is one view of the input and one result."""
    x = np.atleast_2d(np.asarray(x_signs))
    if x.ndim != 2:
        raise ConfigurationError("batched input must be (batch, input_size)")
    if x.shape[1] != model.input_size:
        raise ConfigurationError(
            f"input size {x.shape[1]} != model input {model.input_size}")
    lowered = vectorized_model(model)
    results = [kernel(model, lowered,
                      q.check_sign_domain(x[start:start + GEMM_ROW_BLOCK]))
               for start in range(0, max(len(x), 1), GEMM_ROW_BLOCK)]
    return results[0] if len(results) == 1 else np.concatenate(results)


def vectorized_scores(model: BNNModel, x_signs: np.ndarray) -> np.ndarray:
    """Integer class scores ``(batch, n_classes)``, bit-identical to the
    scalar path (``np.stack([model.scores(x) for x in x_signs])``)."""
    return _by_row_blocks(_block_scores, model, x_signs)


def vectorized_predict(model: BNNModel, x_signs: np.ndarray) -> np.ndarray:
    """Argmax classification through the row-blocked kernel."""
    return _by_row_blocks(_block_predict, model, x_signs)


def vectorized_hidden_forward(model: BNNModel,
                              x_signs: np.ndarray) -> np.ndarray:
    """Sign activations after *every* layer, bit-identical to
    :meth:`BNNModel.hidden_forward_batch`."""
    return _by_row_blocks(_block_hidden, model, x_signs)
