"""Bit-packed batched XNOR-popcount inference (the packed BNN kernels).

The scalar path (:meth:`BNNModel.scores`) evaluates one image at a time
with int32 matmuls.  Real binary accelerators instead pack signs into
machine words and replace the multiply-accumulate with XNOR + popcount
over wide registers (XNOR Neural Engine, XNORBIN); this module mirrors
that in numpy: weights and activations live in little-endian **uint64**
words and whole image batches flow through all layers at once.

The arithmetic is exact, not approximate.  For sign vectors ``a, b`` of
length ``n`` packed with equal zero padding,

    dot(a, b) = n - 2 * popcount(a XOR b)

because padding bits are equal in both operands and therefore never
contribute to the XOR.  Every pre-activation is computed in integers, so
:func:`batched_scores` is **bit-identical** to the scalar path — the
differential suite in ``tests/bnn/test_batched_equivalence.py`` pins
this for every topology shape.

These kernels are what the ``parallel`` engine shards across
processes, and what the ``fast`` engine's GEMM kernel
(:mod:`repro.bnn.vectorized`) falls back to for a layer too wide for
float32 to stay exact.  Callers normally go through
:meth:`BNNAccelerator.infer_batch(..., engine=...)
<repro.bnn.accelerator.BNNAccelerator.infer_batch>` or
:func:`predict_with_engine`, which resolve through the engine registry
and default to the session's ``SimConfig.engine`` (``repro run
--engine fast``, ``REPRO_ENGINE``).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.bnn import quantize as q
from repro.bnn.model import BNNModel
from repro.errors import ConfigurationError

#: bits per packed word of the fast path (the scalar accelerator model
#: packs uint32; the software fast path uses the widest numpy integer)
WORD_BITS = 64

_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")


def popcount64(words: np.ndarray) -> np.ndarray:
    """Per-element population count of uint64 values (int64 result)."""
    words = np.asarray(words, dtype=np.uint64)
    if _HAS_BITWISE_COUNT:
        return np.bitwise_count(words).astype(np.int64)
    # numpy < 2.0 fallback: count per byte through the uint32 table path
    as_u32 = words.view(np.uint32).reshape(words.shape + (2,))
    return q.popcount32(as_u32).sum(axis=-1)


def pack_bits64(bits: np.ndarray) -> np.ndarray:
    """Pack a trailing axis of {0,1} into little-endian uint64 words.

    The 64-bit twin of :func:`repro.bnn.quantize.pack_bits`: the last
    axis is zero-padded up to a multiple of 64 and bit ``i`` of word
    ``w`` holds element ``64*w + i``.
    """
    bits = np.ascontiguousarray(bits, dtype=np.uint8)
    n = bits.shape[-1]
    n_words = (n + WORD_BITS - 1) // WORD_BITS
    padded = np.zeros(bits.shape[:-1] + (n_words * WORD_BITS,), dtype=np.uint8)
    padded[..., :n] = bits
    packed_bytes = np.packbits(padded, axis=-1, bitorder="little")
    return packed_bytes.view(np.uint64)


def pack_sign_rows(x_signs: np.ndarray) -> np.ndarray:
    """Pack sign-domain rows ``(batch, n)`` into ``(batch, words)`` uint64."""
    return pack_bits64(q.sign_to_bits(x_signs))


@dataclass(frozen=True)
class PackedLayer:
    """One layer's weights bit-packed for the batched kernel."""

    words: np.ndarray  # (fan_out, n_words) uint64
    bias: np.ndarray  # (fan_out,) int32
    fan_in: int
    fan_out: int

    def pre_activation(self, packed_inputs: np.ndarray) -> np.ndarray:
        """Integer pre-activations ``W x + b`` for a packed input batch.

        ``packed_inputs`` is ``(batch, n_words)`` uint64; the result is
        ``(batch, fan_out)`` int64, exactly equal to the sign-domain
        matmul of the scalar path.
        """
        words = self.words
        if _HAS_BITWISE_COUNT:
            # word-at-a-time over 2-D contiguous arrays: ~9x faster than
            # one 3-D (batch, fan_out, n_words) broadcast on typical sizes
            mismatches = np.bitwise_count(
                packed_inputs[:, 0, None] ^ words[None, :, 0]
            ).astype(np.int64)
            for w in range(1, words.shape[1]):
                mismatches += np.bitwise_count(
                    packed_inputs[:, w, None] ^ words[None, :, w])
        else:
            xor = packed_inputs[:, None, :] ^ words[None, :, :]
            mismatches = popcount64(xor).sum(axis=-1)
        return self.fan_in - 2 * mismatches + self.bias.astype(np.int64)


class PackedModel:
    """A :class:`BNNModel` lowered to packed uint64 weight words."""

    def __init__(self, layers: List[PackedLayer]):
        if not layers:
            raise ConfigurationError("PackedModel needs at least one layer")
        self.layers = list(layers)

    @classmethod
    def from_model(cls, model: BNNModel) -> "PackedModel":
        layers = []
        for layer in model.layers:
            layers.append(PackedLayer(
                words=pack_bits64(q.sign_to_bits(layer.weights)),
                bias=layer.bias.astype(np.int32),
                fan_in=layer.fan_in,
                fan_out=layer.fan_out,
            ))
        return cls(layers)

    @property
    def input_size(self) -> int:
        return self.layers[0].fan_in

    @property
    def n_classes(self) -> int:
        return self.layers[-1].fan_out

    def scores(self, packed_inputs: np.ndarray) -> np.ndarray:
        """Class scores ``(batch, n_classes)`` for a packed input batch."""
        activation = packed_inputs
        for layer in self.layers[:-1]:
            pre = layer.pre_activation(activation)
            activation = pack_bits64((pre >= 0).astype(np.uint8))
        return self.layers[-1].pre_activation(activation).astype(np.int32)


#: packed-weight cache: packing is O(weights) and models are immutable in
#: practice, so one packed copy per live model instance is kept (weakly —
#: dropping the model drops its packed twin)
_PACKED_CACHE: "weakref.WeakKeyDictionary[BNNModel, PackedModel]" = \
    weakref.WeakKeyDictionary()


def packed_model(model: BNNModel) -> PackedModel:
    """The (cached) :class:`PackedModel` lowering of ``model``."""
    packed = _PACKED_CACHE.get(model)
    if packed is None:
        packed = PackedModel.from_model(model)
        _PACKED_CACHE[model] = packed
    return packed


def _as_sign_batch(model: BNNModel, x_signs: np.ndarray) -> np.ndarray:
    x = q.check_sign_domain(np.atleast_2d(np.asarray(x_signs)))
    if x.ndim != 2:
        raise ConfigurationError("batched input must be (batch, input_size)")
    if x.shape[1] != model.input_size:
        raise ConfigurationError(
            f"input size {x.shape[1]} != model input {model.input_size}")
    return x


def encode_batch(model: BNNModel, x_signs: np.ndarray) -> np.ndarray:
    """Validate a sign batch against ``model`` and bit-pack its rows.

    The one input-encoding step of the packed path, shared by the serial
    kernels and the parallel engine's shard workers so both sides encode
    identically (same validation, same packing).
    """
    return pack_sign_rows(_as_sign_batch(model, x_signs))


def batched_scores(model: BNNModel, x_signs: np.ndarray) -> np.ndarray:
    """Integer class scores ``(batch, n_classes)``, bit-identical to the
    scalar path (``np.stack([model.scores(x) for x in x_signs])``)."""
    return packed_model(model).scores(encode_batch(model, x_signs))


def batched_predict(model: BNNModel, x_signs: np.ndarray) -> np.ndarray:
    """Vectorized argmax classification through the packed kernels."""
    return np.argmax(batched_scores(model, x_signs), axis=1)


def batched_hidden_forward(model: BNNModel, x_signs: np.ndarray) -> np.ndarray:
    """Sign activations after *every* layer through the packed kernels.

    Bit-identical to :meth:`BNNModel.hidden_forward_batch` — the integer
    pre-activations are exact, so thresholding at zero lands on the same
    signs.  Used when this model is the front half of a two-core chain.
    """
    x = _as_sign_batch(model, x_signs)
    packed = pack_sign_rows(x)
    bits = np.zeros((x.shape[0], 0), dtype=np.uint8)
    for layer in packed_model(model).layers:
        bits = (layer.pre_activation(packed) >= 0).astype(np.uint8)
        packed = pack_bits64(bits)
    return q.bits_to_sign(bits)


def predict_with_engine(model: BNNModel, x_signs: np.ndarray,
                        engine: Optional[str] = None) -> np.ndarray:
    """Classify a batch with the selected engine.

    ``engine=None`` resolves to the session's ``SimConfig.engine``; any
    registered engine name (or engine object) works.  Every engine
    returns identical predictions (the equivalence suites pin the logits
    bit-for-bit), so this only changes host-side speed.
    """
    from repro.engine import resolve_engine

    return resolve_engine(engine).predict(model, np.asarray(x_signs))
