"""Binarization and bit-packing utilities for the BNN.

The paper's BNN (section III) constrains weights and activations to
{-1, +1}; multipliers become XNOR gates and accumulation becomes popcount.
We keep two representations:

* *sign domain*: numpy arrays with values in {-1, +1} (int8) — used by the
  model math;
* *bit domain*: packed uint32 words with bit 1 ≡ +1, bit 0 ≡ −1 — used by the
  accelerator model and by the generated RISC-V software kernels.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError


def binarize_sign(values: np.ndarray) -> np.ndarray:
    """Map real values to {-1, +1} with sign(0) == +1 (paper's sign function)."""
    return np.where(np.asarray(values) >= 0, 1, -1).astype(np.int8)


def check_sign_domain(values: np.ndarray) -> np.ndarray:
    """``values`` as int8 after checking every one is -1 or +1; an int8
    array comes back as itself, not a copy."""
    values = np.asarray(values)
    # Two cheap comparisons instead of np.isin: ~20x faster on large
    # batches and this guard sits on every engine's scoring path.
    if np.any((values != 1) & (values != -1)):
        raise ConfigurationError("array is not in the {-1,+1} sign domain")
    return values.astype(np.int8, copy=False)


def sign_to_bits(values: np.ndarray) -> np.ndarray:
    """{-1,+1} -> {0,1} (uint8)."""
    return (check_sign_domain(values) > 0).astype(np.uint8)


def bits_to_sign(bits: np.ndarray) -> np.ndarray:
    """{0,1} -> {-1,+1} (int8)."""
    return np.where(np.asarray(bits) > 0, 1, -1).astype(np.int8)


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack a trailing axis of {0,1} into little-endian uint32 words.

    The last axis length is padded up to a multiple of 32 with zeros; bit ``i``
    of word ``w`` holds element ``32*w + i``.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    n = bits.shape[-1]
    n_words = (n + 31) // 32
    padded = np.zeros(bits.shape[:-1] + (n_words * 32,), dtype=np.uint8)
    padded[..., :n] = bits
    shaped = padded.reshape(bits.shape[:-1] + (n_words, 32))
    weights = (1 << np.arange(32, dtype=np.uint64)).astype(np.uint64)
    return (shaped.astype(np.uint64) * weights).sum(axis=-1).astype(np.uint32)


def unpack_bits(words: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`: recover the first ``n`` bits."""
    words = np.asarray(words, dtype=np.uint32)
    if words.shape[-1] * 32 < n:
        raise ConfigurationError(
            f"{words.shape[-1]} words hold {words.shape[-1] * 32} bits < {n}"
        )
    expanded = (words[..., :, None] >> np.arange(32, dtype=np.uint32)) & 1
    flat = expanded.reshape(words.shape[:-1] + (-1,))
    return flat[..., :n].astype(np.uint8)


def xnor_popcount(a_words: np.ndarray, b_words: np.ndarray, n_bits: int) -> np.ndarray:
    """Count matching bit positions of two packed operands over ``n_bits``.

    This is the neuron dot-product primitive: for sign vectors a, b,
    ``dot(a, b) = 2 * xnor_popcount(a, b) - n_bits``.
    """
    a_words = np.asarray(a_words, dtype=np.uint32)
    b_words = np.asarray(b_words, dtype=np.uint32)
    xnor = ~(a_words ^ b_words)
    n_words = (n_bits + 31) // 32
    # mask padding in the last word so it never counts as a match
    mask = np.full(n_words, 0xFFFFFFFF, dtype=np.uint32)
    tail = n_bits % 32
    if tail:
        mask[-1] = (1 << tail) - 1
    masked = (xnor & mask).astype(np.uint32)
    return popcount32(masked).sum(axis=-1)


_POPCOUNT_TABLE = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def popcount32(words: np.ndarray) -> np.ndarray:
    """Per-element population count of uint32 values."""
    words = np.asarray(words, dtype=np.uint32)
    view = words[..., None] >> np.array([0, 8, 16, 24], dtype=np.uint32)
    return _POPCOUNT_TABLE[(view & 0xFF).astype(np.uint8)].sum(axis=-1).astype(np.int64)


def sign_dot(a_sign: np.ndarray, b_sign: np.ndarray) -> int:
    """Reference dot product in the sign domain (for cross-checks)."""
    return int(np.dot(check_sign_domain(a_sign).astype(np.int32),
                      check_sign_domain(b_sign).astype(np.int32)))
