"""Tests for binarization and bit-packing primitives."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.bnn import quantize as q
from repro.errors import ConfigurationError


class TestBinarize:
    def test_sign_of_zero_is_plus_one(self):
        assert q.binarize_sign(np.array([0.0]))[0] == 1

    def test_signs(self):
        np.testing.assert_array_equal(
            q.binarize_sign(np.array([-0.5, 0.5, -2, 3])),
            np.array([-1, 1, -1, 1], dtype=np.int8),
        )

    def test_check_sign_domain_rejects_zero(self):
        with pytest.raises(ConfigurationError):
            q.check_sign_domain(np.array([1, 0, -1]))

    def test_check_sign_domain_returns_int8_uncopied(self):
        signs = np.array([[1, -1], [-1, 1]], dtype=np.int8)
        assert q.check_sign_domain(signs) is signs
        wide = np.array([1, -1, 1], dtype=np.int64)
        checked = q.check_sign_domain(wide)
        assert checked.dtype == np.int8
        np.testing.assert_array_equal(checked, wide)

    def test_sign_bit_roundtrip(self):
        signs = np.array([1, -1, -1, 1], dtype=np.int8)
        np.testing.assert_array_equal(q.bits_to_sign(q.sign_to_bits(signs)), signs)


class TestPacking:
    def test_pack_known_pattern(self):
        bits = np.zeros(32, dtype=np.uint8)
        bits[0] = 1
        bits[31] = 1
        assert q.pack_bits(bits)[0] == 0x80000001

    def test_pack_pads_with_zeros(self):
        bits = np.ones(33, dtype=np.uint8)
        words = q.pack_bits(bits)
        assert words.shape == (2,)
        assert words[0] == 0xFFFFFFFF
        assert words[1] == 1

    @given(arrays(np.uint8, st.integers(1, 200), elements=st.integers(0, 1)))
    def test_pack_unpack_roundtrip(self, bits):
        np.testing.assert_array_equal(q.unpack_bits(q.pack_bits(bits), len(bits)),
                                      bits)

    def test_unpack_too_few_words(self):
        with pytest.raises(ConfigurationError):
            q.unpack_bits(np.array([0], dtype=np.uint32), 40)

    def test_pack_batch_axis(self):
        bits = np.random.default_rng(0).integers(0, 2, size=(5, 70), dtype=np.uint8)
        words = q.pack_bits(bits)
        assert words.shape == (5, 3)
        np.testing.assert_array_equal(q.unpack_bits(words, 70), bits)


class TestPopcount:
    @given(st.integers(0, 0xFFFFFFFF))
    def test_popcount_matches_bin(self, word):
        assert q.popcount32(np.array([word], dtype=np.uint32))[0] == bin(word).count("1")

    def test_popcount_vectorized(self):
        words = np.array([0, 1, 3, 0xFFFFFFFF], dtype=np.uint32)
        np.testing.assert_array_equal(q.popcount32(words), [0, 1, 2, 32])


class TestXnorPopcount:
    @given(st.integers(1, 150), st.integers(0, 2 ** 31))
    def test_matches_sign_dot(self, n_bits, seed):
        rng = np.random.default_rng(seed)
        a = q.binarize_sign(rng.standard_normal(n_bits))
        b = q.binarize_sign(rng.standard_normal(n_bits))
        matches = q.xnor_popcount(
            q.pack_bits(q.sign_to_bits(a)), q.pack_bits(q.sign_to_bits(b)), n_bits
        )
        # dot = matches - mismatches = 2*matches - n
        assert 2 * int(matches) - n_bits == q.sign_dot(a, b)

    def test_padding_bits_never_count(self):
        # 1-bit vectors disagree; padding must not add fake matches
        a = q.pack_bits(np.array([1], dtype=np.uint8))
        b = q.pack_bits(np.array([0], dtype=np.uint8))
        assert q.xnor_popcount(a, b, 1) == 0

    def test_identical_vectors_all_match(self):
        bits = np.random.default_rng(1).integers(0, 2, 100, dtype=np.uint8)
        words = q.pack_bits(bits)
        assert q.xnor_popcount(words, words, 100) == 100
