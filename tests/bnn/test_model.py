"""Tests for the BNN model math."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bnn import BNNLayer, BNNModel, binarize_sign
from repro.errors import ConfigurationError


def tiny_layer():
    weights = np.array([[1, -1, 1], [-1, -1, -1]], dtype=np.int8)
    bias = np.array([0, 1], dtype=np.int32)
    return BNNLayer(weights=weights, bias=bias)


class TestLayer:
    def test_pre_activation(self):
        layer = tiny_layer()
        x = np.array([1, 1, -1], dtype=np.int8)
        # neuron0: 1-1-1 = -1; neuron1: -1-1+1+1 = 0
        np.testing.assert_array_equal(layer.pre_activation(x), [-1, 0])

    def test_forward_sign(self):
        layer = tiny_layer()
        x = np.array([1, 1, -1], dtype=np.int8)
        np.testing.assert_array_equal(layer.forward(x), [-1, 1])

    def test_rejects_non_sign_weights(self):
        with pytest.raises(ConfigurationError):
            BNNLayer(weights=np.array([[0, 1]]), bias=np.array([0]))

    def test_rejects_mismatched_bias(self):
        with pytest.raises(ConfigurationError):
            BNNLayer(weights=np.ones((2, 3), dtype=np.int8), bias=np.array([0]))

    def test_macs(self):
        assert tiny_layer().macs == 6

    def test_weight_bytes(self):
        # 3 inputs -> 1 packed word per neuron, 2 neurons -> 8 bytes
        assert tiny_layer().weight_bytes == 8
        wide = BNNLayer(weights=np.ones((100, 256), dtype=np.int8),
                        bias=np.zeros(100, dtype=np.int32))
        assert wide.weight_bytes == 100 * 4 * 8

    def test_packed_weights_shape(self):
        assert tiny_layer().packed_weights().shape == (2, 1)

    def test_layer_owns_its_weights(self):
        """An int8 caller array passes the sign check uncopied, so the
        layer copies it: a later write by the caller reaches neither the
        layer nor its model's scores."""
        weights = np.array([[1, -1, 1], [-1, -1, -1]], dtype=np.int8)
        layer = BNNLayer(weights=weights, bias=np.zeros(2, dtype=np.int32))
        model = BNNModel([layer])
        x = np.array([1, 1, -1], dtype=np.int8)
        before = model.scores(x)
        weights[:] = 1
        assert not np.shares_memory(layer.weights, weights)
        np.testing.assert_array_equal(layer.weights,
                                      [[1, -1, 1], [-1, -1, -1]])
        np.testing.assert_array_equal(model.scores(x), before)


class TestModel:
    def test_layer_chaining_validated(self):
        l1 = BNNLayer(np.ones((4, 3), dtype=np.int8), np.zeros(4, dtype=np.int32))
        l2 = BNNLayer(np.ones((2, 5), dtype=np.int8), np.zeros(2, dtype=np.int32))
        with pytest.raises(ConfigurationError):
            BNNModel([l1, l2])

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            BNNModel([])

    def test_topology_properties(self):
        model = BNNModel.paper_topology(input_size=256)
        assert model.input_size == 256
        assert model.n_layers == 4
        assert model.n_classes == 10
        assert model.total_macs == 256 * 100 + 100 * 100 + 100 * 100 + 100 * 10

    def test_binarize_input(self):
        model = BNNModel.paper_topology(input_size=4, neurons_per_layer=4,
                                        n_classes=2)
        signs = model.binarize_input(np.array([0.1, 0.9, 0.5, 0.4]))
        np.testing.assert_array_equal(signs, [-1, 1, 1, -1])

    def test_binarize_input_size_checked(self):
        model = BNNModel.paper_topology(input_size=4, neurons_per_layer=4,
                                        n_classes=2)
        with pytest.raises(ConfigurationError):
            model.binarize_input(np.zeros(5))

    def test_predict_matches_scores_argmax(self):
        rng = np.random.default_rng(0)
        model = BNNModel.random([16, 8, 4], rng)
        x = binarize_sign(rng.standard_normal(16))
        assert model.predict(x) == int(np.argmax(model.scores(x)))

    @given(st.integers(0, 1000))
    def test_batch_matches_single(self, seed):
        rng = np.random.default_rng(seed)
        model = BNNModel.random([12, 10, 10, 3], rng)
        xs = binarize_sign(rng.standard_normal((5, 12)))
        batch = model.predict_batch(xs)
        singles = [model.predict(x) for x in xs]
        np.testing.assert_array_equal(batch, singles)

    def test_accuracy_bounds(self):
        rng = np.random.default_rng(0)
        model = BNNModel.random([8, 6, 2], rng)
        xs = binarize_sign(rng.standard_normal((20, 8)))
        labels = rng.integers(0, 2, 20)
        acc = model.accuracy(xs, labels)
        assert 0.0 <= acc <= 1.0

    def test_scores_are_integers_with_parity(self):
        # pre-activation of a +-1 dot product has fixed parity with fan_in
        rng = np.random.default_rng(3)
        model = BNNModel.random([9, 5, 3], rng)
        x = binarize_sign(rng.standard_normal(9))
        hidden = model.layers[0].pre_activation(x) - model.layers[0].bias
        assert all((int(v) - 9) % 2 == 0 for v in hidden)

    def test_weight_bytes_total(self):
        model = BNNModel.paper_topology(input_size=256)
        assert model.weight_bytes == sum(l.weight_bytes for l in model.layers)
