"""Tests for the multi-bit extension: float MLP, PTQ, bit-serial timing."""

import numpy as np
import pytest

from repro.bnn import BNNModel
from repro.bnn.multibit import (
    FloatMLP,
    QuantizedModel,
    bnn_timing_equivalent,
    multibit_timing,
    quantize_model,
)
from repro.errors import ConfigurationError


def toy_data(n=500, seed=0):
    """Two linearly separable blobs in [0,1]^8."""
    rng = np.random.default_rng(seed)
    x = rng.random((n, 8))
    labels = (x[:, :4].mean(axis=1) > x[:, 4:].mean(axis=1)).astype(np.int64)
    return x, labels


class TestFloatMLP:
    def test_needs_two_sizes(self):
        with pytest.raises(ConfigurationError):
            FloatMLP([4])

    def test_learns_toy_problem(self):
        x, y = toy_data()
        mlp = FloatMLP([8, 16, 2], seed=0)
        mlp.train(x, y, epochs=80)
        assert mlp.accuracy(x, y) > 0.9

    def test_loss_decreases(self):
        x, y = toy_data()
        mlp = FloatMLP([8, 16, 2], seed=0)
        losses = mlp.train(x, y, epochs=10)
        assert losses[-1] < losses[0]

    def test_deterministic(self):
        x, y = toy_data()
        a = FloatMLP([8, 8, 2], seed=3)
        b = FloatMLP([8, 8, 2], seed=3)
        a.train(x, y, epochs=2, seed=5)
        b.train(x, y, epochs=2, seed=5)
        np.testing.assert_array_equal(a.predict_batch(x), b.predict_batch(x))


class TestQuantization:
    @pytest.fixture(scope="class")
    def trained(self):
        x, y = toy_data(800)
        mlp = FloatMLP([8, 24, 24, 2], seed=0)
        mlp.train(x, y, epochs=40)
        return mlp, x, y

    def test_bits_range_validated(self, trained):
        mlp, x, _ = trained
        with pytest.raises(ConfigurationError):
            quantize_model(mlp, 1, x[:50])
        with pytest.raises(ConfigurationError):
            quantize_model(mlp, 9, x[:50])

    def test_8bit_close_to_float(self, trained):
        mlp, x, y = trained
        quantized = quantize_model(mlp, 8, x[:200])
        assert quantized.accuracy(x, y) > mlp.accuracy(x, y) - 0.03

    def test_weights_fit_bit_budget(self, trained):
        mlp, x, _ = trained
        for bits in (8, 4, 2):
            quantized = quantize_model(mlp, bits, x[:200])
            limit = (1 << (bits - 1)) - 1
            for layer in quantized.layers:
                assert np.abs(layer.weights).max() <= limit

    def test_pure_integer_inference(self, trained):
        mlp, x, _ = trained
        quantized = quantize_model(mlp, 8, x[:200])
        grid = quantized.quantize_input(x[:10])
        assert grid.dtype == np.int64
        assert grid.max() <= 255

    def test_fewer_bits_less_storage(self, trained):
        mlp, x, _ = trained
        q8 = quantize_model(mlp, 8, x[:200])
        q4 = quantize_model(mlp, 4, x[:200])
        assert q4.weight_bytes < q8.weight_bytes

    def test_empty_model_rejected(self):
        with pytest.raises(ConfigurationError):
            QuantizedModel([], bits=8)


class TestTiming:
    def make_quantized(self, bits):
        x, y = toy_data(300)
        mlp = FloatMLP([8, 16, 16, 2], seed=0)
        mlp.train(x, y, epochs=5)
        return quantize_model(mlp, bits, x[:100])

    def test_bit_serial_latency_scales(self):
        t4 = multibit_timing(self.make_quantized(4))
        t8 = multibit_timing(self.make_quantized(8))
        assert t8.latency_cycles == pytest.approx(2 * t4.latency_cycles,
                                                  rel=0.05)

    def test_area_scale_grows_with_bits(self):
        t4 = multibit_timing(self.make_quantized(4))
        t8 = multibit_timing(self.make_quantized(8))
        assert 1.0 < t4.neuron_area_scale < t8.neuron_area_scale

    def test_binary_point_consistent_with_accelerator(self):
        from repro.bnn import BNNAccelerator

        model = BNNModel.paper_topology(input_size=256)
        timing = bnn_timing_equivalent(model)
        assert timing.bits == 1
        assert timing.latency_cycles == BNNAccelerator().latency_cycles(model)

    def test_binary_is_cheapest(self):
        model = BNNModel.paper_topology(input_size=64,
                                        neurons_per_layer=16, n_classes=2)
        binary = bnn_timing_equivalent(model)
        quantized = multibit_timing(self.make_quantized(8))
        assert binary.neuron_area_scale <= quantized.neuron_area_scale

    def test_timing_reads_the_accelerator_constants(self, monkeypatch):
        from repro.bnn import BNNAccelerator, accelerator

        monkeypatch.setattr(accelerator, "LAYER_OVERHEAD_CYCLES", 5)
        model = BNNModel.paper_topology(input_size=256)
        binary = bnn_timing_equivalent(model)
        array = BNNAccelerator()
        assert (binary.latency_cycles, binary.interval_cycles) == (
            array.latency_cycles(model), array.interval_cycles(model))
        quantized = self.make_quantized(4)
        timing = multibit_timing(quantized)
        per_layer = [layer.fan_in * 4 + 5 for layer in quantized.layers]
        assert timing.latency_cycles == sum(per_layer)
        assert timing.interval_cycles == max(per_layer)
