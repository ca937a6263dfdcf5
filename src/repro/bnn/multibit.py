"""Multi-bit quantized networks — the paper's future-work extension.

Section VIII.A: "Supporting multi-bit and complex DNN is definitely a
future research direction."  Also section III's motivating claim: BNN loses
only a few accuracy points against multi-bit networks while costing
10-100x less storage and compute.  This module makes both quantifiable:

* :class:`FloatMLP` — a small ReLU MLP trained with Adam (the float
  reference),
* :func:`quantize_model` — symmetric post-training quantization to any bit
  width, producing a pure-integer :class:`QuantizedModel`,
* :class:`MultiBitAcceleratorModel` — the NCPU-style neuron array running
  multi-bit MACs bit-serially: a ``b``-bit layer takes ``b`` passes of the
  binary datapath, weight storage grows ``b``-fold, and the neuron cell
  grows with the wider accumulator.

The extension experiment compares accuracy / cycles / storage across
{float, 8-bit, 4-bit, 2-bit, binary}.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.bnn import accelerator
from repro.bnn.model import BNNModel
from repro.bnn.training import Adam, check_training_data
from repro.errors import ConfigurationError, TrainingError


class FloatMLP:
    """A plain ReLU MLP trained with Adam (numpy)."""

    def __init__(self, layer_sizes: Sequence[int], seed: int = 0):
        if len(layer_sizes) < 2:
            raise ConfigurationError("need at least input and output sizes")
        rng = np.random.default_rng(seed)
        self.sizes = list(layer_sizes)
        self.weights = [
            rng.standard_normal((fan_out, fan_in)) * np.sqrt(2.0 / fan_in)
            for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:])
        ]
        self.biases = [np.zeros(fan_out) for fan_out in layer_sizes[1:]]

    def _forward(self, x: np.ndarray):
        activations = [x]
        pres = []
        current = x
        last = len(self.weights) - 1
        for index, (w, b) in enumerate(zip(self.weights, self.biases)):
            pre = current @ w.T + b
            pres.append(pre)
            current = pre if index == last else np.maximum(pre, 0.0)
            activations.append(current)
        return activations, pres

    def predict_batch(self, x: np.ndarray) -> np.ndarray:
        _, pres = self._forward(np.asarray(x, dtype=np.float64))
        return np.argmax(pres[-1], axis=1)

    def accuracy(self, x: np.ndarray, labels: np.ndarray) -> float:
        return float(np.mean(self.predict_batch(x) == np.asarray(labels)))

    def train(self, x: np.ndarray, labels: np.ndarray, epochs: int = 15,
              batch_size: int = 64, learning_rate: float = 1e-3,
              seed: int = 1) -> List[float]:
        x, y = check_training_data(x, labels, self.sizes[0], self.sizes[-1],
                                   batch_size)
        rng = np.random.default_rng(seed)
        # the literal moment weights this model was tuned with (see Adam)
        optimizer = Adam(self.weights + self.biases, lr=learning_rate,
                         grad_weights=(0.1, 0.001))
        losses = []
        for _ in range(epochs):
            order = rng.permutation(len(x))
            epoch_loss = 0.0
            for start in range(0, len(x), batch_size):
                batch = order[start:start + batch_size]
                xb, yb = x[batch], y[batch]
                activations, pres = self._forward(xb)
                scores = pres[-1] - pres[-1].max(axis=1, keepdims=True)
                exp = np.exp(scores)
                probs = exp / exp.sum(axis=1, keepdims=True)
                epoch_loss -= float(
                    np.log(probs[np.arange(len(batch)), yb] + 1e-12).sum())
                grad = probs
                grad[np.arange(len(batch)), yb] -= 1.0
                grad /= len(batch)

                grads_w: List[np.ndarray] = [None] * len(self.weights)
                grads_b: List[np.ndarray] = [None] * len(self.biases)
                for index in reversed(range(len(self.weights))):
                    grads_w[index] = grad.T @ activations[index]
                    grads_b[index] = grad.sum(axis=0)
                    if index > 0:
                        grad = (grad @ self.weights[index]) \
                            * (pres[index - 1] > 0)
                optimizer.step(grads_w + grads_b)
            epoch_loss /= len(x)
            if not np.isfinite(epoch_loss):
                raise TrainingError("float MLP diverged")
            losses.append(epoch_loss)
        return losses


@dataclass
class QuantizedLayer:
    """Symmetric integer layer: int weights, right-shift requantization."""

    weights: np.ndarray  # int32, |w| < 2^(bits-1)
    bias: np.ndarray  # int32 (pre-activation scale)
    shift: int  # requantization right-shift for the activation
    bits: int

    @property
    def fan_in(self) -> int:
        return self.weights.shape[1]

    @property
    def fan_out(self) -> int:
        return self.weights.shape[0]

    @property
    def weight_bytes(self) -> int:
        return self.fan_out * self.fan_in * self.bits // 8 \
            if self.bits >= 8 else (self.fan_out * self.fan_in * self.bits + 7) // 8


class QuantizedModel:
    """A stack of :class:`QuantizedLayer` with ReLU between layers."""

    def __init__(self, layers: Sequence[QuantizedLayer], bits: int):
        if not layers:
            raise ConfigurationError("QuantizedModel needs layers")
        self.layers = list(layers)
        self.bits = bits
        self._activation_peak = (1 << bits) - 1

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    @property
    def input_size(self) -> int:
        return self.layers[0].fan_in

    @property
    def weight_bytes(self) -> int:
        return sum(layer.weight_bytes for layer in self.layers)

    @property
    def total_macs(self) -> int:
        return sum(layer.fan_in * layer.fan_out for layer in self.layers)

    def quantize_input(self, x: np.ndarray) -> np.ndarray:
        """Map [0, 1] features onto the unsigned activation grid."""
        x = np.clip(np.asarray(x, dtype=np.float64), 0.0, 1.0)
        return np.round(x * self._activation_peak).astype(np.int64)

    def predict_batch(self, x_unit: np.ndarray) -> np.ndarray:
        """Classify inputs given as real values in [0, 1]."""
        activation = self.quantize_input(x_unit).T
        last = len(self.layers) - 1
        for index, layer in enumerate(self.layers):
            pre = layer.weights.astype(np.int64) @ activation \
                + layer.bias[:, None]
            if index == last:
                activation = pre
            else:
                activation = np.clip(pre >> layer.shift, 0,
                                     self._activation_peak)
        return np.argmax(activation, axis=0)

    def accuracy(self, x_unit: np.ndarray, labels: np.ndarray) -> float:
        return float(np.mean(self.predict_batch(x_unit)
                             == np.asarray(labels)))


def quantize_model(mlp: FloatMLP, bits: int,
                   calibration: np.ndarray) -> QuantizedModel:
    """Symmetric post-training quantization of a trained float MLP.

    Weight scale per layer from the max |w|; activation requantization
    shifts chosen from the calibration batch so the inter-layer values fit
    the ``bits``-bit unsigned grid.
    """
    if not 2 <= bits <= 8:
        raise ConfigurationError("supported widths: 2..8 bits")
    peak = (1 << bits) - 1
    w_peak = (1 << (bits - 1)) - 1

    layers: List[QuantizedLayer] = []
    activations = np.clip(np.asarray(calibration, dtype=np.float64), 0, 1)
    act_scale = peak  # current activation LSB count per unit value
    current = activations
    last = len(mlp.weights) - 1
    for index, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        w_scale = w_peak / (np.abs(w).max() or 1.0)
        wq = np.round(w * w_scale).astype(np.int64)
        bq = np.round(b * w_scale * act_scale).astype(np.int64)

        pre_float = current @ w.T + b  # float reference pre-activation
        if index == last:
            layers.append(QuantizedLayer(weights=wq, bias=bq, shift=0,
                                         bits=bits))
            break
        relu = np.maximum(pre_float, 0.0)
        out_peak = np.percentile(relu, 99.5) or 1.0
        # integer pre-activation scale is w_scale * act_scale; choose the
        # shift so out_peak maps near the top of the next grid
        target_scale = peak / out_peak
        raw_scale = w_scale * act_scale
        shift = max(0, int(round(np.log2(raw_scale / target_scale))))
        layers.append(QuantizedLayer(weights=wq, bias=bq, shift=shift,
                                     bits=bits))
        act_scale = raw_scale / (1 << shift)
        current = np.minimum(relu, out_peak)
    return QuantizedModel(layers, bits=bits)


@dataclass(frozen=True)
class MultiBitTiming:
    """Cycle/storage model of a b-bit network on the NCPU neuron array."""

    bits: int
    latency_cycles: int
    interval_cycles: int
    weight_bytes: int
    neuron_area_scale: float


def multibit_timing(model: QuantizedModel) -> MultiBitTiming:
    """Bit-serial execution on the binary array: ``bits`` passes per layer.

    The neuron cell reuses the XNOR/adder datapath ``bits`` times per
    input (one per weight bit) with a widened accumulator — the paper's
    suggested path to multi-bit support.  The per-layer overhead and the
    physical pipeline depth are the accelerator's, read at call time.
    """
    per_layer = [layer.fan_in * model.bits + accelerator.LAYER_OVERHEAD_CYCLES
                 for layer in model.layers]
    latency = sum(per_layer)
    # a network deeper than the physical pipeline wraps and cannot overlap
    wraps = accelerator.BNNAccelerator().wraps(model)
    interval = latency if wraps else max(per_layer)
    area_scale = 1.0 + 0.15 * (model.bits - 1)  # accumulator widening
    return MultiBitTiming(bits=model.bits, latency_cycles=latency,
                          interval_cycles=interval,
                          weight_bytes=model.weight_bytes,
                          neuron_area_scale=area_scale)


def bnn_timing_equivalent(model: BNNModel) -> MultiBitTiming:
    """The binary point of the same trade-off curve: the accelerator's
    own timing of ``model``."""
    array = accelerator.BNNAccelerator()
    return MultiBitTiming(bits=1, latency_cycles=array.latency_cycles(model),
                          interval_cycles=array.interval_cycles(model),
                          weight_bytes=model.weight_bytes,
                          neuron_area_scale=1.0)
