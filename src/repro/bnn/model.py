"""The binarized fully-connected network model (paper section III).

A :class:`BNNModel` is a stack of fully-connected binary layers.  Hidden
layers compute ``sign(W x + b)`` with W, x in {-1, +1} and integer bias b;
the output layer keeps its integer pre-activations and classification takes
the argmax (the chip reads the winning class out of the output memory).

The model matches the paper's hardware: 4 layers, ``neurons_per_layer``
neurons each (100 in the fabricated chip), binary input image, per-neuron
bias from the bias memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.bnn import quantize as q
from repro.errors import ConfigurationError


@dataclass
class BNNLayer:
    """One binary fully-connected layer: ``weights`` is (fan_out, fan_in)."""

    weights: np.ndarray  # int8 in {-1,+1}
    bias: np.ndarray  # integer thresholds, shape (fan_out,)

    def __post_init__(self):
        # a copy: a caller's later write to its array must not reach the
        # layer (or the GEMM lowering cached for its model)
        self.weights = q.check_sign_domain(self.weights).copy()
        self.bias = np.asarray(self.bias, dtype=np.int32)
        if self.weights.ndim != 2:
            raise ConfigurationError("layer weights must be 2-D (fan_out, fan_in)")
        if self.bias.shape != (self.weights.shape[0],):
            raise ConfigurationError(
                f"bias shape {self.bias.shape} does not match fan_out "
                f"{self.weights.shape[0]}"
            )

    @property
    def fan_in(self) -> int:
        return self.weights.shape[1]

    @property
    def fan_out(self) -> int:
        return self.weights.shape[0]

    @property
    def macs(self) -> int:
        """Binary multiply-accumulates per forward pass."""
        return self.fan_in * self.fan_out

    def pre_activation(self, x_sign: np.ndarray) -> np.ndarray:
        """Integer pre-activations ``W x + b`` for sign-domain input."""
        x_sign = np.asarray(x_sign)
        return self.weights.astype(np.int32) @ x_sign.astype(np.int32) + self.bias

    def forward(self, x_sign: np.ndarray) -> np.ndarray:
        """Binary activation ``sign(W x + b)``."""
        return q.binarize_sign(self.pre_activation(x_sign))

    def packed_weights(self) -> np.ndarray:
        """Weights bit-packed per neuron, shape (fan_out, ceil(fan_in/32))."""
        return q.pack_bits(q.sign_to_bits(self.weights))

    @property
    def weight_bytes(self) -> int:
        """SRAM bytes to store this layer's packed weights."""
        return self.fan_out * 4 * ((self.fan_in + 31) // 32)


class BNNModel:
    """A multi-layer binary network.

    Args:
        layers: the stacked :class:`BNNLayer` objects.  The final layer is the
            classifier; its integer pre-activations are the class scores.
    """

    def __init__(self, layers: Sequence[BNNLayer]):
        if not layers:
            raise ConfigurationError("BNNModel needs at least one layer")
        for previous, current in zip(layers, layers[1:]):
            if previous.fan_out != current.fan_in:
                raise ConfigurationError(
                    f"layer fan-out {previous.fan_out} does not feed fan-in "
                    f"{current.fan_in}"
                )
        self.layers: List[BNNLayer] = list(layers)

    # -- topology ------------------------------------------------------
    @property
    def input_size(self) -> int:
        return self.layers[0].fan_in

    @property
    def n_classes(self) -> int:
        return self.layers[-1].fan_out

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    @property
    def total_macs(self) -> int:
        return sum(layer.macs for layer in self.layers)

    @property
    def weight_bytes(self) -> int:
        return sum(layer.weight_bytes for layer in self.layers)

    # -- inference -----------------------------------------------------
    def binarize_input(self, x: np.ndarray, threshold: float = 0.5) -> np.ndarray:
        """Binarize a real-valued input vector (pixels in [0,1]) to signs."""
        x = np.asarray(x, dtype=np.float64).reshape(-1)
        if x.size != self.input_size:
            raise ConfigurationError(
                f"input size {x.size} != model input {self.input_size}"
            )
        return q.binarize_sign(x - threshold)

    def scores(self, x_sign: np.ndarray) -> np.ndarray:
        """Integer class scores for one sign-domain input vector."""
        activation = q.check_sign_domain(x_sign)
        for layer in self.layers[:-1]:
            activation = layer.forward(activation)
        return self.layers[-1].pre_activation(activation)

    def predict(self, x_sign: np.ndarray) -> int:
        return int(np.argmax(self.scores(x_sign)))

    @staticmethod
    def _signs_after(layers: Sequence[BNNLayer],
                     activation: np.ndarray) -> np.ndarray:
        """Threshold a (features, samples) int32 batch through ``layers``."""
        for layer in layers:
            pre = layer.weights.astype(np.int32) @ activation + layer.bias[:, None]
            activation = np.where(pre >= 0, 1, -1).astype(np.int32)
        return activation

    def scores_batch(self, x_signs: np.ndarray) -> np.ndarray:
        """Integer class scores ``(n_samples, n_classes)`` of a sign batch.

        Exact int32 matmuls, like :meth:`scores` row by row: every partial
        sum stays inside int32 while each fan-in is below 2**31.
        """
        activation = np.asarray(x_signs, dtype=np.int32).T  # (features, samples)
        activation = self._signs_after(self.layers[:-1], activation)
        last = self.layers[-1]
        scores = last.weights.astype(np.int32) @ activation + last.bias[:, None]
        return scores.T

    def predict_batch(self, x_signs: np.ndarray) -> np.ndarray:
        """Vectorized prediction; ``x_signs`` is (n_samples, input_size)."""
        return np.argmax(self.scores_batch(x_signs), axis=1)

    def accuracy(self, x_signs: np.ndarray, labels: np.ndarray) -> float:
        predictions = self.predict_batch(x_signs)
        return float(np.mean(predictions == np.asarray(labels)))

    def hidden_forward_batch(self, x_signs: np.ndarray) -> np.ndarray:
        """Sign activations after *every* layer (including the last).

        Used when this model is the front half of a two-core chain (paper
        section VI.A: "form a deeper neural network accelerator by
        connecting these two NCPU cores in series") — the downstream core
        consumes binary activations, not integer scores.
        """
        activation = np.asarray(x_signs, dtype=np.int32).T
        return self._signs_after(self.layers, activation).T.astype(np.int8)

    # -- restructuring helpers -------------------------------------------
    def split(self, front_layers: int) -> Tuple["BNNModel", "BNNModel"]:
        """Split into (front, back) sub-models for two-core chaining."""
        if not 0 < front_layers < self.n_layers:
            raise ConfigurationError(
                f"cannot split a {self.n_layers}-layer model at "
                f"{front_layers}"
            )
        return (BNNModel(self.layers[:front_layers]),
                BNNModel(self.layers[front_layers:]))

    def truncated(self, n_layers: int) -> "BNNModel":
        """The first ``n_layers`` as a standalone classifier.

        Smaller networks are supported "by configuring NCPU layers using
        the developed ISA" (paper section VIII.A); the truncated model's
        final layer supplies the class scores.
        """
        if not 0 < n_layers <= self.n_layers:
            raise ConfigurationError(
                f"cannot truncate a {self.n_layers}-layer model to "
                f"{n_layers}"
            )
        return BNNModel(self.layers[:n_layers])

    # -- construction helpers ------------------------------------------
    @classmethod
    def random(cls, layer_sizes: Sequence[int], rng: np.random.Generator) -> "BNNModel":
        """A random model with the given ``[input, h1, ..., classes]`` sizes."""
        if len(layer_sizes) < 2:
            raise ConfigurationError("need at least input and output sizes")
        layers = []
        for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:]):
            weights = q.binarize_sign(rng.standard_normal((fan_out, fan_in)))
            bias = np.zeros(fan_out, dtype=np.int32)
            layers.append(BNNLayer(weights=weights, bias=bias))
        return cls(layers)

    @classmethod
    def paper_topology(cls, input_size: int, neurons_per_layer: int = 100,
                       n_classes: int = 10,
                       rng: np.random.Generator | None = None) -> "BNNModel":
        """The chip's 4-layer topology: 3 hidden layers + classifier."""
        rng = rng if rng is not None else np.random.default_rng(0)
        sizes = [input_size, neurons_per_layer, neurons_per_layer,
                 neurons_per_layer, n_classes]
        return cls.random(sizes, rng)
