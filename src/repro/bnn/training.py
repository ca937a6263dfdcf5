"""Straight-through-estimator training for the binarized network.

Implements the standard BNN training recipe (Hubara et al., the paper's
ref [39]) in pure numpy:

* real-valued *shadow* weights, binarized with sign() on the forward pass,
* sign() activations with the straight-through estimator; because there is
  no batch norm, pre-activations are O(sqrt(fan_in)), so the STE pass-through
  window is scaled per layer (``|pre| <= sqrt(fan_in)``) instead of the
  textbook ``|pre| <= 1``,
* softmax cross-entropy on the scaled output scores,
* Adam on the shadow weights, which are clipped to [-1, 1].

Training exports a pure integer :class:`~repro.bnn.model.BNNModel` that the
accelerator and software kernels execute.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.bnn.model import BNNLayer, BNNModel
from repro.errors import ConfigurationError, TrainingError


@dataclass
class TrainingHistory:
    """Per-epoch loss/accuracy curves."""

    loss: List[float] = field(default_factory=list)
    train_accuracy: List[float] = field(default_factory=list)


#: Adam's moment decay rates and denominator guard (Kingma & Ba defaults)
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam over a fixed list of float arrays, updated in place.

    Each step is the textbook update, in its textbook operation order::

        m = beta1 * m + w1 * g
        v = beta2 * v + w2 * g ** 2
        p -= lr * (m / c1) / (sqrt(v / c2) + eps)     # c = 1 - beta ** t

    but every intermediate goes to scratch allocated once.  Each in-place
    operation rounds to the same IEEE result as the expression it
    replaces, so the parameters match the allocating form bit for bit.
    ``grad_weights`` is ``(w1, w2)``, ``(1 - beta1, 1 - beta2)`` unless a
    caller passes the literals it was tuned with: ``0.1`` differs from
    ``1 - 0.9`` in the last bit, and the weights trained on either differ.
    """

    def __init__(self, params: Sequence[np.ndarray], lr: float,
                 grad_weights: Tuple[float, float] = (1 - BETA1, 1 - BETA2)):
        self.params = list(params)
        self.lr = lr
        self.grad_weights = grad_weights
        self.m = [np.zeros_like(p) for p in self.params]
        self.v = [np.zeros_like(p) for p in self.params]
        self._scratch = [(np.empty_like(p), np.empty_like(p))
                         for p in self.params]
        self.t = 0

    def step(self, grads: Sequence[np.ndarray]) -> None:
        self.t += 1
        correction1 = 1 - BETA1 ** self.t
        correction2 = 1 - BETA2 ** self.t
        w1, w2 = self.grad_weights
        for param, grad, m, v, (update, denom) in zip(
                self.params, grads, self.m, self.v, self._scratch):
            m *= BETA1
            m += np.multiply(grad, w1, out=update)
            v *= BETA2
            np.multiply(grad, grad, out=update)
            update *= w2
            v += update
            np.divide(m, correction1, out=update)
            update *= self.lr
            np.divide(v, correction2, out=denom)
            np.sqrt(denom, out=denom)
            denom += EPS
            update /= denom
            param -= update


def binarize(values: np.ndarray,
             out: Optional[np.ndarray] = None) -> np.ndarray:
    """``np.where(values >= 0, 1.0, -1.0)`` as a compare and a scale.

    The comparison writes 1.0/0.0 straight into the float result, which
    ``* 2 - 1`` maps onto +1/-1: sign(+-0.0) is +1 and NaN gives -1,
    as with ``np.where``.
    """
    out = np.greater_equal(values, 0.0,
                           out=np.empty_like(values) if out is None else out)
    out *= 2.0
    out -= 1.0
    return out


def check_training_data(x: np.ndarray, labels: np.ndarray, input_size: int,
                        n_classes: int,
                        batch_size: int) -> Tuple[np.ndarray, np.ndarray]:
    """Validate a classifier's training set before any arithmetic runs.

    ``x`` must be 2-D with ``input_size`` columns and at least one row;
    ``labels`` 1-D integers in ``[0, n_classes)``, one per row; and
    ``batch_size`` at least 1.  Raises :class:`ConfigurationError` naming
    the bad field; returns ``(x as float64, labels)``.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(labels)
    if x.ndim != 2 or x.shape[1] != input_size:
        raise ConfigurationError(
            f"x: shape {x.shape} does not match input size {input_size}")
    if len(x) == 0:
        raise ConfigurationError("x: no training rows")
    if y.shape != (len(x),):
        raise ConfigurationError(
            f"labels: shape {y.shape}, need one label per row of x "
            f"({len(x)},)")
    if not np.issubdtype(y.dtype, np.integer):
        raise ConfigurationError(f"labels: dtype {y.dtype} is not integer")
    if y.min() < 0 or y.max() >= n_classes:
        raise ConfigurationError(
            f"labels: out of range for the output layer [0, {n_classes})")
    if batch_size < 1:
        raise ConfigurationError(f"batch_size: must be >= 1, got {batch_size}")
    return x, y


class BNNTrainer:
    """Trains a multi-layer BNN with the straight-through estimator."""

    def __init__(
        self,
        layer_sizes: Sequence[int],
        learning_rate: float = 0.01,
        seed: int = 0,
    ):
        if len(layer_sizes) < 2:
            raise ConfigurationError("need at least input and output sizes")
        self.layer_sizes = list(layer_sizes)
        rng = np.random.default_rng(seed)
        self.shadow = [
            rng.uniform(-1, 1, size=(fan_out, fan_in))
            for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:])
        ]
        self.bias = [np.zeros(fan_out) for fan_out in layer_sizes[1:]]
        self._optimizer = Adam(self.shadow + self.bias, lr=learning_rate)
        #: per-layer STE pass-through half-width (pre-activation scale)
        self._ste_clip = [np.sqrt(fan_in) for fan_in in layer_sizes[:-1]]
        #: the binarized shadow weights, written once per step by the
        #: forward pass and read again by the backward pass
        self._w_bin = [np.empty_like(shadow) for shadow in self.shadow]

    # ------------------------------------------------------------------
    def _forward(self, x: np.ndarray):
        """Forward pass; returns (activations, pre_activations)."""
        activations = [x]
        pres = []
        current = x
        last = len(self.shadow) - 1
        for index, (shadow, w_bin, bias) in enumerate(
                zip(self.shadow, self._w_bin, self.bias)):
            pre = current @ binarize(shadow, out=w_bin).T + bias
            pres.append(pre)
            current = pre if index == last else binarize(pre)
            activations.append(current)
        return activations, pres

    def train(
        self,
        x_signs: np.ndarray,
        labels: np.ndarray,
        epochs: int = 20,
        batch_size: int = 64,
        seed: int = 1,
        verbose: bool = False,
    ) -> TrainingHistory:
        """Run Adam over ``(x_signs, labels)``; inputs are in {-1,+1}."""
        x, y = check_training_data(x_signs, labels, self.layer_sizes[0],
                                   self.layer_sizes[-1], batch_size)
        rng = np.random.default_rng(seed)
        history = TrainingHistory()
        scale = 1.0 / np.sqrt(self.layer_sizes[-2])

        for _ in range(epochs):
            order = rng.permutation(len(x))
            epoch_loss = 0.0
            correct = 0
            for start in range(0, len(x), batch_size):
                batch = order[start:start + batch_size]
                xb, yb = x[batch], y[batch]
                activations, pres = self._forward(xb)
                scores = pres[-1] * scale
                scores -= scores.max(axis=1, keepdims=True)
                exp = np.exp(scores)
                probs = exp / exp.sum(axis=1, keepdims=True)
                batch_n = len(batch)
                epoch_loss -= float(
                    np.log(probs[np.arange(batch_n), yb] + 1e-12).sum()
                )
                correct += int((np.argmax(scores, axis=1) == yb).sum())

                grad = probs
                grad[np.arange(batch_n), yb] -= 1.0
                grad *= scale / batch_n

                grads_w: List[np.ndarray] = [None] * len(self.shadow)
                grads_b: List[np.ndarray] = [None] * len(self.bias)
                for index in reversed(range(len(self.shadow))):
                    grads_w[index] = grad.T @ activations[index]
                    grads_b[index] = grad.sum(axis=0)
                    if index > 0:
                        grad = grad @ self._w_bin[index]
                        grad *= (np.abs(pres[index - 1])
                                 <= self._ste_clip[index])
                self._optimizer.step(grads_w + grads_b)
                for index in range(len(self.shadow)):
                    np.clip(self.shadow[index], -1.0, 1.0,
                            out=self.shadow[index])

            epoch_loss /= len(x)
            if not np.isfinite(epoch_loss):
                raise TrainingError("loss diverged to non-finite values")
            history.loss.append(epoch_loss)
            history.train_accuracy.append(correct / len(x))
            if verbose:
                print(f"epoch loss={epoch_loss:.4f} "
                      f"acc={history.train_accuracy[-1]:.3f}")
        return history

    def export_model(self) -> BNNModel:
        """Freeze the trained weights into an integer :class:`BNNModel`."""
        layers = []
        for shadow, bias in zip(self.shadow, self.bias):
            layers.append(BNNLayer(
                weights=binarize(shadow).astype(np.int8),
                bias=np.round(bias).astype(np.int32),
            ))
        return BNNModel(layers)


def train_bnn(
    x_signs: np.ndarray,
    labels: np.ndarray,
    layer_sizes: Sequence[int],
    epochs: int = 20,
    learning_rate: float = 0.01,
    batch_size: int = 64,
    seed: int = 0,
) -> BNNModel:
    """One-call helper: train and export a BNN."""
    trainer = BNNTrainer(layer_sizes, learning_rate=learning_rate, seed=seed)
    trainer.train(x_signs, labels, epochs=epochs, batch_size=batch_size,
                  seed=seed + 1)
    return trainer.export_model()
