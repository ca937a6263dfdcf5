"""Neural Arithmetic Logic Unit (Trask et al., the paper's ref [36]).

A NALU cell computes, for input vector x:

* add/sub path:  ``a = W x``            with ``W = tanh(What) * sigmoid(Mhat)``
* mul path:      ``m = exp(W log(|x| + eps))``
* gate:          ``g = sigmoid(G x)``
* output:        ``y = g * a + (1 - g) * m``

The paper stacks two layers and trains on 8-bit ALU operations (ADD, SUB,
AND, XOR) with an MSE loss, reporting the error *normalized to a randomly
initialized model* — ADD/SUB learn well, Boolean ops fail, and learning ADD
and SUB simultaneously collapses to near-random (Fig 19a).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError

EPS = 1e-7


def _clip30(values: np.ndarray) -> np.ndarray:
    """``np.clip(values, -30, 30)`` without its Python wrappers;
    bit-identical, NaN and -0.0 included."""
    return np.minimum(np.maximum(values, -30.0), 30.0)


def _sigmoid(values: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-_clip30(values)))


class NALUCell:
    """One NALU layer: ``in_dim -> out_dim``.

    The three parameter matrices ``w_hat``, ``m_hat`` and ``g`` are views
    into the last axis of ``params``, and their gradients into ``grads``,
    in the same order.  A cell allocates both as flat vectors unless the
    caller passes views of its own (how :class:`NALUNetwork` packs two
    cells into one buffer).  Views of shape ``(..., n)`` make a stack of
    independent cells: each matrix gains the leading axes, every stack
    member starts from the same draw, and :meth:`forward` and
    :meth:`backward` take activations with the same leading axes.
    """

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator,
                 params: Optional[np.ndarray] = None,
                 grads: Optional[np.ndarray] = None):
        if in_dim <= 0 or out_dim <= 0:
            raise ConfigurationError("NALU dimensions must be positive")
        self.in_dim = in_dim
        self.out_dim = out_dim
        size = 3 * out_dim * in_dim
        self.params = np.empty(size) if params is None else params
        self.grads = np.empty(size) if grads is None else grads
        shape = self.params.shape[:-1] + (3, out_dim, in_dim)
        self.w_hat, self.m_hat, self.g = \
            np.moveaxis(self.params.reshape(shape), -3, 0)
        self.grad_w_hat, self.grad_m_hat, self.grad_g = \
            np.moveaxis(self.grads.reshape(shape), -3, 0)
        scale = 1.0 / np.sqrt(in_dim)
        for param in (self.w_hat, self.m_hat, self.g):
            param[...] = rng.uniform(-scale, scale, size=(out_dim, in_dim))

    # -- forward ----------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Batch forward; ``x`` is (..., batch, in_dim)."""
        tanh_w = np.tanh(self.w_hat)
        sig_m = _sigmoid(self.m_hat)
        w = tanh_w * sig_m
        w_t = w.swapaxes(-1, -2)
        add = x @ w_t
        abs_x = np.abs(x) + EPS
        log_x = np.log(abs_x)
        mul = np.exp(_clip30(log_x @ w_t))
        gate = _sigmoid(x @ self.g.swapaxes(-1, -2))
        not_gate = 1.0 - gate
        out = gate * add + not_gate * mul
        self._cache = (x, abs_x, log_x, tanh_w, sig_m, w, add, mul, gate,
                       not_gate)
        return out

    # -- backward (writes the parameter grads) ---------------------------
    def backward(self, grad_out: np.ndarray,
                 input_grad: bool = True) -> Optional[np.ndarray]:
        """Write the parameter gradients into :attr:`grads`; return the
        gradient wrt the input, or ``None`` when ``input_grad`` is false
        (an input that is data, not a layer, needs none)."""
        (x, abs_x, log_x, tanh_w, sig_m, w, add, mul, gate,
         not_gate) = self._cache
        grad_add = grad_out * gate
        # the mul path's gradient at its exponent (d exp(z) / dz = mul)
        grad_exp = grad_out * not_gate * mul
        grad_gate = grad_out * (add - mul) * gate * not_gate

        # gate weights
        np.matmul(grad_gate.swapaxes(-1, -2), x, out=self.grad_g)
        # W receives contributions from both paths
        grad_w = (grad_add.swapaxes(-1, -2) @ x
                  + grad_exp.swapaxes(-1, -2) @ log_x)
        np.multiply(grad_w * (1.0 - tanh_w ** 2), sig_m, out=self.grad_w_hat)
        np.multiply(grad_w * tanh_w * sig_m, 1.0 - sig_m,
                    out=self.grad_m_hat)
        if not input_grad:
            return None

        # input gradient (through add, mul and gate paths)
        grad_x = grad_add @ w
        grad_x += (grad_exp @ w) * (np.sign(x) / abs_x)
        grad_x += grad_gate @ self.g
        return grad_x


class NALUNetwork:
    """A two-layer NALU (the paper's configuration).

    Every parameter lives in one flat vector, ``params``, and every
    gradient in ``grads``: each of the six matrices holds at most a few
    elements, so clipping and the optimizer step run once per step over
    the whole network instead of once per matrix.

    ``stack`` puts leading axes in front of that vector: ``params`` and
    ``grads`` become ``stack + (n,)``, one independent network per index,
    all initialized alike, trained on inputs and gradients of shape
    ``stack + (batch, dim)``.  Each index's matrix products are the ones
    a lone network makes, and everything else is elementwise, so every
    member trains exactly as it would alone.
    """

    def __init__(self, in_dim: int, hidden: int, out_dim: int, seed: int = 0,
                 stack: Tuple[int, ...] = ()):
        rng = np.random.default_rng(seed)
        dims = [(in_dim, hidden), (hidden, out_dim)]
        # max(): a non-positive width is NALUCell's error to report
        sizes = [3 * max(fan_in * fan_out, 0) for fan_in, fan_out in dims]
        self.params = np.empty((*stack, sum(sizes)))
        self.grads = np.empty_like(self.params)
        self.layers = []
        offset = 0
        for (fan_in, fan_out), size in zip(dims, sizes):
            span = slice(offset, offset + size)
            self.layers.append(NALUCell(fan_in, fan_out, rng,
                                        self.params[..., span],
                                        self.grads[..., span]))
            offset += size

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = np.asarray(x, dtype=np.float64)
        for layer in self.layers:
            out = layer.forward(out)
        return out

    def backward(self, grad_out: np.ndarray) -> None:
        """Write every parameter gradient into :attr:`grads`."""
        grad = grad_out
        for layer in reversed(self.layers[1:]):
            grad = layer.backward(grad)
        self.layers[0].backward(grad, input_grad=False)
