"""Tests for the STE trainer."""

import numpy as np
import pytest

from repro.bnn import BNNTrainer, synthetic_mnist, train_bnn
from repro.bnn.multibit import FloatMLP
from repro.bnn.training import Adam, binarize
from repro.errors import ConfigurationError
from repro.nalu import make_dataset, train_task
from repro.nalu.model import EPS


def toy_problem(n=400, seed=0):
    """Linearly separable 2-class problem in sign domain."""
    rng = np.random.default_rng(seed)
    x = np.where(rng.standard_normal((n, 16)) > 0, 1, -1)
    labels = (x[:, :8].sum(axis=1) > x[:, 8:].sum(axis=1)).astype(np.int64)
    return x, labels


class TestTrainerBasics:
    def test_needs_two_sizes(self):
        with pytest.raises(ConfigurationError):
            BNNTrainer([10])

    def test_input_shape_checked(self):
        trainer = BNNTrainer([8, 2])
        with pytest.raises(ConfigurationError):
            trainer.train(np.ones((4, 9)), np.zeros(4, dtype=int), epochs=1)

    def test_labels_range_checked(self):
        trainer = BNNTrainer([8, 2])
        with pytest.raises(ConfigurationError):
            trainer.train(np.ones((4, 8)), np.array([0, 1, 2, 0]), epochs=1)

    def test_shadow_weights_stay_clipped(self):
        x, y = toy_problem()
        trainer = BNNTrainer([16, 8, 2], learning_rate=0.1)
        trainer.train(x, y, epochs=3)
        for shadow in trainer.shadow:
            assert np.all(np.abs(shadow) <= 1.0)

    def test_history_lengths(self):
        x, y = toy_problem()
        trainer = BNNTrainer([16, 2])
        history = trainer.train(x, y, epochs=5)
        assert len(history.loss) == 5
        assert len(history.train_accuracy) == 5

    def test_deterministic_given_seeds(self):
        x, y = toy_problem()
        m1 = train_bnn(x, y, [16, 8, 2], epochs=3, seed=42)
        m2 = train_bnn(x, y, [16, 8, 2], epochs=3, seed=42)
        for l1, l2 in zip(m1.layers, m2.layers):
            np.testing.assert_array_equal(l1.weights, l2.weights)
            np.testing.assert_array_equal(l1.bias, l2.bias)


class TestLearning:
    def test_learns_separable_problem(self):
        x, y = toy_problem()
        model = train_bnn(x, y, [16, 32, 2], epochs=30, seed=0)
        assert model.accuracy(x, y) > 0.9

    def test_loss_decreases(self):
        x, y = toy_problem()
        trainer = BNNTrainer([16, 16, 2], learning_rate=0.01)
        history = trainer.train(x, y, epochs=10)
        assert history.loss[-1] < history.loss[0]

    def test_exported_model_is_pure_integer(self):
        x, y = toy_problem()
        model = train_bnn(x, y, [16, 8, 2], epochs=2)
        for layer in model.layers:
            assert layer.weights.dtype == np.int8
            assert set(np.unique(layer.weights)) <= {-1, 1}
            assert layer.bias.dtype == np.int32

    def test_deep_network_trains_on_synthetic_mnist(self):
        # small/fast smoke version of the paper's 4x100 topology
        ds = synthetic_mnist(n_samples=1200, seed=0)
        train, test = ds.split(0.8)
        model = train_bnn(train.binarized(), train.labels,
                          [256, 64, 64, 64, 10], epochs=10, seed=0)
        accuracy = model.accuracy(test.binarized(), test.labels)
        assert accuracy > 0.6  # far above the 10 % random floor


#: malformed training sets: (field the error names, x, labels, batch_size)
MALFORMED = {
    "more_labels_than_rows": ("labels", np.ones((4, 8)), np.zeros(5, int), 2),
    "column_labels": ("labels", np.ones((4, 8)), np.zeros((4, 1), int), 2),
    "short_labels": ("labels", np.ones((4, 8)), np.zeros(3, int), 2),
    "float_labels": ("labels", np.ones((4, 8)), np.zeros(4), 2),
    "no_rows": ("x", np.ones((0, 8)), np.zeros(0, int), 2),
    "zero_batch_size": ("batch_size", np.ones((4, 8)), np.zeros(4, int), 0),
}

#: plus two the float MLP accepted while the BNN trainer already refused
MLP_MALFORMED = {
    **MALFORMED,
    "negative_label": ("labels", np.ones((4, 8)), np.array([0, 1, -1, 0]), 2),
    "wrong_width": ("x", np.ones((4, 9)), np.zeros(4, int), 2),
}


class TestMalformedTrainingData:
    """Both classifiers' ``train`` reject bad data before any arithmetic."""

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_bnn_trainer_rejects(self, case):
        field, x, labels, batch_size = MALFORMED[case]
        trainer = BNNTrainer([8, 3])
        before = [shadow.copy() for shadow in trainer.shadow]
        with pytest.raises(ConfigurationError, match=f"^{field}:"):
            trainer.train(x, labels, epochs=1, batch_size=batch_size)
        for kept, shadow in zip(before, trainer.shadow):
            np.testing.assert_array_equal(kept, shadow)

    @pytest.mark.parametrize("case", sorted(MLP_MALFORMED))
    def test_float_mlp_rejects(self, case):
        field, x, labels, batch_size = MLP_MALFORMED[case]
        mlp = FloatMLP([8, 3])
        before = [w.copy() for w in mlp.weights]
        with pytest.raises(ConfigurationError, match=f"^{field}:"):
            mlp.train(x, labels, epochs=1, batch_size=batch_size)
        for kept, w in zip(before, mlp.weights):
            np.testing.assert_array_equal(kept, w)


class TextbookAdam:
    """The allocating Adam every trainer ran before, kept as the reference."""

    def __init__(self, params, lr, w1, w2):
        self.lr, self.w1, self.w2 = lr, w1, w2
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, params, grads):
        self.t += 1
        c1 = 1 - 0.9 ** self.t
        c2 = 1 - 0.999 ** self.t
        for i, (p, g) in enumerate(zip(params, grads)):
            self.m[i] = 0.9 * self.m[i] + self.w1 * g
            self.v[i] = 0.999 * self.v[i] + self.w2 * g ** 2
            p -= self.lr * (self.m[i] / c1) / (np.sqrt(self.v[i] / c2) + 1e-8)


class TestBitIdentity:
    """The in-place arithmetic equals the expressions it replaced, byte
    for byte, on whatever BLAS and SIMD build runs the suite."""

    @pytest.mark.parametrize("weights", [(1 - 0.9, 1 - 0.999), (0.1, 0.001)],
                             ids=["one_minus_beta", "literals"])
    def test_adam_matches_textbook(self, weights):
        rng = np.random.default_rng(7)
        shapes = [(13, 7), (7,), (3, 5, 2)]
        expected = [rng.standard_normal(shape) for shape in shapes]
        reference = TextbookAdam(expected, 0.01, *weights)
        optimizer = Adam([p.copy() for p in expected], lr=0.01,
                         grad_weights=weights)
        for _ in range(50):
            grads = [rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 2)
                     for shape in shapes]
            reference.step(expected, grads)
            optimizer.step(grads)
        for got, want in zip(optimizer.params, expected):
            assert got.tobytes() == want.tobytes()

    def test_binarize_matches_where(self):
        values = np.random.default_rng(3).standard_normal((9, 11))
        values.flat[:6] = [0.0, -0.0, np.nan, -np.inf, np.inf, -5e-324]
        expected = np.where(values >= 0, 1.0, -1.0)
        assert binarize(values).tobytes() == expected.tobytes()
        out = np.empty_like(values)
        assert binarize(values, out=out) is out
        assert out.tobytes() == expected.tobytes()

    def test_nalu_training_matches_per_array_reference(self):
        """:func:`train_task` through the flat buffer lands on the same MSE,
        to the last bit, as the per-matrix trainer.  Twenty steps let a
        one-ulp change in Adam's moment weights (``1 - 0.9`` for ``0.1``)
        reach the MSE; three do not."""
        task, hidden, steps, batch_size, lr, seed = "sub", 4, 20, 32, 0.02, 4
        result = train_task(task, hidden=hidden, steps=steps,
                            batch_size=batch_size, learning_rate=lr,
                            seed=seed)

        x, y = make_dataset(task, seed=seed)
        params = nalu_init(x.shape[1], hidden, seed)
        random_mse = float(np.mean([
            np.mean((nalu_forward(nalu_init(x.shape[1], hidden,
                                            seed + 100 + k), x)[0] - y) ** 2)
            for k in range(5)]))
        optimizer = TextbookAdam(params, lr, 0.1, 0.001)
        rng = np.random.default_rng(seed + 1)
        for _ in range(steps):
            batch = rng.integers(0, len(x), size=batch_size)
            grads = nalu_grads(params, x[batch], y[batch])
            optimizer.step(params, [np.clip(g, -1.0, 1.0) for g in grads])
        final_mse = float(np.mean((nalu_forward(params, x)[0] - y) ** 2))
        assert (repr(result.random_mse), repr(result.final_mse)) \
            == (repr(random_mse), repr(final_mse))


def nalu_sigmoid(values):
    return 1.0 / (1.0 + np.exp(-np.clip(values, -30, 30)))


def nalu_init(in_dim, hidden, seed):
    """Per-matrix parameters ``[w_hat, m_hat, g]`` of both NALU layers."""
    rng = np.random.default_rng(seed)
    params = []
    for fan_in, fan_out in ((in_dim, hidden), (hidden, 1)):
        scale = 1.0 / np.sqrt(fan_in)
        params += [rng.uniform(-scale, scale, size=(fan_out, fan_in))
                   for _ in range(3)]
    return params


def nalu_forward(params, x):
    caches, out = [], x
    for w_hat, m_hat, g in (params[:3], params[3:]):
        w = np.tanh(w_hat) * nalu_sigmoid(m_hat)
        add = out @ w.T
        log_x = np.log(np.abs(out) + EPS)
        mul = np.exp(np.clip(log_x @ w.T, -30, 30))
        gate = nalu_sigmoid(out @ g.T)
        caches.append((out, w, add, mul, gate, log_x))
        out = gate * add + (1.0 - gate) * mul
    return out, caches


def nalu_grads(params, x, y):
    """Per-matrix MSE gradients, tanh/sigmoid recomputed as before."""
    out, caches = nalu_forward(params, x)
    grad = 2.0 * (out - y) / len(x)
    grads = []
    for (w_hat, m_hat, g), (x_in, w, add, mul, gate, log_x) in zip(
            (params[3:], params[:3]), reversed(caches)):
        grad_add = grad * gate
        grad_mul = grad * (1.0 - gate)
        grad_gate = grad * (add - mul) * gate * (1.0 - gate)
        grad_w = grad_add.T @ x_in + (grad_mul * mul).T @ log_x
        tanh_w, sig_m = np.tanh(w_hat), nalu_sigmoid(m_hat)
        grads[:0] = [grad_w * (1.0 - tanh_w ** 2) * sig_m,
                     grad_w * tanh_w * sig_m * (1.0 - sig_m),
                     grad_gate.T @ x_in]
        grad = (grad_add @ w + ((grad_mul * mul) @ w)
                * (np.sign(x_in) / (np.abs(x_in) + EPS)) + grad_gate @ g)
    return grads
