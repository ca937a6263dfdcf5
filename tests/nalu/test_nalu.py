"""Tests for the NALU model, training, and hardware cost comparison."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.nalu import (
    NALUNetwork,
    PAPER_AREA_RATIOS,
    compare_all,
    compare_operation,
    make_dataset,
    total_alu_comparison,
    train_task,
    train_tasks,
)
from repro.nalu.model import NALUCell


class TestModel:
    def test_dimensions_validated(self):
        with pytest.raises(ConfigurationError):
            NALUCell(0, 3, np.random.default_rng(0))

    def test_forward_shape(self):
        network = NALUNetwork(2, 4, 1, seed=0)
        out = network.forward(np.random.default_rng(0).random((10, 2)))
        assert out.shape == (10, 1)

    def test_forward_deterministic(self):
        x = np.random.default_rng(1).random((5, 2))
        a = NALUNetwork(2, 4, 1, seed=3).forward(x)
        b = NALUNetwork(2, 4, 1, seed=3).forward(x)
        np.testing.assert_array_equal(a, b)

    def test_stack_members_match_lone_networks(self):
        # each member of a stack computes, to the byte, what one network
        # computes alone on the same inputs and output gradient
        rng = np.random.default_rng(2)
        x = rng.random((3, 16, 2))
        grad_out = rng.standard_normal((3, 16, 1))
        stacked = NALUNetwork(2, 4, 1, seed=5, stack=(3,))
        stacked.params += rng.standard_normal(stacked.params.shape) * 0.1
        out = stacked.forward(x)
        stacked.backward(grad_out)
        for k in range(3):
            alone = NALUNetwork(2, 4, 1, seed=5)
            alone.params[...] = stacked.params[k]
            assert alone.forward(x[k]).tobytes() == out[k].tobytes()
            alone.backward(grad_out[k])
            assert alone.grads.tobytes() == stacked.grads[k].tobytes()

    def test_gradients_numerically(self):
        # finite-difference check on a single cell
        rng = np.random.default_rng(0)
        cell = NALUCell(2, 2, rng)
        x = rng.random((4, 2)) + 0.1

        def loss_fn():
            return float(np.sum(cell.forward(x) ** 2))

        base_out = cell.forward(x)
        cell.backward(2.0 * base_out)
        analytic = cell.grad_w_hat.copy()

        eps = 1e-6
        numeric = np.zeros_like(analytic)
        for i in range(analytic.shape[0]):
            for j in range(analytic.shape[1]):
                cell.w_hat[i, j] += eps
                up = loss_fn()
                cell.w_hat[i, j] -= 2 * eps
                down = loss_fn()
                cell.w_hat[i, j] += eps
                numeric[i, j] = (up - down) / (2 * eps)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-6)


class TestDatasets:
    @pytest.mark.parametrize("task", ["add", "sub", "and", "xor", "addsub"])
    def test_shapes(self, task):
        x, y = make_dataset(task, n_samples=64)
        assert x.shape[0] == 64
        assert y.shape == (64, 1)

    def test_add_targets(self):
        x, y = make_dataset("add", n_samples=100, seed=1)
        np.testing.assert_allclose(x[:, 0] + x[:, 1], y[:, 0])

    def test_unknown_task(self):
        with pytest.raises(ConfigurationError):
            make_dataset("nand")

    def test_deterministic(self):
        x1, y1 = make_dataset("xor", seed=5)
        x2, y2 = make_dataset("xor", seed=5)
        np.testing.assert_array_equal(x1, x2)
        np.testing.assert_array_equal(y1, y2)


class TestTraining:
    """Fig 19a: arithmetic learns, Boolean fails, combined collapses."""

    @pytest.fixture(scope="class")
    def results(self):
        return train_tasks(("add", "sub", "xor", "addsub"), steps=800, seed=0)

    def test_add_learns_well(self, results):
        assert results["add"].normalized_error < 0.05

    def test_sub_learns_well(self, results):
        assert results["sub"].normalized_error < 0.10

    def test_xor_fails(self, results):
        assert results["xor"].normalized_error > 0.3

    def test_addsub_near_random(self, results):
        assert results["addsub"].normalized_error > 0.5

    def test_ordering_matches_paper(self, results):
        assert (results["add"].normalized_error
                < results["xor"].normalized_error
                < results["addsub"].normalized_error)

    def test_both_normalizations_available(self, results):
        r = results["add"]
        assert 0 <= r.normalized_error_vs_init <= 1.5

    @pytest.mark.parametrize("field, kwargs", [
        ("batch_size", {"batch_size": 0}),
        ("steps", {"steps": -1}),
    ])
    def test_bad_schedule_rejected(self, field, kwargs):
        with pytest.raises(ConfigurationError, match=f"^{field}:"):
            train_task("add", **kwargs)

    def test_no_tasks_rejected(self):
        with pytest.raises(ConfigurationError, match="^tasks:"):
            train_tasks(())


class TestCost:
    def test_anchored_ratios(self):
        comparisons = compare_all()
        for op, ratio in PAPER_AREA_RATIOS.items():
            assert comparisons[op].ratio == pytest.approx(ratio)

    def test_add_is_17x(self):
        # the paper's headline: "NALU implementation for ADD cost about 17X
        # area than a digital adder"
        assert compare_operation("add").ratio == pytest.approx(17.0)

    def test_all_ops_cost_more_than_10x(self):
        assert all(c.ratio > 10 for c in compare_all().values())

    def test_boolean_relatively_worse_than_arithmetic(self):
        comparisons = compare_all()
        assert comparisons["and"].ratio > comparisons["add"].ratio
        assert comparisons["xor"].ratio > comparisons["sub"].ratio

    def test_total_alu_infeasible(self):
        total = total_alu_comparison()
        assert total.ratio > 10
        assert total.nalu_ge > 10_000  # far beyond an embedded ALU budget

    def test_unknown_operation(self):
        with pytest.raises(ConfigurationError):
            compare_operation("nand")

    def test_multiplier_equivalents(self):
        assert compare_operation("add").multiplier_equivalents > 5
