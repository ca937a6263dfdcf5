"""Differential equivalence of the ``fast`` engine's row-blocked kernels.

The float32 GEMM kernel must be *bit-identical* to the scalar path and
to the ``accurate`` engine, and so must the batch int32 matmul the
``fast`` engine falls back to beyond the GEMM exactness bound, across
odd topologies and at every row-block boundary.  The engine sweep
covers every name in :mod:`repro.engine`, so a new engine is covered by
construction.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.bnn.vectorized as vec
from repro.bnn import BNNModel, binarize_sign
from repro.bnn import quantize as q
from repro.bnn.vectorized import (
    vectorized_hidden_forward,
    vectorized_model,
    vectorized_predict,
    vectorized_scores,
)
from repro.engine import FastEngine, engine_names, get_engine
from repro.errors import ConfigurationError
from repro.scenario import Scenario
from repro.sim import use_session


def make_model(sizes=(60, 40, 10), seed=0):
    return BNNModel.random(list(sizes), np.random.default_rng(seed))


def make_inputs(model, n, seed=1):
    rng = np.random.default_rng(seed)
    return binarize_sign(rng.standard_normal((n, model.input_size)))


def _scalar_scores(model, x):
    return np.stack([model.scores(row) for row in x])


@pytest.fixture
def kernel(request, monkeypatch):
    """``gemm`` scores through the float32 GEMM; ``int32`` lowers the
    exactness bound below every fan-in, so the same entry points take
    the int32 matmul fallback."""
    if request.param == "int32":
        monkeypatch.setattr(vec, "GEMM_MAX_FAN_IN", 1)
    return request.param


class TestPopcountLUT:
    """The 8-bit table behind ``quantize.popcount32``."""

    def test_table_shape(self):
        table = q._POPCOUNT_TABLE
        assert table.shape == (256,)
        assert table[0] == 0 and table[-1] == 8


class TestStrategySelection:
    """GEMM while every ``fan_in < GEMM_MAX_FAN_IN``, the int32 matmul at
    the bound."""

    def test_auto_prefers_gemm_within_exact_range(self, monkeypatch):
        monkeypatch.setattr(vec, "GEMM_MAX_FAN_IN", 61)
        model = make_model((60, 40, 10))
        lowered = vectorized_model(model)
        assert lowered.exact and len(lowered.gemm_layers) == 2
        x = make_inputs(model, 5)
        np.testing.assert_array_equal(vectorized_scores(model, x),
                                      _scalar_scores(model, x))

    def test_auto_falls_back_to_int32_beyond_exact_range(self,
                                                         monkeypatch):
        monkeypatch.setattr(vec, "GEMM_MAX_FAN_IN", 60)
        model = make_model((60, 40, 10))
        lowered = vectorized_model(model)
        assert not lowered.exact and lowered.gemm_layers == []
        x = make_inputs(model, 5)
        np.testing.assert_array_equal(vectorized_scores(model, x),
                                      _scalar_scores(model, x))

    def test_real_bound_wide_layer_takes_the_int32_fallback(self):
        """No monkeypatching: one layer 2**23 (the bound) wide."""
        model = BNNModel.random([2**23, 1], np.random.default_rng(0))
        bits = np.random.default_rng(1).integers(0, 2, size=(2, 2**23),
                                                 dtype=np.int8)
        x = 2 * bits - 1
        engine = get_engine("fast")
        scores = engine.scores(model, x)
        hidden = engine.hidden_forward(model, x)
        assert not vectorized_model(model).exact
        np.testing.assert_array_equal(scores, _scalar_scores(model, x))
        np.testing.assert_array_equal(
            hidden, np.stack([model.layers[0].forward(row) for row in x]))


class TestBitIdenticalScores:
    @pytest.mark.parametrize("kernel", ["gemm", "int32"], indirect=True)
    @pytest.mark.parametrize("topology", [
        [100, 100, 100, 10],   # the chip's canonical network
        [64, 64, 4],           # powers of two
        [65, 64, 3],           # one past a power of two
        [33, 7, 5],            # nothing aligns
        [1, 1, 1],             # degenerate
        [130, 2],              # single layer
        [784, 100, 100, 10],   # MNIST-sized input
    ])
    def test_scores_bit_identical(self, topology, kernel):
        model = make_model(topology, seed=42)
        x = make_inputs(model, 23, seed=2)
        got = vectorized_scores(model, x)
        assert vectorized_model(model).exact == (kernel == "gemm")
        assert got.dtype == np.int32
        np.testing.assert_array_equal(got, _scalar_scores(model, x))

    @pytest.mark.parametrize("kernel", ["gemm", "int32"], indirect=True)
    def test_hidden_forward_bit_identical(self, kernel):
        model = make_model((60, 40, 30, 10))
        x = make_inputs(model, 11)
        got = vectorized_hidden_forward(model, x)
        assert vectorized_model(model).exact == (kernel == "gemm")
        np.testing.assert_array_equal(got, model.hidden_forward_batch(x))
        expected = x
        for layer in model.layers:
            expected = np.stack([layer.forward(row) for row in expected])
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("kernel", ["gemm", "int32"], indirect=True)
    def test_single_row_input_promoted(self, kernel):
        model = make_model((40, 10), seed=3)
        row = make_inputs(model, 1, seed=4)[0]
        np.testing.assert_array_equal(vectorized_scores(model, row)[0],
                                      model.scores(row))

    def test_predict_matches(self):
        model = make_model()
        x = make_inputs(model, 41)
        np.testing.assert_array_equal(vectorized_predict(model, x),
                                      model.predict_batch(x))

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_random_topologies_bit_identical(self, data):
        sizes = data.draw(st.lists(st.integers(1, 130), min_size=2,
                                   max_size=5))
        batch = data.draw(st.integers(1, 8))
        seed = data.draw(st.integers(0, 2**16))
        bound = data.draw(st.sampled_from([vec.GEMM_MAX_FAN_IN, 1]))
        block = data.draw(st.sampled_from([vec.GEMM_ROW_BLOCK, 1, 3]))
        model = make_model(sizes, seed=seed)
        x = make_inputs(model, batch, seed=seed + 1)
        with pytest.MonkeyPatch.context() as patch:
            # bound 1 sends every layer to the int32 fallback; blocks of
            # 1 and 3 rows split any batch larger than the block
            patch.setattr(vec, "GEMM_MAX_FAN_IN", bound)
            patch.setattr(vec, "GEMM_ROW_BLOCK", block)
            np.testing.assert_array_equal(vectorized_scores(model, x),
                                          _scalar_scores(model, x))
            np.testing.assert_array_equal(vectorized_predict(model, x),
                                          model.predict_batch(x))
            np.testing.assert_array_equal(
                vectorized_hidden_forward(model, x),
                model.hidden_forward_batch(x))


class TestRowBlocks:
    """Batches go through in blocks of ``GEMM_ROW_BLOCK`` rows; the rows
    either side of a block boundary score as they do in one piece."""

    @pytest.mark.parametrize("kernel", ["gemm", "int32"], indirect=True)
    @pytest.mark.parametrize("offset", [None, -1, 0, 1])
    def test_bit_identical_at_block_boundary(self, offset, kernel):
        """0 rows (``offset`` None), then block−1, block and block+1."""
        model = make_model((60, 40, 30, 10), seed=7)
        rows = 0 if offset is None else vec.GEMM_ROW_BLOCK + offset
        x = make_inputs(model, rows, seed=8)
        scores = vectorized_scores(model, x)
        predictions = vectorized_predict(model, x)
        hidden = vectorized_hidden_forward(model, x)
        assert scores.shape == (rows, 10) and scores.dtype == np.int32
        assert predictions.shape == (rows,)
        assert hidden.shape == (rows, 10) and hidden.dtype == np.int8
        np.testing.assert_array_equal(scores, model.scores_batch(x))
        np.testing.assert_array_equal(predictions, model.predict_batch(x))
        np.testing.assert_array_equal(hidden, model.hidden_forward_batch(x))
        if rows:
            np.testing.assert_array_equal(scores, _scalar_scores(model, x))

    @pytest.mark.parametrize("rows,sizes", [
        (5, [5]),
        (vec.GEMM_ROW_BLOCK, [vec.GEMM_ROW_BLOCK]),
        (2 * vec.GEMM_ROW_BLOCK + 3,
         [vec.GEMM_ROW_BLOCK, vec.GEMM_ROW_BLOCK, 3]),
    ])
    def test_blocks_are_views_of_the_input(self, monkeypatch, rows, sizes):
        """Each block is a slice of the caller's int8 rows: neither the
        blocking nor the sign check copies them."""
        model = make_model((30, 10))
        x = make_inputs(model, rows)
        seen = []

        def spy(model, lowered, block, _kernel=vec._block_scores):
            seen.append(block)
            return _kernel(model, lowered, block)

        monkeypatch.setattr(vec, "_block_scores", spy)
        vectorized_scores(model, x)
        assert [len(block) for block in seen] == sizes
        assert all(np.shares_memory(block, x) for block in seen)

    @pytest.mark.parametrize("entry", [vectorized_scores,
                                       vectorized_predict,
                                       vectorized_hidden_forward])
    def test_non_sign_value_in_last_block_rejected(self, entry):
        model = make_model((30, 10))
        x = make_inputs(model, vec.GEMM_ROW_BLOCK + 1)
        x[-1, -1] = 0
        with pytest.raises(ConfigurationError, match="sign domain"):
            entry(model, x)


class TestLoweringCache:
    def test_lowering_is_cached_per_model(self):
        model = make_model()
        assert vectorized_model(model) is vectorized_model(model)

    def test_distinct_models_get_distinct_lowerings(self):
        m1, m2 = make_model(seed=0), make_model(seed=0)
        assert vectorized_model(m1) is not vectorized_model(m2)


class TestInputValidation:
    def test_wrong_input_size_rejected(self):
        model = make_model((30, 10))
        with pytest.raises(ConfigurationError):
            vectorized_scores(model, np.ones((4, 29), dtype=np.int8))

    def test_non_sign_values_rejected(self):
        model = make_model((30, 10))
        bad = np.ones((2, 30), dtype=np.int8)
        bad[0, 0] = 0
        with pytest.raises(ConfigurationError):
            vectorized_scores(model, bad)


class TestRegisteredEngine:
    def test_fast_engine_has_gemm_half(self, monkeypatch):
        engine = get_engine("fast")
        assert isinstance(engine, FastEngine)
        assert not engine.capabilities.timing_accurate
        # every BNN entry point goes through the whole-batch kernels
        calls = []
        for name in ("vectorized_scores", "vectorized_predict",
                     "vectorized_hidden_forward"):
            def spy(*args, _kernel=getattr(vec, name), _name=name):
                calls.append(_name)
                return _kernel(*args)
            monkeypatch.setattr(vec, name, spy)
        model = make_model((30, 10))
        x = make_inputs(model, 3)
        for method in ("scores", "predict", "hidden_forward"):
            calls.clear()
            getattr(engine, method)(model, x)
            assert calls[0] == f"vectorized_{method}"

    def test_all_registered_engines_bit_identical(self):
        """The engine sweep: every engine must produce the oracle's
        scores, predictions and hidden activations bit for bit — a new
        engine joins by its name alone."""
        model = make_model((100, 100, 100, 10), seed=5)
        x = make_inputs(model, 29, seed=6)
        oracle = get_engine("accurate")
        scores = oracle.scores(model, x)
        predictions = oracle.predict(model, x)
        hidden = oracle.hidden_forward(model, x)
        names = engine_names()
        assert {"accurate", "fast"} <= set(names)
        for name in names:
            engine = get_engine(name)
            np.testing.assert_array_equal(
                engine.scores(model, x), scores, err_msg=name)
            np.testing.assert_array_equal(
                engine.predict(model, x), predictions, err_msg=name)
            np.testing.assert_array_equal(
                engine.hidden_forward(model, x), hidden, err_msg=name)

    def test_session_engine_fast_end_to_end(self):
        from repro.bnn import BNNAccelerator

        model = make_model()
        x = make_inputs(model, 12)
        with use_session(cache_enabled=False,
                         scenario=Scenario().with_engine(name="fast")):
            fast_pred, fast_timing = BNNAccelerator().infer_batch(model, x)
        with use_session(cache_enabled=False,
                         scenario=Scenario().with_engine(name="accurate")):
            ref_pred, ref_timing = BNNAccelerator().infer_batch(model, x)
        np.testing.assert_array_equal(fast_pred, ref_pred)
        assert fast_timing == ref_timing
