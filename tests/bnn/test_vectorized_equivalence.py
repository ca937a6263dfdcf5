"""Differential equivalence of the ``fast`` engine's whole-batch kernels.

The float32 GEMM kernel must be *bit-identical* to the scalar path and
to every other registered engine, and so must the packed XNOR-popcount
kernel the ``fast`` engine falls back to beyond the GEMM exactness
bound — with either popcount backend (``np.bitwise_count`` and the
8-bit table) and across odd topologies.  The engine sweep
auto-discovers engines from the registry, so future backends are
covered by construction.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.bnn.batched as batched
import repro.bnn.vectorized as vec
from repro.bnn import BNNModel, binarize_sign
from repro.bnn import quantize as q
from repro.bnn.batched import (
    batched_hidden_forward,
    batched_scores,
    popcount64,
)
from repro.bnn.vectorized import (
    VectorizedBNNHalf,
    vectorized_hidden_forward,
    vectorized_model,
    vectorized_predict,
    vectorized_scores,
)
from repro.cpu.fastpath import FastEngine
from repro.engine import engine_names, get_engine
from repro.errors import ConfigurationError
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
    """``gemm`` scores through the float32 GEMM; ``packed`` lowers the
    exactness bound below every fan-in, so the same entry points take
    the packed fallback."""
    if request.param == "packed":
        monkeypatch.setattr(vec, "GEMM_MAX_FAN_IN", 1)
    return request.param


class TestPopcountLUT:
    """The 8-bit table ``popcount64`` falls back to without
    ``np.bitwise_count`` (the packed kernel's old-numpy backend)."""

    def test_matches_bitwise_count_semantics(self, monkeypatch):
        rng = np.random.default_rng(0)
        words = rng.integers(0, 2**64, size=(13, 4), dtype=np.uint64)
        expected = popcount64(words)
        monkeypatch.setattr(batched, "_HAS_BITWISE_COUNT", False)
        np.testing.assert_array_equal(popcount64(words), expected)

    def test_extremes(self, monkeypatch):
        monkeypatch.setattr(batched, "_HAS_BITWISE_COUNT", False)
        words = np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64)
        assert popcount64(words).tolist() == [0, 1, 1, 64]

    def test_table_shape(self):
        table = q._POPCOUNT_TABLE
        assert table.shape == (256,)
        assert table[0] == 0 and table[-1] == 8


class TestStrategySelection:
    """GEMM while every ``fan_in < GEMM_MAX_FAN_IN``, packed at the bound;
    the packed twin is lowered only when the fallback needs it."""

    def test_auto_prefers_gemm_within_exact_range(self, monkeypatch):
        monkeypatch.setattr(vec, "GEMM_MAX_FAN_IN", 61)
        model = make_model((60, 40, 10))
        lowered = vectorized_model(model)
        assert lowered.exact and len(lowered.gemm_layers) == 2
        x = make_inputs(model, 5)
        np.testing.assert_array_equal(vectorized_scores(model, x),
                                      _scalar_scores(model, x))
        assert model not in batched._PACKED_CACHE

    def test_auto_falls_back_to_packed_beyond_exact_range(self,
                                                          monkeypatch):
        monkeypatch.setattr(vec, "GEMM_MAX_FAN_IN", 60)
        model = make_model((60, 40, 10))
        lowered = vectorized_model(model)
        assert not lowered.exact and lowered.gemm_layers == []
        x = make_inputs(model, 5)
        np.testing.assert_array_equal(vectorized_scores(model, x),
                                      _scalar_scores(model, x))
        assert model in batched._PACKED_CACHE


class TestBitIdenticalScores:
    @pytest.mark.parametrize("kernel", ["gemm", "packed"], indirect=True)
    @pytest.mark.parametrize("topology", [
        [100, 100, 100, 10],   # the chip's canonical network
        [64, 64, 4],           # exact word multiples
        [65, 64, 3],           # one bit past a word boundary
        [33, 7, 5],            # nothing aligns
        [1, 1, 1],             # degenerate
        [130, 2],              # single layer, multi-word
    ])
    def test_scores_bit_identical(self, topology, kernel):
        model = make_model(topology, seed=42)
        x = make_inputs(model, 23, seed=2)
        got = vectorized_scores(model, x)
        assert vectorized_model(model).exact == (kernel == "gemm")
        assert got.dtype == np.int32
        np.testing.assert_array_equal(got, batched_scores(model, x))
        np.testing.assert_array_equal(got, _scalar_scores(model, x))

    @pytest.mark.parametrize("kernel", ["gemm", "packed"], indirect=True)
    def test_hidden_forward_bit_identical(self, kernel):
        model = make_model((60, 40, 30, 10))
        x = make_inputs(model, 11)
        got = vectorized_hidden_forward(model, x)
        np.testing.assert_array_equal(got, model.hidden_forward_batch(x))
        np.testing.assert_array_equal(got, batched_hidden_forward(model, x))

    def test_predict_matches(self):
        model = make_model()
        x = make_inputs(model, 41)
        np.testing.assert_array_equal(vectorized_predict(model, x),
                                      model.predict_batch(x))

    def test_lut_backend_bit_identical(self, monkeypatch):
        monkeypatch.setattr(vec, "GEMM_MAX_FAN_IN", 1)
        monkeypatch.setattr(batched, "_HAS_BITWISE_COUNT", False)
        model = make_model((65, 33, 5), seed=9)
        x = make_inputs(model, 17, seed=3)
        np.testing.assert_array_equal(vectorized_scores(model, x),
                                      _scalar_scores(model, x))

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_random_topologies_bit_identical(self, data):
        sizes = data.draw(st.lists(st.integers(1, 130), min_size=2,
                                   max_size=5))
        batch = data.draw(st.integers(1, 8))
        seed = data.draw(st.integers(0, 2**16))
        model = make_model(sizes, seed=seed)
        x = make_inputs(model, batch, seed=seed + 1)
        np.testing.assert_array_equal(vectorized_scores(model, x),
                                      _scalar_scores(model, x))


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
    def test_fast_engine_has_gemm_half(self):
        engine = get_engine("fast")
        assert isinstance(engine, FastEngine)
        assert isinstance(engine, VectorizedBNNHalf)
        caps = engine.capabilities
        assert caps.functional and caps.batched
        assert caps.phase_attribution and not caps.timing_accurate

    def test_all_registered_engines_bit_identical(self):
        """The registry sweep: every registered engine must produce the
        oracle's scores, predictions and hidden activations bit for bit
        — auto-discovered, so new engines join for free."""
        model = make_model((100, 100, 100, 10), seed=5)
        x = make_inputs(model, 29, seed=6)
        oracle = get_engine("accurate")
        scores = oracle.scores(model, x)
        predictions = oracle.predict(model, x)
        hidden = oracle.hidden_forward(model, x)
        names = engine_names()
        assert {"accurate", "fast", "parallel"} <= set(names)
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
        with use_session(cache_enabled=False, engine="fast"):
            fast_pred, fast_timing = BNNAccelerator().infer_batch(model, x)
        with use_session(cache_enabled=False, engine="accurate"):
            ref_pred, ref_timing = BNNAccelerator().infer_batch(model, x)
        np.testing.assert_array_equal(fast_pred, ref_pred)
        assert fast_timing == ref_timing
