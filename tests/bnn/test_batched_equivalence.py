"""Differential equivalence: whole-batch BNN scoring vs. the scalar path.

Two paths score a whole batch at once: the ``fast`` engine's float32
GEMM, reached through the :mod:`repro.engine` registry, and the oracle's
int32 batch matmul :meth:`BNNModel.scores_batch`, which backs
``predict_batch`` and the ``fast`` engine's exactness fallback.  The
contract is *bit-identical logits*, not approximate agreement: for every
topology and batch both must equal the per-row scalar scores exactly,
and the trace/timing accounting must not depend on the engine.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bnn import BNNAccelerator, BNNModel
from repro.engine import get_engine, resolve_engine
from repro.errors import ConfigurationError
from repro.scenario import Scenario
from repro.sim import use_session
from repro.trace import tracing


def _random_inputs(rng, batch, n):
    x = np.sign(rng.standard_normal((batch, n))).astype(np.int8)
    x[x == 0] = 1
    return x


def _scalar_scores(model, x):
    return np.stack([model.scores(row) for row in x])


def _assert_batch_paths_match_scalar(model, x):
    expected = _scalar_scores(model, x)
    for batched in (get_engine("fast").scores(model, x),
                    model.scores_batch(x)):
        assert batched.dtype == np.int32
        np.testing.assert_array_equal(batched, expected)


class TestBitIdenticalScores:
    @pytest.mark.parametrize("topology", [
        [100, 100, 100, 10],   # the chip's canonical network
        [784, 100, 100, 10],   # MNIST-sized input
        [64, 64, 4],           # powers of two
        [65, 64, 3],           # one past a power of two
        [33, 7, 5],            # nothing aligns
        [1, 1, 1],             # degenerate
        [130, 2],              # single layer
    ])
    def test_scores_bit_identical(self, topology):
        rng = np.random.default_rng(42)
        model = BNNModel.random(topology, rng)
        x = _random_inputs(rng, 23, topology[0])
        _assert_batch_paths_match_scalar(model, x)

    def test_predictions_match_predict_batch(self):
        rng = np.random.default_rng(7)
        model = BNNModel.random([100, 100, 100, 10], rng)
        x = _random_inputs(rng, 50, 100)
        np.testing.assert_array_equal(get_engine("fast").predict(model, x),
                                      model.predict_batch(x))
        np.testing.assert_array_equal(
            model.predict_batch(x),
            np.array([model.predict(row) for row in x]))

    def test_single_row_input_promoted(self):
        rng = np.random.default_rng(3)
        model = BNNModel.random([40, 10], rng)
        row = _random_inputs(rng, 1, 40)[0]
        np.testing.assert_array_equal(get_engine("fast").scores(model, row)[0],
                                      model.scores(row))

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_random_topologies_bit_identical(self, data):
        sizes = data.draw(st.lists(st.integers(1, 130), min_size=2,
                                   max_size=5))
        batch = data.draw(st.integers(1, 8))
        seed = data.draw(st.integers(0, 2**16))
        rng = np.random.default_rng(seed)
        model = BNNModel.random(sizes, rng)
        x = _random_inputs(rng, batch, sizes[0])
        _assert_batch_paths_match_scalar(model, x)


class TestInputValidation:
    def test_wrong_input_size_rejected(self):
        model = BNNModel.random([30, 10], np.random.default_rng(0))
        with pytest.raises(ConfigurationError):
            get_engine("fast").scores(model, np.ones((4, 29), dtype=np.int8))

    def test_non_sign_values_rejected(self):
        model = BNNModel.random([30, 10], np.random.default_rng(0))
        bad = np.ones((2, 30), dtype=np.int8)
        bad[0, 0] = 0
        with pytest.raises(ConfigurationError):
            get_engine("fast").scores(model, bad)


class TestEngineSelection:
    def test_engines_agree(self):
        rng = np.random.default_rng(11)
        model = BNNModel.random([100, 100, 10], rng)
        x = _random_inputs(rng, 16, 100)
        np.testing.assert_array_equal(
            resolve_engine("fast").predict(model, x),
            resolve_engine("accurate").predict(model, x))

    def test_default_engine_follows_session(self):
        rng = np.random.default_rng(11)
        model = BNNModel.random([50, 10], rng)
        x = _random_inputs(rng, 4, 50)
        with use_session(cache_enabled=False,
                         scenario=Scenario().with_engine(name="fast")):
            fast_engine = resolve_engine()
            fast = fast_engine.predict(model, x)
        with use_session(cache_enabled=False,
                         scenario=Scenario().with_engine(name="accurate")):
            accurate_engine = resolve_engine()
            accurate = accurate_engine.predict(model, x)
        assert fast_engine is get_engine("fast")
        assert accurate_engine is get_engine("accurate")
        np.testing.assert_array_equal(fast, accurate)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_engine("warp")


class TestAcceleratorAccounting:
    """Trace events and cycle/MAC accounting must be engine-independent."""

    def _run(self, engine):
        rng = np.random.default_rng(5)
        model = BNNModel.random([100, 100, 10], rng)
        x = _random_inputs(rng, 12, 100)
        with use_session(cache_enabled=False) as session:
            with tracing(session) as tracer:
                predictions, timing = BNNAccelerator().infer_batch(
                    model, x, engine=engine)
            counters = session.stats
        return predictions, timing, tracer.events, counters

    def test_identical_predictions_timing_probes_counters(self):
        fast = self._run("fast")
        accurate = self._run("accurate")
        np.testing.assert_array_equal(fast[0], accurate[0])
        assert fast[1] == accurate[1]
        assert fast[2] == accurate[2]
        assert fast[3] == accurate[3]
        names = [event.name for event in fast[2]]
        assert "bnn.batch" in names
