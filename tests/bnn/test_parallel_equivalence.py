"""Differential equivalence of the ``parallel`` engine.

The sharding contract is *bit-identical logits*: chunking rows across
processes must change nothing, because every row's scores are an exact
integer function of that row alone.  These tests force real sharding
(``min_batch=1``, several workers) on small batches so they stay fast,
pin the serial-fallback decision logic, and check that the stats/probe
accounting is engine-independent — mirroring
``tests/bnn/test_batched_equivalence.py`` for the third engine.
"""

import os

import numpy as np
import pytest

from repro.bnn import BNNAccelerator, BNNModel, binarize_sign
from repro.bnn.batched import batched_scores
from repro.bnn.parallel import (
    MIN_PARALLEL_BATCH,
    PARALLEL_SHM_ENV_VAR,
    PARALLEL_WORKERS_ENV_VAR,
    chunk_bounds,
    default_workers,
    parallel_predict,
    parallel_scores,
    shm_default,
    shutdown_pool,
)
from repro.engine import engine_names, get_engine
from repro.errors import ConfigurationError
from repro.sim import use_session


@pytest.fixture(scope="module", autouse=True)
def _pool_teardown():
    yield
    shutdown_pool()


def make_model(sizes=(60, 40, 10), seed=0):
    return BNNModel.random(list(sizes), np.random.default_rng(seed))


def make_inputs(model, n, seed=1):
    rng = np.random.default_rng(seed)
    return binarize_sign(rng.standard_normal((n, model.input_size)))


class TestChunking:
    def test_bounds_cover_exactly_once(self):
        bounds = chunk_bounds(1000, workers=3, min_chunk=100)
        assert bounds[0][0] == 0
        assert bounds[-1][1] == 1000
        for (_, stop), (next_start, _) in zip(bounds, bounds[1:]):
            assert stop == next_start

    def test_chunk_sizes_differ_by_at_most_one(self):
        bounds = chunk_bounds(1003, workers=4, min_chunk=1)
        sizes = [stop - start for start, stop in bounds]
        assert max(sizes) - min(sizes) <= 1

    def test_min_chunk_limits_split(self):
        bounds = chunk_bounds(300, workers=8, min_chunk=128)
        assert len(bounds) == 2  # 300 rows can hold only two 128-row chunks

    def test_small_batch_yields_single_chunk(self):
        assert chunk_bounds(100, workers=8, min_chunk=128) == [(0, 100)]

    def test_empty_batch(self):
        assert chunk_bounds(0, workers=4) == []


class TestWorkersConfig:
    def test_env_var_overrides(self):
        assert default_workers({PARALLEL_WORKERS_ENV_VAR: "3"}) == 3

    def test_default_is_cpu_count(self):
        assert default_workers({}) == (os.cpu_count() or 1)

    def test_rejects_non_integer(self):
        with pytest.raises(ConfigurationError):
            default_workers({PARALLEL_WORKERS_ENV_VAR: "many"})

    def test_rejects_non_positive(self):
        with pytest.raises(ConfigurationError):
            default_workers({PARALLEL_WORKERS_ENV_VAR: "0"})


class TestShardedEquivalence:
    """Forced sharding (min_batch=1) must be bit-identical to serial."""

    def test_scores_match_fast_and_accurate(self):
        model = make_model()
        x = make_inputs(model, 37)
        sharded = parallel_scores(model, x, workers=4, min_batch=1)
        np.testing.assert_array_equal(sharded, batched_scores(model, x))
        np.testing.assert_array_equal(
            sharded, get_engine("accurate").scores(model, x))

    def test_predict_matches(self):
        model = make_model()
        x = make_inputs(model, 41)
        np.testing.assert_array_equal(
            parallel_predict(model, x, workers=3, min_batch=1),
            model.predict_batch(x))

    def test_uneven_batch_sizes(self):
        model = make_model()
        for n in (1, 2, 7, 33):
            x = make_inputs(model, n, seed=n)
            np.testing.assert_array_equal(
                parallel_scores(model, x, workers=4, min_batch=1),
                batched_scores(model, x))

    def test_pool_reuse_across_models(self):
        first, second = make_model(seed=2), make_model((48, 32, 4), seed=3)
        x1, x2 = make_inputs(first, 9), make_inputs(second, 9)
        np.testing.assert_array_equal(
            parallel_scores(first, x1, workers=2, min_batch=1),
            batched_scores(first, x1))
        np.testing.assert_array_equal(
            parallel_scores(second, x2, workers=2, min_batch=1),
            batched_scores(second, x2))

    def test_hidden_forward_matches_engines(self):
        model = make_model((60, 40, 30, 10))
        x = make_inputs(model, 11)
        np.testing.assert_array_equal(
            get_engine("parallel").hidden_forward(model, x),
            model.hidden_forward_batch(x))


class TestShardTransports:
    """Both shard transports must be bit-identical and probed."""

    def _run(self, use_shm):
        model = make_model()
        # 300 rows >= 2 * MIN_CHUNK_ROWS, so the chunker really shards
        x = make_inputs(model, 300)
        events = []
        with use_session(cache_enabled=False) as session:
            for event in ("bnn.parallel.shard", "bnn.parallel.merge"):
                session.stats.subscribe(
                    event, lambda name, payload: events.append(
                        (name, dict(payload))))
            scores = parallel_scores(model, x, workers=2, min_batch=1,
                                     use_shm=use_shm)
        np.testing.assert_array_equal(scores, batched_scores(model, x))
        return events

    def test_shared_memory_branch(self):
        events = self._run(use_shm=True)
        shards = [p for name, p in events if name == "bnn.parallel.shard"]
        merges = [p for name, p in events if name == "bnn.parallel.merge"]
        assert len(shards) >= 2 and len(merges) == 1
        assert all(p["transport"] == "shm" for p in shards + merges)
        assert sum(p["rows"] for p in shards) == 300

    def test_pickling_fallback_branch(self):
        events = self._run(use_shm=False)
        shards = [p for name, p in events if name == "bnn.parallel.shard"]
        merges = [p for name, p in events if name == "bnn.parallel.merge"]
        assert len(shards) >= 2 and len(merges) == 1
        assert all(p["transport"] == "pickle" for p in shards + merges)
        assert sum(p["rows"] for p in shards) == 300

    def test_env_var_disables_shared_memory(self):
        assert shm_default({PARALLEL_SHM_ENV_VAR: "0"}) is False
        assert shm_default({PARALLEL_SHM_ENV_VAR: "off"}) is False
        assert shm_default({}) is True

    def test_env_var_forces_pickling_end_to_end(self, monkeypatch):
        monkeypatch.setenv(PARALLEL_SHM_ENV_VAR, "0")
        events = self._run(use_shm=None)
        shards = [p for name, p in events if name == "bnn.parallel.shard"]
        assert shards and all(p["transport"] == "pickle" for p in shards)

    def test_shm_unavailable_falls_back_to_pickling(self, monkeypatch):
        import repro.bnn.parallel as par

        monkeypatch.setattr(par, "_shared_memory_module", lambda: None)
        events = self._run(use_shm=None)
        shards = [p for name, p in events if name == "bnn.parallel.shard"]
        assert shards and all(p["transport"] == "pickle" for p in shards)


class TestSerialFallback:
    def test_small_batch_stays_serial(self, monkeypatch):
        import repro.bnn.parallel as par

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("pool used for a small batch")

        monkeypatch.setattr(par, "_get_pool", boom)
        model = make_model()
        x = make_inputs(model, MIN_PARALLEL_BATCH - 1)
        np.testing.assert_array_equal(
            par.parallel_scores(model, x, workers=4),
            batched_scores(model, x))

    def test_single_worker_stays_serial(self, monkeypatch):
        import repro.bnn.parallel as par

        monkeypatch.setattr(par, "_get_pool", lambda *a, **k: (
            (_ for _ in ()).throw(AssertionError("pool used"))))
        model = make_model()
        x = make_inputs(model, MIN_PARALLEL_BATCH + 8)
        np.testing.assert_array_equal(
            par.parallel_scores(model, x, workers=1, min_batch=1),
            batched_scores(model, x))


class TestEngineAccounting:
    """Stats registry and timing must not depend on the engine."""

    def _run(self, engine):
        model = make_model()
        x = make_inputs(model, 12)
        with use_session(cache_enabled=False, engine=engine) as session:
            predictions, timing = BNNAccelerator().infer_batch(model, x)
            counters = session.stats.counters("bnn.")
        return list(predictions), timing.total_cycles, counters

    def test_every_registered_engine_accounting_identical(self):
        """Auto-discovered (accurate/fast/parallel today): timing,
        predictions and ``bnn.*`` counters must be identical under every
        registered engine, including any added later."""
        names = engine_names()
        assert {"accurate", "fast", "parallel"} <= set(names)
        oracle = self._run("accurate")
        for name in names:
            assert self._run(name) == oracle, name
