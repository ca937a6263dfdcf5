"""Tests for repro.sim: config hashing, the artifact cache, and sessions."""

import dataclasses

import numpy as np
import pytest

from repro.sim import (
    ArtifactCache,
    CACHE_ENV_VAR,
    NO_CACHE_ENV_VAR,
    SimConfig,
    SimSession,
    config_hash,
    get_session,
    reset_session,
    set_session,
    source_fingerprint,
    use_session,
)


@pytest.fixture(autouse=True)
def _fresh_session():
    previous = set_session(None)
    yield
    set_session(previous)


class TestConfigHash:
    def test_deterministic(self):
        assert config_hash({"a": 1, "b": [2, 3]}) == \
            config_hash({"a": 1, "b": [2, 3]})

    def test_distinct_inputs_distinct_hashes(self):
        assert config_hash({"a": 1}) != config_hash({"a": 2})

    def test_dict_order_irrelevant(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})

    def test_tuple_equals_list(self):
        assert config_hash((1, 2, 3)) == config_hash([1, 2, 3])

    def test_numpy_scalars_canonicalized(self):
        assert config_hash(np.int64(5)) == config_hash(5)
        assert config_hash(np.float64(0.5)) == config_hash(0.5)

    def test_dataclasses_canonicalized(self):
        @dataclasses.dataclass
        class Point:
            x: int
            y: int

        assert config_hash(Point(1, 2)) == config_hash(Point(1, 2))
        assert config_hash(Point(1, 2)) != config_hash(Point(2, 1))

    def test_short_stable_hex(self):
        digest = config_hash("anything")
        assert len(digest) == 20
        int(digest, 16)  # valid hex

    def test_source_fingerprint_tracks_code(self):
        def f():
            return 1

        def g():
            return 2

        assert source_fingerprint(f) == source_fingerprint(f)
        assert source_fingerprint(f) != source_fingerprint(g)


class TestSimConfig:
    def test_hash_ignores_cache_location(self):
        base = SimConfig(cache_dir="/a")
        moved = SimConfig(cache_dir="/b", cache_enabled=False)
        assert base.hash == moved.hash

    def test_hash_tracks_seed_and_scenario(self):
        from repro.scenario import Scenario

        assert SimConfig(seed=1).hash != SimConfig(seed=2).hash
        assert SimConfig(scenario=Scenario(batch_size=8)).hash != \
            SimConfig(scenario=Scenario(batch_size=9)).hash

    def test_from_env(self):
        config = SimConfig.from_env({CACHE_ENV_VAR: "/tmp/x",
                                     NO_CACHE_ENV_VAR: "1"})
        assert config.cache_dir == "/tmp/x"
        assert not config.cache_enabled
        assert SimConfig.from_env({NO_CACHE_ENV_VAR: "0"}).cache_enabled

    def test_resolved_cache_dir_expands_user(self):
        assert "~" not in str(SimConfig().resolved_cache_dir)

    def test_hash_ignores_engine(self):
        from repro.engine import engine_names

        # engines are bit-identical by contract, so artifacts cached
        # under one engine stay valid under every other
        hashes = {SimConfig(engine=name).hash for name in engine_names()}
        assert len(hashes) == 1

    def test_engine_round_trips_through_env(self):
        from repro.sim import ENGINE_ENV_VAR

        config = SimConfig.from_env({ENGINE_ENV_VAR: "fast"})
        assert config.engine == "fast"
        assert SimConfig.from_env({}).engine == "accurate"

    def test_unknown_engine_rejected_with_registered_names(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError) as excinfo:
            SimConfig(engine="warp")
        message = str(excinfo.value)
        assert "warp" in message
        assert "registered engines" in message
        assert "fast" in message


class TestArtifactCache:
    def test_fetch_builds_once(self, tmp_path):
        cache = ArtifactCache(root=tmp_path)
        calls = []

        def build():
            calls.append(1)
            return {"value": 7}

        assert cache.fetch("ns", "k", build) == {"value": 7}
        assert cache.fetch("ns", "k", build) == {"value": 7}
        assert len(calls) == 1
        assert cache.stats == {"hits": 1, "misses": 1, "stores": 1}

    def test_disk_round_trip_across_instances(self, tmp_path):
        ArtifactCache(root=tmp_path).put("models", "abc", [1, 2, 3])
        fresh = ArtifactCache(root=tmp_path)
        assert fresh.get("models", "abc") == [1, 2, 3]
        assert fresh.path_for("models", "abc").exists()

    def test_clear_memory_keeps_disk(self, tmp_path):
        cache = ArtifactCache(root=tmp_path)
        cache.put("ns", "k", "v")
        cache.clear_memory()
        assert cache.get("ns", "k") == "v"

    def test_clear_namespace(self, tmp_path):
        cache = ArtifactCache(root=tmp_path)
        cache.put("a", "k", 1)
        cache.put("b", "k", 2)
        cache.clear("a")
        assert not cache.has("a", "k")
        assert cache.get("b", "k") == 2
        cache.clear()
        assert not cache.has("b", "k")

    def test_corrupt_file_degrades_to_miss(self, tmp_path):
        cache = ArtifactCache(root=tmp_path)
        path = cache.path_for("ns", "bad")
        path.parent.mkdir(parents=True)
        path.write_bytes(b"not a pickle")
        assert cache.get("ns", "bad", default="fallback") == "fallback"

    def test_disabled_cache_always_builds(self, tmp_path):
        cache = ArtifactCache(root=tmp_path, enabled=False)
        calls = []
        for _ in range(2):
            cache.fetch("ns", "k", lambda: calls.append(1))
        assert len(calls) == 2
        assert not (tmp_path / "ns").exists()

    def test_env_var_controls_default_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "envroot"))
        assert ArtifactCache().root == tmp_path / "envroot"

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        cache = ArtifactCache(root=tmp_path)
        cache.put("ns", "k", list(range(100)))
        leftovers = [p for p in (tmp_path / "ns").iterdir()
                     if p.suffix != ".pkl"]
        assert leftovers == []

    def test_unpicklable_value_stays_memory_only(self, tmp_path):
        cache = ArtifactCache(root=tmp_path)
        value = lambda: None  # noqa: E731 - locals do not pickle
        cache.put("ns", "k", value)
        assert cache.get("ns", "k") is value
        assert not ArtifactCache(root=tmp_path).has("ns", "k")


class TestSession:
    def test_get_session_lazy_singleton(self):
        assert get_session() is get_session()

    def test_set_session_returns_previous(self, tmp_path):
        first = get_session()
        mine = SimSession(SimConfig(cache_dir=str(tmp_path)))
        assert set_session(mine) is first
        assert get_session() is mine

    def test_reset_session_makes_fresh_default(self):
        before = get_session()
        reset_session()
        assert get_session() is not before

    def test_use_session_restores_previous(self, tmp_path):
        outer = get_session()
        with use_session(cache_dir=str(tmp_path)) as session:
            assert get_session() is session
            assert session.cache.root == tmp_path
        assert get_session() is outer

    def test_session_wires_config_to_cache(self, tmp_path):
        session = SimSession(SimConfig(cache_dir=str(tmp_path),
                                       cache_enabled=False))
        assert session.cache.root == tmp_path
        assert not session.cache.enabled
        assert session.config_hash == session.config.hash

    def test_stats_json_round_trips(self):
        import json

        session = SimSession()
        session.stats.incr("demo.counter", 3)
        payload = json.loads(session.stats_json())
        assert payload["counters"]["demo.counter"] == 3
