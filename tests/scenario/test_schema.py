"""The declarative scenario schema: validation, round-trips, hashing."""

import dataclasses
import json

import pytest

from repro.errors import ConfigurationError
from repro.scenario import (
    DevicePoint,
    EngineSpec,
    Scenario,
    WorkloadSpec,
    load_scenario,
)


def full_scenario() -> Scenario:
    """A scenario with every field away from its default."""
    return Scenario(
        name="everything",
        workload=WorkloadSpec(kind="bnn", name="synthetic",
                              layer_sizes=(784, 64, 33, 10), iterations=3),
        engine=EngineSpec(name="fast", prefer_functional=True),
        seed=1234,
        batch_size=48,
        batch_policy="stream",
        device=DevicePoint(profile="max78000"),
    )


class TestRoundTrip:
    def test_from_dict_of_to_dict_is_identity(self):
        scenario = full_scenario()
        assert Scenario.from_dict(scenario.to_dict()) == scenario

    def test_default_scenario_round_trips(self):
        scenario = Scenario()
        assert Scenario.from_dict(scenario.to_dict()) == scenario

    def test_cpu_scenario_round_trips(self):
        scenario = Scenario(
            workload=WorkloadSpec(kind="cpu", name="hotspot",
                                  layer_sizes=(), iterations=5))
        assert Scenario.from_dict(scenario.to_dict()) == scenario

    def test_json_file_round_trip(self, tmp_path):
        scenario = full_scenario()
        path = tmp_path / "scenario.json"
        path.write_text(scenario.to_json())
        assert Scenario.from_file(path) == scenario
        assert load_scenario(str(path)) == scenario

    def test_from_dict_fills_defaults(self):
        scenario = Scenario.from_dict({"name": "sparse"})
        assert scenario.workload == WorkloadSpec()
        assert scenario.engine == EngineSpec()
        assert scenario.device == DevicePoint()

    def test_cpu_workload_defaults_layer_sizes_to_empty(self):
        scenario = Scenario.from_dict(
            {"workload": {"kind": "cpu", "name": "dhrystone"}})
        assert scenario.workload.layer_sizes == ()

    def test_layer_sizes_list_becomes_tuple(self):
        spec = WorkloadSpec(layer_sizes=[100, 10])
        assert spec.layer_sizes == (100, 10)

    def test_to_dict_is_json_ready(self):
        json.dumps(full_scenario().to_dict())


#: (bad document, expected field-path prefix of the error message)
REJECTIONS = [
    ({"workload": {"kind": "gpu"}}, "scenario.workload.kind"),
    ({"workload": {"layer_sizes": [100, 0, 10]}},
     "scenario.workload.layer_sizes[1]"),
    ({"workload": {"layer_sizes": [100, 5000]}},
     "scenario.workload.layer_sizes[1]"),
    ({"workload": {"layer_sizes": [100]}}, "scenario.workload.layer_sizes"),
    ({"workload": {"layer_sizes": 7}}, "scenario.workload.layer_sizes"),
    ({"workload": {"kind": "cpu", "name": "quicksort"}},
     "scenario.workload.name"),
    ({"workload": {"kind": "cpu", "name": "dhrystone",
                   "layer_sizes": [8, 8]}},
     "scenario.workload.layer_sizes"),
    ({"workload": {"iterations": 0}}, "scenario.workload.iterations"),
    ({"engine": {"name": "warp-drive"}}, "scenario.engine.name"),
    ({"engine": {"prefer_functional": "yes"}},
     "scenario.engine.prefer_functional"),
    # fields older files set are unknown now, whatever their value
    ({"device": {"vdd": 0.6}}, "scenario.device.vdd"),
    ({"device": {"vdd": 1.0}}, "scenario.device.vdd"),
    ({"device": {"clock_mhz": 25.0}}, "scenario.device.clock_mhz"),
    ({"device": {"profile": "tpu-v9"}}, "scenario.device.profile"),
    ({"device": {"profile": ""}}, "scenario.device.profile"),
    ({"device": {"profile": 65}}, "scenario.device.profile"),
    ({"device": {"profile": "ethos-u55", "vdd": 1.0}},
     "scenario.device.vdd"),
    ({"name": ""}, "scenario.name"),
    ({"seed": -1}, "scenario.seed"),
    ({"seed": True}, "scenario.seed"),
    ({"batch_size": 0}, "scenario.batch_size"),
    ({"batch_size": 10**9}, "scenario.batch_size"),
    ({"batch_policy": "adaptive"}, "scenario.batch_policy"),
    ({"repeats": 1}, "scenario.repeats"),
    ({"bogus": 1}, "scenario.bogus"),
    ({"workload": {"flavour": "spicy"}}, "scenario.workload.flavour"),
    ({"workload": []}, "scenario.workload"),
]


class TestValidation:
    @pytest.mark.parametrize("document,path", REJECTIONS,
                             ids=[path for _, path in REJECTIONS])
    def test_rejection_names_field_path(self, document, path):
        with pytest.raises(ConfigurationError) as excinfo:
            Scenario.from_dict(document)
        assert str(excinfo.value).startswith(path + ":")

    def test_non_object_document_rejected(self):
        with pytest.raises(ConfigurationError, match="scenario: expected"):
            Scenario.from_dict([1, 2, 3])

    def test_direct_construction_validates_with_local_path(self):
        with pytest.raises(ConfigurationError, match="^workload.kind:"):
            WorkloadSpec(kind="gpu")
        with pytest.raises(ConfigurationError, match="^device.profile:"):
            DevicePoint(profile="")

    def test_unknown_engine_lists_registered_engines(self):
        with pytest.raises(ConfigurationError) as excinfo:
            EngineSpec(name="warp-drive")
        message = str(excinfo.value)
        assert message.startswith("engine.name:")
        assert "accurate" in message and "fast" in message

    def test_unknown_profile_lists_registered_profiles(self):
        with pytest.raises(ConfigurationError) as excinfo:
            DevicePoint(profile="tpu-v9")
        message = str(excinfo.value)
        assert message.startswith("device.profile:")
        assert "ncpu-65nm" in message and "max78000" in message

    def test_removed_fields_fail_as_unknown(self, tmp_path):
        path = tmp_path / "old.json"
        for document, field in (({"repeats": 3}, "scenario.repeats"),
                                ({"device": {"vdd": 0.6}},
                                 "scenario.device.vdd"),
                                ({"device": {"clock_mhz": 10.0}},
                                 "scenario.device.clock_mhz")):
            path.write_text(json.dumps(document))
            with pytest.raises(ConfigurationError,
                               match=f"^{field}: unknown field"):
                Scenario.from_file(path)

    def test_missing_file_is_configuration_error(self, tmp_path):
        with pytest.raises(ConfigurationError, match="not found"):
            Scenario.from_file(tmp_path / "nope.json")

    def test_malformed_json_is_configuration_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            Scenario.from_file(path)

    def test_non_object_file_is_configuration_error(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigurationError, match="expected a JSON"):
            Scenario.from_file(path)


class TestHashing:
    def test_hash_is_deterministic(self):
        assert full_scenario().hash == full_scenario().hash

    @pytest.mark.parametrize("overrides", [
        {"seed": 999},
        {"batch_size": 49},
        {"batch_policy": "fixed"},
        {"name": "renamed"},
    ], ids=lambda overrides: next(iter(overrides)))
    def test_hash_changes_when_identity_field_changes(self, overrides):
        base = full_scenario()
        assert base.with_overrides(**overrides).hash != base.hash

    def test_hash_changes_with_workload_and_device(self):
        base = full_scenario()
        widened = dataclasses.replace(
            base, workload=dataclasses.replace(
                base.workload, layer_sizes=(784, 64, 34, 10)))
        assert widened.hash != base.hash
        moved = dataclasses.replace(
            base, device=DevicePoint(profile="ethos-u55"))
        assert moved.hash != base.hash

    def test_hash_is_engine_stable(self):
        # all registered engines are bit-identical by contract, so the
        # identity hash — and any cache keyed on it — ignores the engine
        from repro.engine import engine_names

        base = full_scenario()
        hashes = {base.with_engine(name=name).hash
                  for name in engine_names()}
        hashes.add(base.with_engine(prefer_functional=False).hash)
        assert hashes == {base.hash}

    def test_identity_dict_excludes_engine_and_serve_only(self):
        scenario = full_scenario()
        identity = scenario.identity_dict()
        assert "engine" not in identity
        assert "serve" not in identity
        full = scenario.to_dict()
        del full["engine"]
        del full["serve"]
        assert identity == full

    def test_hash_changes_with_device_profile(self):
        # unlike the engine, the device profile changes physical results,
        # so it participates in scenario identity
        base = full_scenario()
        swapped = base.with_profile(name="ethos-u55")
        assert swapped.hash != base.hash
        assert swapped.identity_dict()["device"]["profile"] == "ethos-u55"


class TestDerivedViews:
    def test_with_engine_overrides_name(self):
        scenario = full_scenario().with_engine(name="fast")
        assert scenario.engine.name == "fast"
        assert scenario.engine.prefer_functional  # preserved

    def test_with_engine_overrides_functional_flag(self):
        scenario = full_scenario().with_engine(prefer_functional=False)
        assert scenario.engine.name == "fast"  # preserved
        assert not scenario.engine.prefer_functional

    def test_with_overrides_revalidates(self):
        with pytest.raises(ConfigurationError, match="scenario.seed"):
            full_scenario().with_overrides(seed=-1)

    def test_with_profile_overrides_profile(self):
        scenario = full_scenario().with_profile(name="mcxn947-neutron")
        assert scenario.device.profile == "mcxn947-neutron"

    def test_with_profile_unknown_name_is_field_exact(self):
        with pytest.raises(ConfigurationError) as excinfo:
            full_scenario().with_profile(name="tpu-v9")
        assert str(excinfo.value).startswith("scenario.device.profile:")

    def test_scenarios_are_hashable_and_comparable(self):
        assert len({full_scenario(), full_scenario(), Scenario()}) == 2


class TestSimConfigIntegration:
    def test_from_scenario_adopts_seed_and_engine(self):
        from repro.sim import SimConfig

        config = SimConfig.from_scenario(full_scenario(), environ={})
        assert config.seed == 1234
        assert config.engine == "fast"
        assert config.scenario == full_scenario()

    def test_hash_stable_without_scenario(self):
        from repro.sim import SimConfig

        # attaching a scenario changes the hash; configs without one keep
        # their pre-scenario cache keys
        assert SimConfig().hash == SimConfig(scenario=None).hash
        assert SimConfig(scenario=full_scenario()).hash != SimConfig().hash

    def test_config_hash_engine_stable_with_scenario(self):
        from repro.sim import SimConfig

        base = full_scenario()
        hashes = {
            SimConfig.from_scenario(base.with_engine(name=name),
                                    environ={}).hash
            for name in ("accurate", "fast")}
        assert len(hashes) == 1

    def test_effective_scenario_defaults_when_unset(self):
        from repro.sim import SimConfig

        effective = SimConfig(seed=77, engine="fast").effective_scenario
        assert effective.seed == 77
        assert effective.engine.name == "fast"

    def test_from_env_rejects_unknown_engine_fast(self):
        from repro.errors import ConfigurationError
        from repro.sim import ENGINE_ENV_VAR, SimConfig

        with pytest.raises(ConfigurationError) as excinfo:
            SimConfig.from_env({ENGINE_ENV_VAR: "turbo"})
        message = str(excinfo.value)
        assert ENGINE_ENV_VAR in message
        assert "turbo" in message and "accurate" in message

    def test_session_from_scenario_file(self, tmp_path):
        from repro.sim import SimSession

        path = tmp_path / "scenario.json"
        path.write_text(full_scenario().to_json())
        session = SimSession.from_scenario(str(path),
                                           cache_enabled=False)
        assert session.config.engine == "fast"
        assert session.config.scenario == full_scenario()
