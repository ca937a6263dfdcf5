"""The engine protocol layer: registry, resolution, capabilities."""

import numpy as np
import pytest

from repro.engine import (
    BNNEngine,
    CPUEngine,
    EngineCapabilities,
    ExecutionEngine,
    engine_names,
    engine_table,
    ensure_known,
    get_engine,
    register_engine,
    resolve_engine,
)
from repro.errors import ConfigurationError, SimulationError
from repro.isa import assemble
from repro.sim import use_session

PROGRAM = """
    addi a0, x0, 7
    addi a1, x0, 8
    add a2, a0, a1
    halt
"""


class TestRegistry:
    def test_builtin_engines_registered(self):
        assert engine_names() == ("accurate", "fast")

    def test_names_sorted(self):
        names = engine_names()
        assert list(names) == sorted(names)

    def test_get_engine_returns_singleton(self):
        assert get_engine("fast") is get_engine("fast")

    def test_unknown_name_lists_registered_engines_sorted(self):
        with pytest.raises(ConfigurationError) as excinfo:
            get_engine("warp")
        message = str(excinfo.value)
        assert "warp" in message
        for name in engine_names():
            assert name in message
        listed = message.split("registered engines:")[1]
        names = [part.strip() for part in listed.split(",")]
        assert names == sorted(names)

    def test_ensure_known_round_trips(self):
        assert ensure_known("accurate") == "accurate"
        with pytest.raises(ConfigurationError):
            ensure_known("nope")

    def test_register_rejects_non_engine_class(self):
        with pytest.raises(ConfigurationError):
            register_engine(dict)

    def test_register_rejects_missing_name(self):
        class Nameless(ExecutionEngine):
            capabilities = EngineCapabilities(
                timing_accurate=False, functional=True,
                batched=False)

        with pytest.raises(ConfigurationError):
            register_engine(Nameless)

    def test_register_rejects_missing_capabilities(self):
        class Flagless(ExecutionEngine):
            name = "flagless"

        with pytest.raises(ConfigurationError):
            register_engine(Flagless)

    def test_register_rejects_non_functional_engine(self):
        class Sloppy(ExecutionEngine):
            name = "sloppy"
            capabilities = EngineCapabilities(
                timing_accurate=False, functional=False,
                batched=False)

        with pytest.raises(ConfigurationError, match="functional"):
            register_engine(Sloppy)

    def test_register_rejects_duplicate_name(self):
        class Impostor(ExecutionEngine):
            name = "accurate"
            capabilities = EngineCapabilities(
                timing_accurate=False, functional=True,
                batched=False)

        with pytest.raises(ConfigurationError, match="twice"):
            register_engine(Impostor)

    def test_reregistering_same_class_is_noop(self):
        from repro.engine.accurate import AccurateEngine

        assert register_engine(AccurateEngine) is AccurateEngine
        assert get_engine("accurate").name == "accurate"


class TestResolution:
    def test_name_resolves(self):
        assert resolve_engine("fast").name == "fast"

    def test_engine_object_passes_through(self):
        engine = get_engine("fast")
        assert resolve_engine(engine) is engine

    def test_none_follows_session_config(self):
        with use_session(cache_enabled=False, engine="fast"):
            assert resolve_engine().name == "fast"
        with use_session(cache_enabled=False, engine="accurate"):
            assert resolve_engine(None).name == "accurate"


class TestCapabilities:
    def test_flags(self):
        assert get_engine("accurate").capabilities.timing_accurate
        assert not get_engine("fast").capabilities.timing_accurate
        assert get_engine("fast").capabilities.batched
        assert not get_engine("accurate").capabilities.batched

    def test_builtin_engines_attribute_phases(self):
        for name in ("accurate", "fast"):
            assert get_engine(name).capabilities.phase_attribution

    def test_phase_attribution_defaults_off(self):
        caps = EngineCapabilities(timing_accurate=False, functional=True,
                                  batched=False)
        assert caps.phase_attribution is False

    def test_every_registered_engine_is_functional(self):
        for name in engine_names():
            assert get_engine(name).capabilities.functional

    def test_as_dict_keys(self):
        caps = get_engine("fast").capabilities.as_dict()
        assert set(caps) == {"timing_accurate", "functional", "batched",
                             "phase_attribution"}
        assert all(isinstance(value, bool) for value in caps.values())


class TestEngineTable:
    def test_sorted_and_complete(self):
        table = engine_table()
        assert [entry["name"] for entry in table] == list(engine_names())
        for entry in table:
            assert entry["description"]
            assert set(entry["capabilities"]) == {
                "timing_accurate", "functional", "batched",
                "phase_attribution"}


class TestProtocols:
    def test_builtin_engines_satisfy_both_protocols(self):
        for name in engine_names():
            engine = get_engine(name)
            assert isinstance(engine, CPUEngine)
            assert isinstance(engine, BNNEngine)

    def test_cpu_half_runs_programs(self):
        program = assemble(PROGRAM)
        for name in engine_names():
            cpu, result = get_engine(name).run_program(program)
            assert result.stop_reason == "halt"
            assert cpu.regs.read(12) == 15

    def test_limit_caps_execution(self):
        source = "loop: j loop"
        program = assemble(source)
        for name in engine_names():
            _, result = get_engine(name).run_program(program, limit=40)
            assert result.stop_reason in ("max_cycles", "max_steps")

    def test_base_class_halves_raise_simulation_error(self):
        class CpuOnly(ExecutionEngine):
            name = "cpu-only"
            capabilities = EngineCapabilities(
                timing_accurate=False, functional=True,
                batched=False)

        engine = CpuOnly()
        with pytest.raises(SimulationError, match="CPU execution half"):
            engine.run_program(assemble(PROGRAM))
        with pytest.raises(SimulationError, match="BNN"):
            engine.scores(None, np.ones((1, 4)))

    def test_default_predict_is_argmax_of_scores(self):
        class Rigged(ExecutionEngine):
            name = "rigged"
            capabilities = EngineCapabilities(
                timing_accurate=False, functional=True,
                batched=False)

            def scores(self, model, x_signs):
                return np.array([[0, 5, 1], [9, 2, 3]])

        np.testing.assert_array_equal(
            Rigged().predict(None, np.zeros((2, 4))), [1, 0])

    def test_info_block(self):
        info = get_engine("fast").info()
        assert info["name"] == "fast"
        assert info["capabilities"]["batched"] is True
