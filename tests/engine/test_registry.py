"""The engine table: names, lookup, resolution, capabilities."""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.engine import (
    AccurateEngine,
    FastEngine,
    RETIRED_ENGINES,
    engine_names,
    engine_table,
    ensure_known,
    get_engine,
    resolve_engine,
)
from repro.errors import ConfigurationError
from repro.isa import assemble
from repro.scenario import Scenario
from repro.sim import use_session

SRC = Path(__file__).resolve().parents[2] / "src"

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
        assert isinstance(get_engine("accurate"), AccurateEngine)
        assert isinstance(get_engine("fast"), FastEngine)
        for name in engine_names():
            assert get_engine(name).name == name

    def test_unknown_name_lists_registered_engines_sorted(self):
        with pytest.raises(ConfigurationError) as excinfo:
            get_engine("warp")
        message = str(excinfo.value)
        assert "warp" in message
        assert "folded into" not in message
        for name in engine_names():
            assert name in message
        listed = message.split("registered engines:")[1]
        names = [part.strip() for part in listed.split(",")]
        assert names == sorted(names)

    def test_retired_names_name_their_replacement(self):
        assert set(RETIRED_ENGINES) == {"numpy", "parallel"}
        for name in RETIRED_ENGINES:
            with pytest.raises(ConfigurationError,
                               match=f"'{name}'; it was folded into "
                                     "'fast', use that"):
                get_engine(name)

    def test_ensure_known_round_trips(self):
        assert ensure_known("accurate") == "accurate"
        with pytest.raises(ConfigurationError):
            ensure_known("nope")
        with pytest.raises(ConfigurationError, match="'fast'"):
            ensure_known("numpy")

    def test_lookup_imports_no_simulator(self):
        code = ("import sys\n"
                "from repro.engine import engine_table, get_engine\n"
                "get_engine('fast')\n"
                "engine_table()\n"
                "print(sorted(name for name in sys.modules\n"
                "             if name.startswith(('repro.cpu', 'repro.bnn'))))")
        done = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, check=True,
                              env=dict(os.environ, PYTHONPATH=str(SRC)))
        assert done.stdout.strip() == "[]"


class TestResolution:
    def test_name_resolves(self):
        assert resolve_engine("fast") is get_engine("fast")

    def test_engine_object_passes_through(self):
        engine = get_engine("fast")
        assert resolve_engine(engine) is engine
        custom = AccurateEngine()
        assert resolve_engine(custom) is custom

    def test_none_follows_session_config(self):
        with use_session(cache_enabled=False,
                         scenario=Scenario().with_engine(name="fast")):
            assert resolve_engine().name == "fast"
        with use_session(cache_enabled=False,
                         scenario=Scenario().with_engine(name="accurate")):
            assert resolve_engine(None).name == "accurate"


class TestCapabilities:
    def test_flags(self):
        assert get_engine("accurate").capabilities.timing_accurate
        assert not get_engine("fast").capabilities.timing_accurate

    def test_as_dict_keys(self):
        for name in engine_names():
            caps = get_engine(name).capabilities.as_dict()
            assert set(caps) == {"timing_accurate"}
            assert all(isinstance(value, bool) for value in caps.values())


class TestEngineTable:
    def test_sorted_and_complete(self):
        table = engine_table()
        assert [entry["name"] for entry in table] == list(engine_names())
        for entry in table:
            assert set(entry) == {"name", "description", "capabilities"}
            assert entry["description"]
            assert entry["capabilities"] == \
                get_engine(entry["name"]).capabilities.as_dict()


class TestProtocols:
    """The entry points both engines provide, as perfbench and the CLI
    call them."""

    def test_builtin_engines_satisfy_both_protocols(self):
        for name in engine_names():
            engine = get_engine(name)
            run = inspect.signature(engine.run_program)
            assert list(run.parameters) == [
                "program", "limit", "memory", "env", "prefer_functional"]
            assert all(parameter.kind is parameter.KEYWORD_ONLY
                       for parameter in list(run.parameters.values())[1:])
            for method in ("scores", "predict", "hidden_forward"):
                signature = inspect.signature(getattr(engine, method))
                assert list(signature.parameters) == ["model", "x_signs"]

    def test_cpu_half_runs_programs(self):
        program = assemble(PROGRAM)
        for name in engine_names():
            cpu, result = get_engine(name).run_program(program)
            assert result.stop_reason == "halt"
            assert cpu.regs.read(12) == 15

    def test_limit_caps_execution(self):
        # the pipeline counts the limit in cycles, the ISS and the
        # superblock interpreter in instructions
        program = assemble("loop: j loop")
        _, result = get_engine("accurate").run_program(program, limit=40)
        assert result.stop_reason == "max_cycles"
        assert result.stats.cycles == 40
        for name, functional in (("accurate", True), ("fast", False)):
            _, result = get_engine(name).run_program(
                program, limit=40, prefer_functional=functional)
            assert result.stop_reason == "max_cycles", name
            assert result.stats.instructions == 40, name

    def test_info_block(self):
        (fast,) = [entry for entry in engine_table()
                   if entry["name"] == "fast"]
        assert fast["capabilities"] == {"timing_accurate": False}
        assert "GEMM" in fast["description"]
