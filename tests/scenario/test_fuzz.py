"""Differential scenario fuzzing: determinism + engine agreement."""

import pytest

from repro.engine import engine_names
from repro.bnn.vectorized import GEMM_ROW_BLOCK
from repro.scenario.fuzz import (
    BATCH_SIZE_CHOICES,
    HIDDEN_WIDTH_CHOICES,
    DifferentialResult,
    Mismatch,
    ScenarioFuzzer,
    fuzz,
    run_differential,
)
from repro.scenario.schema import Scenario, WorkloadSpec


class TestFuzzerDeterminism:
    def test_same_seed_same_scenarios(self):
        first = list(ScenarioFuzzer(seed=7).scenarios(10))
        second = list(ScenarioFuzzer(seed=7).scenarios(10))
        assert first == second

    def test_different_seeds_differ(self):
        assert list(ScenarioFuzzer(seed=0).scenarios(10)) != \
            list(ScenarioFuzzer(seed=1).scenarios(10))

    def test_scenario_names_carry_seed_and_index(self):
        names = [s.name for s in ScenarioFuzzer(seed=3).scenarios(3)]
        assert names == ["fuzz-3-0", "fuzz-3-1", "fuzz-3-2"]

    def test_draws_cover_both_kinds(self):
        kinds = {s.workload.kind
                 for s in ScenarioFuzzer(seed=0).scenarios(20)}
        assert kinds == {"bnn", "cpu"}

    def test_kind_restriction_respected(self):
        fuzzer = ScenarioFuzzer(seed=0, kinds=("cpu",))
        assert all(s.workload.kind == "cpu"
                   for s in fuzzer.scenarios(10))

    def test_drawn_scenarios_respect_accelerator_fan_out(self):
        # hidden/output layer widths must fit the 100-neuron array; only
        # the input width (fan-in) may exceed it
        limit = max(HIDDEN_WIDTH_CHOICES)
        for scenario in ScenarioFuzzer(seed=5).scenarios(50):
            if scenario.workload.kind == "bnn":
                assert all(w <= limit
                           for w in scenario.workload.layer_sizes[1:])

    def test_engines_default_to_registry(self):
        assert ScenarioFuzzer().engines == engine_names()

    def test_ci_run_crosses_a_kernel_row_block(self):
        """CI's ``repro fuzz --count 10 --seed 0`` draws a batch larger
        than the ``fast`` kernel's row block, so its differential run
        covers rows on both sides of a block boundary."""
        assert max(BATCH_SIZE_CHOICES) > GEMM_ROW_BLOCK
        assert any(scenario.batch_size > GEMM_ROW_BLOCK
                   for scenario in ScenarioFuzzer(seed=0).scenarios(10))


class TestDifferential:
    def test_bnn_scenario_all_engines_agree(self):
        scenario = Scenario(
            name="diff-bnn",
            workload=WorkloadSpec(kind="bnn", layer_sizes=(65, 33, 4),
                                  iterations=1),
            seed=11, batch_size=9)
        result = run_differential(scenario)
        assert result.ok, [str(m) for m in result.mismatches]
        assert result.engines == engine_names()

    def test_cpu_scenario_all_engines_agree(self):
        scenario = Scenario(
            name="diff-cpu",
            workload=WorkloadSpec(kind="cpu", name="dhrystone",
                                  layer_sizes=(), iterations=2),
            batch_size=1)
        result = run_differential(scenario)
        assert result.ok, [str(m) for m in result.mismatches]

    def test_fault_in_one_fast_op_line_is_a_mismatch(self, monkeypatch):
        """A wrong line in ``FastCPU``'s op table (``sub`` computing
        ``add``) runs on the ``fast`` engine and in block-timed pipeline
        runs alike, so only the functional ISS's ``compile_ex`` sees it."""
        from repro.cpu import fastpath

        def clear():
            for cache in (fastpath._line, fastpath._op):
                cache.cache_clear()

        scenario = Scenario(
            name="diff-cpu-fault",
            workload=WorkloadSpec(kind="cpu", name="dhrystone",
                                  layer_sizes=(), iterations=2),
            batch_size=1)
        monkeypatch.setitem(fastpath._LINES, "sub",
                            "r[rd] = (r[rs1] + r[rs2]) & 0xFFFFFFFF")
        clear()
        try:
            result = run_differential(scenario, engines=("accurate", "fast"))
        finally:
            monkeypatch.undo()
            clear()
        assert not result.ok
        assert any(m.field == "registers" for m in result.mismatches)

    def test_block_crossing_scenario_agrees(self):
        scenario = next(s for s in ScenarioFuzzer(seed=0).scenarios(10)
                        if s.batch_size > GEMM_ROW_BLOCK)
        result = run_differential(scenario)
        assert result.ok, [str(m) for m in result.mismatches]

    def test_small_fuzz_run_all_agree(self):
        results = fuzz(count=6, seed=0)
        assert len(results) == 6
        assert all(r.ok for r in results), [
            str(m) for r in results for m in r.mismatches]

    def test_on_result_callback_sees_every_scenario(self):
        seen = []
        fuzz(count=3, seed=1, kinds=("cpu",), on_result=seen.append)
        assert [r.scenario.name for r in seen] == \
            ["fuzz-1-0", "fuzz-1-1", "fuzz-1-2"]

    def test_result_to_dict_is_json_ready(self):
        import json

        result = fuzz(count=1, seed=2, kinds=("cpu",))[0]
        document = json.loads(json.dumps(result.to_dict()))
        assert document["ok"] is True
        assert document["scenario"]["name"] == "fuzz-2-0"
        assert document["mismatches"] == []

    def test_mismatches_flip_ok(self):
        result = DifferentialResult(scenario=Scenario(), engines=("a", "b"))
        assert result.ok
        result.mismatches.append(
            Mismatch(field="pc", engine="b", reference_engine="a",
                     detail="1 vs 2"))
        assert not result.ok
        assert "pc: b != a" in str(result.mismatches[0])

    def test_unknown_engine_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            run_differential(Scenario(), engines=("accurate", "warp"))
