"""Benchmark harness: registry, measurement plan, BENCH trajectory files."""

import json

import pytest

from repro.metrics import (
    all_benchmarks,
    latest_bench_file,
    run_benchmark,
    run_benchmarks,
    validate_bench_doc,
    write_bench_file,
)
from repro.metrics.bench import BenchSpec, bench_filename, select

#: every benchmark the issue requires must stay registered
REQUIRED = ("cpu.pipeline.dhrystone", "cpu.pipeline.hotspot",
            "cpu.functional.dhrystone", "cpu.fastpath.dhrystone",
            "bnn.accelerator.infer", "bnn.batched.infer",
            "bnn.fast.infer", "dma.transfer",
            "runner.experiment.cold", "runner.experiment.warm")


class TestRegistry:
    def test_required_benchmarks_registered(self):
        names = set(all_benchmarks())
        for required in REQUIRED:
            assert required in names

    def test_select_filters_by_substring(self):
        assert select(["dma"]) == ["dma.transfer"]
        assert select(["nope-nothing"]) == []
        assert select(None) == sorted(all_benchmarks())


class TestHarness:
    def test_run_benchmark_result_schema(self):
        calls = []

        def fake(quick):
            calls.append(quick)
            return {"cycles": 100}

        spec = BenchSpec(name="fake", func=fake, work_key="cycles",
                         unit="cycles/s")
        result = run_benchmark(spec, repeats=3, warmup=2, quick=True)
        assert calls == [True] * 5  # 2 warmup + 3 timed
        assert result["repeats"] == 3 and result["warmup"] == 2
        assert result["work"] == {"cycles": 100.0}
        for stat in ("median", "min", "max", "iqr", "p25", "p75"):
            assert stat in result["wall_s"]
        assert result["throughput"]["unit"] == "cycles/s"
        assert result["throughput"]["median"] > 0

    def test_repeats_must_be_positive(self):
        spec = BenchSpec(name="fake", func=lambda quick: {"n": 1},
                         work_key="n", unit="n/s")
        with pytest.raises(ValueError):
            run_benchmark(spec, repeats=0)

    def test_quick_dhrystone_measures_cycles(self):
        spec = all_benchmarks()["cpu.pipeline.dhrystone"]
        result = run_benchmark(spec, repeats=1, warmup=0, quick=True)
        assert result["work"]["cycles"] > 100
        assert result["throughput"]["median"] > 0

    def test_dma_benchmark_moves_words(self):
        spec = all_benchmarks()["dma.transfer"]
        result = run_benchmark(spec, repeats=1, warmup=0, quick=True)
        assert result["work"]["words"] == 2_000


class TestBenchDocument:
    def test_document_schema_roundtrips_through_gate(self, tmp_path):
        doc = run_benchmarks(["dma"], repeats=1, warmup=0, quick=True,
                             with_experiments=False)
        summary = validate_bench_doc(doc)
        assert summary["benchmarks"] == 1
        path = write_bench_file(doc, tmp_path)
        assert path.name.startswith("BENCH_") and path.suffix == ".json"
        reread = json.loads(path.read_text())
        assert validate_bench_doc(reread) == summary
        assert reread["manifest"]["config_hash"]

    def test_validate_rejects_broken_documents(self):
        with pytest.raises(ValueError, match="schema"):
            validate_bench_doc({"schema": "nope"})
        with pytest.raises(ValueError, match="manifest"):
            validate_bench_doc({"schema": "repro-bench/1"})

    def test_latest_bench_file_picks_newest(self, tmp_path):
        assert latest_bench_file(tmp_path) is None
        (tmp_path / "BENCH_20250101-000000.json").write_text("{}")
        (tmp_path / "BENCH_20260101-000000.json").write_text("{}")
        newest = latest_bench_file(tmp_path)
        assert newest.name == "BENCH_20260101-000000.json"

    def test_bench_filename_is_utc_stamp(self):
        assert bench_filename(0.0) == "BENCH_19700101-000000.json"


class TestBenchScenarios:
    def test_registered_workload_benches_declare_scenarios(self):
        benches = all_benchmarks()
        for name in REQUIRED:
            spec = benches[name]
            if name.startswith(("cpu.", "bnn.")):
                assert spec.scenario is not None, name
                assert spec.scenario.name == name
            else:
                assert spec.scenario is None, name

    def test_result_carries_scenario_dict(self):
        spec = all_benchmarks()["cpu.fastpath.dhrystone"]
        result = run_benchmark(spec, repeats=1, warmup=0, quick=True)
        recorded = result["scenario"]
        assert recorded == spec.scenario.to_dict()
        assert recorded["engine"]["name"] == "fast"
        assert recorded["workload"]["name"] == "dhrystone"

    def test_scenarioless_spec_records_none(self):
        spec = BenchSpec(name="bare", func=lambda quick: {"n": 1},
                         work_key="n", unit="n/s")
        result = run_benchmark(spec, repeats=1, warmup=0)
        assert result["scenario"] is None

    def test_document_records_session_scenario(self):
        from repro.scenario import Scenario

        scenario = Scenario(name="bench-doc")
        doc = run_benchmarks(["dma"], repeats=1, quick=True,
                             with_experiments=False, scenario=scenario)
        assert doc["scenario"] == scenario.to_dict()
        assert doc["benchmarks"]["dma.transfer"]["scenario"] is None

    def test_session_scenario_configures_measurement_session(self):
        from repro.scenario import Scenario
        from repro.sim import get_session

        observed = {}

        def spy(quick):
            observed["config"] = get_session().config
            return {"n": 1}

        spec = BenchSpec(name="spy", func=spy, work_key="n", unit="n/s")
        scenario = Scenario(name="bench-session", seed=21)
        run_benchmark(spec, repeats=1, warmup=0,
                      session_scenario=scenario)
        assert observed["config"].seed == 21
        assert observed["config"].scenario == scenario
        assert not observed["config"].cache_enabled


class TestBenchAttribution:
    def test_raw_samples_recorded_per_repeat(self):
        spec = BenchSpec(name="fake", func=lambda quick: {"n": 1},
                         work_key="n", unit="n/s")
        result = run_benchmark(spec, repeats=3, warmup=0)
        samples = result["wall_s"]["samples"]
        assert len(samples) == 3
        assert all(value > 0 for value in samples)
        assert result["wall_s"]["min"] == min(samples)

    def test_scenario_backed_bench_embeds_attribution(self):
        from repro.obs import validate_attribution_dict

        spec = all_benchmarks()["bnn.batched.infer"]
        result = run_benchmark(spec, repeats=1, warmup=0, quick=True)
        attribution = result["attribution"]
        assert attribution is not None
        validate_attribution_dict(attribution)
        assert attribution["scenario"] == spec.scenario.name
        # the attribution run reflects the full-size workload
        assert attribution["total_cycles"] > 0

    def test_scenarioless_bench_has_no_attribution(self):
        spec = BenchSpec(name="bare", func=lambda quick: {"n": 1},
                         work_key="n", unit="n/s")
        result = run_benchmark(spec, repeats=1, warmup=0)
        assert result["attribution"] is None

    def test_document_with_attribution_survives_validation(self):
        doc = run_benchmarks(["bnn.batched"], repeats=1, warmup=0,
                             quick=True, with_experiments=False)
        assert validate_bench_doc(doc)["benchmarks"] == 1
        result = doc["benchmarks"]["bnn.batched.infer"]
        assert isinstance(result["wall_s"]["samples"], list)
        assert result["attribution"]["kind"] == "bnn"
