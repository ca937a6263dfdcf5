"""Tests for the command-line interface."""

import pytest

from repro.cli import main

SOURCE = """
    li a0, 5
    li a1, 7
    add a2, a0, a1
    ebreak
"""


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "prog.s"
    path.write_text(SOURCE)
    return str(path)


class TestAsm:
    def test_asm_to_stdout(self, source_file, capsys):
        assert main(["asm", source_file]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 4
        assert all(len(line) == 8 for line in out)

    def test_asm_to_file(self, source_file, tmp_path, capsys):
        output = str(tmp_path / "prog.hex")
        assert main(["asm", source_file, "-o", output]) == 0
        assert "4 words" in capsys.readouterr().out
        assert len(open(output).read().split()) == 4

    def test_asm_error_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.s"
        bad.write_text("frobnicate x1")
        assert main(["asm", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["asm", "/nonexistent.s"]) == 2


class TestDis:
    def test_roundtrip(self, source_file, tmp_path, capsys):
        hex_file = str(tmp_path / "prog.hex")
        main(["asm", source_file, "-o", hex_file])
        capsys.readouterr()
        assert main(["dis", hex_file]) == 0
        out = capsys.readouterr().out
        assert "addi" in out
        assert "add" in out
        assert "ebreak" in out


class TestRun:
    def test_run_pipeline(self, source_file, capsys):
        assert main(["run", source_file, "--regs"]) == 0
        out = capsys.readouterr().out
        assert "stop: halt" in out
        assert "ipc=" in out
        assert "x12=        12" in out

    def test_run_functional(self, source_file, capsys):
        assert main(["run", source_file, "--functional"]) == 0
        out = capsys.readouterr().out
        assert "instructions=4" in out

    def test_run_nonhalting_returns_failure(self, tmp_path, capsys):
        path = tmp_path / "loop.s"
        path.write_text("loop: j loop")
        assert main(["run", str(path), "--max-cycles", "100"]) == 1


class TestRunEngine:
    def test_fast_engine_matches_functional_output(self, source_file, capsys):
        assert main(["run", source_file, "--engine", "fast", "--regs"]) == 0
        fast_out = capsys.readouterr().out
        assert main(["run", source_file, "--functional", "--regs"]) == 0
        accurate_out = capsys.readouterr().out
        assert "instructions=4" in fast_out
        assert fast_out == accurate_out  # identical regs, cycles, stop line

    def test_accurate_engine_keeps_pipeline(self, source_file, capsys):
        assert main(["run", source_file, "--engine", "accurate"]) == 0
        out = capsys.readouterr().out
        # the 5-stage pipeline pays fill latency, so cycles > instructions
        assert "stop: halt" in out and "instructions=4" in out
        assert "cycles=4 " not in out

    def test_engine_env_var_sets_default(self, source_file, capsys,
                                         monkeypatch):
        from repro.sim import reset_session

        monkeypatch.setenv("REPRO_ENGINE", "fast")
        reset_session()
        try:
            assert main(["run", source_file]) == 0
            assert "cycles=4 " in capsys.readouterr().out
        finally:
            reset_session()

    def test_unknown_engine_rejected_by_parser(self, source_file, capsys):
        with pytest.raises(SystemExit):
            main(["run", source_file, "--engine", "warp"])

    def test_engine_choices_come_from_registry(self):
        from repro.cli import engine_choices
        from repro.engine import engine_names

        assert engine_choices() == engine_names()
        assert "parallel" in engine_choices()

    def test_parallel_engine_runs_programs(self, source_file, capsys):
        assert main(["run", source_file, "--engine", "parallel"]) == 0
        assert "cycles=4 " in capsys.readouterr().out

    def test_retired_numpy_engine_flag_names_fast(self, source_file,
                                                  capsys):
        # argparse lets a retired name through so the registry rejects it
        assert main(["run", source_file, "--engine", "numpy"]) == 2
        message = capsys.readouterr().err
        assert "'numpy'" in message and "folded into 'fast'" in message

    def test_retired_numpy_engine_env_var_names_fast(self, capsys,
                                                     monkeypatch):
        from repro.errors import ConfigurationError
        from repro.sim import SimConfig

        monkeypatch.setenv("REPRO_ENGINE", "numpy")
        with pytest.raises(ConfigurationError,
                           match="REPRO_ENGINE: .*folded into 'fast'"):
            SimConfig.from_env()
        assert main(["bench", "--list"]) == 2
        assert "folded into 'fast'" in capsys.readouterr().err

    def test_retired_numpy_engine_in_scenario_names_fast(self, tmp_path,
                                                         capsys):
        import json

        path = tmp_path / "numpy_engine.json"
        path.write_text(json.dumps({"engine": {"name": "numpy"}}))
        assert main(["scenario", "validate", str(path)]) == 2
        message = capsys.readouterr().err
        assert "scenario.engine.name: unknown engine 'numpy'" in message
        assert "folded into 'fast'" in message

    def test_unknown_engine_env_var_names_registered(self, source_file,
                                                     capsys, monkeypatch):
        from repro.errors import ConfigurationError
        from repro.sim import SimConfig

        monkeypatch.setenv("REPRO_ENGINE", "warp")
        with pytest.raises(ConfigurationError) as excinfo:
            SimConfig.from_env()
        message = str(excinfo.value)
        assert "REPRO_ENGINE" in message
        assert "warp" in message
        assert "accurate" in message and "parallel" in message

    def test_experiments_accept_engine_flag(self, capsys, monkeypatch):
        import os

        from repro.sim import reset_session

        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        try:
            assert main(["experiments", "--engine", "fast", "fig07"]) == 0
            assert os.environ.get("REPRO_ENGINE") == "fast"
            assert "Fig 7" in capsys.readouterr().out
        finally:
            os.environ.pop("REPRO_ENGINE", None)
            reset_session()


class TestRunStatsJson:
    def test_stdout_is_one_json_document(self, source_file, capsys):
        import json

        assert main(["run", source_file, "--stats-json", "--regs"]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)  # whole stream must parse
        assert payload["stop_reason"] == "halt"
        assert payload["exit_code"] == 0
        assert "counters" in payload and "gauges" in payload
        assert "stop: halt" in captured.err  # summary moved to stderr

    def test_stop_reason_present_on_failure(self, tmp_path, capsys):
        import json

        path = tmp_path / "loop.s"
        path.write_text("loop: j loop")
        code = main(["run", str(path), "--stats-json",
                     "--max-cycles", "50"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["stop_reason"] == "max_cycles"
        assert payload["exit_code"] == 1


class TestRunTrace:
    def test_trace_and_profile(self, source_file, tmp_path, capsys):
        from repro.trace import validate_chrome_trace_file

        trace = tmp_path / "run.trace.json"
        jsonl = tmp_path / "run.jsonl"
        # pinned: per-cycle profiling is a pipeline (accurate-engine)
        # feature, so the test must not follow REPRO_ENGINE
        assert main(["run", source_file, "--engine", "accurate",
                     "--trace", str(trace),
                     "--trace-jsonl", str(jsonl), "--profile"]) == 0
        out = capsys.readouterr().out
        summary = validate_chrome_trace_file(trace)
        assert "cpu.pipeline" in summary["tracks"]
        assert jsonl.read_text().strip()
        assert "hot spots" in out
        assert "cycles attributed" in out

    def test_trace_does_not_leak_into_session(self, source_file, tmp_path):
        from repro.sim import get_session

        trace = tmp_path / "t.json"
        assert main(["run", source_file, "--trace", str(trace)]) == 0
        session = get_session()
        assert session.tracer is None
        assert not session.stats._probes.get("*")


class TestInfoAndExperiments:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "960 MHz" in out
        assert "35.7%" in out

    def test_experiments_filtered(self, capsys):
        assert main(["experiments", "fig13"]) == 0
        out = capsys.readouterr().out
        assert "Fig 13" in out
        assert "41.2" in out

    def test_info_json(self, capsys):
        import json

        assert main(["info", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro-info/1"
        assert payload["specs"]["frequency_mhz_at_1v"] == pytest.approx(960)
        manifest = payload["manifest"]
        for key in ("config_hash", "engine", "git_sha", "python",
                    "platform", "version", "seed"):
            assert key in manifest

    def test_info_json_reports_engine_registry(self, capsys):
        import json

        from repro.engine import engine_names, engine_table
        from repro.sim import get_session

        assert main(["info", "--json"]) == 0
        engines = json.loads(capsys.readouterr().out)["engines"]
        assert engines["active"] == get_session().config.engine
        assert [e["name"] for e in engines["registered"]] == \
            list(engine_names())
        assert engines["registered"] == engine_table()
        by_name = {e["name"]: e for e in engines["registered"]}
        assert by_name["accurate"]["capabilities"]["timing_accurate"]
        assert by_name["parallel"]["capabilities"]["sharded"]
        for name in ("accurate", "fast", "parallel"):
            assert by_name[name]["capabilities"]["phase_attribution"]

    def test_info_text_lists_engines(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "execution engines" in out
        for name in ("accurate", "fast", "parallel"):
            assert name in out


class TestRunMetrics:
    def test_metrics_out_is_valid_openmetrics(self, source_file, tmp_path,
                                              capsys):
        from repro.metrics import RunManifest, validate_openmetrics_file

        out = tmp_path / "run.om"
        assert main(["run", source_file, "--metrics-out", str(out)]) == 0
        capsys.readouterr()
        summary = validate_openmetrics_file(out)
        names = [name for _, name, _, _ in summary["parsed"]]
        assert "repro_cpu_pipeline_cycles_total" in names
        manifest_keys = set(RunManifest.collect().labels())
        for _, _, labels, _ in summary["parsed"]:
            assert manifest_keys <= set(labels)

    def test_metrics_cycles_match_summary(self, source_file, tmp_path,
                                          capsys):
        """Total attributed cycles in the metrics file equal the run's
        reported ExecStats.cycles."""
        import re

        from repro.metrics import validate_openmetrics_file

        out = tmp_path / "run.om"
        assert main(["run", source_file, "--metrics-out", str(out)]) == 0
        text = capsys.readouterr().out
        reported = int(re.search(r"cycles=(\d+)", text).group(1))
        summary = validate_openmetrics_file(out)
        cycles = [value for _, name, _, value in summary["parsed"]
                  if name == "repro_cpu_pipeline_cycles_total"]
        assert cycles == [float(reported)]

    def test_metrics_json_document(self, source_file, tmp_path, capsys):
        import json

        out = tmp_path / "run.metrics.json"
        assert main(["run", source_file, "--metrics-json", str(out)]) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert payload["schema"] == "repro-metrics/1"
        assert payload["manifest"]["config_hash"]

    def test_experiments_metrics_dir(self, tmp_path, capsys):
        from repro.metrics import validate_openmetrics_file

        metrics_dir = tmp_path / "metrics"
        assert main(["experiments", "fig09", "--metrics-dir",
                     str(metrics_dir)]) == 0
        capsys.readouterr()
        per_exp = metrics_dir / "fig09.metrics.json"
        assert per_exp.exists()
        aggregate = metrics_dir / "experiments.om"
        summary = validate_openmetrics_file(aggregate)
        names = {name for _, name, _, _ in summary["parsed"]}
        assert "repro_experiment_wall_seconds" in names
        labels = [labels for _, name, labels, _ in summary["parsed"]
                  if name == "repro_experiment_wall_seconds"]
        assert labels and labels[0]["experiment"] == "fig09"


class TestBenchCli:
    def test_bench_list(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        assert "cpu.pipeline.dhrystone" in out
        assert "runner.experiment.warm" in out

    def test_bench_quick_writes_bench_file(self, tmp_path, capsys):
        import json

        from repro.metrics import validate_bench_doc

        assert main(["bench", "dma", "--quick", "--no-experiments",
                     "--repeats", "1", "--out-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "dma.transfer" in out
        bench_files = list(tmp_path.glob("BENCH_*.json"))
        assert len(bench_files) == 1
        doc = json.loads(bench_files[0].read_text())
        assert validate_bench_doc(doc)["benchmarks"] == 1

    def test_bench_json_no_write(self, tmp_path, capsys):
        import json

        assert main(["bench", "dma", "--quick", "--no-experiments",
                     "--repeats", "1", "--no-write", "--json",
                     "--out-dir", str(tmp_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro-bench/1"
        assert not list(tmp_path.glob("BENCH_*.json"))

    def test_bench_unknown_pattern_fails(self, capsys):
        assert main(["bench", "no-such-benchmark"]) == 1
        assert "no benchmarks match" in capsys.readouterr().err


@pytest.fixture
def bnn_scenario_file(tmp_path):
    import json

    path = tmp_path / "bnn.json"
    path.write_text(json.dumps({
        "name": "cli-bnn",
        "workload": {"kind": "bnn", "layer_sizes": [33, 20, 4]},
        "engine": {"name": "fast"},
        "seed": 5,
        "batch_size": 6,
    }))
    return str(path)


@pytest.fixture
def cpu_scenario_file(tmp_path):
    import json

    path = tmp_path / "cpu.json"
    path.write_text(json.dumps({
        "name": "cli-cpu",
        "workload": {"kind": "cpu", "name": "dhrystone", "iterations": 2},
        "batch_size": 1,
    }))
    return str(path)


class TestScenarioCli:
    def test_validate_reports_ok_with_hash(self, bnn_scenario_file,
                                           cpu_scenario_file, capsys):
        assert main(["scenario", "validate", bnn_scenario_file,
                     cpu_scenario_file]) == 0
        out = capsys.readouterr().out
        assert out.count("ok: ") == 2
        assert "cli-bnn" in out and "cli-cpu" in out
        assert "engine=fast" in out and "hash " in out

    def test_validate_bad_field_exits_2(self, tmp_path, capsys):
        import json

        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"workload": {"kind": "gpu"}}))
        assert main(["scenario", "validate", str(path)]) == 2
        assert "scenario.workload.kind" in capsys.readouterr().err

    def test_validate_missing_file_exits_2(self, capsys):
        assert main(["scenario", "validate", "/nonexistent.json"]) == 2
        assert "not found" in capsys.readouterr().err

    def test_validate_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{oops")
        assert main(["scenario", "validate", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_show_prints_canonical_json(self, bnn_scenario_file, capsys):
        import json

        from repro.scenario import Scenario

        assert main(["scenario", "show", bnn_scenario_file]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document == Scenario.from_file(bnn_scenario_file).to_dict()
        assert document["batch_policy"] == "fixed"  # default filled in


class TestRunScenario:
    @pytest.fixture(autouse=True)
    def _fresh_session(self):
        from repro.sim import reset_session

        reset_session()
        yield
        reset_session()

    def test_run_bnn_scenario(self, bnn_scenario_file, capsys):
        assert main(["run", "--scenario", bnn_scenario_file]) == 0
        out = capsys.readouterr().out
        assert "scenario: cli-bnn" in out
        assert "engine=fast" in out
        assert "batch=6" in out and "total_cycles=" in out

    def test_run_bnn_scenario_stats_json(self, bnn_scenario_file, capsys):
        import json

        assert main(["run", "--scenario", bnn_scenario_file,
                     "--stats-json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"]["name"] == "cli-bnn"
        assert payload["batch_size"] == 6
        assert len(payload["predictions"]) == 6

    def test_run_cpu_scenario(self, cpu_scenario_file, capsys):
        assert main(["run", "--scenario", cpu_scenario_file]) == 0
        out = capsys.readouterr().out
        assert "stop: halt" in out

    def test_run_scenario_engine_flag_overrides_file(self,
                                                     bnn_scenario_file,
                                                     capsys):
        assert main(["run", "--scenario", bnn_scenario_file,
                     "--engine", "parallel"]) == 0
        assert "engine=parallel" in capsys.readouterr().out

    def test_run_scenario_installs_session_config(self, bnn_scenario_file):
        from repro.sim import get_session

        assert main(["run", "--scenario", bnn_scenario_file]) == 0
        config = get_session().config
        assert config.seed == 5
        assert config.engine == "fast"
        assert config.scenario is not None

    def test_run_without_file_or_scenario_exits_2(self, capsys):
        assert main(["run"]) == 2
        assert "provide a program file" in capsys.readouterr().err

    def test_run_missing_scenario_file_exits_2(self, capsys):
        assert main(["run", "--scenario", "/nonexistent.json"]) == 2
        assert "not found" in capsys.readouterr().err

    def test_positional_file_wins_over_scenario_workload(
            self, source_file, bnn_scenario_file, capsys):
        # the file runs on the scenario's engine, not the bnn workload
        assert main(["run", source_file, "--scenario",
                     bnn_scenario_file]) == 0
        out = capsys.readouterr().out
        assert "stop: halt" in out
        assert "instructions=4" in out

    def test_experiments_scenario_flag(self, bnn_scenario_file, tmp_path,
                                       capsys, monkeypatch):
        import json
        import os

        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        try:
            assert main(["experiments", "--scenario", bnn_scenario_file,
                         "--cache-dir", str(tmp_path), "--json",
                         "fig07"]) == 0
            assert os.environ.get("REPRO_ENGINE") == "fast"
            entries = json.loads(capsys.readouterr().out)
            assert entries[0]["run"]["scenario"]["name"] == "cli-bnn"
            assert entries[0]["scenario"]["name"] == "cli-bnn"
        finally:
            os.environ.pop("REPRO_ENGINE", None)

    def test_bench_scenario_flag(self, cpu_scenario_file, capsys):
        import json

        assert main(["bench", "dma", "--quick", "--no-experiments",
                     "--repeats", "1", "--no-write", "--json",
                     "--scenario", cpu_scenario_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["scenario"]["name"] == "cli-cpu"

    def test_bench_benchmarks_carry_their_scenarios(self, capsys):
        import json

        assert main(["bench", "cpu.fastpath", "--quick",
                     "--no-experiments", "--repeats", "1", "--no-write",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        recorded = doc["benchmarks"]["cpu.fastpath.dhrystone"]["scenario"]
        assert recorded["workload"]["name"] == "dhrystone"
        assert recorded["engine"]["name"] == "fast"

    def test_bench_bad_engine_env_fails_fast(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "warp")
        assert main(["bench", "--list"]) == 2
        message = capsys.readouterr().err
        assert "REPRO_ENGINE" in message and "warp" in message


class TestFuzzCli:
    def test_fuzz_small_run_agrees(self, capsys):
        assert main(["fuzz", "--count", "3", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "fuzz: 3 scenarios" in out
        assert "3 agreed, 0 mismatched (seed 0)" in out

    def test_fuzz_json_document(self, capsys):
        import json

        assert main(["fuzz", "--count", "2", "--seed", "4", "--kind",
                     "cpu", "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert len(entries) == 2
        assert all(entry["ok"] for entry in entries)
        assert entries[0]["scenario"]["name"] == "fuzz-4-0"

    def test_fuzz_engine_restriction(self, capsys):
        assert main(["fuzz", "--count", "2", "--seed", "0", "--kind",
                     "cpu", "--engines", "accurate", "fast"]) == 0
        assert "[accurate, fast]" in capsys.readouterr().out

    def test_fuzz_rejects_unknown_engine(self, capsys):
        assert main(["fuzz", "--count", "1", "--engines", "warp"]) == 2
        message = capsys.readouterr().err
        assert "warp" in message and "fast" in message

    def test_fuzz_comma_separated_engines(self, capsys):
        assert main(["fuzz", "--count", "2", "--seed", "0", "--kind",
                     "cpu", "--engines", "accurate,fast"]) == 0
        assert "[accurate, fast]" in capsys.readouterr().out


class TestAttributeCli:
    @pytest.fixture(autouse=True)
    def _fresh_session(self):
        from repro.sim import reset_session

        reset_session()
        yield
        reset_session()

    def test_markdown_golden_structure(self, bnn_scenario_file, capsys):
        from repro.obs import PHASES, attribute_scenario
        from repro.scenario import Scenario
        from repro.sim import use_session

        scenario = Scenario.from_file(bnn_scenario_file)
        with use_session(cache_enabled=False):
            expected = attribute_scenario(scenario, engine="fast")
        assert main(["attribute", "--scenario", bnn_scenario_file]) == 0
        out = capsys.readouterr().out
        assert "### cli-bnn — engine `fast` on `ncpu-65nm` (bnn)" in out
        assert "| phase | cycles | cycles % | wall s | wall % |" in out
        # the cycle column is deterministic: golden against a direct run
        for phase in PHASES:
            assert f"| {phase} | {expected.cycles[phase]} |" in out
        assert f"| **total** | {expected.total_cycles} |" in out

    def test_json_document_validates(self, bnn_scenario_file, capsys):
        import json

        from repro.obs import ATTRIBUTION_SCHEMA, validate_attribution_dict

        assert main(["attribute", "--scenario", bnn_scenario_file,
                     "--engine", "accurate", "--engine", "fast",
                     "--engine", "parallel", "--chained", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == ATTRIBUTION_SCHEMA
        assert document["scenario"]["name"] == "cli-bnn"
        # 3 engines x (plain + chained)
        assert len(document["runs"]) == 6
        for entry in document["runs"]:
            validate_attribution_dict(entry)
        kinds = {(e["engine"], e["kind"]) for e in document["runs"]}
        assert ("parallel", "chained") in kinds
        # same workload -> identical cycle totals across engines, per kind
        for kind in ("bnn", "chained"):
            totals = {e["total_cycles"] for e in document["runs"]
                      if e["kind"] == kind}
            assert len(totals) == 1

    def test_ab_summary_rendered_for_multiple_engines(
            self, bnn_scenario_file, capsys):
        assert main(["attribute", "--scenario", bnn_scenario_file,
                     "--engine", "accurate", "--engine", "fast"]) == 0
        out = capsys.readouterr().out
        assert "### A/B summary" in out
        assert "`accurate`" in out and "`fast`" in out

    def test_out_trace_and_metrics_files(self, bnn_scenario_file, tmp_path,
                                         capsys):
        import json

        from repro.metrics import validate_openmetrics_file
        from repro.obs import validate_attribution_dict
        from repro.trace import validate_chrome_trace

        out = tmp_path / "attr.json"
        trace = tmp_path / "attr_trace.json"
        om = tmp_path / "attr.om"
        assert main(["attribute", "--scenario", bnn_scenario_file,
                     "--out", str(out), "--trace", str(trace),
                     "--metrics-out", str(om)]) == 0
        capsys.readouterr()
        document = json.loads(out.read_text())
        for entry in document["runs"]:
            validate_attribution_dict(entry)
        payload = json.loads(trace.read_text())
        validate_chrome_trace(payload)
        names = {event.get("name") for event in payload["traceEvents"]}
        assert "inference" in names  # obs.phase spans made it to the trace
        summary = validate_openmetrics_file(om)
        parsed = [name for _, name, _, _ in summary["parsed"]]
        assert "repro_obs_phase_cycles" in parsed
        assert "repro_obs_total_cycles" in parsed

    def test_unknown_engine_rejected_by_parser(self, bnn_scenario_file):
        with pytest.raises(SystemExit):
            main(["attribute", "--scenario", bnn_scenario_file,
                  "--engine", "warp"])


class TestDeviceProfileCli:
    @pytest.fixture(autouse=True)
    def _fresh_session(self):
        import os

        from repro.sim import reset_session

        os.environ.pop("REPRO_PROFILE", None)
        reset_session()
        yield
        os.environ.pop("REPRO_PROFILE", None)
        reset_session()

    def test_profile_choices_come_from_registry(self):
        from repro.cli import profile_choices
        from repro.power import profile_names

        assert profile_choices() == profile_names()
        assert "ncpu-65nm" in profile_choices()

    def test_unknown_profile_rejected_by_parser(self, source_file):
        # argparse `choices` rejects at parse time with exit status 2
        with pytest.raises(SystemExit) as excinfo:
            main(["run", source_file, "--device-profile", "tpu-v9"])
        assert excinfo.value.code == 2
        with pytest.raises(SystemExit) as excinfo:
            main(["experiments", "--profile", "tpu-v9", "fig09"])
        assert excinfo.value.code == 2

    def test_bad_profile_env_fails_fast(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "tpu-v9")
        assert main(["info"]) == 2
        message = capsys.readouterr().err
        assert "REPRO_PROFILE" in message and "tpu-v9" in message
        assert "ncpu-65nm" in message  # the registered list is spelled out

    def test_scenario_with_unknown_profile_exits_2(self, tmp_path, capsys):
        import json

        path = tmp_path / "bad_profile.json"
        path.write_text(json.dumps(
            {"device": {"profile": "tpu-v9"}}))
        assert main(["scenario", "validate", str(path)]) == 2
        message = capsys.readouterr().err
        assert "scenario.device.profile" in message
        assert "ncpu-65nm" in message

    def test_experiments_profile_flag_sets_env(self, capsys):
        import os

        assert main(["experiments", "--profile", "ethos-u55",
                     "--no-cache", "fig07"]) == 0
        assert os.environ.get("REPRO_PROFILE") == "ethos-u55"
        assert "Fig 7" in capsys.readouterr().out

    def test_info_lists_profiles(self, capsys):
        import json

        assert main(["info", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        profiles = payload["profiles"]
        assert profiles["active"] == "ncpu-65nm"
        names = [entry["name"] for entry in profiles["registered"]]
        assert "max78000" in names and "ethos-u55" in names

    def test_info_marks_active_profile(self, capsys, monkeypatch):
        from repro.sim import reset_session

        monkeypatch.setenv("REPRO_PROFILE", "mcxn947-neutron")
        reset_session()
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "* mcxn947-neutron" in out
