"""Tests for the command-line interface."""

from pathlib import Path

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


@pytest.fixture
def config_seen(monkeypatch):
    """The session config each command ran under, recorded while it ran:
    when ``repro run``/``attribute``/``serve`` open their capture, and
    when ``repro experiments`` starts its runs.  A command puts the
    previous session and config back on return, so it cannot be read
    afterwards."""
    from repro import cli
    from repro.experiments import runner
    from repro.sim import get_session

    seen = []
    enter, run_selected = cli._Capture.__enter__, runner.run_selected

    def capture_enter(capture):
        seen.append(capture.session.config)
        return enter(capture)

    def selected(*args, **kwargs):
        seen.append(get_session().config)
        return run_selected(*args, **kwargs)

    monkeypatch.setattr(cli._Capture, "__enter__", capture_enter)
    monkeypatch.setattr(runner, "run_selected", selected)
    return seen


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

    @pytest.mark.parametrize("engine", ["accurate", "fast"])
    def test_run_negative_max_cycles_exits_2(self, tmp_path, capsys, engine):
        path = tmp_path / "count.s"
        path.write_text("addi a0, a0, 1\n" * 10 + "loop: j loop")
        assert main(["run", str(path), "--max-cycles", "-5",
                     "--engine", engine]) == 2
        captured = capsys.readouterr()
        assert "--max-cycles" in captured.err
        assert "stop:" not in captured.out


class TestRunEngine:
    def test_fast_engine_matches_functional_output(self, source_file, capsys,
                                                  monkeypatch):
        import json

        from repro.sim import reset_session

        def run(*flags):
            # each run starts from a fresh default session, so the
            # counters it prints are its own
            reset_session()
            assert main(["run", source_file, "--regs", "--stats-json",
                         *flags]) == 0
            captured = capsys.readouterr()
            counters = json.loads(captured.out)["counters"]
            return captured.err, {name.rsplit(".", 1)[0]
                                  for name in counters}

        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        try:
            fast_out, fast_cpus = run("--engine", "fast")
            iss_out, iss_cpus = run("--functional")
        finally:
            reset_session()
        assert (fast_cpus, iss_cpus) == ({"cpu.fastpath"}, {"cpu.functional"})
        assert "instructions=4" in fast_out
        assert fast_out == iss_out  # identical regs, cycles, stop line

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

        assert engine_choices() == engine_names() == ("accurate", "fast")

    @pytest.mark.parametrize("retired", ["numpy", "parallel"])
    def test_retired_engine_flag_names_fast(self, source_file, capsys,
                                            retired):
        # argparse lets a retired name through so the registry rejects it
        assert main(["run", source_file, "--engine", retired]) == 2
        message = capsys.readouterr().err
        assert f"'{retired}'" in message and "folded into 'fast'" in message

    @pytest.mark.parametrize("retired", ["numpy", "parallel"])
    def test_retired_engine_env_var_names_fast(self, capsys, monkeypatch,
                                               retired):
        from repro.errors import ConfigurationError
        from repro.sim import SimConfig

        monkeypatch.setenv("REPRO_ENGINE", retired)
        with pytest.raises(ConfigurationError,
                           match="REPRO_ENGINE: .*folded into 'fast'"):
            SimConfig.from_env()
        assert main(["experiments", "fig07", "--json"]) == 2
        assert "folded into 'fast'" in capsys.readouterr().err

    @pytest.mark.parametrize("retired", ["numpy", "parallel"])
    def test_retired_engine_in_scenario_names_fast(self, tmp_path, capsys,
                                                   retired):
        import json

        path = tmp_path / f"{retired}_engine.json"
        path.write_text(json.dumps({"engine": {"name": retired}}))
        assert main(["scenario", "validate", str(path)]) == 2
        message = capsys.readouterr().err
        assert f"scenario.engine.name: unknown engine '{retired}'" \
            in message
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
        assert "accurate" in message and "fast" in message

    def test_experiments_accept_engine_flag(self, capsys, monkeypatch):
        import json
        import os

        from repro.sim import reset_session

        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        try:
            assert main(["experiments", "--engine", "fast", "--json",
                         "fig07"]) == 0
            # the engine travels in the session, not the environment
            assert "REPRO_ENGINE" not in os.environ
            entries = json.loads(capsys.readouterr().out)
            assert entries[0]["experiment_id"] == "Fig 7"
            assert entries[0]["run"]["engine"] == "fast"
        finally:
            reset_session()


class TestRunStatsJson:
    def test_stdout_is_one_json_document(self, source_file, capsys):
        import json

        assert main(["run", source_file, "--stats-json", "--regs"]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)  # whole stream must parse
        assert payload["stop_reason"] == "halt"
        assert payload["exit_code"] == 0
        assert "counters" in payload
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
        import json

        from repro.trace import validate_chrome_trace_file

        trace = tmp_path / "run.trace.json"
        jsonl = tmp_path / "run.jsonl"
        # pinned: per-cycle profiling is a pipeline (accurate-engine)
        # feature, so the test must not follow REPRO_ENGINE
        assert main(["run", source_file, "--engine", "accurate",
                     "--trace", str(trace),
                     "--trace", str(jsonl), "--profile"]) == 0
        out = capsys.readouterr().out
        summary = validate_chrome_trace_file(trace)
        assert "cpu.pipeline" in summary["tracks"]
        # the .jsonl name picks the raw event stream: one event per line
        events = [json.loads(line)
                  for line in jsonl.read_text().splitlines()]
        assert events and all("ph" in event for event in events)
        assert "hot spots" in out
        assert "cycles attributed" in out

    def test_trace_does_not_leak_into_session(self, source_file, tmp_path):
        from repro.sim import get_session

        trace = tmp_path / "t.json"
        assert main(["run", source_file, "--trace", str(trace)]) == 0
        assert get_session().tracer is None

    def test_capture_restores_the_outer_tracer(self, source_file, tmp_path):
        from repro.sim import get_session
        from repro.trace import tracing

        with tracing(get_session()) as outer:
            assert main(["run", source_file, "--trace",
                         str(tmp_path / "t.json")]) == 0
            assert get_session().tracer is outer

    def test_artifacts_in_missing_directories(self, source_file, tmp_path,
                                              capsys):
        trace = tmp_path / "new" / "a" / "t.json"
        metrics = tmp_path / "new" / "b" / "m.om"
        assert main(["run", source_file, "--trace", str(trace),
                     "--metrics-out", str(metrics)]) == 0
        assert trace.is_file() and metrics.is_file()


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
        by_name = {e["name"]: e["capabilities"]
                   for e in engines["registered"]}
        assert by_name == {"accurate": {"timing_accurate": True},
                           "fast": {"timing_accurate": False}}

    def test_info_text_lists_engines(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "execution engines" in out
        for name in ("accurate", "fast"):
            assert name in out


class TestRunMetrics:
    def test_metrics_out_is_valid_openmetrics(self, source_file, tmp_path,
                                              capsys):
        from repro.metrics import RunManifest, validate_openmetrics_file

        out = tmp_path / "run.om"
        # the pipeline's series are asserted, so the run asks for it
        # whatever REPRO_ENGINE says
        assert main(["run", source_file, "--engine", "accurate",
                     "--metrics-out", str(out)]) == 0
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
        assert main(["run", source_file, "--engine", "accurate",
                     "--metrics-out", str(out)]) == 0
        text = capsys.readouterr().out
        reported = int(re.search(r"cycles=(\d+)", text).group(1))
        summary = validate_openmetrics_file(out)
        cycles = [value for _, name, _, value in summary["parsed"]
                  if name == "repro_cpu_pipeline_cycles_total"]
        assert cycles == [float(reported)]

    def test_metrics_out_json_document(self, source_file, tmp_path,
                                       capsys):
        import json

        out = tmp_path / "run.metrics.json"
        assert main(["run", source_file, "--metrics-out", str(out)]) == 0
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

    def test_run_bnn_scenario_writes_captures(self, bnn_scenario_file,
                                              tmp_path, capsys):
        import json

        from repro.trace import validate_chrome_trace_file

        trace, metrics = tmp_path / "t.json", tmp_path / "m.om"
        assert main(["run", "--scenario", bnn_scenario_file,
                     "--trace", str(trace), "--metrics-out", str(metrics),
                     "--profile"]) == 0
        out = capsys.readouterr().out
        assert "bnn" in validate_chrome_trace_file(trace)["tracks"]
        assert "repro_bnn_batches_total" in metrics.read_text()
        assert "bnn layers" in out
        # with --stats-json the profile moves to stderr
        assert main(["run", "--scenario", bnn_scenario_file,
                     "--stats-json", "--profile"]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["batch_size"] == 6
        assert "bnn layers" in captured.err

    def test_run_cpu_scenario(self, cpu_scenario_file, capsys):
        assert main(["run", "--scenario", cpu_scenario_file]) == 0
        out = capsys.readouterr().out
        assert "stop: halt" in out

    def test_run_scenario_engine_flag_overrides_file(self,
                                                     bnn_scenario_file,
                                                     capsys):
        assert main(["run", "--scenario", bnn_scenario_file,
                     "--engine", "accurate"]) == 0
        assert "engine=accurate" in capsys.readouterr().out

    def test_run_scenario_installs_session_config(self, bnn_scenario_file,
                                                  config_seen):
        from repro.sim import get_session

        outer = get_session()
        outer_config = outer.config
        assert main(["run", "--scenario", bnn_scenario_file]) == 0
        # the scenario's config ran the command, and the outer session
        # is back afterwards, unchanged
        (config,) = config_seen
        assert config.seed == 5
        assert config.engine == "fast"
        assert config.scenario.name == "cli-bnn"
        assert get_session() is outer
        assert outer.config is outer_config

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
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        assert main(["experiments", "--scenario", bnn_scenario_file,
                     "--cache-dir", str(tmp_path), "--json",
                     "fig07"]) == 0
        assert "REPRO_ENGINE" not in os.environ
        assert "REPRO_PROFILE" not in os.environ
        entries = json.loads(capsys.readouterr().out)
        assert entries[0]["run"]["engine"] == "fast"
        assert entries[0]["run"]["scenario"]["name"] == "cli-bnn"
        assert entries[0]["scenario"]["name"] == "cli-bnn"

    def test_bad_engine_env_fails_fast(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "warp")
        assert main(["experiments", "fig07", "--json"]) == 2
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
            expected = attribute_scenario(scenario.with_engine(name="fast"))
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
                     "--chained", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == ATTRIBUTION_SCHEMA
        assert document["scenario"]["name"] == "cli-bnn"
        # 2 engines x (plain + chained)
        assert len(document["runs"]) == 4
        for entry in document["runs"]:
            validate_attribution_dict(entry)
        kinds = {(e["engine"], e["kind"]) for e in document["runs"]}
        assert ("fast", "chained") in kinds
        # same workload -> identical cycle totals across engines, per kind
        for kind in ("bnn", "chained"):
            totals = {e["total_cycles"] for e in document["runs"]
                      if e["kind"] == kind}
            assert len(totals) == 1

    @pytest.mark.parametrize("engines, scenario_engine", [
        (["accurate"], "accurate"),
        (["accurate", "fast"], "fast"),
    ], ids=["one", "repeated"])
    def test_document_names_the_engines_run(self, bnn_scenario_file,
                                            tmp_path, capsys, engines,
                                            scenario_engine):
        # one --engine replaces the file's ("fast"); repeated, each run
        # names its own and the scenario keeps the file's engine
        import json

        metrics = tmp_path / "attr.metrics.json"
        argv = ["attribute", "--scenario", bnn_scenario_file, "--json",
                "--metrics-out", str(metrics)]
        for name in engines:
            argv += ["--engine", name]
        assert main(argv) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["scenario"]["engine"]["name"] == scenario_engine
        assert [run["engine"] for run in document["runs"]] == engines
        manifest = json.loads(metrics.read_text())["manifest"]
        assert manifest["engine"] == scenario_engine

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

    def test_out_in_missing_directory(self, bnn_scenario_file, tmp_path,
                                      capsys):
        import json

        from repro.obs import ATTRIBUTION_SCHEMA

        out = tmp_path / "new" / "dir" / "a.json"
        assert main(["attribute", "--scenario", bnn_scenario_file,
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["schema"] == ATTRIBUTION_SCHEMA


class TestServeCli:
    @pytest.fixture(autouse=True)
    def _fresh_session(self):
        from repro.sim import reset_session

        reset_session()
        yield
        reset_session()

    def test_metrics_out_counts_batches_once_and_errors(self, tmp_path,
                                                         capsys):
        import json

        from repro.metrics import validate_openmetrics_file

        om = tmp_path / "serve.om"
        assert main(["serve", "--engine", "fast", "--requests", "40",
                     "--json", "--metrics-out", str(om)]) == 0
        report = json.loads(capsys.readouterr().out)
        samples = {}
        for _, name, _, value in validate_openmetrics_file(om)["parsed"]:
            samples.setdefault(name, []).append(value)
        assert samples["repro_serve_batches_total"] == \
            [report["batches"]["count"]]
        assert samples["repro_serve_errors_total"] == [0]
        assert samples["repro_serve_requests_total"] == [40]

    def test_manifest_carries_the_scenario_hash(self, capsys):
        import json
        from pathlib import Path

        from repro.scenario import Scenario

        path = str(Path(__file__).resolve().parents[1] / "examples" /
                   "scenarios" / "serve_classification.json")
        assert main(["serve", "--scenario", path, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        # `repro scenario validate` prints the same hash
        assert report["manifest"]["config_hash"] == \
            Scenario.from_file(path).hash

    def test_out_in_missing_directory(self, tmp_path, capsys):
        import json

        from repro.serve import validate_slo_report

        out = tmp_path / "new" / "dir" / "slo.json"
        assert main(["serve", "--engine", "fast", "--requests", "16",
                     "--out", str(out)]) == 0
        assert validate_slo_report(
            json.loads(out.read_text()))["requests"] == 16


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
            main(["experiments", "--device-profile", "tpu-v9", "fig09"])
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
        path.write_text(json.dumps({"profile": "tpu-v9"}))
        assert main(["scenario", "validate", str(path)]) == 2
        message = capsys.readouterr().err
        assert "scenario.profile" in message
        assert "ncpu-65nm" in message

    def test_retired_device_object_exits_2(self, tmp_path, capsys):
        import json

        path = tmp_path / "device.json"
        path.write_text(json.dumps({"device": {"profile": "ethos-u55"}}))
        assert main(["run", "--scenario", str(path)]) == 2
        assert "scenario.device: unknown field" in capsys.readouterr().err

    def test_profile_is_not_a_device_flag(self, capsys):
        # --profile means only the hot-spot profiler (on `repro run`)
        with pytest.raises(SystemExit) as excinfo:
            main(["experiments", "--profile", "ethos-u55", "fig07"])
        assert excinfo.value.code == 2
        assert "--profile" in capsys.readouterr().err

    def test_experiments_profile_flag_reaches_the_run(self, capsys):
        import json
        import os

        assert main(["experiments", "--device-profile", "ethos-u55",
                     "--no-cache", "--json", "fig07"]) == 0
        # the profile travels in the session, not the environment
        assert "REPRO_PROFILE" not in os.environ
        entries = json.loads(capsys.readouterr().out)
        assert entries[0]["experiment_id"] == "Fig 7"
        assert entries[0]["run"]["scenario"]["profile"] == "ethos-u55"

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


#: (command, REPRO_ENGINE/REPRO_PROFILE, --scenario file, flags, the
#: engine and device profile the session ends up with); each pair is
#: (engine, profile) and None means "not given".  A flag beats the file,
#: the file beats the environment, the environment beats the built-in
#: default.  ``serve`` runs its built-in ``serve`` scenario, which the
#: environment does not reach, and has no device flag; ``attribute``
#: requires a file, and one --engine folds into it as on ``run`` (its
#: rows that set that flag are labelled ``engine-flag``).
PRECEDENCE = [
    *[(command, *row) for command in ("run", "experiments") for row in (
        (None, None, None, ("accurate", "ncpu-65nm")),
        (("fast", "max78000"), None, None, ("fast", "max78000")),
        (None, ("fast", "ethos-u55"), None, ("fast", "ethos-u55")),
        (("fast", "max78000"), ("accurate", "ethos-u55"), None,
         ("accurate", "ethos-u55")),
        (None, ("accurate", "ethos-u55"), ("fast", "mcxn947-neutron"),
         ("fast", "mcxn947-neutron")),
        (("fast", "max78000"), None, ("accurate", "mcxn947-neutron"),
         ("accurate", "mcxn947-neutron")),
        (("fast", "max78000"), ("accurate", "ethos-u55"),
         ("fast", "mcxn947-neutron"), ("fast", "mcxn947-neutron")),
    )],
    ("attribute", None, ("fast", "ethos-u55"), None, ("fast", "ethos-u55")),
    ("attribute", ("fast", "max78000"), ("accurate", "ethos-u55"), None,
     ("accurate", "ethos-u55")),
    ("attribute", None, ("fast", "ethos-u55"), (None, "mcxn947-neutron"),
     ("fast", "mcxn947-neutron")),
    ("attribute", ("fast", "max78000"), ("accurate", "ethos-u55"),
     (None, "mcxn947-neutron"), ("accurate", "mcxn947-neutron")),
    ("attribute", None, ("accurate", "ethos-u55"), ("fast", None),
     ("fast", "ethos-u55")),
    ("attribute", ("accurate", "max78000"), ("accurate", "ethos-u55"),
     ("fast", "mcxn947-neutron"), ("fast", "mcxn947-neutron")),
    ("serve", None, None, None, ("accurate", "ncpu-65nm")),
    ("serve", ("fast", "max78000"), None, None, ("accurate", "ncpu-65nm")),
    ("serve", None, ("fast", "ethos-u55"), None, ("fast", "ethos-u55")),
    ("serve", ("fast", "max78000"), ("accurate", "ethos-u55"), None,
     ("accurate", "ethos-u55")),
    ("serve", None, ("accurate", "ethos-u55"), ("fast", None),
     ("fast", "ethos-u55")),
    ("serve", ("fast", "max78000"), None, ("fast", None),
     ("fast", "ncpu-65nm")),
]


def _precedence_id(row) -> str:
    command, env, scenario, flags, _ = row
    given = [name for name, value in (("env", env), ("file", scenario),
                                      ("flag", flags)) if value]
    if command == "attribute" and flags and flags[0]:
        given[-1] = "engine-flag"
    return f"{command}:{'+'.join(given) or 'default'}"


class TestSettingPrecedence:
    @pytest.fixture(autouse=True)
    def _fresh_session(self, tmp_path, monkeypatch):
        from repro.sim import reset_session

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        reset_session()
        yield
        reset_session()

    @pytest.mark.parametrize("command,env,scenario,flags,expected",
                             PRECEDENCE,
                             ids=[_precedence_id(row) for row in PRECEDENCE])
    def test_session_engine_and_profile(self, command, env, scenario, flags,
                                        expected, source_file, tmp_path,
                                        capsys, monkeypatch, config_seen):
        from repro.scenario import Scenario
        from repro.sim import get_session

        for variable, value in zip(("REPRO_ENGINE", "REPRO_PROFILE"),
                                   env or (None, None)):
            if value is None:
                monkeypatch.delenv(variable, raising=False)
            else:
                monkeypatch.setenv(variable, value)
        argv = {"run": ["run", source_file],
                "experiments": ["experiments", "--no-cache", "--json",
                                "fig13"],
                "attribute": ["attribute", "--json"],
                "serve": ["serve", "--requests", "8", "--json"]}[command]
        if scenario is not None:
            # the default scenario's canonical JSON with its engine and
            # profile names swapped, wherever the schema keeps them
            engine, profile = scenario
            path = tmp_path / "precedence.json"
            path.write_text(Scenario().to_json()
                            .replace('"accurate"', f'"{engine}"')
                            .replace('"ncpu-65nm"', f'"{profile}"'))
            argv += ["--scenario", str(path)]
        engine, profile = flags or (None, None)
        if engine:
            argv += ["--engine", engine]
        if profile:
            argv += ["--device-profile", profile]
        outer = get_session()
        assert main(argv) == 0, capsys.readouterr().err
        capsys.readouterr()
        (config,) = config_seen
        assert (config.engine, config.profile) == expected
        assert get_session() is outer


#: the repository's example programs and scenarios
EXAMPLES = Path(__file__).resolve().parents[1] / "examples"

#: one call of each command that takes a session or config of its own
SESSION_COMMANDS = {
    "run-engine-flag": ["run", str(EXAMPLES / "hotspot.s"),
                        "--engine", "fast"],
    "run-scenario": ["run", "--scenario",
                     str(EXAMPLES / "scenarios" / "dhrystone.json")],
    "experiments-no-cache": ["experiments", "--no-cache", "fig09"],
    "attribute": ["attribute", "--scenario",
                  str(EXAMPLES / "scenarios" / "image_classification.json")],
    "serve": ["serve", "--requests", "8"],
}


class TestCommandsRestoreTheSession:
    """A command runs under the session or config it needs, and the
    caller's session and config are back when ``main`` returns."""

    @pytest.mark.parametrize("argv", SESSION_COMMANDS.values(),
                             ids=SESSION_COMMANDS)
    def test_same_session_and_config_after(self, argv, tmp_path, capsys,
                                           monkeypatch):
        from repro.sim import get_session, use_session

        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        with use_session(cache_dir=str(tmp_path)) as session:
            config = session.config
            assert main(argv) == 0, capsys.readouterr().err
            assert get_session() is session
            assert session.config is config
            assert session.cache.enabled

#: ``repro run examples/hotspot.s --stats-json`` counters, per CPU
#: simulator; the single-cycle models stall and flush never, so they
#: publish no ``stalls`` or ``flushes`` key
HOTSPOT_COUNTERS = {
    "pipeline": {"cycles": 230, "flushes": 60, "instructions": 150,
                 "mem_reads": 16, "mem_writes": 16, "runs": 1, "stalls": 16},
    "fastpath": {"cycles": 150, "instructions": 150, "mem_reads": 16,
                 "mem_writes": 16, "runs": 1},
    "functional": {"cycles": 150, "instructions": 150, "mem_reads": 16,
                   "mem_writes": 16, "runs": 1},
}

#: counter series of ``repro attribute`` on image_classification.json
#: with both engines and ``--chained``
ATTRIBUTE_COUNTERS = {
    "repro_bnn_batches": 2,
    "repro_bnn_cycles": 101_280,
    "repro_bnn_inferences": 128,
    "repro_bnn_macs": 11_443_200,
    "repro_bnn_weight_stream_cycles": 1_760,
    "repro_obs_runs": 4,
    "repro_timeline_bnn_cycles": 200_568,
    "repro_timeline_idle_cycles": 1_816,
    "repro_timeline_segments": 6,
}


class TestPinnedCounters:
    """The session counters that ``--stats-json`` and ``--metrics-out``
    report, pinned to exact values for fixed inputs."""

    @pytest.fixture(autouse=True)
    def _fresh_session(self, monkeypatch):
        from repro.sim import reset_session

        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        reset_session()
        yield
        reset_session()

    @pytest.mark.parametrize("simulator, flags", [
        ("pipeline", ["--engine", "accurate"]),
        ("fastpath", ["--engine", "fast"]),
        ("functional", ["--functional"]),
    ], ids=["accurate", "fast", "functional"])
    def test_run_stats_json_counters(self, simulator, flags, capsys):
        import json

        assert main(["run", str(EXAMPLES / "hotspot.s"), "--stats-json",
                     *flags]) == 0
        counters = json.loads(capsys.readouterr().out)["counters"]
        assert counters == {f"cpu.{simulator}.{name}": value
                            for name, value
                            in HOTSPOT_COUNTERS[simulator].items()}

    def test_attribute_metrics_out(self, tmp_path, capsys):
        import json

        out = tmp_path / "attribute.metrics.json"
        assert main(["attribute", "--scenario",
                     str(EXAMPLES / "scenarios" / "image_classification.json"),
                     "--engine", "accurate", "--engine", "fast", "--chained",
                     "--metrics-out", str(out)]) == 0
        capsys.readouterr()
        metrics = json.loads(out.read_text())["metrics"]
        counters = {series["name"]: series["value"] for series in metrics
                    if series["kind"] == "counter"}
        assert counters == ATTRIBUTE_COUNTERS


#: SHA-256 of ``repro run --scenario image_classification.json
#: --stats-json``'s stdout, the whole document
IMAGE_STATS_SHA256 = (
    "34de20bf4fe530d3489565ddd88e824c5a17436c42604c2442b29d2183a4e827")

#: SHA-256 of ``repro fuzz --count 10 --seed 0 --engines accurate,fast
#: --json``'s stdout
FUZZ_SHA256 = (
    "0752f836a326df770cb4551496e0549080ea90dbdfb1208feedff4ecd915e8ba")

#: (engine, kind, cycles, detail) of each run of ``repro attribute`` on
#: image_classification.json with both engines and ``--chained``
_BNN_CYCLES = {"init": 208, "preprocess": 0, "inference": 50_432,
               "memory_io": 0, "postprocess": 0, "overhead": 0}
_CHAINED_CYCLES = {"init": 104, "preprocess": 0, "inference": 50_536,
                   "memory_io": 16, "postprocess": 0, "overhead": 0}
_HEAD = [9, 5, 4, 4, 6, 0, 6, 7]
ATTRIBUTE_RUNS = [
    (engine, kind, cycles, detail)
    for engine in ("accurate", "fast")
    for kind, cycles, detail in (
        ("bnn", _BNN_CYCLES,
         {"batch_size": 64, "macs": 5_721_600, "predictions_head": _HEAD}),
        ("chained", _CHAINED_CYCLES,
         {"batch_size": 64, "split_at": 2, "predictions_head": _HEAD}))
]


class TestPinnedScenarioRuns:
    """What ``run --scenario``, ``fuzz`` and ``attribute`` print for the
    example scenarios, pinned exactly: one scenario means one run,
    whichever command executes it."""

    @pytest.fixture(autouse=True)
    def _fresh_session(self, monkeypatch):
        from repro.sim import reset_session

        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        reset_session()
        yield
        reset_session()

    def test_bnn_stats_json_document(self, capsys):
        import hashlib
        import json

        assert main(["run", "--scenario",
                     str(EXAMPLES / "scenarios" / "image_classification.json"),
                     "--stats-json"]) == 0
        out = capsys.readouterr().out
        document = json.loads(out)
        assert document["engine"] == "fast"
        assert len(document["predictions"]) == 64
        assert document["predictions"][:8] == _HEAD
        assert (document["total_cycles"], document["macs"]) == (50_640,
                                                                 5_721_600)
        assert hashlib.sha256(out.encode()).hexdigest() == IMAGE_STATS_SHA256

    def test_cpu_scenario_summary(self, capsys):
        assert main(["run", "--scenario",
                     str(EXAMPLES / "scenarios" / "dhrystone.json")]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "stop: halt at pc=0x100",
            "cycles=13785 instructions=10159 ipc=0.737 stalls=1120 "
            "flushes=2502"]

    def test_cpu_scenario_step_limit(self, capsys):
        assert main(["run", "--scenario",
                     str(EXAMPLES / "scenarios" / "dhrystone.json"),
                     "--engine", "fast", "--max-cycles", "500"]) == 1
        assert capsys.readouterr().out.splitlines()[0] == (
            "stop: max_cycles at pc=0x178")

    def test_fuzz_json_document(self, capsys):
        import hashlib

        assert main(["fuzz", "--count", "10", "--seed", "0", "--engines",
                     "accurate,fast", "--json"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == FUZZ_SHA256

    def test_attribute_runs(self, capsys):
        import json

        assert main(["attribute", "--scenario",
                     str(EXAMPLES / "scenarios" / "image_classification.json"),
                     "--engine", "accurate", "--engine", "fast", "--chained",
                     "--json"]) == 0
        runs = json.loads(capsys.readouterr().out)["runs"]
        assert [(run["engine"], run["kind"], run["cycles"], run["detail"])
                for run in runs] == ATTRIBUTE_RUNS
