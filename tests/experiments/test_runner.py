"""Registry, cache-aware runner, reporters, and the model-cache guarantee."""

import json

import pytest

from repro.cli import main
from repro.experiments import registry, runner
from repro.experiments.common import ExperimentResult
from repro.sim import SimConfig, SimSession, set_session

ALL_NAMES = [
    "table1", "table2", "table3", "table4",
    "fig07", "fig09", "fig10", "fig11", "fig12", "fig13", "fig14",
    "fig15", "fig16", "fig17", "fig18", "fig19",
    "ablations", "device_zoo", "extension",
]


@pytest.fixture()
def session(tmp_path):
    mine = SimSession(SimConfig(cache_dir=str(tmp_path)))
    previous = set_session(mine)
    yield mine
    set_session(previous)


class TestRegistry:
    def test_all_experiments_complete(self):
        assert list(registry.all_experiments()) == ALL_NAMES

    def test_get_spec_unknown_name(self):
        with pytest.raises(KeyError, match="no experiment named"):
            registry.get_spec("fig99")

    def test_duplicate_registration_rejected(self):
        @registry.experiment("_dup_test")
        def first():
            return ExperimentResult("x", "first")

        try:
            with pytest.raises(ValueError, match="registered twice"):
                @registry.experiment("_dup_test")
                def second():
                    return ExperimentResult("x", "second")
        finally:
            registry.unregister("_dup_test")

    def test_cache_key_tracks_code_the_experiment_calls(self, tmp_path):
        """An edit to code table1 only calls (its dataset generators)
        re-keys its cached result, not only an edit to its own module."""
        import shutil
        import subprocess
        import sys
        from pathlib import Path

        source = Path(registry.__file__).resolve().parents[1]
        keys = []
        for name, edit in (("plain", ""), ("edited", "# an edit\n")):
            copy = tmp_path / name
            shutil.copytree(source, copy / "repro",
                            ignore=shutil.ignore_patterns("__pycache__"))
            with open(copy / "repro" / "bnn" / "datasets.py", "a") as f:
                f.write(edit)
            done = subprocess.run(
                [sys.executable, "-c",
                 "from repro.experiments.registry import get_spec\n"
                 "print(get_spec('table1').cache_key())"],
                capture_output=True, text=True, check=True, timeout=120,
                env={"PYTHONPATH": str(copy)})
            keys.append(done.stdout.strip())
        assert keys[0] and keys[0] != keys[1]


class TestSelect:
    def test_no_patterns_selects_everything(self):
        assert runner.select(None) == ALL_NAMES

    def test_substring_filtering(self):
        assert runner.select(["fig1"]) == [
            "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
            "fig16", "fig17", "fig18", "fig19"]
        assert runner.select(["table2", "fig07"]) == ["table2", "fig07"]
        assert runner.select(["nonexistent"]) == []


class TestResultCache:
    @pytest.fixture()
    def counted(self, session):
        calls = []

        @registry.experiment("_cached_test")
        def fake():
            calls.append(1)
            return ExperimentResult("_cached_test", "synthetic")

        yield calls
        registry.unregister("_cached_test")

    def test_second_run_hits_cache(self, session, counted):
        runner.run_experiment("_cached_test")
        session.cache.clear_memory()  # force the disk path
        result = runner.run_experiment("_cached_test")
        assert len(counted) == 1
        assert result.experiment_id == "_cached_test"

    def test_disabled_session_cache_reruns(self, counted, tmp_path):
        disabled = SimSession(SimConfig(cache_dir=str(tmp_path),
                                        cache_enabled=False))
        previous = set_session(disabled)
        try:
            runner.run_experiment("_cached_test")
            runner.run_experiment("_cached_test")
        finally:
            set_session(previous)
        assert len(counted) == 2

    def test_no_cache_flag_writes_no_artifact(self, tmp_path, capsys):
        """``repro experiments --no-cache`` disables the session's whole
        cache, as REPRO_NO_CACHE=1 does: a model the experiment fetches
        is neither read from nor written to the cache directory."""
        from repro.sim import get_session

        @registry.experiment("_model_cache_test")
        def fetches_a_model():
            get_session().cache.fetch("models", "synthetic", lambda: [1])
            return ExperimentResult("_model_cache_test", "synthetic")

        try:
            assert main(["experiments", "--no-cache", "--cache-dir",
                         str(tmp_path), "_model_cache_test"]) == 0
        finally:
            registry.unregister("_model_cache_test")
        capsys.readouterr()
        assert list(tmp_path.rglob("*")) == []


class TestRunMeta:
    @pytest.fixture()
    def fake(self, session):
        @registry.experiment("_meta_test")
        def build():
            return ExperimentResult("_meta_test", "synthetic")

        yield
        registry.unregister("_meta_test")

    def test_meta_reports_miss_then_hit(self, session, fake):
        first = runner.run_meta(runner.run_experiment("_meta_test"))
        second = runner.run_meta(runner.run_experiment("_meta_test"))
        assert first["cache_hit"] is False
        assert second["cache_hit"] is True
        assert first["name"] == second["name"] == "_meta_test"
        assert first["wall_time_s"] >= 0
        assert first["trace_path"] is None

    def test_trace_dir_writes_valid_trace(self, session, fake, tmp_path):
        from repro.trace import validate_chrome_trace_file

        result = runner.run_experiment("_meta_test",
                                       trace_dir=str(tmp_path / "traces"))
        meta = runner.run_meta(result)
        assert meta["trace_path"].endswith("_meta_test.trace.json")
        summary = validate_chrome_trace_file(meta["trace_path"])
        assert "runner" in summary["tracks"]
        # tracing is per-run state; the session must come back clean
        assert session.tracer is None

    def test_cache_hit_skips_tracing(self, session, fake, tmp_path):
        runner.run_experiment("_meta_test")  # warm the cache
        meta = runner.run_meta(runner.run_experiment(
            "_meta_test", trace_dir=str(tmp_path)))
        assert meta["cache_hit"] is True
        assert meta["trace_path"] is None

    def test_meta_in_render_json(self, session, fake):
        results = [runner.run_experiment("_meta_test")]
        payload = json.loads(runner.render_json(results))
        assert payload[0]["run"]["cache_hit"] is False
        assert payload[0]["run"]["name"] == "_meta_test"

    def test_meta_in_render_markdown(self, session, fake):
        results = [runner.run_experiment("_meta_test")]
        markdown = runner.render_markdown(results)
        assert "## Run summary" in markdown
        assert "| experiment | wall time | cache | trace |" in markdown
        assert "| _meta_test |" in markdown

    def test_cached_artifact_never_stores_meta(self, session, fake):
        runner.run_experiment("_meta_test")
        session.cache.clear_memory()
        spec = registry.get_spec("_meta_test")
        raw = session.cache.fetch(runner.RESULT_NAMESPACE, spec.cache_key(),
                                  lambda: None)
        assert runner.run_meta(raw) is None


class TestRunSelected:
    def test_sequential(self, session):
        results = runner.run_selected(["fig07"])
        assert [r.experiment_id for r in results] == ["Fig 7"]

    def test_parallel_matches_sequential(self, session):
        sequential = runner.run_selected(["fig07", "table1"])
        parallel = runner.run_selected(["fig07", "table1"], jobs=2)
        assert [r.experiment_id for r in parallel] == \
            [r.experiment_id for r in sequential]
        for left, right in zip(sequential, parallel):
            assert left.to_dict() == right.to_dict()

    def test_spawned_workers_run_in_the_callers_session(self, tmp_path,
                                                        monkeypatch):
        import functools
        import multiprocessing

        # a worker that rebuilt its session from the environment would
        # run the accurate engine against the decoy cache directory
        decoy = tmp_path / "decoy"
        monkeypatch.setenv("REPRO_ENGINE", "accurate")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(decoy))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        monkeypatch.setattr(runner, "ProcessPoolExecutor", functools.partial(
            runner.ProcessPoolExecutor,
            mp_context=multiprocessing.get_context("spawn")))
        from repro.scenario import Scenario

        cache = tmp_path / "cache"
        previous = set_session(SimSession(SimConfig(
            cache_dir=str(cache), scenario=Scenario().with_engine(name="fast"))))
        try:
            results = runner.run_selected(["fig07", "fig13"], jobs=2)
        finally:
            set_session(previous)
        assert [runner.run_meta(r)["engine"] for r in results] == \
            ["fast", "fast"]
        stored = list((cache / runner.RESULT_NAMESPACE).glob("*.pkl"))
        assert len(stored) == 2
        assert not decoy.exists()


class TestReporters:
    def test_render_json_fields(self, session):
        results = runner.run_selected(["fig07"])
        payload = json.loads(runner.render_json(results))
        assert len(payload) == 1
        entry = payload[0]
        assert entry["experiment_id"] == "Fig 7"
        assert entry["title"]
        for metric in entry["metrics"]:
            assert set(metric) == {"name", "paper", "measured", "unit",
                                   "deviation"}
        named = {m["name"]: m for m in entry["metrics"]}
        assert named["nominal frequency"]["paper"] == 960.0
        assert named["nominal frequency"]["measured"] == \
            pytest.approx(960.0)
        assert named["nominal frequency"]["deviation"] == \
            pytest.approx(0.0, abs=1e-6)

    def test_render_markdown_and_text(self, session):
        results = runner.run_selected(["fig07"])
        markdown = runner.render_markdown(results)
        assert "| metric | paper | measured | deviation |" in markdown
        assert "Fig 7" in results[0].to_table()

    def test_cli_no_match_is_an_error(self, session, capsys):
        assert main(["experiments", "zzz",
                     "--cache-dir", str(session.cache.root)]) == 1
        assert "no experiments match" in capsys.readouterr().err

    def test_cli_json_mode(self, session, capsys):
        assert main(["experiments", "fig07", "--json",
                     "--cache-dir", str(session.cache.root)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["experiment_id"] == "Fig 7"


class TestModelArtifactCache:
    def test_trainer_invoked_once_across_sessions(self, tmp_path, monkeypatch):
        """Two fresh sessions sharing one cache dir -> one training run."""
        from repro.bnn.training import BNNTrainer
        from repro.experiments.models import mnist_model

        calls = []
        original = BNNTrainer.train

        def counting_train(self, *args, **kwargs):
            calls.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(BNNTrainer, "train", counting_train)

        accuracies = []
        for _ in range(2):  # separate sessions: no shared memory cache
            session = SimSession(SimConfig(cache_dir=str(tmp_path)))
            previous = set_session(session)
            try:
                trained = mnist_model(width=12, epochs=1, n_samples=80)
                accuracies.append(trained.test_accuracy)
            finally:
                set_session(previous)

        assert len(calls) == 1
        assert accuracies[0] == accuracies[1]


class TestScenarioRecording:
    @pytest.fixture()
    def fake(self, session):
        @registry.experiment("_scenario_test")
        def build():
            return ExperimentResult("_scenario_test", "synthetic")

        yield
        registry.unregister("_scenario_test")

    def test_run_meta_carries_canonical_scenario(self, session, fake):
        meta = runner.run_meta(runner.run_experiment("_scenario_test"))
        scenario = meta["scenario"]
        assert scenario == session.config.scenario.to_dict()
        assert scenario["engine"]["name"] == session.config.engine

    def test_result_scenario_lands_in_reports(self, session, fake):
        result = runner.run_experiment("_scenario_test")
        assert result.scenario == session.config.scenario.to_dict()
        entry = json.loads(runner.render_json([result]))[0]
        assert entry["scenario"]["seed"] == session.config.seed
        assert entry["run"]["scenario"] == entry["scenario"]

    def test_scenario_session_flows_into_meta(self, tmp_path, fake,
                                              session):
        from repro.scenario import Scenario

        scenario = Scenario(name="meta-scenario", seed=9)
        mine = SimSession(SimConfig.from_scenario(
            scenario, environ={}, cache_dir=str(tmp_path)))
        previous = set_session(mine)
        try:
            meta = runner.run_meta(
                runner.run_experiment("_scenario_test"))
        finally:
            set_session(previous)
        assert meta["scenario"]["name"] == "meta-scenario"
        assert meta["scenario"]["seed"] == 9

    def test_metrics_documents_carry_scenario(self, session, fake,
                                              tmp_path):
        result = runner.run_experiment("_scenario_test")
        runner.write_experiment_metrics([result], tmp_path / "metrics")
        document = json.loads(
            (tmp_path / "metrics" / "_scenario_test.metrics.json")
            .read_text())
        assert document["run"]["scenario"]["name"] == \
            session.config.scenario.name
        assert document["result"]["scenario"]["name"] == \
            session.config.scenario.name
