"""Metric series, run manifests, and the snapshot-diff recorder."""

import pytest

from repro.cpu import PipelinedCPU
from repro.isa import assemble
from repro.metrics import (
    MetricsCollection,
    MetricsRecorder,
    RunManifest,
    quantile,
    sanitize_metric_name,
    summarize,
)
from repro.scenario import Scenario
from repro.sim import use_session

PROGRAM = """
    addi a0, x0, 7
    addi a1, x0, 8
    add a2, a0, a1
    halt
"""


def make_manifest(**overrides) -> RunManifest:
    fields = dict(config_hash="abc", seed=0, version="1.0.0",
                  git_sha="deadbeef", python="3.11", platform="linux")
    fields.update(overrides)
    return RunManifest(**fields)


class TestSanitize:
    def test_dotted_names(self):
        assert sanitize_metric_name("cpu.pipeline.cycles") == \
            "repro_cpu_pipeline_cycles"

    def test_already_valid(self):
        assert sanitize_metric_name("repro_x_total") == "repro_x_total"

    def test_leading_digit(self):
        name = sanitize_metric_name("9lives")
        assert name == "repro__9lives"


class TestQuantiles:
    def test_median_odd(self):
        assert quantile([3, 1, 2], 0.5) == 2

    def test_interpolation(self):
        assert quantile([0, 10], 0.25) == 2.5

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            quantile([], 0.5)

    def test_summary_fields(self):
        summary = summarize([4.0, 1.0, 3.0, 2.0])
        assert summary["min"] == 1.0
        assert summary["max"] == 4.0
        assert summary["median"] == 2.5
        assert summary["iqr"] == pytest.approx(
            summary["p75"] - summary["p25"])
        assert summary["count"] == 4


class TestManifest:
    def test_collect_fields(self):
        with use_session():
            manifest = RunManifest.collect()
        assert manifest.config_hash
        assert manifest.version
        assert manifest.python.count(".") >= 1
        assert manifest.created_unix > 0

    def test_labels_are_strings(self):
        manifest = make_manifest(seed=3)
        labels = manifest.labels()
        assert labels["seed"] == "3"
        assert set(labels) == {"config_hash", "engine", "git_sha",
                               "platform", "python", "seed", "version"}

    def test_collect_records_session_engine(self):
        with use_session(scenario=Scenario().with_engine(name="fast")):
            manifest = RunManifest.collect()
        assert manifest.engine == "fast"
        assert manifest.labels()["engine"] == "fast"

    def test_as_dict_sorted(self):
        keys = list(make_manifest().as_dict())
        assert keys == sorted(keys)


class TestCollection:
    def test_counter_gauge_histogram(self):
        collection = MetricsCollection(make_manifest())
        collection.counter("repro_a", 3)
        collection.gauge("repro_b", 1.5)
        collection.histogram("repro_c", [1.0, 2.0, 3.0])
        kinds = {series.name: series.kind
                 for series in collection.series()}
        assert kinds == {"repro_a": "counter", "repro_b": "gauge",
                         "repro_c": "histogram"}

    def test_negative_counter_rejected(self):
        collection = MetricsCollection(make_manifest())
        with pytest.raises(ValueError):
            collection.counter("repro_a", -1)

    def test_invalid_name_rejected(self):
        collection = MetricsCollection(make_manifest())
        with pytest.raises(ValueError):
            collection.gauge("not a name", 0)

    def test_kind_conflict_rejected(self):
        collection = MetricsCollection(make_manifest())
        collection.counter("repro_a", 1)
        with pytest.raises(ValueError):
            collection.gauge("repro_a", 1)

    def test_labels_distinguish_series(self):
        collection = MetricsCollection(make_manifest())
        collection.gauge("repro_a", 1, labels={"core": "0"})
        collection.gauge("repro_a", 2, labels={"core": "1"})
        assert len(collection) == 2
        assert collection.get("repro_a", {"core": "1"}).value == 2

    def test_series_order_stable(self):
        collection = MetricsCollection(make_manifest())
        collection.gauge("repro_z", 1)
        collection.gauge("repro_a", 2)
        names = [series.name for series in collection.series()]
        assert names == sorted(names)

    def test_registry_diff_skips_nothing_and_sanitizes(self):
        collection = MetricsCollection(make_manifest())
        collection.add_registry_diff({"cpu.pipeline.cycles": 10,
                                      "bnn.macs": 5})
        assert collection.get("repro_cpu_pipeline_cycles").value == 10
        assert collection.get("repro_bnn_macs").value == 5


class TestRecorder:
    def test_diff_matches_exec_stats(self):
        """The PR 2 profiler invariant, carried into metrics: attributed
        cycles in the collection equal ``ExecStats.cycles`` exactly."""
        program = assemble(PROGRAM)
        with use_session() as session:
            with MetricsRecorder(session) as recorder:
                result = PipelinedCPU(program).run()
            series = recorder.collection.get("repro_cpu_pipeline_cycles")
            assert series.value == result.stats.cycles

    def test_only_growth_is_recorded(self):
        program = assemble(PROGRAM)
        with use_session() as session:
            PipelinedCPU(program).run()  # pre-existing counters
            with MetricsRecorder(session) as recorder:
                pass  # nothing ran inside the recorded block
            counters = [series for series in recorder.collection.series()
                        if series.kind == "counter"]
            assert counters == []

    def test_wall_seconds_present(self):
        with use_session() as session:
            with MetricsRecorder(session) as recorder:
                pass
            wall = recorder.collection.get("repro_run_wall_seconds")
            assert wall is not None and wall.value >= 0


class TestPhaseAttributionExport:
    def run_attribution(self, engine="fast", **scenario_overrides):
        from repro.obs import attribute_scenario
        from repro.scenario import Scenario, WorkloadSpec
        from repro.sim import use_session

        defaults = dict(
            name="om-bnn",
            workload=WorkloadSpec(kind="bnn", name="random",
                                  layer_sizes=(40, 20, 10)),
            batch_size=8)
        defaults.update(scenario_overrides)
        with use_session(cache_enabled=False):
            return attribute_scenario(
                Scenario(**defaults).with_engine(name=engine))

    def test_per_phase_gauges_labelled(self):
        from repro.obs import PHASES

        attribution = self.run_attribution()
        collection = MetricsCollection(make_manifest())
        collection.add_phase_attribution(attribution)
        run_labels = {"scenario": "om-bnn", "engine": "fast", "kind": "bnn"}
        assert collection.get("repro_obs_total_cycles", run_labels).value \
            == attribution.total_cycles
        for phase in PHASES:
            labels = dict(run_labels, phase=phase)
            assert collection.get("repro_obs_phase_cycles", labels).value \
                == attribution.cycles[phase]
            assert collection.get("repro_obs_phase_wall_seconds",
                                  labels).value >= 0.0
        fractions = [
            collection.get("repro_obs_phase_cycle_fraction",
                           dict(run_labels, phase=phase)).value
            for phase in PHASES]
        assert sum(fractions) == pytest.approx(1.0)

    def test_no_shard_histograms_without_workers(self):
        attribution = self.run_attribution()
        assert "workers" not in attribution.as_dict()
        collection = MetricsCollection(make_manifest())
        collection.add_phase_attribution(attribution)
        names = {series.name for series in collection.series()}
        assert "repro_obs_serial_fallback" not in names
        assert not any(name.startswith("repro_obs_shard_")
                       for name in names)
