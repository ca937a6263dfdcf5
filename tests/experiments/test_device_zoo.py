"""Tests for the device-zoo cross-platform comparison experiment."""

import copy

import pytest

from repro.errors import ConfigurationError
from repro.experiments import device_zoo
from repro.power import get_profile, profile_names


class TestBreakdown:
    def test_phases_sum_to_totals(self):
        entry = device_zoo.profile_breakdown("ncpu-65nm")
        assert entry["latency_ms"] == pytest.approx(
            sum(entry["phases_s"].values()) * 1e3)
        assert entry["energy_uj"] == pytest.approx(
            sum(entry["phases_j"].values()) * 1e6)
        assert 0.0 < entry["overhead_share"] < 1.0

    def test_nominal_operating_point(self):
        for name in profile_names():
            profile = get_profile(name)
            entry = device_zoo.profile_breakdown(name)
            assert entry["vdd_v"] == profile.vdd_nominal
            assert entry["accel_cycles"] == pytest.approx(
                device_zoo.WORKLOAD_MACS / profile.accel_ops_per_cycle)

    def test_golden_ncpu_values(self):
        """The default profile's zoo row, pinned to exact floats."""
        entry = device_zoo.profile_breakdown("ncpu-65nm")
        assert entry["energy_uj"] == 9.174921874999999
        assert entry["latency_ms"] == 0.059453125
        assert entry["f_mhz"] == 959.9999999999999

    def test_unknown_profile_rejected(self):
        with pytest.raises(ConfigurationError):
            device_zoo.profile_breakdown("tpu-v9")


class TestRun:
    @pytest.fixture(scope="class")
    def result(self):
        return device_zoo.run()

    def test_covers_registry(self, result):
        assert result.series["profiles"] == list(profile_names())
        assert result.metric("profiles compared").measured \
            == len(profile_names())

    def test_rankings_are_permutations(self, result):
        names = set(profile_names())
        assert set(result.series["ranking_energy"]) == names
        assert set(result.series["ranking_latency"]) == names

    def test_ncpu_wins_both_axes(self, result):
        # The reconfigurable single-core design has no host/NPU shuffle,
        # so it leads on both energy and cold-start latency.
        assert result.series["ranking_energy"][0] == "ncpu-65nm"
        assert result.series["ranking_latency"][0] == "ncpu-65nm"
        assert result.metric("energy rank of ncpu-65nm").measured == 1.0
        assert result.metric("latency rank of ncpu-65nm").measured == 1.0

    def test_metrics_per_profile(self, result):
        for name in profile_names():
            assert result.metric(f"{name} energy/inference").unit == "uJ"
            assert result.metric(f"{name} end-to-end latency").unit == "ms"
            share = result.metric(f"{name} overhead share").measured
            assert 0.0 < share < 1.0


class TestValidateReport:
    @pytest.fixture()
    def report(self):
        return device_zoo.run().to_dict()

    def test_happy_path(self, report):
        summary = device_zoo.validate_report(report)
        assert tuple(summary["profiles"]) == profile_names()
        assert set(summary["energy_uj"]) == set(profile_names())
        assert all(v > 0 for v in summary["latency_ms"].values())

    def test_missing_metric_rejected(self, report):
        broken = copy.deepcopy(report)
        broken["metrics"] = [m for m in broken["metrics"]
                             if m["name"] != "ncpu-65nm energy/inference"]
        with pytest.raises(ConfigurationError, match="missing metric"):
            device_zoo.validate_report(broken)

    def test_non_positive_value_rejected(self, report):
        broken = copy.deepcopy(report)
        for metric in broken["metrics"]:
            if metric["name"] == "max78000 end-to-end latency":
                metric["measured"] = 0.0
        with pytest.raises(ConfigurationError, match="positive"):
            device_zoo.validate_report(broken)

    def test_wrong_unit_rejected(self, report):
        broken = copy.deepcopy(report)
        for metric in broken["metrics"]:
            if metric["name"] == "ethos-u55 energy/inference":
                metric["unit"] = "mJ"
        with pytest.raises(ConfigurationError, match="must be in"):
            device_zoo.validate_report(broken)

    def test_count_mismatch_rejected(self, report):
        broken = copy.deepcopy(report)
        for metric in broken["metrics"]:
            if metric["name"] == "profiles compared":
                metric["measured"] = 99.0
        with pytest.raises(ConfigurationError, match="declares"):
            device_zoo.validate_report(broken)
