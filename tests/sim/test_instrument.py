"""Tests for the shared StatsRegistry / StatsScope instrumentation."""

import json

from repro.sim import StatsRegistry


class TestCounters:
    def test_incr_accumulates(self):
        registry = StatsRegistry()
        assert registry.incr("a") == 1
        assert registry.incr("a", 4) == 5
        assert registry.get("a") == 5

    def test_get_default(self):
        assert StatsRegistry().get("missing", 17) == 17

    def test_counters_prefix_filter_sorted(self):
        registry = StatsRegistry()
        registry.incr("cpu.cycles", 10)
        registry.incr("cpu.stalls", 2)
        registry.incr("bnn.cycles", 5)
        assert registry.counters("cpu.") == {"cpu.cycles": 10,
                                             "cpu.stalls": 2}
        assert list(registry.counters()) == ["bnn.cycles", "cpu.cycles",
                                             "cpu.stalls"]


class TestGauges:
    def test_set_and_read(self):
        registry = StatsRegistry()
        registry.set_gauge("util.cpu", 0.5)
        registry.set_gauge("util.cpu", 0.75)  # last write wins
        assert registry.gauges() == {"util.cpu": 0.75}
        assert registry.get("util.cpu") == 0.75  # falls through to gauges


class TestSnapshotDiff:
    def test_diff_reports_growth_only(self):
        registry = StatsRegistry()
        registry.incr("cpu.cycles", 10)
        registry.incr("cpu.stalls", 1)
        before = registry.snapshot("cpu.")
        registry.incr("cpu.cycles", 5)
        registry.incr("bnn.cycles", 3)  # outside the prefix
        assert registry.diff(before, "cpu.") == {"cpu.cycles": 5}

    def test_diff_includes_new_counters(self):
        registry = StatsRegistry()
        before = registry.snapshot()
        registry.incr("fresh", 2)
        assert registry.diff(before) == {"fresh": 2}

    def test_empty_diff_when_unchanged(self):
        registry = StatsRegistry()
        registry.incr("a")
        assert registry.diff(registry.snapshot()) == {}


class TestExport:
    def test_as_dict_and_json(self):
        registry = StatsRegistry()
        registry.incr("c", 2)
        registry.set_gauge("g", "high")
        payload = json.loads(registry.to_json())
        assert payload == {"counters": {"c": 2}, "gauges": {"g": "high"}}
        assert registry.as_dict()["counters"] == {"c": 2}

    def test_reset(self):
        registry = StatsRegistry()
        registry.incr("c")
        registry.set_gauge("g", 1)
        registry.reset()
        assert registry.as_dict() == {"counters": {}, "gauges": {}}


class TestScope:
    def test_prefixes_names(self):
        registry = StatsRegistry()
        scope = registry.scope("cpu.pipeline")
        scope.incr("cycles", 12)
        scope.set_gauge("ipc", 0.8)
        assert registry.get("cpu.pipeline.cycles") == 12
        assert registry.gauges() == {"cpu.pipeline.ipc": 0.8}
        assert scope.get("cycles") == 12

    def test_incr_many_skips_zero(self):
        registry = StatsRegistry()
        registry.scope("cpu").incr_many({"cycles": 10, "stalls": 0})
        assert registry.counters() == {"cpu.cycles": 10}
