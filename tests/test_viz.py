"""Tests for the ASCII timeline renderer."""

import pytest

from repro.core import BNN, CPU, IDLE, SWITCH, Timeline
from repro.errors import ConfigurationError
from repro.viz import render_timeline


class TestTimelineRendering:
    def make(self):
        timeline = Timeline()
        timeline.add("cpu", CPU, 0, 70)
        timeline.add("cpu", IDLE, 70, 100)
        timeline.add("bnn", IDLE, 0, 70)
        timeline.add("bnn", BNN, 70, 100)
        return timeline

    def test_lanes_per_core(self):
        text = render_timeline(self.make(), width=40)
        lines = text.splitlines()
        assert lines[0].startswith("cpu")
        assert lines[1].startswith("bnn")

    def test_glyph_proportions(self):
        text = render_timeline(self.make(), width=50)
        cpu_lane = text.splitlines()[0]
        # ~70 % of the lane is 'C'
        assert 30 <= cpu_lane.count("C") <= 40

    def test_switch_glyph(self):
        timeline = Timeline()
        timeline.add("a", CPU, 0, 10)
        timeline.add("a", SWITCH, 10, 20)
        timeline.add("a", BNN, 20, 100)
        text = render_timeline(timeline, width=20)
        assert "s" in text.splitlines()[0]

    def test_empty(self):
        assert "empty" in render_timeline(Timeline())

    def test_width_validated(self):
        with pytest.raises(ConfigurationError):
            render_timeline(self.make(), width=4)

    def test_short_segments_still_visible(self):
        timeline = Timeline()
        timeline.add("a", CPU, 0, 1000)
        timeline.add("a", SWITCH, 1000, 1002)  # 0.2 % of the span
        text = render_timeline(timeline, width=32)
        assert "s" in text.splitlines()[0]


class TestIntegrationWithScheduler:
    def test_fig13_timeline_renders(self):
        from repro.core import SchedulerConfig, compare_end_to_end, items_for_fraction

        comparison = compare_end_to_end(
            items_for_fraction(0.7, 2),
            SchedulerConfig(offload_cycles=0, switch_cycles=0))
        baseline = render_timeline(comparison.baseline)
        ncpu = render_timeline(comparison.ncpu_dual)
        assert "C" in baseline and "B" in baseline
        assert "ncpu0" in ncpu and "ncpu1" in ncpu
