"""Exporter tests: Chrome trace schema (golden file), validation, JSONL."""

import json
from pathlib import Path

import pytest

from repro.trace import (
    WALL,
    Tracer,
    chrome_trace,
    iter_chrome_events,
    validate_chrome_trace,
    validate_chrome_trace_file,
    write_chrome_trace,
    write_jsonl,
)

GOLDEN = Path(__file__).parent / "golden_trace.json"


def golden_tracer() -> Tracer:
    """A small deterministic event stream exercising every event kind."""
    tracer = Tracer()
    # pipeline occupancy: two instructions walking IF->ID, with a bubble
    tracer.cpu_cycle(1, IF=0x0, ID=None, EX=None, MEM=None, WB=None)
    tracer.cpu_cycle(2, IF=0x4, ID=0x0, EX=None, MEM=None, WB=None)
    tracer.cpu_cycle(3, IF=0x4, ID=None, EX=0x0, MEM=None, WB=None)
    tracer.cpu_cycle(4, IF=0x8, ID=0x4, EX=None, MEM=0x0, WB=None)
    tracer.cpu_cycle(5, IF=0xC, ID=0x8, EX=0x4, MEM=None, WB=0x0,
                     wb_name="addi")
    tracer.instant("cpu.stall", track="cpu.pipeline", ts=3, cat="cpu",
                   cause="load_use", pc=0x4)
    # accelerator layers + a timeline segment + a counter
    tracer.lay("layer0", track="bnn", dur=20, cat="bnn", layer=0, macs=128)
    tracer.lay("layer1", track="bnn", dur=12, cat="bnn", layer=1, macs=32)
    tracer.complete("infer x4", track="ncpu0", start=40, dur=100,
                    cat="bnn", src="timeline")
    tracer.counter("l2.occupancy", track="mem", ts=50, value=0.75)
    return tracer


class TestGoldenSchema:
    def test_matches_golden_file(self):
        payload = chrome_trace(golden_tracer())
        expected = json.loads(GOLDEN.read_text())
        assert payload == expected

    def test_golden_file_validates(self):
        summary = validate_chrome_trace_file(GOLDEN)
        assert summary["events"] > 0
        assert "bnn" in summary["tracks"]
        assert "cpu.pipeline/WB" in summary["tracks"]


class TestChromeTrace:
    def test_stage_lanes_merge_consecutive_cycles(self):
        payload = chrome_trace(golden_tracer())
        if_lane = [e for e in iter_chrome_events(payload)
                   if e["name"] == "0x4" and e["dur"] == 2]
        assert if_lane, "0x4 should occupy IF for two merged cycles"

    def test_write_and_validate_roundtrip(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(golden_tracer(), path)
        summary = validate_chrome_trace_file(path)
        assert summary["tracks"][0] == "cpu.pipeline"

    def test_each_clock_is_its_own_named_process(self):
        tracer = golden_tracer()
        tracer.complete("batch x4", track="serve.batcher", start=1500.0,
                        dur=80.0, cat="serve", clock=WALL)
        tracer.complete("layer0", track="bnn", start=500.0, dur=10.0,
                        clock=WALL)
        payload = chrome_trace(tracer)
        summary = validate_chrome_trace(payload)
        cycles, wall = summary["processes"]
        assert summary["processes"][wall] == ["serve.batcher", "bnn"]
        assert "bnn" in summary["processes"][cycles]
        assert "serve.batcher" not in summary["processes"][cycles]
        assert "wall" in wall and "cycles" in cycles
        pids = {event["name"]: event["pid"]
                for event in iter_chrome_events(payload)}
        assert pids["batch x4"] != pids["layer1"]


class TestValidator:
    def test_rejects_non_object(self):
        with pytest.raises(ValueError, match="JSON object"):
            validate_chrome_trace([1, 2])

    def test_rejects_missing_trace_events(self):
        with pytest.raises(ValueError, match="traceEvents"):
            validate_chrome_trace({"other": 1})

    def test_rejects_bad_phase(self):
        with pytest.raises(ValueError, match="unknown phase"):
            validate_chrome_trace({"traceEvents": [
                {"name": "x", "ph": "Z", "pid": 1, "tid": 1, "ts": 0}]})

    def test_rejects_missing_ts(self):
        with pytest.raises(ValueError, match="ts"):
            validate_chrome_trace({"traceEvents": [
                {"name": "x", "ph": "i", "pid": 1, "tid": 1}]})

    def test_rejects_x_without_dur(self):
        with pytest.raises(ValueError, match="dur"):
            validate_chrome_trace({"traceEvents": [
                {"name": "x", "ph": "X", "pid": 1, "tid": 1, "ts": 0}]})


class TestJsonl:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        tracer = golden_tracer()
        count = write_jsonl(tracer, path)
        assert count == len(tracer.events)
        loaded = [json.loads(line)
                  for line in path.read_text().splitlines()]
        assert loaded == [event.to_dict() for event in tracer.events]

    def test_wall_events_name_their_clock(self, tmp_path):
        path = tmp_path / "events.jsonl"
        tracer = golden_tracer()
        tracer.complete("respond", track="serve.req00", start=3.0, dur=1.0,
                        clock=WALL)
        write_jsonl(tracer, path)
        loaded = [json.loads(line)
                  for line in path.read_text().splitlines()]
        assert [event.get("clock") for event in loaded] == \
            [None] * len(golden_tracer()) + [WALL]
