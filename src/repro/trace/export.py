"""Trace exporters: Chrome/Perfetto trace-event JSON and plain JSONL.

:func:`chrome_trace` renders a tracer's events into the Chrome trace-event
format (the ``{"traceEvents": [...]}`` object form) that loads directly in
``ui.perfetto.dev`` or ``chrome://tracing``.  Each clock gets one named
process: simulated cycles (drawn as 1 cycle == 1 us) and host wall time in
microseconds.  One timeline *track* maps to one named thread of its clock's
process; the pipeline's per-cycle occupancy records are expanded into five
per-stage lanes with consecutive same-PC cycles merged into one span, so an
instruction parked in a stage reads as a single block.

:func:`validate_chrome_trace` is the exporter's schema check — used by the
golden-file test and the CI smoke step, with no external schema library.
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.trace.tracer import CYCLE_EVENT, CYCLES, STAGES, WALL, TraceEvent, Tracer, events_of

#: Chrome trace-event phases the exporter produces
ALLOWED_PHASES = frozenset({"X", "i", "I", "C", "M", "B", "E"})

#: clock -> (process id, process name): one Perfetto process per clock
CLOCK_PROCESSES = {
    CYCLES: (1, "simulated cycles (1 cycle == 1 us)"),
    WALL: (2, "host wall time (us)"),
}

#: tool tag recorded in ``otherData``
GENERATOR = "repro.trace"


def _merge_stage_runs(cycle_events: List[TraceEvent],
                      stage: str) -> List[Dict[str, Any]]:
    """Run-length merge one stage's occupancy into (pc, start, dur) spans."""
    spans: List[Dict[str, Any]] = []
    current_pc: Optional[int] = None
    start = 0.0
    end = 0.0
    for event in cycle_events:
        pc = event.args.get(stage)
        contiguous = event.ts == end
        if pc is not None and pc == current_pc and contiguous:
            end = event.ts + event.dur
            continue
        if current_pc is not None:
            spans.append({"pc": current_pc, "start": start,
                          "dur": end - start})
        current_pc = pc
        start = event.ts
        end = event.ts + event.dur
    if current_pc is not None:
        spans.append({"pc": current_pc, "start": start, "dur": end - start})
    return spans


def chrome_trace(source) -> Dict[str, Any]:
    """Render events (or a Tracer) as a Chrome trace-event JSON object."""
    events = list(events_of(source))

    # thread ids are unique across both processes, in first-seen order
    tids: Dict[Tuple[str, str], int] = {}

    def tid_for(clock: str, track: str) -> int:
        return tids.setdefault((clock, track), len(tids) + 1)

    body: List[Dict[str, Any]] = []
    cycle_groups: Dict[str, List[TraceEvent]] = defaultdict(list)
    for event in events:
        if event.name == CYCLE_EVENT:
            cycle_groups[event.track].append(event)
            continue
        entry: Dict[str, Any] = {
            "name": event.name,
            "cat": event.cat or "sim",
            "ph": event.ph,
            "ts": float(event.ts),
            "pid": CLOCK_PROCESSES[event.clock][0],
            "tid": tid_for(event.clock, event.track),
        }
        if event.ph == "X":
            entry["dur"] = float(event.dur)
        if event.ph == "i":
            entry["s"] = "t"  # thread-scoped instant
        if event.args:
            entry["args"] = event.args
        body.append(entry)

    for track, group in sorted(cycle_groups.items()):
        group.sort(key=lambda e: e.ts)
        for stage in STAGES:
            lane = f"{track}/{stage}"
            for span in _merge_stage_runs(group, stage):
                body.append({
                    "name": f"{span['pc']:#x}",
                    "cat": "cpu",
                    "ph": "X",
                    "ts": float(span["start"]),
                    "dur": float(span["dur"]),
                    "pid": CLOCK_PROCESSES[CYCLES][0],
                    "tid": tid_for(CYCLES, lane),
                })

    metadata: List[Dict[str, Any]] = []
    for clock in sorted({clock for clock, _ in tids}):
        pid, name = CLOCK_PROCESSES[clock]
        metadata.append({"name": "process_name", "ph": "M", "pid": pid,
                         "tid": 0, "args": {"name": name}})
    for (clock, track), tid in tids.items():
        pid = CLOCK_PROCESSES[clock][0]
        metadata.append({"name": "thread_name", "ph": "M", "pid": pid,
                         "tid": tid, "args": {"name": track}})
        metadata.append({"name": "thread_sort_index", "ph": "M",
                         "pid": pid, "tid": tid,
                         "args": {"sort_index": tid}})

    other_data: Dict[str, Any] = {
        "generator": GENERATOR,
        "n_events": len(body),
        "tracks": [track for _, track in tids],
    }
    # completeness metadata: a trace whose ring buffer wrapped must say
    # so, or profiles silently lie
    if isinstance(source, Tracer):
        other_data["dropped_records"] = source.dropped
    return {
        "traceEvents": metadata + body,
        "displayTimeUnit": "ms",
        "otherData": other_data,
    }


def write_chrome_trace(source, path) -> Dict[str, Any]:
    """Write the Chrome trace JSON to ``path``; returns the payload."""
    payload = chrome_trace(source)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return payload


def write_jsonl(source, path) -> int:
    """Write one JSON object per event line; returns the event count."""
    count = 0
    with open(path, "w") as handle:
        for event in events_of(source):
            handle.write(json.dumps(event.to_dict(), sort_keys=True) + "\n")
            count += 1
    return count


# -- schema validation ---------------------------------------------------
def validate_chrome_trace(payload: Any) -> Dict[str, Any]:
    """Check a Chrome trace-event payload against the exporter's schema.

    Raises :class:`ValueError` with the first problem found; returns a
    summary dict on success: the event count, the track names, and each
    named process's track names.
    """
    if not isinstance(payload, dict):
        raise ValueError("trace payload must be a JSON object")
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("traceEvents must be a list")
    tracks: Dict[int, str] = {}
    track_pids: Dict[int, int] = {}
    processes: Dict[int, str] = {}
    n_body = 0
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            raise ValueError(f"{where}: not an object")
        for key, kind in (("name", str), ("ph", str)):
            if not isinstance(event.get(key), kind):
                raise ValueError(f"{where}: missing/invalid {key!r}")
        if event["ph"] not in ALLOWED_PHASES:
            raise ValueError(f"{where}: unknown phase {event['ph']!r}")
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                raise ValueError(f"{where}: missing/invalid {key!r}")
        if event["ph"] == "M":
            args = event.get("args")
            if not isinstance(args, dict):
                raise ValueError(f"{where}: metadata event without args")
            if event["name"] == "thread_name":
                tracks[event["tid"]] = args.get("name", "")
                track_pids[event["tid"]] = event["pid"]
            elif event["name"] == "process_name":
                processes[event["pid"]] = args.get("name", "")
            continue
        n_body += 1
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            raise ValueError(f"{where}: missing/negative ts")
        if event["ph"] == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ValueError(f"{where}: X event needs dur >= 0")
    return {
        "events": n_body,
        "tracks": [tracks[tid] for tid in sorted(tracks)],
        "processes": {name: [tracks[tid] for tid in sorted(tracks)
                             if track_pids[tid] == pid]
                      for pid, name in sorted(processes.items())},
    }


def validate_chrome_trace_file(path) -> Dict[str, Any]:
    """Load ``path`` and validate it; returns the summary dict."""
    with open(path) as handle:
        return validate_chrome_trace(json.load(handle))


def iter_chrome_events(payload: Dict[str, Any]) -> Iterable[Dict[str, Any]]:
    """Non-metadata events of a validated payload (test helper)."""
    for event in payload.get("traceEvents", []):
        if event.get("ph") != "M":
            yield event
