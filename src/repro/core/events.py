"""Execution timelines: segments, utilization, and power traces.

Every system-level experiment (Figs 13, 14, 16, 17, Table 4) reduces to a
:class:`Timeline`: per-core segments of CPU work, BNN work, DMA transfer and
idleness, measured in cycles.  Utilization and the oscilloscope-style power
traces (Fig 16) derive from it.

Every :meth:`Timeline.add` adds to the session counters
(``timeline.segments``, ``timeline.<kind>_cycles``) and, traced, draws
the segment on its core's track.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.sim import get_session

#: segment kinds
CPU = "cpu"
BNN = "bnn"
IDLE = "idle"
DMA = "dma"
SWITCH = "switch"

_ACTIVE_KINDS = (CPU, BNN, SWITCH)


@dataclass(frozen=True)
class Segment:
    """One contiguous activity of one core."""

    core: str
    kind: str
    start: int
    end: int
    label: str = ""

    def __post_init__(self):
        if self.end < self.start:
            raise ConfigurationError(
                f"segment for {self.core} ends before it starts "
                f"({self.start}..{self.end})"
            )

    @property
    def cycles(self) -> int:
        return self.end - self.start


@dataclass
class Timeline:
    """A set of per-core segments over a common cycle axis."""

    segments: List[Segment] = field(default_factory=list)
    #: per-core sorted-segment cache; rebuilt when ``segments`` grows
    _by_core_cache: Dict[str, List[Segment]] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _cache_size: int = field(default=-1, init=False, repr=False, compare=False)

    def add(self, core: str, kind: str, start: int, end: int,
            label: str = "") -> Segment:
        segment = Segment(core=core, kind=kind, start=start, end=end, label=label)
        self.segments.append(segment)
        session = get_session()
        counters = session.stats
        counters["timeline.segments"] += 1
        counters[f"timeline.{kind}_cycles"] += segment.cycles
        if session.tracer is not None:
            session.tracer.timeline_segment(core, kind, start, end, label)
        return segment

    @property
    def end(self) -> int:
        return max((s.end for s in self.segments), default=0)

    def _by_core(self) -> Dict[str, List[Segment]]:
        """Per-core segments sorted by start, memoized until ``segments``
        changes length (covers both :meth:`add` and direct extension)."""
        if self._cache_size != len(self.segments):
            by_core: Dict[str, List[Segment]] = {}
            for segment in self.segments:
                by_core.setdefault(segment.core, []).append(segment)
            for ordered in by_core.values():
                ordered.sort(key=lambda s: s.start)
            self._by_core_cache = by_core
            self._cache_size = len(self.segments)
        return self._by_core_cache

    def core_names(self) -> List[str]:
        return list(self._by_core())

    def core_segments(self, core: str) -> List[Segment]:
        """Sorted segments of one core.  The returned list is a shared
        cache — treat it as read-only."""
        return self._by_core().get(core, [])

    # -- utilization ----------------------------------------------------
    def busy_cycles(self, core: str, kinds: Tuple[str, ...] = _ACTIVE_KINDS) -> int:
        return sum(s.cycles for s in self.core_segments(core)
                   if s.kind in kinds)

    def utilization(self, core: str) -> float:
        """Fraction of the total makespan this core spends doing real work."""
        total = self.end
        if total == 0:
            return 0.0
        return self.busy_cycles(core) / total

    def utilizations(self) -> Dict[str, float]:
        return {core: self.utilization(core) for core in self.core_names()}

    # -- power trace ------------------------------------------------------
    def _segment_power_mw(self, segment: Segment, voltage: float, f_hz: float,
                          reconfigurable: bool, profile=None) -> float:
        from repro.power import core_power_w

        if segment.kind in (CPU, SWITCH):
            mode, active = "cpu", True
        elif segment.kind == BNN:
            mode, active = "bnn", True
        else:
            mode, active = "cpu", False
        return core_power_w(mode, voltage, f_hz,
                            reconfigurable=reconfigurable,
                            active=active, profile=profile) * 1e3

    def power_trace(self, voltage: float, f_hz: float,
                    reconfigurable: bool = True,
                    resolution: Optional[int] = None,
                    profile=None,
                    ) -> Dict[str, List[Tuple[float, float]]]:
        """Per-core (time_us, power_mw) traces (Fig 16 style).

        By default each segment contributes a two-point staircase step at
        its mode's power (idle periods contribute leakage only).  With
        ``resolution`` set, each core's trace is instead resampled onto
        ``resolution`` evenly spaced time points across the full makespan
        — the fixed-rate form an oscilloscope capture (or a plotting
        frontend) wants.  ``profile`` selects the device profile whose
        fitted power models price each segment (the session's default
        when ``None``); the per-profile models are memoized, so sweeping
        a trace over many voltages never re-runs the solver.
        """
        if resolution is not None and resolution < 2:
            raise ConfigurationError("power_trace resolution must be >= 2")

        traces: Dict[str, List[Tuple[float, float]]] = {}
        for core in self.core_names():
            points: List[Tuple[float, float]] = []
            for segment in self.core_segments(core):
                power_mw = self._segment_power_mw(segment, voltage, f_hz,
                                                  reconfigurable, profile)
                start_us = segment.start / f_hz * 1e6
                end_us = segment.end / f_hz * 1e6
                points.append((start_us, power_mw))
                points.append((end_us, power_mw))
            traces[core] = points
        if resolution is None:
            return traces
        return {core: self._resample(core, voltage, f_hz,
                                     reconfigurable, resolution, profile)
                for core in traces}

    def _resample(self, core: str, voltage: float, f_hz: float,
                  reconfigurable: bool, resolution: int,
                  profile=None) -> List[Tuple[float, float]]:
        """Sample one core's step function at uniform time points."""
        from repro.power import core_power_w

        end_us = self.end / f_hz * 1e6
        #: power when no segment covers the sample (gap == idle leakage)
        gap_mw = core_power_w("cpu", voltage, f_hz,
                              reconfigurable=reconfigurable,
                              active=False, profile=profile) * 1e3
        segments = self.core_segments(core)
        points: List[Tuple[float, float]] = []
        cursor = 0
        for index in range(resolution):
            t_us = end_us * index / (resolution - 1)
            t_cycles = t_us * f_hz / 1e6
            while cursor < len(segments) and segments[cursor].end < t_cycles:
                cursor += 1
            covering = None
            for segment in segments[cursor:]:
                if segment.start > t_cycles:
                    break
                if segment.start <= t_cycles <= segment.end:
                    covering = segment
                    break
            if covering is None:
                points.append((t_us, gap_mw))
            else:
                points.append((t_us, self._segment_power_mw(
                    covering, voltage, f_hz, reconfigurable, profile)))
        return points

    def validate_no_overlap(self) -> None:
        """Sanity check: a core never does two things at once."""
        for core in self.core_names():
            ordered = self.core_segments(core)
            for left, right in zip(ordered, ordered[1:]):
                if right.start < left.end:
                    raise ConfigurationError(
                        f"core {core}: segment {right} overlaps {left}"
                    )
