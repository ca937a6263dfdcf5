"""Run reports: fold one trace into a human-readable profile summary.

``repro run --profile`` and the tests use :func:`build_report` /
:func:`render_report` to turn a captured event stream into the combined
CPU hot-spot, stall-attribution, BNN-layer, and utilization-gap view;
:func:`render_pipeline_diagram` draws the classic pipeline diagram from
the pipeline's per-cycle occupancy events.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.trace.profile import (
    CoreUtilization,
    CpuProfile,
    LayerStat,
    bnn_profile,
    cpu_profile,
    render_bnn_profile,
    render_utilization,
    utilization_report,
)
from repro.trace.tracer import CPU_TRACK, CYCLE_EVENT, STAGES, Tracer, events_of


@dataclass
class RunReport:
    """Everything the profiler learned from one trace."""

    cpu: Optional[CpuProfile] = None
    bnn_layers: List[LayerStat] = field(default_factory=list)
    utilization: Dict[str, CoreUtilization] = field(default_factory=dict)
    n_events: int = 0
    dropped: int = 0

    def to_dict(self) -> Dict:
        """JSON-ready summary (scripting / runner integration)."""
        out: Dict = {"n_events": self.n_events, "dropped": self.dropped}
        if self.cpu is not None:
            out["cpu"] = {
                "track": self.cpu.track,
                "total_cycles": self.cpu.total_cycles,
                "attributed_cycles": self.cpu.attributed_cycles,
                "retired_cycles": self.cpu.retired_cycles,
                "stall_cycles": dict(self.cpu.stall_cycles),
                "flush_cycles": self.cpu.flush_cycles,
                "fill_drain_cycles": self.cpu.fill_drain_cycles,
            }
        if self.bnn_layers:
            out["bnn_layers"] = [{"layer": s.layer, "cycles": s.cycles,
                                  "macs": s.macs} for s in self.bnn_layers]
        if self.utilization:
            out["utilization"] = {core: stat.utilization
                                  for core, stat in self.utilization.items()}
        return out


def build_report(source, track: str = CPU_TRACK) -> RunReport:
    """Fold a Tracer (or event iterable) into a :class:`RunReport`."""
    events = list(events_of(source))
    dropped = source.dropped if isinstance(source, Tracer) else 0
    report = RunReport(n_events=len(events), dropped=dropped)
    if any(e.name == CYCLE_EVENT and e.track == track for e in events):
        report.cpu = cpu_profile(events, track=track, dropped=dropped)
    report.bnn_layers = bnn_profile(events)
    report.utilization = utilization_report(events)
    return report


def render_report(report: RunReport, limit: int = 20) -> str:
    """The ``--profile`` text block."""
    sections = [f"profile — {report.n_events} trace events"
                + (f" ({report.dropped} dropped)" if report.dropped else "")]
    if report.cpu is not None:
        sections.append(report.cpu.render(limit=limit))
    else:
        sections.append("hot spots — no per-cycle records captured "
                        "(pipelined runs only)")
    if report.bnn_layers:
        sections.append(render_bnn_profile(report.bnn_layers))
    if report.utilization:
        sections.append(render_utilization(report.utilization))
    return "\n\n".join(sections)


def render_pipeline_diagram(source) -> str:
    """The pipeline's ``cpu.cycle`` events as one row per cycle and one
    column per stage: the PC each stage holds (``-`` = bubble)."""
    lines = ["cycle  " + "  ".join(f"{stage:>6}" for stage in STAGES)]
    for event in events_of(source):
        if event.name != CYCLE_EVENT or event.track != CPU_TRACK:
            continue
        cells = ["     -" if event.args[stage] is None
                 else f"{event.args[stage]:>6x}" for stage in STAGES]
        lines.append(f"{int(event.ts) + 1:>5}  " + "  ".join(cells))
    return "\n".join(lines)
