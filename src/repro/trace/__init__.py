"""``repro.trace`` — tracing and profiling on two clocks.

The session tracer (``session.tracer``), which the simulators call
directly, and what reads it:

* :class:`Tracer` — spans/instants/counters stamped in simulated cycles
  or host wall time, in a bounded ring buffer, with one typed recording
  method per simulator call site (:mod:`repro.trace.tracer`);
* exporters — Chrome/Perfetto trace-event JSON with one process per
  clock, and JSONL (:mod:`repro.trace.export`);
* profilers — per-PC hot spots with exact stall attribution, per-layer
  BNN breakdowns, utilization-gap analysis (:mod:`repro.trace.profile`,
  :mod:`repro.trace.report`).

Quick start::

    from repro.trace import tracing, write_chrome_trace, build_report
    with tracing() as tracer:
        PipelinedCPU(program).run()
    write_chrome_trace(tracer, "trace.json")   # load in ui.perfetto.dev
    print(render_report(build_report(tracer)))
"""

from repro.trace.export import (
    chrome_trace,
    iter_chrome_events,
    validate_chrome_trace,
    validate_chrome_trace_file,
    write_chrome_trace,
    write_jsonl,
)
from repro.trace.profile import (
    PAPER_UTILIZATION,
    CoreUtilization,
    CpuProfile,
    HotSpot,
    LayerStat,
    bnn_profile,
    cpu_profile,
    render_bnn_profile,
    render_utilization,
    utilization_report,
)
from repro.trace.report import (
    RunReport,
    build_report,
    render_pipeline_diagram,
    render_report,
)
from repro.trace.tracer import (
    BNN_TRACK,
    CPU_TRACK,
    CYCLE_EVENT,
    CYCLES,
    DEFAULT_CAPACITY,
    DMA_TRACK,
    FLUSH_EVENT,
    SERVE_REQUEST_LANES,
    SERVE_TRACK,
    STAGES,
    STALL_EVENT,
    WALL,
    TraceEvent,
    Tracer,
    install_tracer,
    tracing,
    uninstall_tracer,
)

__all__ = [
    "BNN_TRACK",
    "CPU_TRACK",
    "CYCLE_EVENT",
    "CYCLES",
    "CoreUtilization",
    "CpuProfile",
    "DEFAULT_CAPACITY",
    "DMA_TRACK",
    "FLUSH_EVENT",
    "HotSpot",
    "LayerStat",
    "PAPER_UTILIZATION",
    "RunReport",
    "SERVE_REQUEST_LANES",
    "SERVE_TRACK",
    "STAGES",
    "STALL_EVENT",
    "TraceEvent",
    "Tracer",
    "WALL",
    "bnn_profile",
    "build_report",
    "chrome_trace",
    "cpu_profile",
    "install_tracer",
    "iter_chrome_events",
    "render_bnn_profile",
    "render_pipeline_diagram",
    "render_report",
    "render_utilization",
    "tracing",
    "uninstall_tracer",
    "utilization_report",
    "validate_chrome_trace",
    "validate_chrome_trace_file",
    "write_chrome_trace",
    "write_jsonl",
]
