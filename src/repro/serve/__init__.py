"""``repro.serve`` — the asyncio serving layer with SLO observability.

Turns the closed-loop simulator into a *served system*: an asyncio
front-end (:class:`NCPUServer`) coalesces incoming classification
requests into dynamic batches under a latency budget and dispatches
them to any registered execution engine, while an open-loop load
generator (:mod:`repro.serve.loadgen`) replays deterministic Poisson /
uniform / bursty arrival schedules against it.

Observability is first-class rather than bolted on:

* every request's lifecycle (enqueue → batch-assemble → dispatch →
  engine-infer → respond) goes to an installed
  :class:`~repro.trace.Tracer` once per batch, which renders per-request
  Perfetto lanes next to the batcher and queue-depth tracks;
* :mod:`repro.serve.slo` estimates p50/p95/p99 latency with fixed-bucket
  log-scale streaming histograms (no per-request allocation) and folds
  queue-depth / inflight / shed / timeout / error telemetry into the
  standard ``repro.metrics`` OpenMetrics/JSON path;
* :mod:`repro.serve.report` emits the manifest-stamped ``repro-serve/1``
  SLO document (attainment vs target) that ``repro serve`` prints.
"""

from repro.serve.loadgen import (
    arrival_offsets,
    drive,
    serve_scenario,
    summarize_offsets,
)
from repro.serve.report import (
    SLO_SCHEMA,
    build_slo_report,
    render_slo_report,
    validate_slo_report,
)
from repro.serve.server import NCPUServer, Request, ServePolicy
from repro.serve.slo import (
    SERVE_METRIC_HELP,
    SLO_QUANTILES,
    LatencyHistogram,
    SLORecorder,
    add_serve_metrics,
)

__all__ = [
    "LatencyHistogram",
    "NCPUServer",
    "Request",
    "SERVE_METRIC_HELP",
    "SLO_QUANTILES",
    "SLO_SCHEMA",
    "SLORecorder",
    "ServePolicy",
    "add_serve_metrics",
    "arrival_offsets",
    "build_slo_report",
    "drive",
    "render_slo_report",
    "serve_scenario",
    "summarize_offsets",
    "validate_slo_report",
]
