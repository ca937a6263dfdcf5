"""``repro.metrics`` — cross-run metrics and their exporters.

Layered on the growth of the session counters, ``session.stats`` (never
on the simulator hot path):

* :mod:`repro.metrics.model` — typed Counter/Gauge/Histogram series with
  labels, plus the :class:`RunManifest` (config hash, seed, version, git
  SHA, python/platform, cache traffic) attached to every collection;
* :mod:`repro.metrics.export` — OpenMetrics text exposition and a
  stable-ordered JSON document (``repro run --metrics-out`` /
  ``repro experiments --metrics-dir``).
"""

from repro.metrics.export import (
    JSON_SCHEMA,
    to_json,
    to_json_document,
    to_openmetrics,
    validate_openmetrics,
    validate_openmetrics_file,
    write_json,
    write_openmetrics,
)
from repro.metrics.model import (
    COUNTER,
    GAUGE,
    HISTOGRAM,
    MetricSeries,
    MetricsCollection,
    MetricsRecorder,
    RunManifest,
    quantile,
    sanitize_metric_name,
    summarize,
)

__all__ = [
    "COUNTER",
    "GAUGE",
    "HISTOGRAM",
    "JSON_SCHEMA",
    "MetricSeries",
    "MetricsCollection",
    "MetricsRecorder",
    "RunManifest",
    "quantile",
    "sanitize_metric_name",
    "summarize",
    "to_json",
    "to_json_document",
    "to_openmetrics",
    "validate_openmetrics",
    "validate_openmetrics_file",
    "write_json",
    "write_openmetrics",
]
