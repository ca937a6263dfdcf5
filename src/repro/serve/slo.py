"""Streaming SLO telemetry: log-scale latency histograms and quantiles.

The serve layer must answer "what fraction of requests met the latency
budget" while handling thousands of requests, so it cannot keep a list
of every latency sample.  :class:`LatencyHistogram` is the classic
fixed-bucket log-scale alternative: ``buckets_per_decade`` geometric
buckets spanning ``[lo_s, hi_s)`` plus two out-of-range buckets, all
pre-allocated — :meth:`observe` is one ``log10`` + one list increment,
no allocation on the hot path.  Quantiles come back with a bounded
relative error of ``10**(1/(2 * buckets_per_decade)) - 1`` (about 2.3 %
at the default 50 buckets/decade), and two histograms with the same
configuration :meth:`merge` associatively, so per-shard recorders can be
combined after the fact.

:class:`SLORecorder` bundles the histograms a server needs — total
latency, one per obs phase, batch sizes — with the admission counters
and queue-depth/inflight gauges, and :func:`add_serve_metrics` folds a
recorder into a :class:`~repro.metrics.MetricsCollection` using the
canonical metric families in :data:`SERVE_METRIC_HELP` (the table
``docs/SERVING.md`` mirrors, linted by ``tools/check_docs.py``).
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional

from repro.obs import PHASES

#: default histogram range: 1 us .. 1000 s covers sub-window hits through
#: pathological queue waits
DEFAULT_LO_S = 1e-6
DEFAULT_HI_S = 1e3

#: default resolution — ~2.3 % worst-case relative quantile error
DEFAULT_BUCKETS_PER_DECADE = 50

#: the latency quantiles every SLO report and metric export carries
SLO_QUANTILES = (0.5, 0.95, 0.99)

#: canonical serve metric families -> one-line help (the contract between
#: :func:`add_serve_metrics`, docs/SERVING.md and tools/check_docs.py)
SERVE_METRIC_HELP: Dict[str, str] = {
    "repro_serve_requests": "requests submitted to the server",
    "repro_serve_completed": "requests that received a prediction",
    "repro_serve_shed": "requests rejected by queue-depth admission "
                        "control",
    "repro_serve_timeouts": "requests dropped after exceeding the "
                            "request timeout",
    "repro_serve_batches": "dynamic batches dispatched to the engine",
    "repro_serve_latency_seconds": "end-to-end request latency quantile "
                                   "(streaming histogram estimate)",
    "repro_serve_phase_seconds": "per-phase request wall-time quantile "
                                 "(six-phase obs vocabulary)",
    "repro_serve_batch_size": "rows per dispatched dynamic batch",
    "repro_serve_queue_depth_peak": "peak arrival-queue depth observed",
    "repro_serve_queue_depth_mean": "mean arrival-queue depth sampled at "
                                    "each enqueue",
    "repro_serve_inflight_peak": "peak concurrently-inflight requests",
    "repro_serve_throughput_rps": "completed requests per wall second",
    "repro_serve_attainment": "fraction of completed requests under the "
                              "latency budget",
    "repro_serve_trace_dropped_records": "trace ring-buffer records "
                                         "evicted while serving",
}


class LatencyHistogram:
    """Fixed-bucket log-scale histogram with mergeable streaming quantiles.

    Buckets are geometric: bucket ``i`` (0-based, after the underflow
    bucket) covers ``[lo_s * r**i, lo_s * r**(i+1))`` with
    ``r = 10**(1/buckets_per_decade)``.  A quantile is estimated as the
    geometric midpoint of the bucket holding the target rank, clamped to
    the exact observed ``[min, max]`` — so a single-sample histogram
    reports that sample exactly.
    """

    __slots__ = ("lo_s", "hi_s", "buckets_per_decade", "counts", "count",
                 "sum_s", "min_s", "max_s", "_log_lo", "_n_buckets")

    def __init__(self, lo_s: float = DEFAULT_LO_S, hi_s: float = DEFAULT_HI_S,
                 buckets_per_decade: int = DEFAULT_BUCKETS_PER_DECADE):
        if lo_s <= 0 or hi_s <= lo_s:
            raise ValueError("need 0 < lo_s < hi_s")
        if buckets_per_decade < 1:
            raise ValueError("buckets_per_decade must be >= 1")
        self.lo_s = float(lo_s)
        self.hi_s = float(hi_s)
        self.buckets_per_decade = int(buckets_per_decade)
        decades = math.log10(hi_s / lo_s)
        self._n_buckets = max(1, math.ceil(decades * buckets_per_decade))
        self._log_lo = math.log10(self.lo_s)
        # [underflow] + n geometric buckets + [overflow], fixed at init
        self.counts: List[int] = [0] * (self._n_buckets + 2)
        self.count = 0
        self.sum_s = 0.0
        self.min_s = math.inf
        self.max_s = -math.inf

    @property
    def relative_error_bound(self) -> float:
        """Worst-case relative quantile error for in-range samples."""
        return 10.0 ** (1.0 / (2.0 * self.buckets_per_decade)) - 1.0

    def _index(self, value: float) -> int:
        if value < self.lo_s:
            return 0
        if value >= self.hi_s:
            return self._n_buckets + 1
        offset = (math.log10(value) - self._log_lo) * self.buckets_per_decade
        # float rounding at an exact bucket edge may land one off; clamp
        return min(int(offset), self._n_buckets - 1) + 1

    def observe(self, seconds: float) -> None:
        """Record one latency sample (allocation-free)."""
        value = float(seconds)
        if value < 0 or math.isnan(value):
            raise ValueError(f"latency sample must be >= 0, got {seconds!r}")
        self.counts[self._index(value)] += 1
        self.count += 1
        self.sum_s += value
        if value < self.min_s:
            self.min_s = value
        if value > self.max_s:
            self.max_s = value

    @property
    def mean_s(self) -> float:
        if not self.count:
            raise ValueError("mean of an empty histogram")
        return self.sum_s / self.count

    def _bucket_estimate(self, index: int) -> float:
        if index == 0:  # underflow: best estimate is the range floor
            return self.lo_s
        if index == self._n_buckets + 1:  # overflow: the range ceiling
            return self.hi_s
        ratio = 10.0 ** (1.0 / self.buckets_per_decade)
        low = self.lo_s * ratio ** (index - 1)
        return low * math.sqrt(ratio)  # geometric midpoint

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile estimate, clamped to [min, max]."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.count:
            raise ValueError("quantile of an empty histogram")
        rank = max(1, math.ceil(q * self.count))
        seen = 0
        for index, bucket_count in enumerate(self.counts):
            seen += bucket_count
            if seen >= rank:
                estimate = self._bucket_estimate(index)
                return min(max(estimate, self.min_s), self.max_s)
        return self.max_s  # pragma: no cover - ranks always land above

    def count_at_or_below(self, seconds: float) -> int:
        """How many samples were <= ``seconds`` (bucket-resolution).

        Whole buckets at or below the bucket holding ``seconds`` are
        counted, which is exact when ``seconds`` sits on a bucket edge
        (pick budgets accordingly) and bucket-accurate otherwise.
        """
        target = self._index(float(seconds))
        return sum(self.counts[:target + 1])

    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        """Fold another histogram in (identical configuration required)."""
        if (self.lo_s, self.hi_s, self.buckets_per_decade) != \
                (other.lo_s, other.hi_s, other.buckets_per_decade):
            raise ValueError(
                "cannot merge histograms with different bucket layouts "
                f"({self.lo_s}/{self.hi_s}/{self.buckets_per_decade} vs "
                f"{other.lo_s}/{other.hi_s}/{other.buckets_per_decade})")
        for index, bucket_count in enumerate(other.counts):
            self.counts[index] += bucket_count
        self.count += other.count
        self.sum_s += other.sum_s
        self.min_s = min(self.min_s, other.min_s)
        self.max_s = max(self.max_s, other.max_s)
        return self

    def summary_ms(self) -> Dict[str, float]:
        """p50/p95/p99 + mean/min/max in milliseconds (report block)."""
        if not self.count:
            raise ValueError("summary of an empty histogram")
        block = {f"p{int(q * 100)}": self.quantile(q) * 1e3
                 for q in SLO_QUANTILES}
        block["mean"] = self.mean_s * 1e3
        block["min"] = self.min_s * 1e3
        block["max"] = self.max_s * 1e3
        return block


class SLORecorder:
    """All the streaming telemetry one server run accumulates.

    One latency histogram for end-to-end request latency, one per obs
    phase, a per-batch size list (batches are few, so storing their
    sizes is cheap and keeps the OpenMetrics histogram exact), counters
    for request outcomes (shed, timeout, engine error) and queue/inflight
    peaks.
    """

    def __init__(self, lo_s: float = DEFAULT_LO_S, hi_s: float = DEFAULT_HI_S,
                 buckets_per_decade: int = DEFAULT_BUCKETS_PER_DECADE):
        make = lambda: LatencyHistogram(lo_s, hi_s, buckets_per_decade)  # noqa: E731
        self.latency = make()
        self.phase_latency: Dict[str, LatencyHistogram] = {
            phase: make() for phase in PHASES}
        self.batch_sizes: List[int] = []
        self.requests = 0
        self.completed = 0
        self.shed = 0
        self.timeouts = 0
        self.errors = 0
        self.queue_depth_peak = 0
        self.queue_depth_sum = 0
        self.queue_depth_samples = 0
        self.inflight_peak = 0

    def record_submit(self, queue_depth: int, inflight: int) -> None:
        self.requests += 1
        self.queue_depth_sum += int(queue_depth)
        self.queue_depth_samples += 1
        if queue_depth > self.queue_depth_peak:
            self.queue_depth_peak = int(queue_depth)
        if inflight > self.inflight_peak:
            self.inflight_peak = int(inflight)

    def record_completion(self, latency_s: float,
                          phases_s: Mapping[str, float]) -> None:
        self.completed += 1
        self.latency.observe(latency_s)
        for phase in PHASES:
            self.phase_latency[phase].observe(float(phases_s.get(phase, 0.0)))

    def record_shed(self) -> None:
        self.shed += 1

    def record_timeout(self) -> None:
        self.timeouts += 1

    def record_error(self) -> None:
        self.errors += 1

    def record_batch(self, size: int) -> None:
        self.batch_sizes.append(int(size))

    @property
    def queue_depth_mean(self) -> float:
        if not self.queue_depth_samples:
            return 0.0
        return self.queue_depth_sum / self.queue_depth_samples

    def attainment(self, budget_s: float) -> float:
        """Fraction of completed requests at or under ``budget_s``."""
        if not self.latency.count:
            return 0.0
        return self.latency.count_at_or_below(budget_s) / self.latency.count


def add_serve_metrics(collection, recorder: SLORecorder, *,
                      budget_s: float, wall_s: float,
                      labels: Optional[Mapping[str, str]] = None,
                      trace_dropped: int = 0) -> None:
    """Fold an :class:`SLORecorder` into a metrics collection.

    Emits exactly the families of :data:`SERVE_METRIC_HELP`; histogram
    quantiles become per-quantile-labelled gauges so the OpenMetrics
    exposition needs no native summary support for streaming estimates.
    """
    base = dict(labels or {})

    def put_counter(name: str, value: float, **extra: str) -> None:
        collection.counter(name, value, labels=dict(base, **extra),
                           help=SERVE_METRIC_HELP[name])

    def put_gauge(name: str, value: float, unit: str = "",
                  **extra: str) -> None:
        collection.gauge(name, value, labels=dict(base, **extra),
                         unit=unit, help=SERVE_METRIC_HELP[name])

    put_counter("repro_serve_requests", recorder.requests)
    put_counter("repro_serve_completed", recorder.completed)
    put_counter("repro_serve_shed", recorder.shed)
    put_counter("repro_serve_timeouts", recorder.timeouts)
    put_counter("repro_serve_batches", len(recorder.batch_sizes))
    put_counter("repro_serve_trace_dropped_records", max(0, trace_dropped))
    if recorder.latency.count:
        for q in SLO_QUANTILES:
            put_gauge("repro_serve_latency_seconds",
                      recorder.latency.quantile(q), unit="seconds",
                      quantile=f"{q:g}")
        for phase in PHASES:
            histogram = recorder.phase_latency[phase]
            for q in (0.5, 0.99):
                put_gauge("repro_serve_phase_seconds",
                          histogram.quantile(q), unit="seconds",
                          phase=phase, quantile=f"{q:g}")
    if recorder.batch_sizes:
        collection.histogram("repro_serve_batch_size",
                             [float(size) for size in recorder.batch_sizes],
                             labels=base,
                             help=SERVE_METRIC_HELP["repro_serve_batch_size"])
    put_gauge("repro_serve_queue_depth_peak", recorder.queue_depth_peak)
    put_gauge("repro_serve_queue_depth_mean", recorder.queue_depth_mean)
    put_gauge("repro_serve_inflight_peak", recorder.inflight_peak)
    throughput = recorder.completed / wall_s if wall_s > 0 else 0.0
    put_gauge("repro_serve_throughput_rps", throughput)
    put_gauge("repro_serve_attainment", recorder.attainment(budget_s))
