"""Streaming quantile estimator + serve metric export."""

import math
import random

import pytest

from repro.metrics import MetricsCollection, to_openmetrics, \
    validate_openmetrics
from repro.obs import PHASES
from repro.serve import (
    SERVE_METRIC_HELP,
    SLO_QUANTILES,
    LatencyHistogram,
    SLORecorder,
    add_serve_metrics,
)
from repro.serve.slo import HI_S, LO_S


class TestLatencyHistogram:
    def test_single_sample_is_exact(self):
        histogram = LatencyHistogram()
        histogram.observe(0.0123)
        for q in (0.0, 0.5, 0.99, 1.0):
            assert histogram.quantile(q) == pytest.approx(0.0123)
        assert histogram.mean_s == pytest.approx(0.0123)

    def test_empty_histogram_raises(self):
        histogram = LatencyHistogram()
        with pytest.raises(ValueError, match="empty"):
            histogram.quantile(0.5)
        with pytest.raises(ValueError, match="empty"):
            _ = histogram.mean_s
        with pytest.raises(ValueError, match="empty"):
            histogram.summary_ms()

    def test_rejects_bad_samples_and_quantiles(self):
        histogram = LatencyHistogram()
        with pytest.raises(ValueError, match=">= 0"):
            histogram.observe(-1e-3)
        with pytest.raises(ValueError, match=">= 0"):
            histogram.observe(float("nan"))
        histogram.observe(0.001)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            histogram.quantile(1.5)

    def test_uniform_golden_quantiles_within_error_bound(self):
        """Quantiles of a known distribution land within the advertised
        relative error bound (plus nearest-rank discretisation)."""
        histogram = LatencyHistogram()
        n = 10_000
        # uniform grid on [1ms, 101ms]: true quantile q is 1ms + q*100ms
        for index in range(n):
            histogram.observe(1e-3 + index / (n - 1) * 100e-3)
        bound = histogram.relative_error_bound
        for q in (0.5, 0.9, 0.95, 0.99):
            true = 1e-3 + q * 100e-3
            estimate = histogram.quantile(q)
            assert abs(estimate - true) / true < bound + 2.0 / n

    def test_lognormal_golden_quantiles(self):
        rng = random.Random(7)
        samples = sorted(rng.lognormvariate(-5.0, 1.0) for _ in range(5000))
        histogram = LatencyHistogram()
        for sample in samples:
            histogram.observe(sample)
        bound = histogram.relative_error_bound
        for q in SLO_QUANTILES:
            true = samples[min(len(samples) - 1,
                               math.ceil(q * len(samples)) - 1)]
            assert abs(histogram.quantile(q) - true) / true < bound * 2

    def test_out_of_range_samples_land_in_edge_buckets(self):
        histogram = LatencyHistogram()
        histogram.observe(1e-9)   # underflow bucket (below 1 us)
        histogram.observe(5e3)    # overflow bucket (above 1000 s)
        assert histogram.count == 2
        assert histogram.counts[0] == 1 and histogram.counts[-1] == 1
        # estimates degrade to the range edges, exact extremes survive
        assert histogram.quantile(0.0) == pytest.approx(LO_S)
        assert histogram.quantile(1.0) == pytest.approx(HI_S)
        assert histogram.min_s == pytest.approx(1e-9)
        assert histogram.max_s == pytest.approx(5e3)

    def test_count_at_or_below(self):
        histogram = LatencyHistogram()
        for value in (0.001, 0.002, 0.004, 0.2):
            histogram.observe(value)
        assert histogram.count_at_or_below(0.05) == 3
        assert histogram.count_at_or_below(1.0) == 4
        assert histogram.count_at_or_below(1e-9) == 0

    def test_summary_ms_block(self):
        histogram = LatencyHistogram()
        for value in (0.001, 0.002, 0.003):
            histogram.observe(value)
        block = histogram.summary_ms()
        assert set(block) == {"p50", "p95", "p99", "mean", "min", "max"}
        assert block["min"] == pytest.approx(1.0)
        assert block["max"] == pytest.approx(3.0)
        assert block["p50"] <= block["p95"] <= block["p99"]

    def test_error_bound_formula(self):
        assert LatencyHistogram().relative_error_bound == \
            pytest.approx(10.0 ** 0.01 - 1.0)


class TestSLORecorder:
    def filled(self) -> SLORecorder:
        recorder = SLORecorder()
        recorder.record_submit(0, 1)
        recorder.record_submit(3, 4)
        recorder.record_submit(1, 2)
        recorder.record_completion(
            0.010, {phase: 0.010 / len(PHASES) for phase in PHASES})
        recorder.record_completion(
            0.090, {phase: 0.090 / len(PHASES) for phase in PHASES})
        recorder.record_shed()
        recorder.record_batch(2)
        return recorder

    def test_counters_and_gauges(self):
        recorder = self.filled()
        assert recorder.requests == 3
        assert recorder.completed == 2
        assert recorder.shed == 1
        assert recorder.queue_depth_peak == 3
        assert recorder.queue_depth_mean == pytest.approx(4 / 3)
        assert recorder.inflight_peak == 4
        assert recorder.batch_sizes == [2]

    def test_attainment(self):
        recorder = self.filled()
        assert recorder.attainment(0.050) == pytest.approx(0.5)
        assert recorder.attainment(1.0) == pytest.approx(1.0)
        assert SLORecorder().attainment(1.0) == 0.0

    def test_phase_histograms_cover_vocabulary(self):
        recorder = self.filled()
        assert set(recorder.phase_latency) == set(PHASES)
        for phase in PHASES:
            assert recorder.phase_latency[phase].count == 2


class TestAddServeMetrics:
    def collection(self, recorder=None, **kwargs) -> MetricsCollection:
        collection = MetricsCollection()
        recorder = recorder if recorder is not None \
            else TestSLORecorder().filled()
        add_serve_metrics(collection, recorder, budget_s=0.05, wall_s=0.5,
                          labels={"engine": "fast"}, **kwargs)
        return collection

    def test_emits_every_family(self):
        collection = self.collection()
        emitted = {series.name for series in collection.series()}
        assert emitted == set(SERVE_METRIC_HELP)

    def test_openmetrics_exposition_validates(self):
        collection = self.collection(trace_dropped=3)
        summary = validate_openmetrics(to_openmetrics(collection))
        by_name = {}
        for family, _, labels, value in summary["parsed"]:
            by_name.setdefault(family, []).append((labels, value))
        assert "repro_serve_requests" in by_name
        latency = by_name["repro_serve_latency_seconds"]
        quantiles = {labels["quantile"] for labels, _ in latency}
        assert quantiles == {"0.5", "0.95", "0.99"}
        phases = by_name["repro_serve_phase_seconds"]
        assert {labels["phase"] for labels, _ in phases} == set(PHASES)

    def test_errors_family_counts_recorded_errors(self):
        recorder = TestSLORecorder().filled()
        recorder.record_error()
        series = self.collection(recorder).get("repro_serve_errors",
                                               labels={"engine": "fast"})
        assert series is not None and series.value == 1.0

    def test_trace_dropped_clamped_non_negative(self):
        collection = self.collection(trace_dropped=-5)
        series = collection.get("repro_serve_trace_dropped_records",
                                labels={"engine": "fast"})
        assert series is not None and series.value == 0.0

    def test_empty_recorder_skips_quantiles(self):
        collection = MetricsCollection()
        add_serve_metrics(collection, SLORecorder(), budget_s=0.05,
                          wall_s=0.0)
        emitted = {series.name for series in collection.series()}
        assert "repro_serve_latency_seconds" not in emitted
        assert "repro_serve_batch_size" not in emitted
        assert "repro_serve_requests" in emitted
