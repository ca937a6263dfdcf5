"""Tests: motion feature extraction assembly matches the golden model."""

import numpy as np
import pytest

from repro.bnn.datasets import synthetic_motion
from repro.cpu import FlatMemory, run_pipelined
from repro.errors import ConfigurationError
from repro.isa import assemble
from repro.workloads import motion_features as mf


def sample_window(seed=0):
    return synthetic_motion(n_samples=1, seed=seed).traces[0]


class TestReference:
    def test_feature_count(self):
        features = mf.features_reference(mf.quantize_trace(sample_window()))
        assert features.shape == (mf.N_FEATURES,)

    def test_mean_slot(self):
        window = np.zeros((6, 64))
        window[2] = 1.0  # quantizes to 64 everywhere
        features = mf.features_reference(mf.quantize_trace(window))
        assert features[2 * mf.FEATURES_PER_CHANNEL] == 64

    def test_histogram_sums_to_length(self):
        features = mf.features_reference(mf.quantize_trace(sample_window()))
        for ch in range(mf.N_CHANNELS):
            hist = features[ch * mf.FEATURES_PER_CHANNEL + 1:
                            ch * mf.FEATURES_PER_CHANNEL + 1 + mf.N_BINS]
            assert hist.sum() == 64

    def test_histogram_clamps_outliers(self):
        window = np.zeros((6, 64))
        window[0, 0] = 100.0   # way above range -> top bin
        window[0, 1] = -100.0  # way below -> bottom bin
        features = mf.features_reference(mf.quantize_trace(window))
        assert features[1] >= 1          # bottom bin of channel 0
        assert features[1 + mf.N_BINS - 1] >= 1  # top bin

    def test_mav_nonnegative(self):
        features = mf.features_reference(mf.quantize_trace(sample_window()))
        for ch in range(mf.N_CHANNELS):
            assert features[ch * mf.FEATURES_PER_CHANNEL + 9] >= 0

    def test_power_of_two_length_required(self):
        with pytest.raises(ConfigurationError):
            mf.features_reference(np.zeros((6, 60), dtype=np.int64))
        with pytest.raises(ConfigurationError):
            mf.features_reference(np.zeros((3, 6, 60), dtype=np.int64))

    def test_thresholds_match_normalized_binarization(self):
        md = synthetic_motion(n_samples=80, seed=1)
        matrix = np.array([mf.float_features(t) for t in md.traces])
        thresholds = mf.training_thresholds(matrix)
        lo, hi = matrix.min(axis=0), matrix.max(axis=0)
        span = np.where(hi - lo == 0, 1.0, hi - lo)
        normalized = (matrix - lo) / span
        expected = normalized >= 0.5
        got = matrix >= thresholds
        # ties at exactly 0.5 may differ by the ceil convention; features
        # with zero span are degenerate either way
        agreement = (expected == got).mean()
        assert agreement > 0.98


def python_features(window):
    """The feature math in plain Python integers, one sample at a time."""
    out = []
    for channel in window:
        samples = [int(value) for value in channel]
        shift = len(samples).bit_length() - 1
        hist = [0] * mf.N_BINS
        for value in samples:
            index = (value - mf.HIST_MIN) // mf.BIN_WIDTH
            hist[min(max(index, 0), mf.N_BINS - 1)] += 1
        out += [sum(samples) >> shift, *hist,
                sum(abs(value) for value in samples) >> shift]
    return out


def edge_batch():
    """Quantized windows that hit every bin edge, clamp past +-256 and
    floor negative sums under the arithmetic shift."""
    edges = [mf.HIST_MIN + k * mf.BIN_WIDTH for k in range(mf.N_BINS + 1)]
    values = [edge + delta for edge in edges for delta in (-1, 0, 1)]
    values += [-5000, -1000, -257, 257, 1000, 5000]
    rng = np.random.default_rng(0)
    windows = rng.choice(values, size=(5, mf.N_CHANNELS, 64))
    windows[0, 0, :len(values)] = values
    windows[1, 0] = 0
    windows[1, 0, 0] = -1      # sum -1: mean -1, not 0
    windows[1, 1] = -1
    windows[1, 1, 0] = 0       # sum -63: mean -1
    windows[1, 2] = -1
    windows[1, 2, 0] = -2      # sum -65: mean -2
    windows[1, 3] = -3         # MAV of an all-negative channel
    return windows.astype(np.int64)


class TestBatch:
    def test_rows_match_single_window_and_python(self):
        windows = edge_batch()
        # the batch reaches every bin, both clamps and the flooring shift
        assert all(python_features(windows[0])[1:1 + mf.N_BINS])
        assert (windows < mf.HIST_MIN).any() and (windows >= mf.HIST_MAX).any()
        assert [python_features(windows[1])[ch * mf.FEATURES_PER_CHANNEL]
                for ch in range(3)] == [-1, -1, -2]
        batched = mf.features_reference(windows)
        assert batched.shape == (len(windows), mf.N_FEATURES)
        assert batched.dtype == np.int64
        for window, row in zip(windows, batched):
            np.testing.assert_array_equal(row, mf.features_reference(window))
            assert row.tolist() == python_features(window)

    def test_any_leading_shape(self):
        windows = edge_batch()[:4]
        grid = mf.features_reference(windows.reshape(2, 2, mf.N_CHANNELS, 64))
        assert grid.shape == (2, 2, mf.N_FEATURES)
        np.testing.assert_array_equal(grid.reshape(4, mf.N_FEATURES),
                                      mf.features_reference(windows))

    def test_float_features_batch_matches_per_trace(self):
        traces = synthetic_motion(n_samples=50, seed=2).traces
        batched = mf.float_features(traces)
        assert batched.dtype == np.float64
        np.testing.assert_array_equal(
            batched, np.array([mf.float_features(trace) for trace in traces]))


class TestAsmEquivalence:
    @pytest.fixture(scope="class")
    def run_full(self):
        window = mf.quantize_trace(sample_window(seed=4))
        matrix = np.array([mf.float_features(t)
                           for t in synthetic_motion(n_samples=40, seed=4).traces])
        thresholds = mf.training_thresholds(matrix)
        memory = FlatMemory(size=1 << 17)
        mf.write_window(memory, window)
        mf.write_thresholds(memory, thresholds)
        program = assemble(mf.full_motion_asm(64))
        _, result = run_pipelined(program, memory=memory)
        return window, thresholds, memory, result

    def test_halts(self, run_full):
        *_, result = run_full
        assert result.stop_reason == "halt"

    def test_features_match(self, run_full):
        window, _, memory, _ = run_full
        np.testing.assert_array_equal(mf.read_features(memory),
                                      mf.features_reference(window))

    def test_packed_bits_match(self, run_full):
        window, thresholds, memory, _ = run_full
        features = mf.features_reference(window)
        expected = (features >= thresholds).astype(np.uint8)
        np.testing.assert_array_equal(mf.read_packed_features(memory), expected)

    def test_stages_individually(self):
        window = mf.quantize_trace(sample_window(seed=7))
        memory = FlatMemory(size=1 << 17)
        mf.write_window(memory, window)
        mf.write_thresholds(memory, np.zeros(mf.N_FEATURES, dtype=np.int64))
        for name, generator in mf.STAGE_GENERATORS.items():
            source = generator() if name == "binarize" else generator(64)
            _, result = run_pipelined(assemble(source), memory=memory)
            assert result.stop_reason == "halt"
        np.testing.assert_array_equal(mf.read_features(memory),
                                      mf.features_reference(window))

    def test_negative_samples_handled(self):
        window = np.full((6, 64), -2.5)
        quantized = mf.quantize_trace(window)
        memory = FlatMemory(size=1 << 17)
        mf.write_window(memory, quantized)
        _, result = run_pipelined(assemble(mf.mean_asm(64)), memory=memory)
        assert result.stop_reason == "halt"
        features = mf.read_features(memory)
        assert features[0] == int(quantized[0].sum()) >> 6
        assert features[0] < 0

    def test_trans_bnn_finish(self):
        window = mf.quantize_trace(sample_window())
        memory = FlatMemory(size=1 << 17)
        mf.write_window(memory, window)
        mf.write_thresholds(memory, np.zeros(mf.N_FEATURES, dtype=np.int64))
        program = assemble(mf.full_motion_asm(64, finish="trans_bnn"))
        _, result = run_pipelined(program, memory=memory)
        assert result.stop_reason == "trans_bnn"
