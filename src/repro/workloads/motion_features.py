"""Human-motion-detection feature extraction workload (paper Fig 15b).

The CPU reads a 6-channel accelerometer window and extracts three
time-domain features per channel (paper section VII.B: "mean and histogram"
family):

1. **mean** — per-channel average,
2. **histogram** — 8 bins over the fixed sensor range,
3. **MAV** — mean absolute value (the integer-friendly stand-in for RMS).

That yields ``6 * (1 + 8 + 1) = 60`` features, which are binarized against
per-feature thresholds (training-set midpoints) and bit-packed into the image
memory for the BNN.

Samples are signed integers produced by :func:`quantize_trace` (raw float
sensor values scaled by 64); the histogram covers [-4, 4) in sensor units,
i.e. [-256, 256) quantized.
"""

from __future__ import annotations


import numpy as np

from repro.bnn import quantize as q
from repro.errors import ConfigurationError
from repro.workloads import layout

#: fixed-point scale for sensor samples
SENSOR_SCALE = 64

#: histogram bins over the quantized range [-256, 256)
N_BINS = 8
HIST_MIN = -4 * SENSOR_SCALE
HIST_MAX = 4 * SENSOR_SCALE
BIN_WIDTH = (HIST_MAX - HIST_MIN) // N_BINS  # 64

N_CHANNELS = 6
FEATURES_PER_CHANNEL = 1 + N_BINS + 1
N_FEATURES = N_CHANNELS * FEATURES_PER_CHANNEL  # 60

#: memory layout for the kernel (word offsets from RAW_BASE)
#:   samples  : channels x length words
#:   then the kernel writes features to SCRATCH0, reads thresholds at
#:   SCRATCH1, and packs bits to the image memory.
FEATURE_BASE = layout.SCRATCH0_BASE
THRESHOLD_BASE = layout.SCRATCH1_BASE


def quantize_trace(trace: np.ndarray) -> np.ndarray:
    """Float ``(..., channels, length)`` sensor windows -> int64 fixed point."""
    scaled = np.asarray(trace) * SENSOR_SCALE
    return np.round(scaled, out=scaled).astype(np.int64)


# ---------------------------------------------------------------------------
# numpy reference
# ---------------------------------------------------------------------------

def features_reference(quantized: np.ndarray) -> np.ndarray:
    """Integer features of quantized ``(..., channels, length)`` windows.

    Matches the assembly kernel exactly: integer mean via arithmetic shift,
    clamped histogram counts, and MAV via shift.  Any leading batch shape
    is kept: a single ``(channels, length)`` window gives one vector of
    ``channels * FEATURES_PER_CHANNEL`` features, laid out per channel as
    ``[mean, 8 histogram bins, MAV]``; a ``(n, channels, length)`` stack
    gives an ``(n, channels * FEATURES_PER_CHANNEL)`` matrix whose row
    ``i`` equals the single-window result for window ``i``.
    """
    quantized = np.asarray(quantized, dtype=np.int64)
    *batch, channels, length = quantized.shape
    shift = length.bit_length() - 1
    if 1 << shift != length:
        raise ConfigurationError("window length must be a power of two")
    means = quantized.sum(axis=-1) >> shift
    mavs = np.abs(quantized).sum(axis=-1) >> shift
    # one bincount for every (window, channel) row: row r counts into
    # slots r * N_BINS .. r * N_BINS + N_BINS - 1
    bins = quantized - HIST_MIN
    bins //= BIN_WIDTH
    np.clip(bins, 0, N_BINS - 1, out=bins)
    rows = bins.reshape(-1, length)
    rows += np.arange(0, len(rows) * N_BINS, N_BINS)[:, None]
    hist = np.bincount(rows.ravel(), minlength=len(rows) * N_BINS)
    features = np.concatenate(
        [means[..., None], hist.reshape(*batch, channels, N_BINS),
         mavs[..., None]], axis=-1)
    return features.reshape(*batch, channels * FEATURES_PER_CHANNEL)


def float_features(trace: np.ndarray) -> np.ndarray:
    """Features of float ``(..., channels, length)`` sensor windows, as
    float64, for dataset building: :func:`features_reference` of the
    quantized windows (same math, same batch shapes)."""
    return features_reference(quantize_trace(trace)).astype(np.float64)


def training_thresholds(feature_matrix: np.ndarray) -> np.ndarray:
    """Per-feature binarization thresholds: training-set range midpoints.

    Mirrors ``Dataset.binarized(0.5)`` after min-max normalization: a
    normalized feature is >= 0.5 exactly when the raw feature is >= the
    midpoint of its training range.
    """
    lo = feature_matrix.min(axis=0)
    hi = feature_matrix.max(axis=0)
    return np.ceil((lo + hi) / 2.0).astype(np.int64)


# ---------------------------------------------------------------------------
# memory helpers
# ---------------------------------------------------------------------------

def write_window(memory, quantized: np.ndarray,
                 base: int = layout.RAW_BASE) -> None:
    flat = np.asarray(quantized, dtype=np.int64).reshape(-1)
    for index, value in enumerate(flat):
        memory.store(base + 4 * index, int(value) & 0xFFFFFFFF, 4)


def write_thresholds(memory, thresholds: np.ndarray,
                     base: int = THRESHOLD_BASE) -> None:
    for index, value in enumerate(np.asarray(thresholds, dtype=np.int64)):
        memory.store(base + 4 * index, int(value) & 0xFFFFFFFF, 4)


def read_features(memory, base: int = FEATURE_BASE,
                  count: int = N_FEATURES) -> np.ndarray:
    from repro.isa.encoding import to_signed32

    return np.array([to_signed32(memory.load(base + 4 * i, 4))
                     for i in range(count)], dtype=np.int64)


def read_packed_features(memory, base: int = layout.PACKED_INPUT_BASE) -> np.ndarray:
    n_words = (N_FEATURES + 31) // 32
    words = np.array([memory.load(base + 4 * i, 4) for i in range(n_words)],
                     dtype=np.uint32)
    return q.unpack_bits(words, N_FEATURES)


# ---------------------------------------------------------------------------
# assembly kernels
# ---------------------------------------------------------------------------

def mean_asm(length: int = 64, raw_base: int = layout.RAW_BASE,
             feature_base: int = FEATURE_BASE, standalone: bool = True) -> str:
    """Per-channel mean, stored at feature slots ch*10 + 0."""
    shift = length.bit_length() - 1
    if 1 << shift != length:
        raise ConfigurationError("window length must be a power of two")
    body = f"""
    # ---- mean over {N_CHANNELS} channels of {length} samples
        li s0, {raw_base}
        li s1, {feature_base}
        li s2, 0                 # channel
    mean_ch:
        li t0, 0
        li t3, 0                 # sum
    mean_sample:
        slli t2, t0, 2
        add a0, s0, t2
        lw t4, 0(a0)
        add t3, t3, t4
        addi t0, t0, 1
        li t4, {length}
        blt t0, t4, mean_sample
        srai t3, t3, {shift}
        li t4, {4 * FEATURES_PER_CHANNEL}
        mul t5, s2, t4
        add a1, s1, t5
        sw t3, 0(a1)
        addi s0, s0, {4 * length}
        addi s2, s2, 1
        li t4, {N_CHANNELS}
        blt s2, t4, mean_ch
    """
    return body + ("\n        ebreak\n" if standalone else "")


def histogram_asm(length: int = 64, raw_base: int = layout.RAW_BASE,
                  feature_base: int = FEATURE_BASE,
                  standalone: bool = True) -> str:
    """Per-channel 8-bin histogram, stored at feature slots ch*10 + 1..8."""
    bin_shift = BIN_WIDTH.bit_length() - 1
    body = f"""
    # ---- 8-bin histogram per channel, bins of width {BIN_WIDTH}
        li s0, {raw_base}
        li s1, {feature_base + 4}   # first hist slot of channel 0
        li s2, 0                 # channel
    hist_ch:
        # zero the 8 bins
        li t0, 0
    hist_zero:
        slli t2, t0, 2
        add a1, s1, t2
        sw x0, 0(a1)
        addi t0, t0, 1
        li t4, {N_BINS}
        blt t0, t4, hist_zero
        li t0, 0
    hist_sample:
        slli t2, t0, 2
        add a0, s0, t2
        lw t3, 0(a0)
        addi t3, t3, {-HIST_MIN} # shift range to start at 0
        srai t3, t3, {bin_shift} # bin index
        bge t3, x0, hist_lo_ok
        li t3, 0
    hist_lo_ok:
        li t4, {N_BINS - 1}
        ble t3, t4, hist_hi_ok
        mv t3, t4
    hist_hi_ok:
        slli t3, t3, 2
        add a1, s1, t3
        lw t4, 0(a1)
        addi t4, t4, 1
        sw t4, 0(a1)
        addi t0, t0, 1
        li t4, {length}
        blt t0, t4, hist_sample
        addi s0, s0, {4 * length}
        addi s1, s1, {4 * FEATURES_PER_CHANNEL}
        addi s2, s2, 1
        li t4, {N_CHANNELS}
        blt s2, t4, hist_ch
    """
    return body + ("\n        ebreak\n" if standalone else "")


def mav_asm(length: int = 64, raw_base: int = layout.RAW_BASE,
            feature_base: int = FEATURE_BASE, standalone: bool = True) -> str:
    """Per-channel mean absolute value, stored at feature slots ch*10 + 9."""
    shift = length.bit_length() - 1
    body = f"""
    # ---- mean absolute value per channel
        li s0, {raw_base}
        li s1, {feature_base + 4 * (1 + N_BINS)}
        li s2, 0
    mav_ch:
        li t0, 0
        li t3, 0
    mav_sample:
        slli t2, t0, 2
        add a0, s0, t2
        lw t4, 0(a0)
        bge t4, x0, mav_pos
        sub t4, x0, t4
    mav_pos:
        add t3, t3, t4
        addi t0, t0, 1
        li t4, {length}
        blt t0, t4, mav_sample
        srai t3, t3, {shift}
        sw t3, 0(s1)
        addi s0, s0, {4 * length}
        addi s1, s1, {4 * FEATURES_PER_CHANNEL}
        addi s2, s2, 1
        li t4, {N_CHANNELS}
        blt s2, t4, mav_ch
    """
    return body + ("\n        ebreak\n" if standalone else "")


def binarize_asm(feature_base: int = FEATURE_BASE,
                 threshold_base: int = THRESHOLD_BASE,
                 packed_base: int = layout.PACKED_INPUT_BASE,
                 standalone: bool = True) -> str:
    """Compare features to thresholds, pack the sign bits."""
    body = f"""
    # ---- binarize {N_FEATURES} features against thresholds and pack
        li s0, {feature_base}
        li s1, {threshold_base}
        li s2, {packed_base}
        li t0, 0
        li s5, 0                 # word accumulator
        li s6, 0                 # bit position
    bin_feat:
        slli t2, t0, 2
        add a0, s0, t2
        lw t3, 0(a0)
        add a1, s1, t2
        lw t4, 0(a1)
        slt t5, t3, t4           # 1 if feature < threshold
        xori t5, t5, 1
        sll t5, t5, s6
        or s5, s5, t5
        addi s6, s6, 1
        li t4, 32
        bne s6, t4, bin_next
        sw s5, 0(s2)
        addi s2, s2, 4
        li s5, 0
        li s6, 0
    bin_next:
        addi t0, t0, 1
        li t4, {N_FEATURES}
        blt t0, t4, bin_feat
        beq s6, x0, bin_done
        sw s5, 0(s2)
    bin_done:
    """
    return body + ("\n        ebreak\n" if standalone else "")


def full_motion_asm(length: int = 64, finish: str = "ebreak") -> str:
    """All feature stages plus binarization, ending in ebreak/trans_bnn."""
    if finish not in ("ebreak", "trans_bnn"):
        raise ConfigurationError(f"unsupported finish {finish!r}")
    stages = (mean_asm(length, standalone=False)
              + histogram_asm(length, standalone=False)
              + mav_asm(length, standalone=False)
              + binarize_asm(standalone=False))
    return stages + f"\n        {finish}\n"


STAGE_GENERATORS = {
    "mean": mean_asm,
    "histogram": histogram_asm,
    "mav": mav_asm,
    "binarize": binarize_asm,
}
