"""Cached artifacts shared by the experiments: trained BNNs and measured
use-case workloads.

Everything here is deterministic (fixed seeds).  Trained models are
memoized through the session's on-disk :class:`~repro.sim.ArtifactCache`
(keyed on the training parameters plus the package source digest), so
re-runs — including fresh processes — skip retraining; the measured
use-case workloads stay process-cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List

import numpy as np

from repro.bnn import (
    BNNAccelerator,
    BNNModel,
    BNNTrainer,
    synthetic_mnist,
    synthetic_motion,
)
from repro.core import Item
from repro.cpu import FlatMemory, run_pipelined
from repro.isa import assemble
from repro.sim import config_hash, get_session, source_digest
from repro.workloads import image_pipeline as ip
from repro.workloads import motion_features as mf

#: artifact-cache namespace for trained models
MODEL_NAMESPACE = "models"


def _model_key(kind: str, **params) -> str:
    """Cache key for a trained model: its parameters plus the package
    source digest."""
    return config_hash(kind, params, source_digest())


#: paper-reported CPU-work fractions of the two use cases (Fig 15)
PAPER_IMAGE_CPU_FRACTION = 0.76
PAPER_MOTION_CPU_FRACTION = 0.68


@dataclass
class TrainedBNN:
    model: BNNModel
    test_accuracy: float


def _train_mnist_model(width: int, epochs: int, n_samples: int) -> TrainedBNN:
    dataset = synthetic_mnist(n_samples=n_samples, seed=0)
    train, test = dataset.split(0.8)
    trainer = BNNTrainer([256, width, width, width, 10], learning_rate=0.01,
                         seed=0)
    trainer.train(train.binarized(), train.labels, epochs=epochs,
                  batch_size=64)
    model = trainer.export_model()
    return TrainedBNN(model=model,
                      test_accuracy=model.accuracy(test.binarized(),
                                                   test.labels))


def mnist_model(width: int = 100, epochs: int = 18,
                n_samples: int = 5000) -> TrainedBNN:
    """The image-classification BNN at a given array width (Fig 18 sweeps).

    Memoized through the session artifact cache: the first call trains,
    every later call — in this process or any other sharing the cache
    directory — loads the stored artifact.
    """
    key = _model_key("mnist", width=width, epochs=epochs,
                     n_samples=n_samples)
    return get_session().cache.fetch(
        MODEL_NAMESPACE, key,
        lambda: _train_mnist_model(width, epochs, n_samples))


@dataclass
class MotionArtifacts:
    model: BNNModel
    test_accuracy: float
    thresholds: np.ndarray


def motion_artifacts(epochs: int = 18, n_samples: int = 3000) -> MotionArtifacts:
    """The motion-detection BNN plus the binarization thresholds the CPU
    feature-extraction kernel uses (artifact-cached like the MNIST model)."""
    key = _model_key("motion", epochs=epochs, n_samples=n_samples)
    return get_session().cache.fetch(
        MODEL_NAMESPACE, key,
        lambda: _train_motion_artifacts(epochs, n_samples))


def _train_motion_artifacts(epochs: int, n_samples: int) -> MotionArtifacts:
    raw = synthetic_motion(n_samples=n_samples, seed=0)
    features = mf.float_features(raw.traces)
    dataset = raw.to_feature_dataset(features)
    train, test = dataset.split(0.8)
    trainer = BNNTrainer(
        [dataset.n_features, 100, 100, 100, raw.n_classes],
        learning_rate=0.01, seed=0,
    )
    trainer.train(train.binarized(), train.labels, epochs=epochs,
                  batch_size=64)
    model = trainer.export_model()
    accuracy = model.accuracy(test.binarized(), test.labels)
    return MotionArtifacts(model=model, test_accuracy=accuracy,
                           thresholds=mf.training_thresholds(features))


@dataclass
class UseCase:
    """One end-to-end workload with measured phase costs."""

    name: str
    cpu_cycles: int
    bnn_cycles: int
    stage_cycles: dict
    accuracy: float
    model: BNNModel

    @property
    def cpu_fraction(self) -> float:
        return self.cpu_cycles / (self.cpu_cycles + self.bnn_cycles)

    def items(self, batch: int) -> List[Item]:
        return [Item(cpu_cycles=self.cpu_cycles,
                     bnn_cycles=self.bnn_cycles)] * batch


@lru_cache(maxsize=None)
def image_use_case() -> UseCase:
    """Image classification: measured cycles of the real assembly pipeline
    on the 5-stage simulator plus the accelerator's per-image cycles."""
    trained = mnist_model()
    shape = ip.ImageShape(32, 32)
    rng = np.random.default_rng(11)
    raw = rng.integers(0, 256, size=(3, 32, 32))

    stage_cycles = {}
    memory = FlatMemory(size=1 << 17)
    ip.write_raw_frame(memory, raw)
    for name, generator in ip.STAGE_GENERATORS.items():
        _, result = run_pipelined(assemble(generator(shape)), memory=memory)
        stage_cycles[name] = result.stats.cycles
    cpu_cycles = sum(stage_cycles.values())

    accelerator = BNNAccelerator()
    bnn_cycles = accelerator.interval_cycles(trained.model)
    stage_cycles["bnn"] = bnn_cycles
    return UseCase(name="image", cpu_cycles=cpu_cycles, bnn_cycles=bnn_cycles,
                   stage_cycles=stage_cycles, accuracy=trained.test_accuracy,
                   model=trained.model)


@lru_cache(maxsize=None)
def motion_use_case() -> UseCase:
    """Motion detection: measured feature-extraction cycles plus the
    accelerator's inference latency for a single gesture."""
    artifacts = motion_artifacts()
    window = mf.quantize_trace(synthetic_motion(n_samples=1, seed=12).traces[0])

    stage_cycles = {}
    memory = FlatMemory(size=1 << 17)
    mf.write_window(memory, window)
    mf.write_thresholds(memory, artifacts.thresholds)
    for name, generator in mf.STAGE_GENERATORS.items():
        source = generator() if name == "binarize" else generator(64)
        _, result = run_pipelined(assemble(source), memory=memory)
        stage_cycles[name] = result.stats.cycles
    cpu_cycles = sum(stage_cycles.values())

    accelerator = BNNAccelerator()
    bnn_cycles = accelerator.latency_cycles(artifacts.model)
    stage_cycles["bnn"] = bnn_cycles
    return UseCase(name="motion", cpu_cycles=cpu_cycles, bnn_cycles=bnn_cycles,
                   stage_cycles=stage_cycles, accuracy=artifacts.test_accuracy,
                   model=artifacts.model)
