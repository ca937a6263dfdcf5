"""Binary neural network: model, training, datasets, and accelerator timing."""

from repro.bnn.accelerator import (
    AcceleratorConfig,
    BatchTiming,
    BNNAccelerator,
    InferenceResult,
    LAYER_OVERHEAD_CYCLES,
)
from repro.bnn.datasets import (
    Dataset,
    MotionDataset,
    digit_template,
    synthetic_mnist,
    synthetic_motion,
)
from repro.bnn.model import BNNLayer, BNNModel
from repro.bnn.quantize import (
    binarize_sign,
    bits_to_sign,
    pack_bits,
    popcount32,
    sign_to_bits,
    unpack_bits,
    xnor_popcount,
)
from repro.bnn.reference import (
    SoftwareBNNEstimate,
    naive_inference_cycles,
    packed_inference_cycles,
)
from repro.bnn.training import BNNTrainer, TrainingHistory, train_bnn

__all__ = [
    "AcceleratorConfig",
    "BatchTiming",
    "BNNAccelerator",
    "InferenceResult",
    "LAYER_OVERHEAD_CYCLES",
    "Dataset",
    "MotionDataset",
    "digit_template",
    "synthetic_mnist",
    "synthetic_motion",
    "BNNLayer",
    "BNNModel",
    "binarize_sign",
    "bits_to_sign",
    "pack_bits",
    "popcount32",
    "sign_to_bits",
    "unpack_bits",
    "xnor_popcount",
    "SoftwareBNNEstimate",
    "naive_inference_cycles",
    "packed_inference_cycles",
    "BNNTrainer",
    "TrainingHistory",
    "train_bnn",
]
