"""SHA-256 pins of the synthetic datasets and of small trained artifacts.

Trained weights feed the paper anchors, so data preparation and training
must stay bit-identical across refactors: one flipped bit anywhere in the
datasets, the features, the thresholds or the training changes a digest
here.  Each digest covers every array's dtype, shape and bytes.
"""

import hashlib

import numpy as np
import pytest

from repro.bnn import synthetic_mnist, synthetic_motion
from repro.experiments.models import _train_mnist_model, _train_motion_artifacts
from repro.nalu.training import TASKS, train_task, train_tasks


def digest(*arrays):
    sha = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        sha.update(f"{array.dtype.str}{array.shape}".encode())
        sha.update(array.tobytes())
    return sha.hexdigest()


def model_digest(model):
    return digest(*(array for layer in model.layers
                    for array in (layer.weights, layer.bias)))


def nalu_digest(results):
    """Every task's final MSE, random-init MSE and target variance, as
    float64 bytes in :data:`TASKS` order."""
    return digest(*(np.array([results[task].final_mse,
                              results[task].random_mse,
                              results[task].target_variance])
                    for task in TASKS))


#: the five Fig 19a tasks trained for 300 steps
NALU_RESULTS = \
    "523b8dc8c33bc19a74fd3462c56fc60d3af95801f7701e7688e9ba2bc5608bc6"


@pytest.mark.parametrize("n_samples, seed, images, labels", [
    (200, 0,
     "43cdc2c65eac536bcf2d6aac15739e7108e0057faff4c4a8087bcf0fa11e711d",
     "87b9ea7b1a201621dfc8635a28bab2b481ff27a05ed89d6d07c4e112904d5ce7"),
    (333, 11,
     "ecd075d748bb5ea33c495c3174298c10e90d9a0ada69c99cf28aefd6b0abd833",
     "f407dd55527b9e02054f82d300f3da0ffd866548a863219aef5058e6403268c3"),
])
def test_synthetic_mnist_bytes(n_samples, seed, images, labels):
    dataset = synthetic_mnist(n_samples=n_samples, seed=seed)
    assert digest(dataset.images) == images
    assert digest(dataset.labels) == labels


def test_synthetic_motion_bytes():
    dataset = synthetic_motion(n_samples=120, seed=3)
    assert digest(dataset.traces) == \
        "1f2489a1555cdf761a6c209b65c08d450ac9bfa6c80b5c1e58f29803099f04c2"
    assert digest(dataset.labels) == \
        "caa16f48de04913689e4007ef403369a3d00e05cef045006c86846c47a90d377"


def test_mnist_model_bytes():
    trained = _train_mnist_model(width=64, epochs=4, n_samples=800)
    assert model_digest(trained.model) == \
        "b7e684f8a680e0dcef9cbfaea87a4467e17fcdb2b6dc38c8f0e8ba61198df7de"


def test_motion_artifact_bytes():
    artifacts = _train_motion_artifacts(epochs=4, n_samples=600)
    assert model_digest(artifacts.model) == \
        "a532dfd123816552151de4d054cc1f116e2d663935c1d912eccc53c7a691a777"
    assert digest(artifacts.thresholds) == \
        "e7dc7057b975253c21646ea78238cb04261727d10b32a93099f59532507e0f86"


def test_nalu_result_bytes_task_by_task():
    results = {task: train_task(task, steps=300) for task in TASKS}
    assert nalu_digest(results) == NALU_RESULTS


def test_nalu_result_bytes_stacked():
    assert nalu_digest(train_tasks(TASKS, steps=300)) == NALU_RESULTS
