"""Tests for the synthetic dataset generators."""

import numpy as np
import pytest

from repro.bnn import Dataset, digit_template, synthetic_mnist, synthetic_motion
from repro.errors import ConfigurationError


class TestDigitTemplate:
    def test_shape_and_range(self):
        image = digit_template(3)
        assert image.shape == (16, 16)
        assert image.min() >= 0 and image.max() <= 1

    def test_distinct_digits(self):
        assert not np.array_equal(digit_template(1), digit_template(8))

    def test_digit_range_checked(self):
        with pytest.raises(ConfigurationError):
            digit_template(10)

    def test_glyph_fits(self):
        with pytest.raises(ConfigurationError):
            digit_template(0, size=8, scale=2)


class TestSyntheticMnist:
    def test_deterministic(self):
        a = synthetic_mnist(n_samples=50, seed=7)
        b = synthetic_mnist(n_samples=50, seed=7)
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_seed_changes_data(self):
        a = synthetic_mnist(n_samples=50, seed=1)
        b = synthetic_mnist(n_samples=50, seed=2)
        assert not np.array_equal(a.images, b.images)

    def test_shapes(self):
        ds = synthetic_mnist(n_samples=100, size=16)
        assert ds.images.shape == (100, 256)
        assert ds.labels.shape == (100,)
        assert ds.n_classes == 10

    def test_values_in_unit_interval(self):
        ds = synthetic_mnist(n_samples=30)
        assert ds.images.min() >= 0 and ds.images.max() <= 1

    def test_all_classes_present(self):
        ds = synthetic_mnist(n_samples=500)
        assert set(np.unique(ds.labels)) == set(range(10))

    def test_binarized_domain(self):
        signs = synthetic_mnist(n_samples=10).binarized()
        assert set(np.unique(signs)) <= {-1, 1}

    def test_split_partitions(self):
        ds = synthetic_mnist(n_samples=100)
        train, test = ds.split(0.8)
        assert len(train) == 80 and len(test) == 20
        assert train.n_features == test.n_features == 256

    def test_split_deterministic(self):
        ds = synthetic_mnist(n_samples=60)
        t1, _ = ds.split(0.5, rng=np.random.default_rng(3))
        t2, _ = ds.split(0.5, rng=np.random.default_rng(3))
        np.testing.assert_array_equal(t1.labels, t2.labels)

    def test_images_look_like_digits(self):
        # with low noise, samples correlate best with their own template
        ds = synthetic_mnist(n_samples=200, noise_flip=0.01, max_shift=0)
        templates = np.array([digit_template(d).reshape(-1) for d in range(10)])
        hits = 0
        for image, label in zip(ds.images, ds.labels):
            scores = templates @ image
            hits += int(np.argmax(scores) == label)
        assert hits / len(ds) > 0.9


class TestSyntheticMotion:
    def test_shapes(self):
        md = synthetic_motion(n_samples=40, length=64)
        assert md.traces.shape == (40, 6, 64)
        assert md.n_classes == 6
        assert md.n_channels == 6
        assert md.length == 64

    def test_deterministic(self):
        a = synthetic_motion(n_samples=20, seed=5)
        b = synthetic_motion(n_samples=20, seed=5)
        np.testing.assert_array_equal(a.traces, b.traces)

    def test_classes_have_distinct_low_noise_signatures(self):
        md = synthetic_motion(n_samples=300, noise_sigma=0.01)
        means = np.array([md.traces[md.labels == c].mean(axis=(0, 2))
                          for c in range(md.n_classes)])
        # class-mean channel offsets should differ pairwise
        for i in range(md.n_classes):
            for j in range(i + 1, md.n_classes):
                assert np.abs(means[i] - means[j]).max() > 0.05

    def test_feature_dataset(self):
        md = synthetic_motion(n_samples=30)
        ds = md.to_feature_dataset(md.traces.mean(axis=2))
        assert isinstance(ds, Dataset)
        assert ds.images.shape == (30, 6)
        assert ds.images.min() >= 0 and ds.images.max() <= 1
        np.testing.assert_array_equal(ds.labels, md.labels)

    def test_feature_matrix_shape_checked(self):
        md = synthetic_motion(n_samples=4)
        with pytest.raises(ConfigurationError):
            md.to_feature_dataset(md.traces)  # 3-D: not a feature matrix
        with pytest.raises(ConfigurationError):
            md.to_feature_dataset(np.zeros((3, 5)))  # one row short

    def test_mismatched_labels_rejected(self):
        with pytest.raises(ConfigurationError):
            Dataset(images=np.zeros((3, 4)), labels=np.zeros(2), n_classes=2)
