"""Tests for datasets, proxy FID and the SiLU→ReLU adaptation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.diffusion.datasets import DATASET_SPECS, dataset_names, load_dataset
from repro.diffusion.fid import (
    FIDEvaluator,
    RandomFeatureExtractor,
    compute_statistics,
    frechet_distance,
)
from repro.diffusion.finetune import adapt_to_relu, make_calibration_batch
from repro.nn.layers import Activation
from repro.nn.unet import EDMUNet, UNetConfig


class TestDatasets:
    def test_four_paper_datasets_present(self):
        assert dataset_names() == ["cifar10", "afhqv2", "ffhq", "imagenet"]
        assert set(DATASET_SPECS) == set(dataset_names())

    def test_load_dataset_shapes(self):
        ds = load_dataset("cifar10")
        assert ds.image_shape == (3, 16, 16)
        assert ds.reference_samples(4).shape == (4, 3, 16, 16)

    def test_paper_resolution_flag(self):
        ds = load_dataset("cifar10", paper_resolution=True)
        assert ds.image_shape[1] == 32

    def test_resolution_override(self):
        ds = load_dataset("ffhq", resolution=8)
        assert ds.image_shape == (3, 8, 8)

    def test_unknown_dataset_raises(self):
        with pytest.raises(KeyError):
            load_dataset("mnist")

    def test_labels_match_class_count(self):
        ds = load_dataset("imagenet", resolution=8)
        labels = ds.prior.sample_labels(6, np.random.default_rng(0))
        assert labels.shape == (6, ds.num_classes)

    def test_sigma_data_reasonable(self):
        for name in dataset_names():
            ds = load_dataset(name, resolution=8)
            assert 0.1 < ds.sigma_data() < 2.0

    def test_reference_samples_seeded(self):
        ds = load_dataset("afhqv2", resolution=8)
        assert np.array_equal(ds.reference_samples(4, seed=3), ds.reference_samples(4, seed=3))
        assert not np.array_equal(ds.reference_samples(4, seed=3), ds.reference_samples(4, seed=4))

    def test_dataset_labels_strings(self):
        assert load_dataset("cifar10").label == "EDM1, CIFAR-10"
        assert load_dataset("imagenet", resolution=8).label == "EDM2, ImageNet"


class TestFID:
    def test_feature_extractor_shape(self, rng):
        extractor = RandomFeatureExtractor(feature_dim=32)
        feats = extractor.extract(rng.normal(size=(6, 3, 16, 16)))
        assert feats.shape == (6, 32)

    def test_statistics_require_two_samples(self, rng):
        with pytest.raises(ValueError):
            compute_statistics(rng.normal(size=(1, 8)))

    def test_frechet_distance_zero_for_identical(self, rng):
        stats = compute_statistics(rng.normal(size=(64, 8)))
        assert frechet_distance(stats, stats) == pytest.approx(0.0, abs=1e-6)

    def test_frechet_distance_grows_with_mean_shift(self, rng):
        base = rng.normal(size=(256, 8))
        stats0 = compute_statistics(base)
        small = compute_statistics(base + 0.1)
        large = compute_statistics(base + 2.0)
        assert frechet_distance(stats0, large) > frechet_distance(stats0, small)

    def test_fid_evaluator_requires_reference(self, rng):
        evaluator = FIDEvaluator()
        with pytest.raises(RuntimeError):
            evaluator.fid(rng.normal(size=(4, 3, 16, 16)))

    def test_fid_lower_for_matching_distribution(self):
        ds = load_dataset("cifar10", resolution=8)
        evaluator = FIDEvaluator()
        evaluator.set_reference(ds.reference_samples(256, seed=0))
        matched = evaluator.fid(ds.reference_samples(128, seed=1))
        mismatched = evaluator.fid(np.random.default_rng(0).normal(size=(128, 3, 8, 8)) * 2)
        assert matched < mismatched

    def test_fid_nonnegative(self):
        ds = load_dataset("cifar10", resolution=8)
        evaluator = FIDEvaluator()
        evaluator.set_reference(ds.reference_samples(128))
        assert evaluator.fid(ds.reference_samples(64, seed=5)) >= 0.0


class TestReLUAdaptation:
    @pytest.fixture()
    def silu_model(self):
        return EDMUNet(UNetConfig(img_resolution=8, model_channels=8, channel_mult=(1, 2), seed=5))

    def test_adaptation_returns_relu_model(self, silu_model):
        batch = make_calibration_batch((3, 8, 8), batch_size=2)
        relu_model, report = adapt_to_relu(silu_model, batch)
        assert relu_model.config.activation == "relu"
        assert report.adjusted_convs > 0

    def test_original_model_untouched(self, silu_model):
        batch = make_calibration_batch((3, 8, 8), batch_size=2)
        weights_before = {k: v.copy() for k, v in silu_model.parameters().items()}
        adapt_to_relu(silu_model, batch)
        assert silu_model.config.activation == "silu"
        for key, value in silu_model.parameters().items():
            assert np.array_equal(value, weights_before[key])

    def test_adapted_model_closer_than_naive_swap(self, silu_model):
        import copy

        batch = make_calibration_batch((3, 8, 8), batch_size=2)
        relu_model, _ = adapt_to_relu(silu_model, batch)
        naive = copy.deepcopy(silu_model)
        naive.set_activation("relu")

        reference = silu_model(batch.images, batch.noise_cond)
        adapted_err = np.linalg.norm(relu_model(batch.images, batch.noise_cond) - reference)
        naive_err = np.linalg.norm(naive(batch.images, batch.noise_cond) - reference)
        assert adapted_err <= naive_err * 1.05

    def test_relu_model_is_sparse(self, silu_model, rng):
        batch = make_calibration_batch((3, 8, 8), batch_size=2)
        relu_model, _ = adapt_to_relu(silu_model, batch)
        relu_model.set_recording(True)
        relu_model(rng.normal(size=(2, 3, 8, 8)), np.full(2, 0.1))
        sparsities = [
            float(np.mean(m.last_output == 0))
            for _, m in relu_model.named_modules()
            if isinstance(m, Activation) and m.last_output is not None and m.last_output.ndim == 4
        ]
        assert np.mean(sparsities) > 0.3

    def test_calibration_batch_with_labels(self):
        batch = make_calibration_batch((3, 8, 8), batch_size=3, label_dim=5)
        assert batch.labels is not None and batch.labels.shape == (3, 5)
        assert np.allclose(batch.labels.sum(axis=1), 1.0)
