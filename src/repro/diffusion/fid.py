"""Proxy Fréchet Inception Distance.

The paper measures generation quality with FID computed from InceptionV3
features of 10k-50k generated images.  Neither the Inception network nor its
weights are available offline, so this module computes the same Fréchet
distance on features from a fixed, randomly initialized convolutional feature
extractor (a standard proxy: random-feature FID preserves the *ordering* of
models whose outputs differ by injected noise/error, which is what the
reproduction needs).

The Fréchet distance between two Gaussians N(mu1, C1) and N(mu2, C2) is

    ||mu1 - mu2||^2 + Tr(C1 + C2 - 2 (C1 C2)^(1/2)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg

from ..nn import functional as F


@dataclass
class FeatureStatistics:
    """Gaussian statistics (mean, covariance) of a feature population."""

    mean: np.ndarray
    cov: np.ndarray
    num_samples: int


class RandomFeatureExtractor:
    """Fixed random two-stage convolutional feature extractor.

    Images are passed through two strided random convolutions with ReLU,
    then global average and standard-deviation pooled into a feature vector.
    The weights are seeded, so every FID computation in the repository uses
    the identical feature space.
    """

    def __init__(self, channels: int = 3, feature_dim: int = 48, seed: int = 7):
        rng = np.random.default_rng(seed)
        mid = max(feature_dim // 2, 8)
        self.conv1_weight = rng.normal(0.0, 1.0 / np.sqrt(channels * 9), (mid, channels, 3, 3))
        self.conv2_weight = rng.normal(0.0, 1.0 / np.sqrt(mid * 9), (feature_dim // 2, mid, 3, 3))
        self.feature_dim = (feature_dim // 2) * 2

    def fingerprint(self) -> str:
        """Digest of the feature space (the actual weights), for artifact keys.

        Reference statistics are only comparable within one feature space, so
        persisted statistics are keyed by this digest rather than by the
        constructor arguments that happened to produce it.
        """
        import hashlib

        digest = hashlib.sha256()
        for weight in (self.conv1_weight, self.conv2_weight):
            digest.update(np.ascontiguousarray(weight, dtype=np.float64).tobytes())
        return digest.hexdigest()

    def extract(self, images: np.ndarray, batch_size: int = 64) -> np.ndarray:
        """Map NCHW images to feature vectors of shape (N, feature_dim)."""
        images = np.asarray(images, dtype=np.float64)
        features = []
        for start in range(0, images.shape[0], batch_size):
            batch = images[start : start + batch_size]
            h = F.relu(F.conv2d(batch, self.conv1_weight, stride=2, padding=1))
            h = F.relu(F.conv2d(h, self.conv2_weight, stride=2, padding=1))
            mean_pool = h.mean(axis=(2, 3))
            std_pool = h.std(axis=(2, 3))
            features.append(np.concatenate([mean_pool, std_pool], axis=1))
        return np.concatenate(features, axis=0)


def compute_statistics(features: np.ndarray) -> FeatureStatistics:
    """Mean and covariance of a feature population."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError("features must be a 2-D array (samples, dims)")
    if features.shape[0] < 2:
        raise ValueError("need at least two samples to compute covariance")
    mean = features.mean(axis=0)
    cov = np.cov(features, rowvar=False)
    return FeatureStatistics(mean=mean, cov=np.atleast_2d(cov), num_samples=features.shape[0])


def frechet_distance(
    stats1: FeatureStatistics, stats2: FeatureStatistics, eps: float = 1e-6
) -> float:
    """Fréchet distance between two feature Gaussians."""
    mu1, mu2 = stats1.mean, stats2.mean
    cov1, cov2 = stats1.cov, stats2.cov
    diff = mu1 - mu2

    covmean = linalg.sqrtm(cov1 @ cov2)
    if not np.isfinite(covmean).all():
        offset = np.eye(cov1.shape[0]) * eps
        covmean = linalg.sqrtm((cov1 + offset) @ (cov2 + offset))
    covmean = np.real(covmean)

    fid = float(diff @ diff + np.trace(cov1) + np.trace(cov2) - 2.0 * np.trace(covmean))
    return max(fid, 0.0)


class FIDEvaluator:
    """Convenience wrapper that caches reference statistics per dataset."""

    def __init__(
        self, feature_extractor: RandomFeatureExtractor | None = None, scale: float = 100.0
    ):
        self.extractor = feature_extractor or RandomFeatureExtractor()
        self.scale = float(scale)
        self._reference: FeatureStatistics | None = None

    def set_reference(self, reference_images: np.ndarray) -> FeatureStatistics:
        """Compute and cache reference-set feature statistics."""
        self._reference = compute_statistics(self.extractor.extract(reference_images))
        return self._reference

    def set_reference_statistics(self, stats: FeatureStatistics) -> FeatureStatistics:
        """Adopt precomputed reference statistics (e.g. loaded from an artifact store)."""
        if not isinstance(stats, FeatureStatistics):
            raise TypeError(f"expected FeatureStatistics, got {type(stats).__name__}")
        self._reference = stats
        return self._reference

    def fid(self, generated_images: np.ndarray) -> float:
        """Proxy FID of generated images against the cached reference set.

        The raw Fréchet distance of the small random feature space is scaled
        by a fixed constant so values land in a range comparable to paper
        FID scores; only relative comparisons are meaningful.
        """
        if self._reference is None:
            raise RuntimeError("call set_reference() before fid()")
        stats = compute_statistics(self.extractor.extract(generated_images))
        return self.scale * frechet_distance(self._reference, stats)
