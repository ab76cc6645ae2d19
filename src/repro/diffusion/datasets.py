"""Synthetic stand-ins for the paper's four image datasets.

The paper evaluates EDM1 on CIFAR-10 (32x32), AFHQv2 (64x64) and FFHQ
(64x64), and EDM2 on ImageNet.  None of those datasets (nor the pretrained
checkpoints) can be shipped here, so each dataset is replaced by a synthetic
Gaussian-mixture image distribution whose parameters loosely mirror the
original's structure: number of modes (classes), spatial resolution and
texture smoothness.  The corresponding analytic prior doubles as the
"perfectly trained" denoiser (see :mod:`repro.diffusion.prior`).

Resolutions default to scaled-down values so that the full evaluation runs on
a CPU in seconds; the full paper resolutions are available via
``paper_resolution=True``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .prior import GaussianMixturePrior, make_smooth_templates


@dataclass(frozen=True)
class DatasetSpec:
    """Static description of one synthetic dataset."""

    name: str
    resolution: int
    paper_resolution: int
    channels: int
    num_classes: int
    smoothness: float
    template_amplitude: float
    component_std: float
    conditional: bool
    seed: int


#: The four workloads evaluated in Tables I/II and Figs. 1/12 of the paper.
DATASET_SPECS: dict[str, DatasetSpec] = {
    "cifar10": DatasetSpec(
        name="cifar10",
        resolution=16,
        paper_resolution=32,
        channels=3,
        num_classes=10,
        smoothness=4.0,
        template_amplitude=0.45,
        component_std=0.25,
        conditional=False,
        seed=101,
    ),
    "afhqv2": DatasetSpec(
        name="afhqv2",
        resolution=16,
        paper_resolution=64,
        channels=3,
        num_classes=3,
        smoothness=6.0,
        template_amplitude=0.5,
        component_std=0.22,
        conditional=False,
        seed=102,
    ),
    "ffhq": DatasetSpec(
        name="ffhq",
        resolution=16,
        paper_resolution=64,
        channels=3,
        num_classes=6,
        smoothness=5.0,
        template_amplitude=0.5,
        component_std=0.2,
        conditional=False,
        seed=103,
    ),
    "imagenet": DatasetSpec(
        name="imagenet",
        resolution=16,
        paper_resolution=64,
        channels=3,
        num_classes=16,
        smoothness=3.5,
        template_amplitude=0.5,
        component_std=0.28,
        conditional=True,
        seed=104,
    ),
}

#: Human-readable workload labels as they appear in the paper's tables.
DATASET_LABELS: dict[str, str] = {
    "cifar10": "EDM1, CIFAR-10",
    "afhqv2": "EDM1, AFHQv2",
    "ffhq": "EDM1, FFHQ",
    "imagenet": "EDM2, ImageNet",
}


class SyntheticImageDataset:
    """A synthetic image distribution with an analytic prior.

    Provides reference samples (for FID statistics) and the matching
    :class:`~repro.diffusion.prior.GaussianMixturePrior` used by the hybrid
    denoiser.
    """

    def __init__(
        self, spec: DatasetSpec, paper_resolution: bool = False, resolution: int | None = None
    ):
        self.spec = spec
        if resolution is not None:
            self.resolution = int(resolution)
        else:
            self.resolution = spec.paper_resolution if paper_resolution else spec.resolution
        self.image_shape = (spec.channels, self.resolution, self.resolution)
        rng = np.random.default_rng(spec.seed)
        means = make_smooth_templates(
            spec.num_classes,
            self.image_shape,
            smoothness=spec.smoothness,
            amplitude=spec.template_amplitude,
            rng=rng,
        )
        self.prior = GaussianMixturePrior(
            means=means,
            component_std=spec.component_std,
            image_shape=self.image_shape,
        )

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def label(self) -> str:
        return DATASET_LABELS[self.spec.name]

    @property
    def num_classes(self) -> int:
        return self.spec.num_classes

    def sigma_data(self) -> float:
        """EDM's data standard deviation for this dataset."""
        return self.prior.data_std()

    def reference_samples(self, num_samples: int, seed: int = 0) -> np.ndarray:
        """Draw reference images from the data distribution (for FID stats)."""
        rng = np.random.default_rng(seed)
        return self.prior.sample(num_samples, rng)


def load_dataset(
    name: str, paper_resolution: bool = False, resolution: int | None = None
) -> SyntheticImageDataset:
    """Instantiate one of the four synthetic workload datasets by name."""
    try:
        spec = DATASET_SPECS[name]
    except KeyError as exc:
        raise KeyError(f"unknown dataset {name!r}; available: {sorted(DATASET_SPECS)}") from exc
    return SyntheticImageDataset(spec, paper_resolution=paper_resolution, resolution=resolution)


def dataset_names() -> list[str]:
    """The four workload names in the paper's table order."""
    return ["cifar10", "afhqv2", "ffhq", "imagenet"]
