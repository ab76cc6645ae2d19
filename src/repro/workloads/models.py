"""Model zoo: the four EDM workloads evaluated in the paper.

The paper evaluates EDM1 trained on CIFAR-10, AFHQv2 and FFHQ, and EDM2
trained on ImageNet.  This module builds U-Nets with per-dataset
configurations and — because no pretrained checkpoints are available —
*calibrates their synthetic weights* so the statistical properties that
drive every result in the paper are present:

* **Activation outliers.**  Trained diffusion U-Nets exhibit heavy-tailed
  activations (the reason SVDquant needs smoothing/low-rank branches and the
  reason coarse-grained INT8/INT4 degrade badly in Table I).  We reproduce
  this by giving a small fraction of GroupNorm gains and conv filters
  outlier magnitudes drawn from a log-normal tail.
* **Boundary-block sensitivity.**  The paper's Fig. 3 finds the first and
  last few blocks most quantization-sensitive; these blocks operate closest
  to pixel space and carry the largest dynamic range.  Outlier strength is
  therefore scheduled to be strongest at the first/last blocks and mildest
  in the middle of the U-Net.
* **Sparsity-relevant channel offsets.**  ReLU-induced per-channel sparsity
  (Sec. III-C, ~65% average) requires channels whose pre-activation mean is
  biased negative to varying degrees, and a time-step-dependent shift via
  the noise-level embedding so that sparse channels become dense over the
  sampling trajectory and vice versa (Fig. 7).  GroupNorm shifts and the
  per-block embedding projections are calibrated accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..diffusion.datasets import SyntheticImageDataset, load_dataset
from ..diffusion.edm import EDMDenoiser
from ..nn.unet import EDMUNet, UNetConfig


@dataclass(frozen=True)
class WorkloadSpec:
    """U-Net configuration and calibration knobs for one paper workload."""

    dataset: str
    model_name: str
    model_channels: int
    channel_mult: tuple[int, ...]
    num_blocks_per_res: int
    attn_resolutions: tuple[int, ...]
    outlier_fraction: float = 0.04
    outlier_magnitude: float = 8.0
    boundary_sensitivity: float = 3.0
    sparsity_bias_mean: float = -0.35
    sparsity_bias_std: float = 0.65
    temporal_shift_scale: float = 0.5
    seed: int = 0


#: The four paper workloads.  Channel counts are scaled down from the real
#: EDM1/EDM2 models so that full sampling sweeps run on a CPU, but the
#: relative model sizes (ImageNet > FFHQ/AFHQ > CIFAR) are preserved.
WORKLOAD_SPECS: dict[str, WorkloadSpec] = {
    "cifar10": WorkloadSpec(
        dataset="cifar10",
        model_name="EDM1",
        model_channels=16,
        channel_mult=(1, 2),
        num_blocks_per_res=2,
        attn_resolutions=(8,),
        seed=11,
    ),
    "afhqv2": WorkloadSpec(
        dataset="afhqv2",
        model_name="EDM1",
        model_channels=16,
        channel_mult=(1, 2, 2),
        num_blocks_per_res=1,
        attn_resolutions=(8,),
        seed=12,
    ),
    "ffhq": WorkloadSpec(
        dataset="ffhq",
        model_name="EDM1",
        model_channels=16,
        channel_mult=(1, 2, 2),
        num_blocks_per_res=1,
        attn_resolutions=(8,),
        outlier_magnitude=10.0,
        seed=13,
    ),
    "imagenet": WorkloadSpec(
        dataset="imagenet",
        model_name="EDM2",
        model_channels=24,
        channel_mult=(1, 2, 2),
        num_blocks_per_res=1,
        attn_resolutions=(8, 4),
        outlier_magnitude=6.0,
        seed=14,
    ),
}


@dataclass
class Workload:
    """A ready-to-run workload: dataset, calibrated U-Net and hybrid denoiser."""

    spec: WorkloadSpec
    dataset: SyntheticImageDataset
    unet: EDMUNet
    denoiser: EDMDenoiser = field(init=False)

    def __post_init__(self) -> None:
        self.denoiser = EDMDenoiser(self.unet, prior=self.dataset.prior)

    @property
    def name(self) -> str:
        return self.spec.dataset

    @property
    def label(self) -> str:
        return self.dataset.label

    @property
    def image_shape(self) -> tuple[int, int, int]:
        return self.dataset.image_shape


def _block_boundary_weight(order: int, total: int, strength: float) -> float:
    """Outlier-strength multiplier per block: large at both ends, ~1 in the middle.

    Uses a symmetric quadratic bowl over the execution order so the first and
    last blocks receive ``strength`` times the baseline outlier magnitude,
    reproducing the sensitivity profile of Fig. 3.
    """
    if total <= 1:
        return strength
    position = order / (total - 1)
    bowl = 4.0 * (position - 0.5) ** 2  # 1 at the ends, 0 in the middle
    return 1.0 + (strength - 1.0) * bowl


def _inject_weight_outliers(
    weight: np.ndarray, fraction: float, magnitude: float, rng: np.random.Generator
) -> np.ndarray:
    """Scale a random subset of output filters by log-normal outlier factors."""
    out_channels = weight.shape[0]
    num_outliers = max(1, int(round(fraction * out_channels)))
    idx = rng.choice(out_channels, size=num_outliers, replace=False)
    factors = magnitude * rng.lognormal(mean=0.0, sigma=0.35, size=num_outliers)
    weight = weight.copy()
    weight[idx] *= factors.reshape(-1, *([1] * (weight.ndim - 1)))
    return weight


def _calibrate_block(
    block, boundary_weight: float, spec: WorkloadSpec, rng: np.random.Generator
) -> None:
    """Apply outlier, sparsity-offset and temporal-shift calibration to one block."""
    for conv in (block.conv0, block.conv1):
        conv.weight = _inject_weight_outliers(
            conv.weight, spec.outlier_fraction, spec.outlier_magnitude * boundary_weight, rng
        )
    # GroupNorm gains: mostly ~1 with a heavy-tailed subset of outlier channels.
    for norm in (block.norm0, block.norm1):
        gains = rng.lognormal(mean=0.0, sigma=0.25, size=norm.num_channels)
        outliers = rng.random(norm.num_channels) < spec.outlier_fraction
        gains[outliers] *= spec.outlier_magnitude * boundary_weight * 0.5
        norm.gamma = gains
        # Channel shifts: negative-mean spread controls ReLU per-channel sparsity.
        norm.beta = rng.normal(spec.sparsity_bias_mean, spec.sparsity_bias_std, norm.num_channels)
    # Embedding projection: gives each channel a noise-level-dependent shift so
    # per-channel sparsity evolves across time steps (temporal sparsity, Fig. 7).
    emb = block.emb_linear
    emb.weight = rng.normal(
        0.0, spec.temporal_shift_scale / np.sqrt(emb.in_features), emb.weight.shape
    )
    emb.bias = rng.normal(0.0, 0.1, emb.out_features)


def build_unet(spec: WorkloadSpec, resolution: int, activation: str = "silu") -> EDMUNet:
    """Construct and calibrate the U-Net for a workload at the given resolution."""
    config = UNetConfig(
        img_resolution=resolution,
        model_channels=spec.model_channels,
        channel_mult=spec.channel_mult,
        num_blocks_per_res=spec.num_blocks_per_res,
        attn_resolutions=spec.attn_resolutions,
        activation=activation,
        seed=spec.seed,
    )
    unet = EDMUNet(config)
    rng = np.random.default_rng(spec.seed + 1000)
    infos = unet.block_infos()
    total = len(infos)
    for info in infos:
        boundary = _block_boundary_weight(info.order, total, spec.boundary_sensitivity)
        _calibrate_block(info.block, boundary, spec, rng)
    # Stem convolutions sit directly in pixel space: give them the strongest
    # outliers, mirroring the high sensitivity of the first/last layers.
    unet.conv_in.weight = _inject_weight_outliers(
        unet.conv_in.weight,
        spec.outlier_fraction,
        spec.outlier_magnitude * spec.boundary_sensitivity,
        rng,
    )
    unet.conv_out.weight = _inject_weight_outliers(
        unet.conv_out.weight,
        spec.outlier_fraction,
        spec.outlier_magnitude * spec.boundary_sensitivity,
        rng,
    )
    return unet


def load_workload(
    name: str,
    paper_resolution: bool = False,
    resolution: int | None = None,
    activation: str = "silu",
) -> Workload:
    """Build one of the four paper workloads (dataset + calibrated U-Net + denoiser)."""
    try:
        spec = WORKLOAD_SPECS[name]
    except KeyError as exc:
        raise KeyError(f"unknown workload {name!r}; available: {sorted(WORKLOAD_SPECS)}") from exc
    dataset = load_dataset(spec.dataset, paper_resolution=paper_resolution, resolution=resolution)
    unet = build_unet(spec, dataset.resolution, activation=activation)
    return Workload(spec=spec, dataset=dataset, unet=unet)


def workload_names() -> list[str]:
    """Workload names in the paper's table column order."""
    return ["cifar10", "afhqv2", "ffhq", "imagenet"]
