"""Activation distribution and quantization-level-utilization analysis (Figs. 5 and 6).

Two observations motivate the SiLU→ReLU swap:

* **Fig. 5**: the output distribution of Conv+SiLU spans ``[-0.278, inf)``
  whereas Conv+ReLU spans ``[0, inf)`` — the small negative range forces a
  signed activation format.
* **Fig. 6**: for inputs in ``[-1, 1]``, SiLU outputs occupy only 10 of the
  16 signed-INT4 levels; ReLU outputs occupy all 16 UINT4 levels, so the
  unsigned format wastes no codes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..nn import functional as F
from ..nn.layers import Activation
from ..nn.unet import EDMUNet
from ..quant.formats import INT4, UINT4, IntegerFormat
from ..quant.uniform import used_levels


@dataclass
class ActivationDistribution:
    """Summary statistics of an activation population (one Fig. 5 panel)."""

    activation: str
    minimum: float
    maximum: float
    mean: float
    std: float
    negative_fraction: float
    zero_fraction: float
    histogram: np.ndarray
    bin_edges: np.ndarray


def distribution_summary(
    values: np.ndarray, activation: str, bins: int = 64
) -> ActivationDistribution:
    """Histogram + summary statistics of a flattened activation tensor."""
    flat = np.asarray(values, dtype=np.float64).ravel()
    histogram, bin_edges = np.histogram(flat, bins=bins)
    return ActivationDistribution(
        activation=activation,
        minimum=float(flat.min()) if flat.size else 0.0,
        maximum=float(flat.max()) if flat.size else 0.0,
        mean=float(flat.mean()) if flat.size else 0.0,
        std=float(flat.std()) if flat.size else 0.0,
        negative_fraction=float(np.mean(flat < 0)) if flat.size else 0.0,
        zero_fraction=float(np.mean(flat == 0)) if flat.size else 0.0,
        histogram=histogram,
        bin_edges=bin_edges,
    )


def compare_activation_distributions(
    model: EDMUNet,
    relu_model: EDMUNet,
    block_name: str | None = None,
    batch: int = 2,
    seed: int = 0,
) -> tuple[ActivationDistribution, ActivationDistribution]:
    """Fig. 5: distribution of one Conv+SiLU layer's output vs its Conv+ReLU twin.

    Both models are driven with the same noisy input; the recorded tensor is
    the non-linearity output of the selected block (the convolution input the
    accelerator consumes).
    """
    rng = np.random.default_rng(seed)
    shape = (
        batch,
        model.config.in_channels,
        model.config.img_resolution,
        model.config.img_resolution,
    )
    x = rng.normal(size=shape)
    noise_cond = np.full(batch, 0.1)

    infos = model.block_infos()
    target = block_name or infos[len(infos) // 2].name

    outputs = []
    for candidate in (model, relu_model):
        candidate.set_recording(True)
        try:
            candidate(x, noise_cond)
            block = candidate.get_block(target)
            recorded = block.act1.last_output
            if recorded is None:
                raise RuntimeError(f"block {target!r} recorded no activation output")
            outputs.append(recorded)
        finally:
            candidate.set_recording(False)
    silu_summary = distribution_summary(outputs[0], activation=model.config.activation)
    relu_summary = distribution_summary(outputs[1], activation=relu_model.config.activation)
    return silu_summary, relu_summary


@dataclass
class LevelUtilization:
    """How many quantization levels a (activation fn, format) pair uses (Fig. 6)."""

    activation: str
    format_name: str
    levels_used: int
    levels_available: int

    @property
    def utilization(self) -> float:
        return self.levels_used / self.levels_available


def quantization_level_utilization(
    activation: str,
    fmt: IntegerFormat,
    input_range: tuple[float, float] = (-1.0, 1.0),
    num_points: int = 20001,
) -> LevelUtilization:
    """Count the distinct codes used when quantizing activation(x) over an input range.

    With ``x`` in [-1, 1]: SiLU's output lies in [-0.269, 0.731], which maps
    onto only 10 of the 16 signed INT4 codes; ReLU's output lies in [0, 1]
    and uses all 16 UINT4 codes.
    """
    x = np.linspace(input_range[0], input_range[1], num_points)
    values = F.activation_fn(activation)(x)
    levels = used_levels(values, fmt)
    return LevelUtilization(
        activation=activation,
        format_name=fmt.name,
        levels_used=levels,
        levels_available=fmt.num_levels,
    )


def silu_vs_relu_level_utilization() -> tuple[LevelUtilization, LevelUtilization]:
    """The exact Fig. 6 comparison: SiLU/INT4 versus ReLU/UINT4."""
    return (
        quantization_level_utilization("silu", INT4),
        quantization_level_utilization("relu", UINT4),
    )


def silu_minimum() -> float:
    """The minimum of SiLU(x), approximately -0.278 (quoted in Sec. III-B)."""
    return float(F.SILU_MIN)


def measure_model_sparsity(
    model: EDMUNet, batch: int = 2, zero_tolerance_rel: float = 0.0, seed: int = 0
) -> float:
    """Average activation sparsity of a model on random noisy inputs.

    Used to reproduce the Sec. III-C claim: ~10% for the SiLU model under a
    quantization-aware zero tolerance, ~65% for the ReLU model.
    """
    rng = np.random.default_rng(seed)
    shape = (
        batch,
        model.config.in_channels,
        model.config.img_resolution,
        model.config.img_resolution,
    )
    x = rng.normal(size=shape)
    model.set_recording(True)
    try:
        model(x, np.full(batch, 0.1))
        values = []
        for module in model.modules():
            if (
                isinstance(module, Activation)
                and module.last_output is not None
                and module.last_output.ndim == 4
            ):
                out = module.last_output
                tol = 0.0
                if zero_tolerance_rel > 0:
                    tol = zero_tolerance_rel * float(np.max(np.abs(out)))
                values.append(float(np.mean(np.abs(out) <= tol)))
    finally:
        model.set_recording(False)
    return float(np.mean(values)) if values else 0.0
