"""SiLU → ReLU model adaptation.

The paper replaces every Conv+SiLU block with Conv+ReLU and finetunes the
full-precision model (at <10% of the pretraining cost) so that the ReLU-based
model reaches the same image quality while (a) making activations
non-negative — so UINT4 uses all 16 quantization levels (Fig. 6) — and
(b) inducing ~65% average activation sparsity (Sec. III-C).

Without a training pipeline, the reproduction performs a calibration-based
adaptation instead: activations are swapped to ReLU and each convolution's
weights and biases are rescaled per output channel so that its output
statistics (per-channel mean and standard deviation over a calibration batch)
match the original SiLU model's.  This keeps the downstream activation
distributions — and therefore the quantization and sparsity behaviour the
rest of the study depends on — aligned with the SiLU baseline.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from ..nn.layers import Conv2d
from ..nn.unet import BLOCK_CONV, EDMUNet


@dataclass
class CalibrationBatch:
    """Inputs used to drive calibration forward passes."""

    images: np.ndarray
    noise_cond: np.ndarray
    labels: np.ndarray | None = None


@dataclass
class AdaptationReport:
    """Summary of the SiLU→ReLU adaptation."""

    adjusted_convs: int
    mean_output_shift: float
    mean_scale: float


def _per_channel_stats(activation: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-output-channel mean and std of an NCHW activation."""
    flat = np.moveaxis(activation, 1, 0).reshape(activation.shape[1], -1)
    return flat.mean(axis=1), flat.std(axis=1)


def _collect_conv_stats(
    model: EDMUNet, batch: CalibrationBatch
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Run the model; per-channel output stats of every Conv+Act conv, by layer name."""
    model.set_recording(True)
    try:
        model(batch.images, batch.noise_cond, batch.labels)
        return {
            layer.name: _per_channel_stats(layer.module.last_output)
            for layer in model.layers()
            if layer.category == BLOCK_CONV and layer.module.last_output is not None
        }
    finally:
        model.set_recording(False)


def _match_conv_to_reference(
    conv: Conv2d, current: tuple[np.ndarray, np.ndarray], reference: tuple[np.ndarray, np.ndarray]
) -> tuple[float, float]:
    """Rescale a convolution so its output stats match the reference stats.

    Output ``y`` of a conv with weight ``w`` and bias ``b`` transforms as
    ``y' = a * (y - m_cur) + m_ref`` when ``w' = a*w`` and
    ``b' = a*(b - m_cur) + m_ref`` (per output channel), which maps the
    current per-channel mean/std onto the reference's.
    """
    cur_mean, cur_std = current
    ref_mean, ref_std = reference
    scale = ref_std / np.maximum(cur_std, 1e-6)
    scale = np.clip(scale, 0.25, 4.0)  # keep the adaptation a gentle correction
    conv.weight = conv.weight * scale[:, None, None, None]
    if conv.bias is not None:
        conv.bias = scale * (conv.bias - cur_mean) + ref_mean
    return float(np.mean(np.abs(ref_mean - cur_mean))), float(np.mean(scale))


def adapt_to_relu(
    model: EDMUNet, calibration: CalibrationBatch, num_passes: int = 2
) -> tuple[EDMUNet, AdaptationReport]:
    """Produce a ReLU-based copy of ``model`` calibrated to match its behaviour.

    Parameters
    ----------
    model:
        The original SiLU-based U-Net (left unmodified).
    calibration:
        A small batch of representative noisy inputs and noise conditioning.
    num_passes:
        Number of calibration refinement passes; each pass re-measures the
        ReLU model's statistics after the previous corrections.

    Returns
    -------
    The adapted ReLU model and a report of the adjustment magnitudes.
    """
    reference_stats = _collect_conv_stats(model, calibration)

    relu_model = copy.deepcopy(model)
    relu_model.set_activation("relu")
    modules = {layer.name: layer.module for layer in relu_model.layers()}

    shifts: list[float] = []
    scales: list[float] = []
    for _ in range(max(num_passes, 1)):
        current_stats = _collect_conv_stats(relu_model, calibration)
        shifts.clear()
        scales.clear()
        for name, current in current_stats.items():
            if name not in reference_stats:
                continue
            shift, scale = _match_conv_to_reference(modules[name], current, reference_stats[name])
            shifts.append(shift)
            scales.append(scale)

    report = AdaptationReport(
        adjusted_convs=len(scales),
        mean_output_shift=float(np.mean(shifts)) if shifts else 0.0,
        mean_scale=float(np.mean(scales)) if scales else 1.0,
    )
    return relu_model, report


def make_calibration_batch(
    image_shape: tuple[int, int, int],
    batch_size: int = 4,
    sigma: float = 1.0,
    sigma_data: float = 0.5,
    label_dim: int = 0,
    seed: int = 0,
) -> CalibrationBatch:
    """Build a calibration batch of noisy inputs at a representative noise level."""
    rng = np.random.default_rng(seed)
    c_in = 1.0 / np.sqrt(sigma**2 + sigma_data**2)
    c_noise = np.log(max(sigma, 1e-12)) / 4.0
    images = rng.normal(size=(batch_size, *image_shape)) * sigma * c_in
    noise_cond = np.full(batch_size, c_noise)
    labels = None
    if label_dim > 0:
        labels = np.zeros((batch_size, label_dim))
        labels[np.arange(batch_size), rng.integers(0, label_dim, batch_size)] = 1.0
    return CalibrationBatch(images=images, noise_cond=noise_cond, labels=labels)
