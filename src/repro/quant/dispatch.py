"""Apply a format spec to a tensor: the entry points the quantized layers call.

The rest of the library (quantized layers, mixed-precision policies,
sensitivity sweeps) only needs "apply the numerical error of format F to
tensor X".  FP32 is the identity and FP16 rounds through NumPy's float16;
every integer format goes through the one arithmetic,
:func:`repro.quant.uniform.fake_quantize`.  This module only decides which
axes a weight or an activation shares its scales over.
"""

from __future__ import annotations

import numpy as np

from .formats import QuantFormatSpec
from .fp8 import round_to_fp16
from .uniform import fake_quantize


def apply_format(x: np.ndarray, spec: QuantFormatSpec, channel_axis: int = 0) -> np.ndarray:
    """Return ``x`` carrying the quantization error of ``spec``.

    FP32 is the identity and FP16 rounds through float16.  A per-channel
    integer format keeps one scale per index of ``channel_axis``; per-block
    and per-vector formats block the last axis.
    """
    x = np.asarray(x, dtype=np.float64)
    if not spec.is_quantized:
        return x if spec.storage_bits >= 32 else round_to_fp16(x)
    return fake_quantize(x, spec, channel_axis)


def apply_weight_format(
    weight: np.ndarray, spec: QuantFormatSpec, out_channel_axis: int = 0
) -> np.ndarray:
    """Quantize a weight tensor under ``spec``.

    Coarse-grained formats (the plain INT8/INT4 rows of Table I) use one
    scale per *output channel*, the standard practice for weight
    quantization.  Fine-grained formats (MX / VS-Quant / the paper's
    INT4+FP8-scale) place their shared-scale blocks along the reduction
    dimension, i.e. the flattened (in_channels, kH, kW) axes.
    """
    weight = np.asarray(weight, dtype=np.float64)
    if not spec.is_quantized or not spec.granularity.blocked:
        # Coarse weights: one scale per output channel.
        return apply_format(weight, spec, channel_axis=out_channel_axis)
    moved = np.moveaxis(weight, out_channel_axis, 0)
    out = fake_quantize(moved.reshape(moved.shape[0], -1), spec)
    return np.moveaxis(out.reshape(moved.shape), 0, out_channel_axis)


def apply_activation_format(x: np.ndarray, spec: QuantFormatSpec, channel_axis: int) -> np.ndarray:
    """Quantize an activation tensor under ``spec``.

    Fine-grained formats share scales over short blocks along the reduction
    (input-channel) dimension, and their result is contiguous along
    ``channel_axis``: an NCHW view of channels-last memory for a convolution
    input.  A coarse result keeps the layout of ``x``.
    """
    x = np.asarray(x, dtype=np.float64)
    if not spec.is_quantized:
        return apply_format(x, spec)
    if not spec.granularity.blocked:
        # Coarse INT8/INT4 activations use one per-tensor scale: per-channel
        # activation scales cannot be folded into a standard GEMM, so real
        # deployments scale per tensor -- which is what makes those Table I
        # rows degrade so badly in the presence of activation outliers.
        return fake_quantize(x, spec, channel_axis=None)
    out = fake_quantize(np.moveaxis(x, channel_axis, -1), spec)
    return np.moveaxis(out, -1, channel_axis)
