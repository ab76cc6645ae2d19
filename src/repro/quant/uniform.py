"""Uniform symmetric quantization primitives.

Implements the quantization formula from Section II-A of the paper::

    x_hat = round(x / s_x),   s_x = max(|x|) / q_max

with the ``max`` operator taken at per-tensor, per-channel or per-vector
granularity.  Quantize/dequantize round-trips ("fake quantization") are used
throughout the reproduction to inject the numerical error of a given data
format into the NumPy diffusion model, exactly as scaled quantization would
on real hardware.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .formats import IntegerFormat, ScaleGranularity

#: Numerical floor for scale factors, so all-zero tensors quantize to zeros
#: instead of producing divisions by zero.
_SCALE_EPS = 1e-12


@dataclass
class QuantizedTensor:
    """A tensor stored as integer codes plus scale factors.

    Attributes
    ----------
    codes:
        Integer codes, same shape as the original tensor.
    scales:
        Scale factors, broadcastable against ``codes``.
    fmt:
        The integer container format of the codes.
    axis:
        Channel axis used for per-channel/per-vector scaling, or ``None``
        for per-tensor scaling.
    """

    codes: np.ndarray
    scales: np.ndarray
    fmt: IntegerFormat
    axis: int | None = None

    def dequantize(self) -> np.ndarray:
        """Reconstruct the floating-point tensor from codes and scales."""
        return self.codes.astype(np.float64, copy=False) * self.scales

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(self.codes.shape)

    def density(self) -> float:
        """Fraction of non-zero codes (1.0 - sparsity)."""
        if self.codes.size == 0:
            return 0.0
        return float(np.count_nonzero(self.codes)) / float(self.codes.size)


def _amax(x: np.ndarray, axis=None, keepdims: bool = False) -> np.ndarray:
    """Max absolute value with a numerical floor to avoid zero scales."""
    amax = np.max(np.abs(x), axis=axis, keepdims=keepdims)
    return np.maximum(amax, _SCALE_EPS)


def compute_scale(
    x: np.ndarray,
    fmt: IntegerFormat,
    granularity: ScaleGranularity = ScaleGranularity.PER_TENSOR,
    axis: int = 0,
    block_size: int = 16,
) -> np.ndarray:
    """Compute symmetric quantization scale factors ``s_x = max(|x|)/q_max``.

    Parameters
    ----------
    x:
        Input tensor.
    fmt:
        Target integer format (defines ``q_max``).
    granularity:
        Scale granularity.  ``PER_CHANNEL`` reduces over all axes except
        ``axis``.  ``PER_VECTOR`` splits the last axis into contiguous
        vectors of ``block_size`` elements and assigns one scale per vector.
    axis:
        Channel axis for per-channel scaling.
    block_size:
        Vector length for per-vector scaling.
    """
    qmax = float(fmt.qmax)
    if granularity is ScaleGranularity.PER_TENSOR:
        return np.asarray(_amax(x) / qmax)
    if granularity is ScaleGranularity.PER_CHANNEL:
        reduce_axes = tuple(i for i in range(x.ndim) if i != axis % x.ndim)
        return _amax(x, axis=reduce_axes, keepdims=True) / qmax
    if granularity in (ScaleGranularity.PER_VECTOR, ScaleGranularity.PER_BLOCK):
        padded, n_blocks = _pad_last_axis(x, block_size)
        blocked = padded.reshape(*padded.shape[:-1], n_blocks, block_size)
        scales = _amax(blocked, axis=-1, keepdims=True) / qmax
        return scales
    raise ValueError(f"unsupported granularity: {granularity}")


def _pad_last_axis(x: np.ndarray, block_size: int) -> tuple[np.ndarray, int]:
    """Pad the last axis of ``x`` with zeros to a multiple of ``block_size``."""
    if block_size <= 0:
        raise ValueError("block_size must be positive")
    length = x.shape[-1]
    n_blocks = (length + block_size - 1) // block_size
    padded_len = n_blocks * block_size
    if padded_len == length:
        return x, n_blocks
    pad_width = [(0, 0)] * (x.ndim - 1) + [(0, padded_len - length)]
    return np.pad(x, pad_width, mode="constant"), n_blocks


def quantize(
    x: np.ndarray,
    fmt: IntegerFormat,
    granularity: ScaleGranularity = ScaleGranularity.PER_TENSOR,
    axis: int = 0,
    block_size: int = 16,
) -> QuantizedTensor:
    """Quantize ``x`` to integer codes under uniform symmetric quantization.

    For unsigned formats the input is clipped at zero first (negative values
    cannot be represented), which models UINT4 quantization of ReLU outputs.
    """
    x = np.asarray(x, dtype=np.float64)
    if not fmt.signed:
        x = np.maximum(x, 0.0)

    if granularity in (ScaleGranularity.PER_VECTOR, ScaleGranularity.PER_BLOCK):
        return _quantize_per_vector(x, fmt, block_size)

    scales = compute_scale(x, fmt, granularity, axis=axis, block_size=block_size)
    codes = np.clip(np.round(x / scales), fmt.qmin, fmt.qmax)
    return QuantizedTensor(codes=codes, scales=scales, fmt=fmt, axis=axis)


def _quantize_per_vector(x: np.ndarray, fmt: IntegerFormat, block_size: int) -> QuantizedTensor:
    """Per-vector quantization along the last axis (VS-Quant style)."""
    original_length = x.shape[-1]
    padded, n_blocks = _pad_last_axis(x, block_size)
    blocked = padded.reshape(*padded.shape[:-1], n_blocks, block_size)
    scales = _amax(blocked, axis=-1, keepdims=True) / float(fmt.qmax)
    codes_blocked = np.clip(np.round(blocked / scales), fmt.qmin, fmt.qmax)
    codes = codes_blocked.reshape(*padded.shape)[..., :original_length]
    scales_full = np.broadcast_to(scales, blocked.shape).reshape(*padded.shape)[
        ..., :original_length
    ]
    return QuantizedTensor(codes=codes, scales=np.array(scales_full), fmt=fmt, axis=None)


def dequantize(qt: QuantizedTensor) -> np.ndarray:
    """Convenience wrapper around :meth:`QuantizedTensor.dequantize`."""
    return qt.dequantize()


def fake_quantize(
    x: np.ndarray,
    fmt: IntegerFormat,
    granularity: ScaleGranularity = ScaleGranularity.PER_TENSOR,
    axis: int = 0,
    block_size: int = 16,
) -> np.ndarray:
    """Quantize then immediately dequantize ``x`` (quantization error injection).

    This is the standard "fake quant" operation used for post-training
    quantization studies: the returned tensor is floating point but carries
    exactly the rounding/clipping error of the target format.
    """
    qt = quantize(x, fmt, granularity=granularity, axis=axis, block_size=block_size)
    out = qt.dequantize()
    return out.reshape(x.shape)


def used_levels(
    x: np.ndarray,
    fmt: IntegerFormat,
    granularity: ScaleGranularity = ScaleGranularity.PER_TENSOR,
) -> int:
    """Count how many distinct quantization levels of ``fmt`` the data uses.

    Reproduces the Fig. 6 analysis: SiLU outputs over x in [-1, 1] occupy
    only 10 of the 16 signed INT4 levels, whereas ReLU outputs occupy all 16
    UINT4 levels.
    """
    qt = quantize(x, fmt, granularity=granularity)
    return int(np.unique(qt.codes).size)
