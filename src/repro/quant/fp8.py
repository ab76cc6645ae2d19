"""FP8 (E4M3 / E5M2) value rounding.

The paper's 4-bit format stores per-vector scale factors in FP8 (E4M3) to
"improve dynamic range of the representation" (Sec. III-A).  This module
implements round-to-nearest-even conversion of float64 arrays into the set of
representable FP8 values, so that scale factors in the INT4+FP8-scale format
carry realistic FP8 rounding error.
"""

from __future__ import annotations

import numpy as np

from .formats import FP8_E4M3, FP8_E5M2, FloatFormat, ScaleFormat


def _round_to_float_format(x: np.ndarray, fmt: FloatFormat) -> np.ndarray:
    """Round ``x`` to the nearest representable value of ``fmt``.

    Implements round-to-nearest with saturation to the format's maximum
    finite magnitude.  Subnormals are supported by flushing the exponent at
    the format's minimum normal exponent.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    nonzero = x != 0.0
    if not np.any(nonzero):
        return out

    max_value = fmt.max_value
    min_normal = fmt.min_normal
    mantissa_bits = fmt.mantissa_bits

    vals = x[nonzero]
    sign = np.sign(vals)
    mag = np.abs(vals)

    # Exponent of each value, clamped below at the minimum normal exponent so
    # that values below min_normal round onto the subnormal grid.
    exp = np.floor(np.log2(mag))
    exp = np.maximum(exp, np.log2(min_normal))
    # Quantization step in this binade: 2^(exp - mantissa_bits).
    step = np.exp2(exp - mantissa_bits)
    rounded = np.round(mag / step) * step
    rounded = np.minimum(rounded, max_value)
    out[nonzero] = sign * rounded
    return out


def round_to_fp8_e4m3(x: np.ndarray) -> np.ndarray:
    """Round to the FP8 E4M3 grid (max finite value 448, 3 mantissa bits)."""
    return _round_to_float_format(x, FP8_E4M3)


def round_to_fp8_e5m2(x: np.ndarray) -> np.ndarray:
    """Round to the FP8 E5M2 grid (wider range, 2 mantissa bits)."""
    return _round_to_float_format(x, FP8_E5M2)


def round_to_fp16(x: np.ndarray) -> np.ndarray:
    """Round to IEEE half precision via NumPy's native float16."""
    return np.asarray(x, dtype=np.float64).astype(np.float16).astype(np.float64)


def quantize_scales(scales: np.ndarray, scale_format: ScaleFormat) -> np.ndarray:
    """Round positive scale factors to their storage format.

    ``POW2`` rounds each scale up to the next power of two, matching the
    shared-exponent behaviour of MX block formats; ``FP32`` keeps them.
    """
    scales = np.asarray(scales, dtype=np.float64)
    if scale_format is ScaleFormat.FP32:
        return scales
    if scale_format is ScaleFormat.FP16:
        return np.maximum(round_to_fp16(scales), np.finfo(np.float16).tiny)
    if scale_format is ScaleFormat.FP8_E4M3:
        return np.maximum(round_to_fp8_e4m3(scales), FP8_E4M3.min_normal / 8.0)
    if scale_format is ScaleFormat.POW2:
        safe = np.maximum(scales, 1e-30)
        return np.exp2(np.ceil(np.log2(safe)))
    raise ValueError(f"unknown scale format: {scale_format!r}")
