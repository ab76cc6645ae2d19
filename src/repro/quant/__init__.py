"""Quantization format substrate for the SQ-DM reproduction.

Public surface:

* :mod:`repro.quant.formats` -- format descriptors (INT4, UINT4, INT8, MXINT8,
  INT4-VSQ, INT4+FP8-scale, FP16, FP32); :class:`QuantFormatSpec` is the
  only description of a format.
* :mod:`repro.quant.uniform` -- the one quantize/dequantize arithmetic, with
  per-tensor, per-channel, per-block and per-vector scales.
* :mod:`repro.quant.fp8` -- FP8/FP16/power-of-two rounding of scale factors.
* :mod:`repro.quant.dispatch` -- apply any format spec to a weight or an
  activation.
* :mod:`repro.quant.metrics` -- quantization error and sparsity metrics.
"""

from .dispatch import apply_activation_format, apply_format, apply_weight_format
from .formats import (
    FP8_E4M3,
    FP8_E5M2,
    FP16,
    FP32,
    INT4,
    INT8,
    TABLE1_FORMATS,
    UINT4,
    UINT8,
    FloatFormat,
    IntegerFormat,
    QuantFormatSpec,
    ScaleFormat,
    ScaleGranularity,
    fp16_spec,
    fp32_spec,
    get_format,
    int4_fp8_spec,
    int4_spec,
    int4_vsq_spec,
    int8_spec,
    mxint8_spec,
    uint4_fp8_spec,
)
from .fp8 import quantize_scales, round_to_fp8_e4m3, round_to_fp8_e5m2, round_to_fp16
from .metrics import (
    cosine_similarity,
    max_abs_error,
    mse,
    per_channel_sparsity,
    rmse,
    sparsity,
    sqnr_db,
)
from .uniform import fake_quantize, quantize, used_levels

__all__ = [
    "FP8_E4M3",
    "FP8_E5M2",
    "FP16",
    "FP32",
    "INT4",
    "INT8",
    "TABLE1_FORMATS",
    "UINT4",
    "UINT8",
    "FloatFormat",
    "IntegerFormat",
    "QuantFormatSpec",
    "ScaleFormat",
    "ScaleGranularity",
    "apply_activation_format",
    "apply_format",
    "apply_weight_format",
    "cosine_similarity",
    "fake_quantize",
    "fp16_spec",
    "fp32_spec",
    "get_format",
    "int4_fp8_spec",
    "int4_spec",
    "int4_vsq_spec",
    "int8_spec",
    "max_abs_error",
    "mse",
    "mxint8_spec",
    "per_channel_sparsity",
    "quantize",
    "quantize_scales",
    "rmse",
    "round_to_fp16",
    "round_to_fp8_e4m3",
    "round_to_fp8_e5m2",
    "sparsity",
    "sqnr_db",
    "uint4_fp8_spec",
    "used_levels",
]
