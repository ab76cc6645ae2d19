"""Bits and memory layout of every named format, against the quantizers it replaced.

The references below are the separate uniform, per-vector and block-scaled
quantize-then-dequantize routines, and the dispatch routing around them,
that produced every pinned FID.  The one arithmetic in ``repro.quant.uniform``
must give the same bits *and* the same strides: the convolutions and group
norms downstream sum in memory order, so an output in another layout changes
results.  The references use only the public entry points that both
implementations share, and round scales with the unchanged FP8/FP16 helpers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.quant import FP8_E4M3, ScaleFormat, ScaleGranularity, get_format
from repro.quant.dispatch import apply_activation_format, apply_format, apply_weight_format
from repro.quant.fp8 import round_to_fp8_e4m3, round_to_fp16


def _reference_scale_rounding(scales, scale_format):
    scales = np.asarray(scales, dtype=np.float64)
    if scale_format == "fp32":
        return scales
    if scale_format == "fp16":
        return np.maximum(round_to_fp16(scales), np.finfo(np.float16).tiny)
    if scale_format == "fp8_e4m3":
        return np.maximum(round_to_fp8_e4m3(scales), FP8_E4M3.min_normal / 8.0)
    assert scale_format == "pow2", scale_format
    return np.exp2(np.ceil(np.log2(np.maximum(scales, 1e-30))))


def _reference_pad_last_axis(x, block_size):
    length = x.shape[-1]
    n_blocks = (length + block_size - 1) // block_size
    padded_len = n_blocks * block_size
    if padded_len == length:
        return x, n_blocks
    pad_width = [(0, 0)] * (x.ndim - 1) + [(0, padded_len - length)]
    return np.pad(x, pad_width, mode="constant"), n_blocks


def _reference_coarse(x, fmt, axis=None):
    """Per-tensor (``axis=None``) or per-channel quantize-then-dequantize."""
    x = np.asarray(x, dtype=np.float64)
    if not fmt.signed:
        x = np.maximum(x, 0.0)
    if axis is None:
        scales = np.asarray(np.maximum(np.max(np.abs(x)), 1e-12) / float(fmt.qmax))
    else:
        reduce_axes = tuple(i for i in range(x.ndim) if i != axis % x.ndim)
        amax = np.maximum(np.max(np.abs(x), axis=reduce_axes, keepdims=True), 1e-12)
        scales = amax / float(fmt.qmax)
    codes = np.clip(np.round(x / scales), fmt.qmin, fmt.qmax)
    return (codes.astype(np.float64, copy=False) * scales).reshape(x.shape)


def _reference_two_level_scales(scales, scale_format):
    """Per-vector scales against the largest one: FP rounding, or UINT8 codes."""
    outer = np.maximum(np.max(scales), 1e-12)
    normalized = scales / outer
    if scale_format in ("fp8_e4m3", "fp16", "fp32"):
        encoded = np.maximum(_reference_scale_rounding(normalized, scale_format), 1e-12)
        return encoded * outer
    codes = np.clip(np.round(normalized * 255.0), 1.0, 255.0)
    return codes / 255.0 * outer


def _reference_blocked(x, fmt, block_size, store_scales):
    """Quantize-then-dequantize with one scale per block of the last axis."""
    x = np.asarray(x, dtype=np.float64)
    if not fmt.signed:
        x = np.maximum(x, 0.0)
    original_length = x.shape[-1]
    padded, n_blocks = _reference_pad_last_axis(x, block_size)
    blocked = padded.reshape(*padded.shape[:-1], n_blocks, block_size)
    amax = np.maximum(np.max(np.abs(blocked), axis=-1, keepdims=True), 1e-12)
    scales = store_scales(amax / float(fmt.qmax))
    codes_blocked = np.clip(np.round(blocked / scales), fmt.qmin, fmt.qmax)
    codes = codes_blocked.reshape(*padded.shape)[..., :original_length]
    scales_full = np.broadcast_to(scales, blocked.shape).reshape(*padded.shape)
    scales_full = np.array(scales_full[..., :original_length])
    return (codes.astype(np.float64, copy=False) * scales_full).reshape(x.shape)


def _reference_apply_format(x, spec, channel_axis=0):
    x = np.asarray(x, dtype=np.float64)
    if not spec.is_quantized:
        if spec.storage_bits >= 32:
            return x
        return x.astype(np.float16).astype(np.float64)
    granularity = spec.granularity
    if granularity is ScaleGranularity.PER_TENSOR:
        return _reference_coarse(x, spec.element)
    if granularity is ScaleGranularity.PER_CHANNEL:
        return _reference_coarse(x, spec.element, channel_axis)
    if granularity is ScaleGranularity.PER_BLOCK:

        def pow2(scales):
            return _reference_scale_rounding(scales, "pow2")

        return _reference_blocked(x, spec.element, spec.block_size or 32, pow2)
    two_level = spec.scale_format is ScaleFormat.FP16
    scale_format = "uint8" if two_level else spec.scale_format.value

    def two_level_scales(scales):
        return _reference_two_level_scales(scales, scale_format)

    return _reference_blocked(x, spec.element, spec.block_size or 16, two_level_scales)


def _reference_weight_format(weight, spec, out_channel_axis=0):
    weight = np.asarray(weight, dtype=np.float64)
    if not spec.is_quantized:
        return _reference_apply_format(weight, spec)
    if spec.granularity is ScaleGranularity.PER_CHANNEL:
        return _reference_coarse(weight, spec.element, out_channel_axis)
    if spec.granularity is ScaleGranularity.PER_TENSOR:
        return _reference_coarse(weight, spec.element)
    moved = np.moveaxis(weight, out_channel_axis, 0)
    out = _reference_apply_format(moved.reshape(moved.shape[0], -1), spec)
    return np.moveaxis(out.reshape(moved.shape), 0, out_channel_axis)


def _reference_activation_format(x, spec, channel_axis):
    x = np.asarray(x, dtype=np.float64)
    if not spec.is_quantized:
        return _reference_apply_format(x, spec)
    if spec.granularity in (ScaleGranularity.PER_TENSOR, ScaleGranularity.PER_CHANNEL):
        return _reference_coarse(x, spec.element)
    moved = np.moveaxis(x, channel_axis, -1)
    out = _reference_apply_format(moved, spec, channel_axis=channel_axis)
    return np.moveaxis(out, -1, channel_axis)


def _channels_last(x):
    """The same values as ``x``, stored (batch, height, width, channels)."""
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


def _long_axis_strides(a):
    """Strides of the axes longer than 1: a size-1 axis never addresses memory."""
    return [stride for size, stride in zip(a.shape, a.strides) if size > 1]


def _assert_same_bits_and_layout(new, ref, case):
    assert new.dtype == np.float64, case
    assert new.shape == ref.shape, case
    assert np.array_equal(new, ref), case
    assert np.array_equal(np.signbit(new), np.signbit(ref)), case
    assert _long_axis_strides(new) == _long_axis_strides(ref), case


def _heavy_tailed(rng, shape):
    """Signed, outlier-heavy values with an all-zero leading channel."""
    x = rng.standard_t(df=3, size=shape) * 2.0
    x[:, 0] = 0.0
    return x


NAMED_FORMATS = ["FP32", "FP16", "INT8", "MXINT8", "INT4", "INT4-VSQ", "INT4-FP8S", "UINT4-FP8S"]

#: NCHW activations: 40 channels pad blocks of 32 and of 16, 7 channels pad
#: blocks of 16, and two shapes are a batch of one.  The U-Net's conv inputs
#: of 3, 16, 24 and 72 channels at 8x16x16 have blocks of 32 wider than the
#: row (3, 16, 24) and blocks of 16 with a half-block tail (24, 72).
ACTIVATION_SHAPES = [
    (2, 64, 4, 4),
    (1, 40, 3, 3),
    (2, 7, 5, 5),
    (1, 64, 1, 1),
    (8, 3, 16, 16),
    (8, 16, 16, 16),
    (8, 24, 16, 16),
    (8, 72, 16, 16),
]
#: Linear-layer activations: (tokens, features).
LINEAR_SHAPES = [(3, 40), (1, 7), (4, 64)]
#: Conv and linear weights; 10x7x3x3 flattens to 63, not a block multiple.
WEIGHT_SHAPES = [(10, 7, 3, 3), (8, 64, 3, 3), (16, 40, 1, 1), (10, 7), (24, 40)]


def test_every_named_format_is_covered():
    # The lookup error lists every name the registry knows.
    with pytest.raises(KeyError) as info:
        get_format("")
    assert str(sorted(NAMED_FORMATS)) in str(info.value)


@pytest.mark.parametrize("name", NAMED_FORMATS)
class TestBitsAndLayoutMatchReplacedQuantizers:
    def test_conv_activations(self, rng, name):
        spec = get_format(name)
        for shape in ACTIVATION_SHAPES:
            x = _heavy_tailed(rng, shape)
            for layout, x_in in (("NCHW", x), ("channels-last", _channels_last(x))):
                new = apply_activation_format(x_in, spec, channel_axis=1)
                ref = _reference_activation_format(x_in, spec, channel_axis=1)
                _assert_same_bits_and_layout(new, ref, f"{name} {shape} {layout}")

    def test_linear_activations(self, rng, name):
        spec = get_format(name)
        for shape in LINEAR_SHAPES:
            x = _heavy_tailed(rng, shape)
            new = apply_activation_format(x, spec, channel_axis=1)
            ref = _reference_activation_format(x, spec, channel_axis=1)
            _assert_same_bits_and_layout(new, ref, f"{name} {shape}")

    def test_weights(self, rng, name):
        spec = get_format(name)
        for shape in WEIGHT_SHAPES:
            weight = _heavy_tailed(rng, shape)
            new = apply_weight_format(weight, spec, out_channel_axis=0)
            ref = _reference_weight_format(weight, spec, out_channel_axis=0)
            _assert_same_bits_and_layout(new, ref, f"{name} {shape}")

    def test_apply_format(self, rng, name):
        spec = get_format(name)
        for shape in LINEAR_SHAPES + WEIGHT_SHAPES:
            x = _heavy_tailed(rng, shape)
            new = apply_format(x, spec)
            _assert_same_bits_and_layout(new, _reference_apply_format(x, spec), f"{name} {shape}")
