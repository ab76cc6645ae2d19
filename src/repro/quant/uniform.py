"""Uniform symmetric quantization: the one arithmetic behind every scaled format.

Implements the quantization formula from Section II-A of the paper::

    x_hat = round(x / s) * s,   s = max(|x|) / q_max

Every integer format of Tables I and II uses it.  The formats differ only in
where the max is taken and how the scale is stored (Sec. III-A):

* per tensor -- one scale for the whole tensor;
* per channel -- one scale for every axis but the channel axis;
* per block / per vector -- one scale per block of ``block_size``
  elements along the last axis;

and the scale is kept in FP32, rounded to FP8 E4M3, rounded up to a power of
two, or stored as UINT8 codes (see :func:`_stored_scales`).  Quantize then
dequantize ("fake quantization") injects the numerical error of a format
into the NumPy diffusion model, exactly as scaled quantization would on real
hardware.

A last axis that ``block_size`` does not divide ends in a short block.  Its
scale is the one a zero-padded block would get (padding zeros never raise
``max|x|``), but no padded copy is made: the block maxima fold whole-tensor
``np.maximum`` calls (:func:`_block_amax`), and the unpadded tensor is
divided by a per-element copy of its block scales.
"""

from __future__ import annotations

import numpy as np

from .formats import IntegerFormat, QuantFormatSpec, ScaleFormat, ScaleGranularity
from .fp8 import quantize_scales

#: Numerical floor for scale factors, so all-zero tensors quantize to zeros
#: instead of producing divisions by zero.
_SCALE_EPS = 1e-12


def quantize(x: np.ndarray, spec: QuantFormatSpec, channel_axis: int | None = 0) -> np.ndarray:
    """Integer codes (as float64) of ``x`` under the integer format ``spec``.

    ``channel_axis`` is the axis a per-channel spec keeps one scale for;
    ``None`` gives a per-channel spec one scale for the whole tensor.
    Per-block and per-vector specs always block the last axis.
    """
    return _scaled_round(x, spec, channel_axis, dequantize=False)


def fake_quantize(x: np.ndarray, spec: QuantFormatSpec, channel_axis: int | None = 0) -> np.ndarray:
    """Quantize then dequantize ``x``: float64 carrying the error of ``spec``.

    Takes the same arguments as :func:`quantize`.  A per-block or per-vector
    result is C-contiguous; a per-tensor or per-channel one keeps the memory
    layout of ``x``.
    """
    return _scaled_round(x, spec, channel_axis, dequantize=True)


def used_levels(x: np.ndarray, fmt: IntegerFormat) -> int:
    """Count how many distinct levels of ``fmt`` the data uses under one scale.

    Reproduces the Fig. 6 analysis: SiLU outputs over x in [-1, 1] occupy
    only 10 of the 16 signed INT4 levels, whereas ReLU outputs occupy all 16
    UINT4 levels.
    """
    spec = QuantFormatSpec(name=fmt.name, element=fmt, granularity=ScaleGranularity.PER_TENSOR)
    return int(np.unique(quantize(x, spec)).size)


def _scaled_round(
    x: np.ndarray, spec: QuantFormatSpec, channel_axis: int | None, dequantize: bool
) -> np.ndarray:
    """amax -> / q_max -> scale format -> round -> clip (-> * scale), per scale group."""
    fmt = spec.element
    if fmt is None:
        raise ValueError(f"format {spec.name} has no integer element to quantize to")
    x = np.asarray(x, dtype=np.float64)
    blocked = spec.granularity.blocked
    if blocked:
        # Downstream sums run in memory order, so blocked outputs are
        # C-ordered (and coarse ones keep the layout of x): the arithmetic
        # below runs on C-ordered memory and every result inherits it.
        x = np.ascontiguousarray(x)
    if not fmt.signed:
        x = np.maximum(x, 0.0)  # unsigned codes cannot hold negatives (ReLU outputs)

    if blocked:
        amax = _block_amax(np.abs(x), spec.block_size)
    elif spec.granularity is ScaleGranularity.PER_CHANNEL and channel_axis is not None:
        reduce = tuple(i for i in range(x.ndim) if i != channel_axis % x.ndim)
        amax = np.max(np.abs(x), axis=reduce, keepdims=True)
    else:
        amax = np.max(np.abs(x), keepdims=True)
    scales = _stored_scales(np.maximum(amax, _SCALE_EPS) / fmt.qmax, spec)
    if blocked:
        # One scale per element, so each pass below is one loop over x.
        widths = np.full(scales.shape[-1], spec.block_size)
        widths[-1] = x.shape[-1] - spec.block_size * (widths.size - 1)
        scales = np.repeat(scales, widths, axis=-1)

    out = np.divide(x, scales)  # the quotient is the output buffer
    np.round(out, out=out)
    np.clip(out, fmt.qmin, fmt.qmax, out=out)
    if dequantize:
        out *= scales
    return out


def _block_amax(magnitude: np.ndarray, block_size: int) -> np.ndarray:
    """Largest value of each ``block_size`` block along the last axis.

    ``magnitude`` is C-ordered and not negative, so a short last block has
    the max of a zero-padded one.  While the block width and the last
    block's width are both even, ``np.maximum`` folds neighbouring pairs
    over the whole tensor; each element left in a block then folds in as
    one strided slice.  Max is exact in any order: the bits are those of
    ``np.max`` over each block, in a few whole-array calls instead of one
    inner loop per block.
    """
    lead, length = magnitude.shape[:-1], magnitude.shape[-1]
    full_blocks = length // block_size
    width, tail = block_size, length % block_size
    while width % 2 == 0 and tail % 2 == 0:
        magnitude = np.maximum(magnitude[..., 0::2], magnitude[..., 1::2])
        width //= 2
        tail //= 2
    if width == 1 and tail == 0:
        return magnitude
    amax = np.empty((*lead, full_blocks + (tail > 0)))
    if full_blocks:
        body = magnitude[..., : full_blocks * width].reshape(*lead, full_blocks, width)
        _fold_max(body, amax[..., :full_blocks])
    if tail:
        _fold_max(magnitude[..., full_blocks * width :], amax[..., full_blocks])
    return amax


def _fold_max(blocks: np.ndarray, out: np.ndarray) -> None:
    """``out[...] = blocks.max(axis=-1)``, one ``np.maximum`` per slice of the last axis."""
    np.copyto(out, blocks[..., 0])
    for k in range(1, blocks.shape[-1]):
        np.maximum(out, blocks[..., k], out=out)


def _stored_scales(scales: np.ndarray, spec: QuantFormatSpec) -> np.ndarray:
    """Raw scales ``max|x| / q_max`` as the spec's scale format stores them."""
    if spec.granularity is ScaleGranularity.PER_VECTOR:
        # Two-level VS-Quant scales, normalized by the tensor's largest scale.
        # INT4-VSQ (an FP16 scale format) stores them as UINT8 codes, as the
        # VS-Quant hardware does; the paper's FP8 formats round them to E4M3,
        # which keeps the relative error flat across the dynamic range.
        outer = np.maximum(np.max(scales), _SCALE_EPS)
        normalized = scales / outer
        if spec.scale_format is ScaleFormat.FP16:
            return np.clip(np.round(normalized * 255.0), 1.0, 255.0) / 255.0 * outer
        return np.maximum(quantize_scales(normalized, spec.scale_format), _SCALE_EPS) * outer
    # One level: per-block scales (MXINT8) round up to a power of two; coarse
    # INT8/INT4 keep FP32 scales.
    return quantize_scales(scales, spec.scale_format)
