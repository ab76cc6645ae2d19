"""Functional neural-network operations on NumPy arrays.

These are the numerical primitives behind the EDM U-Net substrate:
2-D convolution (via im2col + matmul), linear layers, group normalization,
the SiLU and ReLU non-linearities central to the paper's co-design, softmax
attention, and nearest-neighbour up/down-sampling.

Tensors follow the NCHW layout: ``(batch, channels, height, width)``.
Convolution outputs are NCHW *views* of channels-last memory, and the ops
downstream keep whatever memory order they are given.  That order is part of
the numerical contract: reductions such as :func:`group_norm` sum in memory
order, so a C-contiguous copy of the same conv output moves FIDs (the pinned
cifar10 INT4 FID from 23883.24 to 21600.96).

NumPy sums a group of a C-contiguous input as one pairwise sum over the
group's contiguous run.  On channels-last memory a group is a run of 2-12
channels per pixel, so NumPy sums it one pixel per inner-loop call: each
pixel's channels by the pairwise rule (:func:`_pairwise_sum`), then a
running sum over the pixels in row-major order, starting from ``0.0``.
:func:`group_norm` makes exactly these additions, in this order, as
whole-array adds over every pixel at once.
"""

from __future__ import annotations

import functools

import numpy as np


# ---------------------------------------------------------------------------
# Non-linearities
# ---------------------------------------------------------------------------

def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic sigmoid: ``exp(min(x, 0)) / (1 + exp(-|x|))``.

    That is ``1 / (1 + e)`` for ``x >= 0`` and ``e / (1 + e)`` otherwise,
    with ``e = exp(-|x|)``, so ``exp`` never overflows; for ``x < 0`` both
    exponentials see the same argument and round alike.
    """
    x = np.asarray(x, dtype=np.float64)
    denominator = np.abs(x)
    np.negative(denominator, out=denominator)
    np.exp(denominator, out=denominator)
    denominator += 1.0
    out = np.minimum(x, 0.0)
    np.exp(out, out=out)
    out /= denominator
    return out


def silu(x: np.ndarray) -> np.ndarray:
    """SiLU(x) = x * sigmoid(x).

    The paper (Sec. III-B) notes its output distribution spans
    [-0.278..., inf), which forces signed activation formats and wastes
    quantization levels.
    """
    x = np.asarray(x, dtype=np.float64)
    out = sigmoid(x)
    out *= x
    return out


def relu(x: np.ndarray) -> np.ndarray:
    """ReLU(x) = max(x, 0); the hardware-efficient replacement for SiLU."""
    return np.maximum(np.asarray(x, dtype=np.float64), 0.0)


SILU_MIN = float(np.min(silu(np.linspace(-10, 0, 20001))))
"""Minimum value of SiLU, approximately -0.278 (quoted in the paper)."""


def activation_fn(name: str):
    """Look up an activation function by name (``"silu"``, ``"relu"``, ``"none"``)."""
    table = {"silu": silu, "relu": relu, "none": lambda x: np.asarray(x, dtype=np.float64)}
    try:
        return table[name]
    except KeyError as exc:
        raise ValueError(f"unknown activation {name!r}; expected one of {sorted(table)}") from exc


# ---------------------------------------------------------------------------
# Convolution via im2col
# ---------------------------------------------------------------------------

def im2col(
    x: np.ndarray, kernel_h: int, kernel_w: int, stride: int = 1, padding: int = 0
) -> tuple[np.ndarray, int, int]:
    """Unfold NCHW input into GEMM rows for matmul-based convolution.

    Returns ``(rows, out_h, out_w)`` where ``rows`` has shape
    ``(batch * out_h * out_w, channels * kernel_h * kernel_w)``: one row per
    output pixel, holding its patch in the (channel, kernel row, kernel
    column) order of a flattened ``(out, in, kh, kw)`` weight.

    A batch's rows are C-contiguous.  A single image's rows are the
    transpose of a C-contiguous (patch element, pixel) array, because that is
    the operand the einsum-based convolution handed to BLAS for one image,
    and the operand layout selects the BLAS kernel and so its rounding.
    """
    x = np.asarray(x, dtype=np.float64)
    if stride < 1 or padding < 0:
        raise ValueError(f"convolution needs stride >= 1 and padding >= 0, got {stride}, {padding}")
    batch, channels, height, width = x.shape
    padded_h, padded_w = height + 2 * padding, width + 2 * padding
    out_h = (padded_h - kernel_h) // stride + 1
    out_w = (padded_w - kernel_w) // stride + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError(
            f"convolution output would be empty: input {height}x{width}, "
            f"kernel {kernel_h}x{kernel_w}, stride {stride}, padding {padding}"
        )
    padded = np.zeros((batch, channels, padded_h, padded_w))
    padded[:, :, padding : padding + height, padding : padding + width] = x
    single = batch == 1
    index = _patch_index(channels, padded_h, padded_w, kernel_h, kernel_w, stride, single)
    gathered = np.take(padded.reshape(batch, channels * padded_h * padded_w), index, axis=1)
    if single:
        return gathered[0].T, out_h, out_w
    return gathered.reshape(batch * out_h * out_w, index.shape[1]), out_h, out_w


@functools.lru_cache(maxsize=32)
def _patch_index(
    channels: int,
    padded_h: int,
    padded_w: int,
    kernel_h: int,
    kernel_w: int,
    stride: int,
    element_major: bool,
) -> np.ndarray:
    """Flat offsets into one padded image of every patch element under every output pixel.

    Shape ``(pixels, patch elements)``, or the transpose when
    ``element_major``.  Cached per geometry: one sampling loop uses about a
    dozen geometries; all four paper workloads and the FID extractor together
    use 58 (11 MiB at the default 16x16 resolution).  Only :func:`im2col`
    reads these arrays.  They are not flagged read-only because ``np.take``
    copies a read-only index on every call, which costs a quarter of the
    gather.
    """
    out_h = (padded_h - kernel_h) // stride + 1
    out_w = (padded_w - kernel_w) // stride + 1
    element = (
        np.arange(channels)[:, None, None] * (padded_h * padded_w)
        + np.arange(kernel_h)[None, :, None] * padded_w
        + np.arange(kernel_w)[None, None, :]
    ).reshape(-1)
    pixel = (
        np.arange(out_h)[:, None] * (stride * padded_w) + np.arange(out_w)[None, :] * stride
    ).reshape(-1)
    return element[:, None] + pixel[None, :] if element_major else pixel[:, None] + element


def conv2d(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None = None,
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """2-D convolution in NCHW layout.

    One patch gather (:func:`im2col`) and one GEMM.  The result is an NCHW
    view of channels-last memory (see the module docstring for why that
    layout must not change).

    Parameters
    ----------
    x:
        Input of shape ``(batch, in_channels, height, width)``.
    weight:
        Kernel of shape ``(out_channels, in_channels, kernel_h, kernel_w)``.
    bias:
        Optional per-output-channel bias of shape ``(out_channels,)``.
    """
    x = np.asarray(x, dtype=np.float64)
    weight = np.asarray(weight, dtype=np.float64)
    batch = x.shape[0]
    out_channels, in_channels, kernel_h, kernel_w = weight.shape
    if x.shape[1] != in_channels:
        raise ValueError(f"input has {x.shape[1]} channels, weight expects {in_channels}")

    rows, out_h, out_w = im2col(x, kernel_h, kernel_w, stride=stride, padding=padding)
    out = np.matmul(rows, weight.reshape(out_channels, -1).T)
    out = out.reshape(batch, out_h, out_w, out_channels).transpose(0, 3, 1, 2)
    if bias is not None:
        out += np.asarray(bias, dtype=np.float64).reshape(1, -1, 1, 1)
    return out


def linear(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None = None) -> np.ndarray:
    """Affine map ``x @ weight.T + bias`` with weight shape (out, in)."""
    x = np.asarray(x, dtype=np.float64)
    weight = np.asarray(weight, dtype=np.float64)
    out = x @ weight.T
    if bias is not None:
        out = out + np.asarray(bias, dtype=np.float64)
    return out


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

def group_norm(
    x: np.ndarray,
    num_groups: int,
    gamma: np.ndarray | None = None,
    beta: np.ndarray | None = None,
    eps: float = 1e-5,
) -> np.ndarray:
    """Group normalization over NCHW input.

    Channels are partitioned into ``num_groups`` groups and normalized to
    zero mean / unit variance within each (batch, group) slice.  The mean
    and variance are NumPy's sums over the group axes, in NumPy's order for
    the input's layout (module docstring); a channels-last input gets the
    same sums from :func:`_group_sums`.
    """
    x = np.asarray(x, dtype=np.float64)
    batch, channels, height, width = x.shape
    if channels % num_groups != 0:
        raise ValueError(f"{channels} channels not divisible into {num_groups} groups")
    per_group = channels // num_groups
    count = per_group * height * width
    pixels_last = x.transpose(0, 2, 3, 1)
    if num_groups > 1 and pixels_last.flags.c_contiguous and not x.flags.c_contiguous:
        # A channels-last conv output.  (With one group, an image is one
        # contiguous run, which ``np.sum`` adds in one pairwise call.)  Mean
        # and scale are repeated along the full channel axis, so each
        # broadcast pass loops over whole pixels.
        by_pixel = pixels_last.reshape(batch, height * width, num_groups, per_group)
        mean = _group_sums(by_pixel)
        mean /= count
        centered = by_pixel - _per_channel(mean, per_group)
        var = _group_sums(np.square(centered))
        var /= count
        var += eps
        centered /= _per_channel(np.sqrt(var), per_group)
        # The (batch, group, channel, row, column) view the other branch
        # reshapes, so the reshape below gives size-1 axes the same strides.
        centered = centered.reshape(batch, height, width, num_groups, per_group)
        centered = centered.transpose(0, 3, 4, 1, 2)
    else:
        grouped = x.reshape(batch, num_groups, per_group, height, width)
        # The two passes ``np.var`` makes internally: the mean, then the
        # squared deviations from it.  The deviations are kept and
        # normalized in place.
        mean = grouped.sum(axis=(2, 3, 4), keepdims=True)
        mean /= count
        centered = grouped - mean
        var = np.square(centered).sum(axis=(2, 3, 4), keepdims=True)
        var /= count
        var += eps
        centered /= np.sqrt(var)
    out = centered.reshape(batch, channels, height, width)
    if gamma is not None:
        # A new array, not ``out *=``: on a one-image channels-last input the
        # product's strides differ from the view's, and output strides are
        # part of the numerical contract (module docstring).
        out = out * np.asarray(gamma, dtype=np.float64).reshape(1, -1, 1, 1)
    if beta is not None:
        out += np.asarray(beta, dtype=np.float64).reshape(1, -1, 1, 1)
    return out


def _group_sums(by_pixel: np.ndarray) -> np.ndarray:
    """``(batch, groups)`` sums of a C-ordered ``(batch, pixels, groups, per_group)`` array.

    NumPy's additions for channels-last group axes, in NumPy's order (module
    docstring).  The running sum reduces the leading axis of a pixel-major
    copy of the per-pixel sums: its inner loop runs along every (batch,
    group), so it adds one pixel at a time.
    """
    partial = _pairwise_sum(by_pixel)
    return np.ascontiguousarray(partial.transpose(1, 0, 2)).sum(axis=0)


def _pairwise_sum(y: np.ndarray) -> np.ndarray:
    """``np.add.reduce(y, axis=-1)`` bit for bit, as whole-array adds.

    NumPy's rule for one contiguous run of ``n`` values: under 8 a running
    sum; up to 128, eight running accumulators over strides of 8, combined as
    ``((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))``, then the rest one
    by one; above 128, the two halves (the first a multiple of 8) summed
    apart and added.  The reduction starts from ``0.0``, so ``-0.0`` sums
    to ``0.0``.
    """
    n = y.shape[-1]
    if n < 8:
        total = y[..., 0] + 0.0
        for i in range(1, n):
            total += y[..., i]
        return total
    if n > 128:
        half = n // 2
        half -= half % 8
        return _pairwise_sum(y[..., :half]) + _pairwise_sum(y[..., half:])
    rounds = n - n % 8
    acc = y[..., :8]
    for i in range(8, rounds, 8):
        acc = acc + y[..., i : i + 8]
    acc = acc[..., 0::2] + acc[..., 1::2]
    acc = acc[..., 0::2] + acc[..., 1::2]
    total = acc[..., 0] + acc[..., 1]
    for i in range(rounds, n):
        total += y[..., i]
    total += 0.0
    return total


def _per_channel(per_group: np.ndarray, group_size: int) -> np.ndarray:
    """``(batch, groups)`` values repeated per channel, shaped to broadcast over pixels."""
    batch, groups = per_group.shape
    return np.repeat(per_group, group_size, axis=1).reshape(batch, 1, groups, group_size)


# ---------------------------------------------------------------------------
# Attention
# ---------------------------------------------------------------------------

def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    x = np.asarray(x, dtype=np.float64)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


def scaled_dot_product_attention(
    q: np.ndarray, k: np.ndarray, v: np.ndarray
) -> np.ndarray:
    """Standard attention: softmax(QK^T / sqrt(d)) V.

    Inputs have shape ``(batch, heads, tokens, head_dim)``.
    """
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    scale = 1.0 / np.sqrt(q.shape[-1])
    scores = np.einsum("bhqd,bhkd->bhqk", q, k, optimize=True) * scale
    weights = softmax(scores, axis=-1)
    return np.einsum("bhqk,bhkd->bhqd", weights, v, optimize=True)


# ---------------------------------------------------------------------------
# Resampling
# ---------------------------------------------------------------------------

def downsample2x(x: np.ndarray) -> np.ndarray:
    """2x spatial downsampling by average pooling (EDM encoder path)."""
    x = np.asarray(x, dtype=np.float64)
    batch, channels, height, width = x.shape
    if height % 2 or width % 2:
        raise ValueError(f"spatial dims must be even for 2x downsampling, got {height}x{width}")
    return x.reshape(batch, channels, height // 2, 2, width // 2, 2).mean(axis=(3, 5))


def upsample2x(x: np.ndarray) -> np.ndarray:
    """2x spatial upsampling by nearest-neighbour replication (decoder path)."""
    x = np.asarray(x, dtype=np.float64)
    return np.repeat(np.repeat(x, 2, axis=2), 2, axis=3)


# ---------------------------------------------------------------------------
# Embeddings
# ---------------------------------------------------------------------------

def positional_embedding(values: np.ndarray, dim: int, max_period: float = 10000.0) -> np.ndarray:
    """Sinusoidal embedding of scalar conditioning values (noise levels).

    Returns shape ``(len(values), dim)``; used by the EDM noise-level
    embedding MLP.
    """
    values = np.atleast_1d(np.asarray(values, dtype=np.float64))
    half = dim // 2
    freqs = np.exp(-np.log(max_period) * np.arange(half, dtype=np.float64) / max(half, 1))
    angles = values[:, None] * freqs[None, :]
    emb = np.concatenate([np.cos(angles), np.sin(angles)], axis=1)
    if emb.shape[1] < dim:
        emb = np.pad(emb, ((0, 0), (0, dim - emb.shape[1])), mode="constant")
    return emb
