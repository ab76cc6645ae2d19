"""Tests for repro.nn.functional."""

from __future__ import annotations

import numpy as np
import pytest

from repro.diffusion.fid import RandomFeatureExtractor
from repro.nn import functional as F
from repro.workloads.models import WORKLOAD_SPECS, build_unet


class TestActivations:
    def test_silu_at_zero(self):
        assert F.silu(np.array([0.0]))[0] == 0.0

    def test_silu_minimum_matches_paper(self):
        # The paper quotes the SiLU output range as [-0.278, inf).
        assert F.SILU_MIN == pytest.approx(-0.278, abs=1e-3)

    def test_silu_large_positive_is_identity(self):
        assert F.silu(np.array([50.0]))[0] == pytest.approx(50.0)

    def test_silu_never_below_minimum(self, rng):
        x = rng.normal(size=1000) * 10
        assert np.all(F.silu(x) >= F.SILU_MIN - 1e-9)

    def test_relu_clamps_negative(self):
        assert np.array_equal(F.relu(np.array([-1.0, 0.0, 2.0])), np.array([0.0, 0.0, 2.0]))

    def test_relu_output_nonnegative(self, rng):
        assert np.all(F.relu(rng.normal(size=100)) >= 0)

    def test_sigmoid_stable_for_large_inputs(self):
        assert F.sigmoid(np.array([1000.0]))[0] == pytest.approx(1.0)
        assert F.sigmoid(np.array([-1000.0]))[0] == pytest.approx(0.0)

    def test_activation_fn_lookup(self):
        assert F.activation_fn("relu") is F.relu
        assert F.activation_fn("silu") is F.silu

    def test_activation_fn_unknown(self):
        with pytest.raises(ValueError):
            F.activation_fn("gelu")

    def test_relu_induces_about_half_sparsity_on_gaussian(self, rng):
        x = rng.normal(size=100000)
        sparsity = np.mean(F.relu(x) == 0)
        assert 0.45 < sparsity < 0.55


class TestConv2d:
    def test_identity_kernel(self, rng):
        x = rng.normal(size=(1, 1, 5, 5))
        weight = np.zeros((1, 1, 3, 3))
        weight[0, 0, 1, 1] = 1.0
        out = F.conv2d(x, weight, padding=1)
        assert np.allclose(out, x)

    def test_output_shape_same_padding(self, rng):
        x = rng.normal(size=(2, 3, 8, 8))
        weight = rng.normal(size=(5, 3, 3, 3))
        assert F.conv2d(x, weight, padding=1).shape == (2, 5, 8, 8)

    def test_output_shape_stride2(self, rng):
        x = rng.normal(size=(1, 3, 8, 8))
        weight = rng.normal(size=(4, 3, 3, 3))
        assert F.conv2d(x, weight, stride=2, padding=1).shape == (1, 4, 4, 4)

    def test_matches_direct_computation(self, rng):
        x = rng.normal(size=(1, 2, 4, 4))
        weight = rng.normal(size=(3, 2, 3, 3))
        out = F.conv2d(x, weight, padding=0)
        # Direct dot product at output position (0, 0).
        expected = np.sum(x[0, :, 0:3, 0:3] * weight[1])
        assert out[0, 1, 0, 0] == pytest.approx(expected)

    def test_bias_added_per_channel(self, rng):
        x = rng.normal(size=(1, 2, 4, 4))
        weight = np.zeros((2, 2, 1, 1))
        bias = np.array([1.5, -2.0])
        out = F.conv2d(x, weight, bias=bias, padding=0)
        assert np.allclose(out[0, 0], 1.5)
        assert np.allclose(out[0, 1], -2.0)

    def test_channel_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            F.conv2d(rng.normal(size=(1, 3, 4, 4)), rng.normal(size=(2, 4, 3, 3)))

    def test_conv_linear_in_input(self, rng):
        x1 = rng.normal(size=(1, 2, 6, 6))
        x2 = rng.normal(size=(1, 2, 6, 6))
        w = rng.normal(size=(3, 2, 3, 3))
        lhs = F.conv2d(x1 + x2, w, padding=1)
        rhs = F.conv2d(x1, w, padding=1) + F.conv2d(x2, w, padding=1)
        assert np.allclose(lhs, rhs)

    def test_empty_output_raises(self, rng):
        with pytest.raises(ValueError):
            F.conv2d(rng.normal(size=(1, 1, 2, 2)), rng.normal(size=(1, 1, 5, 5)), padding=0)

    @pytest.mark.parametrize("stride, padding", [(0, 1), (-1, 1), (1, -1), (2, -2)])
    def test_bad_geometry_raises(self, rng, stride, padding):
        x = rng.normal(size=(1, 2, 6, 6))
        with pytest.raises(ValueError, match="stride >= 1 and padding >= 0"):
            F.conv2d(x, rng.normal(size=(3, 2, 3, 3)), stride=stride, padding=padding)
        with pytest.raises(ValueError, match="stride >= 1 and padding >= 0"):
            F.im2col(x, 3, 3, stride=stride, padding=padding)


class TestLinearAndNorm:
    def test_linear_matches_matmul(self, rng):
        x = rng.normal(size=(4, 6))
        w = rng.normal(size=(3, 6))
        b = rng.normal(size=3)
        assert np.allclose(F.linear(x, w, b), x @ w.T + b)

    def test_group_norm_zero_mean_unit_var(self, rng):
        x = rng.normal(loc=5.0, scale=3.0, size=(2, 8, 4, 4))
        out = F.group_norm(x, num_groups=2)
        grouped = out.reshape(2, 2, 4, 4, 4)
        assert np.allclose(grouped.mean(axis=(2, 3, 4)), 0.0, atol=1e-6)
        assert np.allclose(grouped.var(axis=(2, 3, 4)), 1.0, atol=1e-2)

    def test_group_norm_gamma_beta(self, rng):
        x = rng.normal(size=(1, 4, 4, 4))
        gamma = np.array([2.0, 2.0, 2.0, 2.0])
        beta = np.array([1.0, 1.0, 1.0, 1.0])
        out = F.group_norm(x, num_groups=4, gamma=gamma, beta=beta)
        base = F.group_norm(x, num_groups=4)
        assert np.allclose(out, base * 2.0 + 1.0)

    def test_group_norm_invalid_groups(self, rng):
        with pytest.raises(ValueError):
            F.group_norm(rng.normal(size=(1, 6, 2, 2)), num_groups=4)

    def test_softmax_sums_to_one(self, rng):
        x = rng.normal(size=(3, 7))
        assert np.allclose(F.softmax(x, axis=-1).sum(axis=-1), 1.0)

    def test_softmax_stable_for_large_values(self):
        out = F.softmax(np.array([[1000.0, 1000.0]]))
        assert np.allclose(out, 0.5)


class TestAttentionAndResampling:
    def test_attention_output_shape(self, rng):
        q = rng.normal(size=(2, 1, 16, 8))
        out = F.scaled_dot_product_attention(q, q, q)
        assert out.shape == q.shape

    def test_attention_uniform_keys_average_values(self, rng):
        q = np.zeros((1, 1, 4, 8))
        k = np.zeros((1, 1, 4, 8))
        v = rng.normal(size=(1, 1, 4, 8))
        out = F.scaled_dot_product_attention(q, k, v)
        assert np.allclose(out, v.mean(axis=2, keepdims=True))

    def test_downsample_halves_spatial(self, rng):
        x = rng.normal(size=(1, 3, 8, 8))
        assert F.downsample2x(x).shape == (1, 3, 4, 4)

    def test_downsample_averages(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = F.downsample2x(x)
        assert out[0, 0, 0, 0] == pytest.approx(np.mean([0, 1, 4, 5]))

    def test_downsample_odd_raises(self, rng):
        with pytest.raises(ValueError):
            F.downsample2x(rng.normal(size=(1, 1, 5, 5)))

    def test_upsample_doubles_spatial(self, rng):
        x = rng.normal(size=(1, 3, 4, 4))
        assert F.upsample2x(x).shape == (1, 3, 8, 8)

    def test_up_then_down_is_identity(self, rng):
        x = rng.normal(size=(1, 2, 4, 4))
        assert np.allclose(F.downsample2x(F.upsample2x(x)), x)

    def test_positional_embedding_shape(self):
        emb = F.positional_embedding(np.array([0.1, 0.5]), dim=16)
        assert emb.shape == (2, 16)

    def test_positional_embedding_odd_dim_padded(self):
        emb = F.positional_embedding(np.array([0.3]), dim=9)
        assert emb.shape == (1, 9)

    def test_positional_embedding_distinguishes_values(self):
        emb = F.positional_embedding(np.array([0.0, 5.0]), dim=32)
        assert not np.allclose(emb[0], emb[1])


# ---------------------------------------------------------------------------
# Bit-and-stride equivalence with the kernels the fast path replaced
# ---------------------------------------------------------------------------
#
# The references below are the einsum convolution, masked sigmoid and
# mean/var group norm that produced every pinned FID.  The fast kernels must
# give the same bits *and* the same strides: group norm and the FID pooling
# sum in memory order, so a conv output in another layout changes results.


def _reference_im2col(x, kernel_h, kernel_w, stride=1, padding=0):
    x = np.asarray(x, dtype=np.float64)
    batch, channels, height, width = x.shape
    if padding > 0:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)), mode="constant")
    padded_h, padded_w = x.shape[2], x.shape[3]
    out_h = (padded_h - kernel_h) // stride + 1
    out_w = (padded_w - kernel_w) // stride + 1
    cols = np.empty((batch, channels, kernel_h, kernel_w, out_h, out_w), dtype=np.float64)
    for i in range(kernel_h):
        i_end = i + stride * out_h
        for j in range(kernel_w):
            j_end = j + stride * out_w
            cols[:, :, i, j, :, :] = x[:, :, i:i_end:stride, j:j_end:stride]
    return cols.reshape(batch, channels * kernel_h * kernel_w, out_h * out_w), out_h, out_w


def _reference_conv2d(x, weight, bias=None, stride=1, padding=0):
    x = np.asarray(x, dtype=np.float64)
    batch = x.shape[0]
    out_channels, _, kernel_h, kernel_w = weight.shape
    cols, out_h, out_w = _reference_im2col(x, kernel_h, kernel_w, stride=stride, padding=padding)
    w_mat = weight.reshape(out_channels, -1)
    out = np.einsum("ok,bkp->bop", w_mat, cols, optimize=True)
    out = out.reshape(batch, out_channels, out_h, out_w)
    if bias is not None:
        out = out + np.asarray(bias, dtype=np.float64).reshape(1, -1, 1, 1)
    return out


def _reference_sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    exp_x = np.exp(x[~pos])
    out[~pos] = exp_x / (1.0 + exp_x)
    return out


def _reference_group_norm(x, num_groups, gamma=None, beta=None, eps=1e-5):
    x = np.asarray(x, dtype=np.float64)
    batch, channels, height, width = x.shape
    grouped = x.reshape(batch, num_groups, channels // num_groups, height, width)
    mean = grouped.mean(axis=(2, 3, 4), keepdims=True)
    var = grouped.var(axis=(2, 3, 4), keepdims=True)
    normed = (grouped - mean) / np.sqrt(var + eps)
    out = normed.reshape(batch, channels, height, width)
    if gamma is not None:
        out = out * np.asarray(gamma, dtype=np.float64).reshape(1, -1, 1, 1)
    if beta is not None:
        out = out + np.asarray(beta, dtype=np.float64).reshape(1, -1, 1, 1)
    return out


def _channels_last(x):
    """The same values as ``x``, stored (batch, height, width, channels)."""
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


def _assert_same_bits_and_strides(new, ref, case=""):
    assert new.shape == ref.shape, case
    assert np.array_equal(new, ref, equal_nan=True), case
    assert new.strides == ref.strides, case


@pytest.fixture(scope="module")
def workload_calls():
    """One ``conv2d`` and one ``group_norm`` input per geometry the paper workloads run.

    U-Net forwards of all four workloads at the batch sizes the pipeline
    uses (one trace sample, the two-image ReLU calibration batch, eight FID
    samples) and feature extraction in chunks of 64 and 8.  Convolutions are
    keyed by (input shape, weight shape, stride, padding, has bias), group
    norms by (input shape, groups).
    """
    conv_calls, norm_calls = {}, {}
    conv2d, group_norm = F.conv2d, F.group_norm

    def record_conv(x, weight, bias=None, stride=1, padding=0):
        key = (x.shape, weight.shape, stride, padding, bias is not None)
        conv_calls.setdefault(key, (np.array(x), weight, bias, stride, padding))
        return conv2d(x, weight, bias, stride=stride, padding=padding)

    def record_norm(x, num_groups, gamma=None, beta=None, eps=1e-5):
        norm_calls.setdefault((x.shape, num_groups), np.array(x))
        return group_norm(x, num_groups, gamma, beta, eps)

    rng = np.random.default_rng(0)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(F, "conv2d", record_conv)
        patch.setattr(F, "group_norm", record_norm)
        for spec in WORKLOAD_SPECS.values():
            unet = build_unet(spec, resolution=16)
            for batch in (1, 2, 8):
                unet(rng.normal(size=(batch, 3, 16, 16)), rng.normal(size=batch))
        RandomFeatureExtractor().extract(rng.normal(size=(72, 3, 16, 16)))
    return conv_calls, norm_calls


@pytest.fixture(scope="module")
def workload_conv_calls(workload_calls):
    return workload_calls[0]


@pytest.fixture(scope="module")
def workload_group_norm_calls(workload_calls):
    return workload_calls[1]


def _wide_range_rows(n, rows=64):
    """``rows`` rows of ``n`` values from 1e-300 to 1e300, ±0.0, ±inf and NaN.

    Each row's magnitudes span four decades at a random exponent, and signs
    are random, so the order of the additions shows in the low bits of the
    row sums.  Rows 0-8 are the special values: mixed, all ``-0.0``, ``±0.0``,
    one ``inf`` and one ``NaN``.
    """
    rng = np.random.default_rng(n)
    exponent = rng.uniform(-300.0, 296.0, size=(rows, 1)) + rng.uniform(0.0, 4.0, size=(rows, n))
    y = np.copysign(10.0**exponent, rng.normal(size=(rows, n)))
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
    y[:5] = rng.choice(special, size=(5, n))
    y[5] = -0.0
    y[6] = rng.choice([0.0, -0.0], size=n)
    y[7, rng.integers(n)] = np.inf
    y[8, rng.integers(n)] = np.nan
    sprinkled = rng.random((rows, n)) < 0.02
    sprinkled[:9] = False
    y[sprinkled] = rng.choice(special, size=sprinkled.sum())
    return y


def _same_sums(a, b):
    """Bit-equal, except that any NaN equals any NaN: a NaN's sign bit follows
    the operand order the compiler picked, which NumPy does not define."""
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and np.array_equal(
        a[~nan].view(np.uint64), b[~nan].view(np.uint64)
    )


class TestBitExactKernels:
    def test_conv2d_matches_einsum_reference(self, workload_conv_calls):
        kinds = {(key[1][2], key[2], key[3], key[4]) for key in workload_conv_calls}
        # 3x3 same-padding and 1x1 U-Net convs, stride-2 bias-free FID convs.
        assert kinds == {(3, 1, 1, True), (1, 1, 0, True), (3, 2, 1, False)}
        for key, (x, weight, bias, stride, padding) in workload_conv_calls.items():
            layouts = {"C": np.ascontiguousarray(x), "channels-last": _channels_last(x)}
            for layout, x_in in layouts.items():
                new = F.conv2d(x_in, weight, bias, stride=stride, padding=padding)
                ref = _reference_conv2d(x_in, weight, bias, stride=stride, padding=padding)
                _assert_same_bits_and_strides(new, ref, f"{key} on {layout} input")
                # A channels-last view, never a C-contiguous copy.
                assert not new.flags.c_contiguous, key

    def test_im2col_rows_match_reference_columns(self, rng):
        x = _channels_last(rng.normal(size=(2, 5, 7, 6)))
        for stride, padding in [(1, 1), (2, 1), (1, 0), (3, 2)]:
            rows, out_h, out_w = F.im2col(x, 3, 2, stride=stride, padding=padding)
            cols, ref_h, ref_w = _reference_im2col(x, 3, 2, stride=stride, padding=padding)
            assert (out_h, out_w) == (ref_h, ref_w)
            assert np.array_equal(rows, cols.transpose(0, 2, 1).reshape(rows.shape))

    @pytest.mark.parametrize(
        "shape, groups", [((8, 32, 16, 16), 8), ((1, 48, 8, 8), 8), ((2, 96, 4, 4), 8)]
    )
    @pytest.mark.parametrize("affine", [False, True])
    def test_group_norm_matches_mean_var_reference(self, rng, shape, groups, affine):
        channels = shape[1]
        gamma = rng.lognormal(size=channels) if affine else None
        beta = rng.normal(size=channels) if affine else None
        for x in (rng.normal(3.0, 2.0, size=shape), _channels_last(rng.normal(size=shape))):
            new = F.group_norm(x, groups, gamma, beta)
            _assert_same_bits_and_strides(new, _reference_group_norm(x, groups, gamma, beta))

    def test_group_norm_matches_reference_on_every_workload_geometry(
        self, rng, workload_group_norm_calls
    ):
        inputs = workload_group_norm_calls
        assert {shape[0] for shape, _ in inputs} == {1, 2, 8}
        # Groups of 2 to 7 channels sum as a running sum, 8 to 12 through
        # NumPy's eight accumulators.
        assert {shape[1] // groups for shape, groups in inputs} == {2, 3, 4, 6, 8, 9, 12}
        for (shape, groups), x in inputs.items():
            channels = shape[1]
            affine = (rng.lognormal(size=channels), rng.normal(size=channels))
            layouts = {"C": np.ascontiguousarray(x), "channels-last": _channels_last(x)}
            for layout, x_in in layouts.items():
                for gamma, beta in ((None, None), affine):
                    new = F.group_norm(x_in, groups, gamma, beta)
                    ref = _reference_group_norm(x_in, groups, gamma, beta)
                    case = f"{shape} in {groups} groups, {layout}, affine={gamma is not None}"
                    _assert_same_bits_and_strides(new, ref, case)

    def test_pairwise_sum_is_numpys_reduction(self):
        # Up to 256 values: runs longer than 128 split into two halves.
        with np.errstate(invalid="ignore", over="ignore"):
            for n in range(1, 257):
                y = _wide_range_rows(n)
                assert _same_sums(F._pairwise_sum(y), np.add.reduce(y, axis=-1)), n

    def test_a_running_sum_fails_the_pairwise_oracle(self):
        """The rows above tell NumPy's eight accumulators from one running sum."""
        with np.errstate(invalid="ignore", over="ignore"):
            for n in range(8, 129):
                y = _wide_range_rows(n)
                running = y[:, 0] + 0.0
                for i in range(1, n):
                    running += y[:, i]
                assert not _same_sums(running, np.add.reduce(y, axis=-1)), n

    def test_sigmoid_and_silu_match_masked_reference(self, rng):
        tiny = np.finfo(np.float64).smallest_subnormal
        special = np.array(
            [0.0, -0.0, np.inf, -np.inf, np.nan, 800.0, -800.0, 36.7, -745.2]
            + [tiny, -tiny, 1e-310, -1e-310, 2.2e-308, -2.2e-308]
            + [709.0, -709.0, 745.0, -745.0, 709.78, -709.78, 745.13, -745.13]
        )
        flat = np.concatenate([special, rng.normal(scale=4.0, size=8 * 16 * 4 * 4 - special.size)])
        with np.errstate(invalid="ignore"):
            for x in (special, _channels_last(flat.reshape(8, 16, 4, 4))):
                _assert_same_bits_and_strides(F.sigmoid(x), _reference_sigmoid(x))
                _assert_same_bits_and_strides(F.silu(x), x * _reference_sigmoid(x))
        assert np.signbit(F.silu(np.array([-0.0]))[0])
