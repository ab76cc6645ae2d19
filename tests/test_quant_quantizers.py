"""Tests for the one quantizer (every scale granularity) and the format dispatcher."""

from __future__ import annotations

import numpy as np
import pytest

from repro.quant import (
    INT4,
    INT8,
    UINT4,
    QuantFormatSpec,
    ScaleFormat,
    ScaleGranularity,
    apply_format,
    fake_quantize,
    fp16_spec,
    fp32_spec,
    int4_fp8_spec,
    int4_spec,
    int4_vsq_spec,
    int8_spec,
    mxint8_spec,
    quantize,
    uint4_fp8_spec,
    used_levels,
)
from repro.quant.dispatch import apply_activation_format, apply_weight_format


def per_tensor(fmt):
    """A spec with one scale for the whole tensor."""
    return QuantFormatSpec(name=fmt.name, element=fmt, granularity=ScaleGranularity.PER_TENSOR)


class TestUniformQuantization:
    def test_codes_within_range(self, rng):
        x = rng.normal(size=(16, 16)) * 10
        codes = quantize(x, per_tensor(INT4))
        assert codes.min() >= INT4.qmin
        assert codes.max() <= INT4.qmax

    def test_roundtrip_error_bounded_by_half_step(self, rng):
        x = rng.normal(size=(64,))
        err = np.abs(fake_quantize(x, per_tensor(INT8)) - x)
        step = float(np.max(np.abs(x))) / INT8.qmax
        assert np.max(err) <= step / 2 + 1e-12

    def test_zero_tensor_quantizes_to_zeros(self):
        assert np.all(quantize(np.zeros((4, 4)), per_tensor(INT8)) == 0)
        assert np.all(fake_quantize(np.zeros((4, 4)), per_tensor(INT8)) == 0)

    def test_unsigned_format_clips_negative(self, rng):
        x = rng.normal(size=(32,))
        assert quantize(x, per_tensor(UINT4)).min() >= 0
        assert np.all(fake_quantize(x, per_tensor(UINT4)) >= 0)

    def test_per_channel_scales_independent(self):
        x = np.stack([np.full(8, 0.01), np.full(8, 100.0)])
        out = fake_quantize(x, int4_spec(), channel_axis=0)
        # Per-channel scaling preserves the small channel's values.
        assert np.allclose(out[0], x[0], rtol=0.1)

    def test_per_tensor_crushes_small_values_next_to_outliers(self):
        x = np.concatenate([np.full(8, 0.01), [100.0]])
        out = fake_quantize(x, per_tensor(INT4))
        # The small values underflow to zero when an outlier sets the scale.
        assert np.allclose(out[:8], 0.0)
        # A per-channel spec with no channel axis also shares one scale.
        assert np.array_equal(fake_quantize(x, int4_spec(), channel_axis=None), out)

    def test_int8_more_accurate_than_int4(self, rng):
        x = rng.normal(size=(256,))
        err4 = np.mean((fake_quantize(x, per_tensor(INT4)) - x) ** 2)
        err8 = np.mean((fake_quantize(x, per_tensor(INT8)) - x) ** 2)
        assert err8 < err4

    def test_fake_quantize_preserves_shape(self, rng):
        x = rng.normal(size=(2, 3, 5, 7))
        assert fake_quantize(x, per_tensor(INT4)).shape == x.shape

    def test_per_vector_padding_handles_non_multiple_lengths(self, rng):
        x = rng.normal(size=(3, 21))
        out = fake_quantize(x, int4_fp8_spec(vector_size=16))
        assert out.shape == x.shape
        assert out.flags.c_contiguous

    def test_used_levels_silu_underutilizes_int4(self):
        from repro.nn.functional import silu

        x = np.linspace(-1, 1, 10001)
        assert used_levels(silu(x), INT4) < INT4.num_levels

    def test_used_levels_relu_uses_all_uint4(self):
        from repro.nn.functional import relu

        x = np.linspace(-1, 1, 10001)
        assert used_levels(relu(x), UINT4) == UINT4.num_levels

    def test_density_of_quantized_tensor(self):
        codes = quantize(np.array([0.0, 0.0, 1.0, -1.0]), per_tensor(INT4))
        assert np.count_nonzero(codes) / codes.size == pytest.approx(0.5)

    def test_invalid_block_size(self):
        for granularity in (ScaleGranularity.PER_BLOCK, ScaleGranularity.PER_VECTOR):
            with pytest.raises(ValueError, match="block_size >= 1"):
                QuantFormatSpec("bad", INT4, granularity=granularity, block_size=-16)
        # Coarse formats have no blocks, so they keep the default of 0.
        assert int4_spec().block_size == 0

    def test_float_formats_have_no_codes(self, rng):
        with pytest.raises(ValueError, match="no integer element"):
            quantize(rng.normal(size=4), fp16_spec())


class TestBlockScale:
    def test_mxint8_low_error_on_gaussian(self, rng):
        x = rng.normal(size=(8, 64))
        out = fake_quantize(x, mxint8_spec())
        rel = np.linalg.norm(out - x) / np.linalg.norm(x)
        assert rel < 0.02

    def test_blockscale_handles_outliers_better_than_per_tensor(self, rng):
        x = rng.normal(size=(4, 128))
        x[0, 0] = 1000.0  # a single outlier
        int4_blocks = QuantFormatSpec(
            "INT4-B16",
            INT4,
            granularity=ScaleGranularity.PER_BLOCK,
            block_size=16,
            scale_format=ScaleFormat.POW2,
        )
        block_out = fake_quantize(x, int4_blocks)
        tensor_out = fake_quantize(x, per_tensor(INT4))
        # Away from the outlier's block, block scaling preserves the signal that
        # a shared per-tensor scale crushes to zero.
        block_err = np.mean((block_out[1:] - x[1:]) ** 2)
        tensor_err = np.mean((tensor_out[1:] - x[1:]) ** 2)
        assert block_err < tensor_err
        assert np.allclose(tensor_out[1:], 0.0)

    def test_scales_are_powers_of_two(self, rng):
        x = rng.normal(size=(2, 64))
        codes = quantize(x, mxint8_spec())
        nonzero = codes != 0
        scales = fake_quantize(x, mxint8_spec())[nonzero] / codes[nonzero]
        assert np.all(scales > 0)
        assert np.array_equal(np.log2(scales), np.round(np.log2(scales)))

    def test_codes_within_int8_range(self, rng):
        x = rng.normal(size=(2, 64)) * 50
        codes = quantize(x, mxint8_spec())
        assert codes.min() >= INT8.qmin and codes.max() <= INT8.qmax

    def test_shape_preserved_with_padding(self, rng):
        x = rng.normal(size=(3, 37))
        assert fake_quantize(x, mxint8_spec()).shape == x.shape

    def test_invalid_block_size_rejected(self):
        with pytest.raises(ValueError, match="block_size >= 1"):
            mxint8_spec(block_size=0)


class TestVSQ:
    def test_vsq_beats_per_tensor_int4(self, rng):
        x = rng.standard_t(df=3, size=(8, 64)) * 2
        vsq_err = np.mean((fake_quantize(x, int4_vsq_spec()) - x) ** 2)
        coarse_err = np.mean((fake_quantize(x, per_tensor(INT4)) - x) ** 2)
        assert vsq_err < coarse_err

    def test_fp8_scales_beat_uint8_scales_on_wide_dynamic_range(self, rng):
        # Vectors whose magnitudes span several orders of magnitude: the
        # paper's motivation for FP8 scale factors.
        blocks = [rng.normal(size=16) * (10.0**k) for k in range(-4, 1)]
        x = np.concatenate(blocks)
        err_fp8 = np.mean((fake_quantize(x, int4_fp8_spec()) - x) ** 2)
        err_vsq = np.mean((fake_quantize(x, int4_vsq_spec()) - x) ** 2)
        assert err_fp8 < err_vsq

    def test_uint4_config_clips_negatives(self, rng):
        x = rng.normal(size=(64,))
        out = fake_quantize(x, uint4_fp8_spec())
        assert np.all(out >= 0)

    def test_codes_within_range(self, rng):
        x = rng.normal(size=(4, 48))
        codes = quantize(x, int4_vsq_spec())
        assert codes.min() >= INT4.qmin and codes.max() <= INT4.qmax

    def test_invalid_vector_size(self):
        with pytest.raises(ValueError, match="block_size >= 1"):
            int4_vsq_spec(vector_size=0)

    def test_shape_preserved_with_padding(self, rng):
        x = rng.normal(size=(5, 23))
        assert fake_quantize(x, int4_fp8_spec()).shape == x.shape


class TestDispatch:
    def test_fp32_identity(self, rng):
        x = rng.normal(size=(4, 8))
        assert np.array_equal(apply_format(x, fp32_spec()), x)

    def test_fp16_small_error(self, rng):
        x = rng.normal(size=(4, 8))
        out = apply_format(x, fp16_spec())
        assert np.allclose(out, x, rtol=1e-3)
        assert not np.array_equal(out, x)

    def test_each_table1_format_dispatches(self, rng):
        x = rng.normal(size=(4, 64))
        for spec in (int8_spec(), mxint8_spec(), int4_spec(), int4_vsq_spec(), int4_fp8_spec()):
            out = apply_format(x, spec)
            assert out.shape == x.shape

    def test_finer_formats_have_lower_error_on_outlier_activations(self, rng):
        # Activation tensor with outlier channels, the regime the paper's
        # Table I exercises: coarse formats share one scale across the whole
        # tensor and crush the small channels.
        x = np.abs(rng.normal(size=(1, 64, 4, 4)))
        x[0, ::16] *= 50.0
        err = {
            name: float(np.mean((apply_activation_format(x, spec, channel_axis=1) - x) ** 2))
            for name, spec in (
                ("INT8", int8_spec()),
                ("MXINT8", mxint8_spec()),
                ("INT4", int4_spec()),
                ("INT4-VSQ", int4_vsq_spec()),
            )
        }
        assert err["MXINT8"] < err["INT8"]
        assert err["INT4-VSQ"] < err["INT4"]
        assert err["MXINT8"] < err["INT4-VSQ"]

    def test_weight_format_per_output_channel(self):
        weight = np.zeros((2, 4, 3, 3))
        weight[0] = 0.01
        weight[1] = 10.0
        out = apply_weight_format(weight, int4_spec(), out_channel_axis=0)
        # Per-output-channel scales keep the small filter's values.
        assert np.allclose(out[0], weight[0], rtol=0.1)

    def test_activation_coarse_format_is_per_tensor(self):
        x = np.zeros((1, 2, 2, 2))
        x[0, 0] = 0.01
        x[0, 1] = 10.0
        out = apply_activation_format(x, int4_spec(), channel_axis=1)
        # Per-tensor scaling crushes the small channel (the Table I failure mode).
        assert np.allclose(out[0, 0], 0.0)

    def test_activation_fine_format_preserves_small_channels(self, rng):
        x = np.zeros((1, 32, 2, 2))
        x[0, :16] = 0.01
        x[0, 16:] = 10.0
        out = apply_activation_format(x, int4_fp8_spec(vector_size=16), channel_axis=1)
        assert np.max(np.abs(out[0, :16] - 0.01)) < 0.005

    def test_weight_fine_format_shape(self, rng):
        weight = rng.normal(size=(8, 7, 3, 3))
        out = apply_weight_format(weight, int4_fp8_spec(), out_channel_axis=0)
        assert out.shape == weight.shape
