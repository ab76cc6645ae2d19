"""Tests for repro.quant.formats and repro.quant.fp8."""

from __future__ import annotations

import numpy as np
import pytest

from repro.quant import formats
from repro.quant.fp8 import (
    quantize_scales,
    round_to_fp16,
    round_to_fp8_e4m3,
    round_to_fp8_e5m2,
)


class TestIntegerFormat:
    def test_int8_range(self):
        assert formats.INT8.qmin == -127
        assert formats.INT8.qmax == 127

    def test_int4_range(self):
        assert formats.INT4.qmin == -7
        assert formats.INT4.qmax == 7

    def test_uint4_range(self):
        assert formats.UINT4.qmin == 0
        assert formats.UINT4.qmax == 15

    def test_uint4_has_16_levels(self):
        assert formats.UINT4.num_levels == 16

    def test_int4_names(self):
        assert formats.INT4.name == "INT4"
        assert formats.UINT4.name == "UINT4"

    def test_invalid_bits_rejected(self):
        with pytest.raises(ValueError):
            formats.IntegerFormat(bits=1)
        with pytest.raises(ValueError):
            formats.IntegerFormat(bits=64)


class TestFloatFormat:
    def test_fp8_e4m3_max(self):
        assert formats.FP8_E4M3.max_value == pytest.approx(448.0)

    def test_fp8_e4m3_bits(self):
        assert formats.FP8_E4M3.bits == 8

    def test_fp16_bits(self):
        assert formats.FP16.bits == 16

    def test_fp32_bits(self):
        assert formats.FP32.bits == 32

    def test_min_normal_positive(self):
        assert formats.FP8_E4M3.min_normal > 0
        assert formats.FP8_E5M2.min_normal < formats.FP8_E4M3.min_normal


class TestQuantFormatSpec:
    def test_fp32_is_not_quantized(self):
        assert not formats.fp32_spec().is_quantized

    def test_fp16_is_not_quantized(self):
        assert not formats.fp16_spec().is_quantized

    def test_int8_is_quantized(self):
        assert formats.int8_spec().is_quantized

    def test_bits_per_value_fp16(self):
        assert formats.fp16_spec().bits_per_value() == 16.0

    def test_bits_per_value_coarse_int4(self):
        assert formats.int4_spec().bits_per_value() == 4.0

    def test_bits_per_value_vsq_includes_scale_overhead(self):
        spec = formats.int4_vsq_spec(vector_size=16)
        assert spec.bits_per_value() == pytest.approx(4.0 + 16.0 / 16.0)

    def test_bits_per_value_fp8_scale_less_than_fp16_scale(self):
        fp8 = formats.int4_fp8_spec(vector_size=16)
        vsq = formats.int4_vsq_spec(vector_size=16)
        assert fp8.bits_per_value() < vsq.bits_per_value()

    def test_mxint8_bits_per_value(self):
        spec = formats.mxint8_spec(block_size=32)
        assert spec.bits_per_value() == pytest.approx(8.0 + 8.0 / 32.0)

    def test_bits_per_value_of_every_named_format(self):
        # The only storage cost: element bits plus the amortized block scale.
        # INT4-VSQ is charged its FP16 scales (see README, Quantization formats).
        expected = {
            "FP32": 32.0,
            "FP16": 16.0,
            "INT8": 8.0,
            "MXINT8": 8.25,
            "INT4": 4.0,
            "INT4-VSQ": 5.0,
            "INT4-FP8S": 4.5,
            "UINT4-FP8S": 4.5,
        }
        assert {name: formats.get_format(name).bits_per_value() for name in expected} == expected

    def test_table1_formats_complete(self):
        assert set(formats.TABLE1_FORMATS) == {"FP32", "FP16", "INT8", "MXINT8", "INT4", "INT4-VSQ"}

    def test_get_format_known(self):
        assert formats.get_format("MXINT8").name == "MXINT8"
        assert formats.get_format("INT4-FP8S").name == "INT4-FP8S"
        # One registry, built once: Table I rows are the same spec objects.
        assert formats.get_format("INT4-VSQ") is formats.TABLE1_FORMATS["INT4-VSQ"]

    def test_get_format_unknown_raises(self):
        with pytest.raises(KeyError, match="unknown quantization format"):
            formats.get_format("INT3")

    def test_uint4_spec_unsigned(self):
        spec = formats.uint4_fp8_spec()
        assert spec.element is not None
        assert not spec.element.signed


class TestFP8Rounding:
    def test_exact_powers_of_two_preserved(self):
        values = np.array([0.5, 1.0, 2.0, 4.0, 64.0])
        assert np.allclose(round_to_fp8_e4m3(values), values)

    def test_zero_preserved(self):
        assert round_to_fp8_e4m3(np.array([0.0]))[0] == 0.0

    def test_saturation_at_max(self):
        assert round_to_fp8_e4m3(np.array([1e6]))[0] == pytest.approx(448.0)

    def test_negative_values_symmetric(self):
        values = np.array([-1.3, -7.7, -100.0])
        assert np.allclose(round_to_fp8_e4m3(values), -round_to_fp8_e4m3(-values))

    def test_relative_error_bounded(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(0.02, 400.0, size=1000)
        rounded = round_to_fp8_e4m3(values)
        rel_err = np.abs(rounded - values) / values
        # 3 mantissa bits -> relative error at most 2^-4 = 6.25%.
        assert np.max(rel_err) <= 0.0625 + 1e-9

    def test_e5m2_wider_range_than_e4m3(self):
        big = np.array([5000.0])
        assert round_to_fp8_e5m2(big)[0] > round_to_fp8_e4m3(big)[0]

    def test_fp16_roundtrip(self):
        values = np.array([0.1, 1.5, 3.25])
        assert np.allclose(round_to_fp16(values), values, rtol=1e-3)

    def test_quantize_scales_pow2_rounds_up(self):
        scales = np.array([0.3, 1.1, 5.0])
        pow2 = quantize_scales(scales, formats.ScaleFormat.POW2)
        assert np.all(pow2 >= scales)
        assert np.allclose(np.log2(pow2), np.round(np.log2(pow2)))

    def test_quantize_scales_fp32_identity(self):
        scales = np.array([0.123, 4.56])
        assert np.array_equal(quantize_scales(scales, formats.ScaleFormat.FP32), scales)

    def test_quantize_scales_unknown_format(self):
        # Scale formats are named by ScaleFormat only, never by a string.
        for name in ("fp12", "pow2"):
            with pytest.raises(ValueError, match="unknown scale format"):
                quantize_scales(np.array([1.0]), name)
