"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.accelerator import (
    ActivationMapping,
    WeightMapping,
    classify_channels,
    compress_channel,
    random_workload,
)
from repro.accelerator.config import PEConfig
from repro.accelerator.datapath import DenseDatapath, SparseDatapath
from repro.accelerator.energy import DEFAULT_ENERGY_TABLE
from repro.nn import functional as F
from repro.quant import (
    INT4,
    INT8,
    UINT4,
    QuantFormatSpec,
    ScaleGranularity,
    fake_quantize,
    int4_fp8_spec,
    mxint8_spec,
    quantize,
)


def per_tensor(fmt):
    return QuantFormatSpec(name=fmt.name, element=fmt, granularity=ScaleGranularity.PER_TENSOR)


finite_arrays = hnp.arrays(
    dtype=np.float64,
    shape=hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=24),
    elements=st.floats(min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False),
)


class TestQuantizationProperties:
    @given(finite_arrays)
    @settings(max_examples=40, deadline=None)
    def test_uniform_quantization_error_bounded(self, x):
        out = fake_quantize(x, per_tensor(INT8))
        step = max(float(np.max(np.abs(x))), 1e-12) / INT8.qmax
        assert np.all(np.abs(out - x) <= step / 2 + 1e-9)

    @given(finite_arrays)
    @settings(max_examples=40, deadline=None)
    def test_codes_always_in_range(self, x):
        for fmt in (INT4, INT8, UINT4):
            codes = quantize(x, per_tensor(fmt))
            assert codes.min() >= fmt.qmin
            assert codes.max() <= fmt.qmax

    @given(finite_arrays)
    @settings(max_examples=30, deadline=None)
    def test_fake_quantize_idempotent(self, x):
        once = fake_quantize(x, per_tensor(INT8))
        twice = fake_quantize(once, per_tensor(INT8))
        assert np.allclose(once, twice, atol=1e-9)

    @given(finite_arrays)
    @settings(max_examples=30, deadline=None)
    def test_quantization_preserves_sign(self, x):
        out = fake_quantize(x, per_tensor(INT8))
        assert np.all(np.sign(out) * np.sign(x) >= 0)

    @given(finite_arrays, st.sampled_from([8, 16, 32]))
    @settings(max_examples=30, deadline=None)
    def test_blockscale_shape_preserved(self, x, block_size):
        out = fake_quantize(x, mxint8_spec(block_size=block_size))
        assert out.shape == x.shape
        assert np.all(np.isfinite(out))

    @given(finite_arrays)
    @settings(max_examples=30, deadline=None)
    def test_vsq_error_bounded_per_vector(self, x):
        out = fake_quantize(x, int4_fp8_spec(vector_size=16))
        # Error is bounded by one quantization step of the per-vector scale,
        # which itself is bounded by max|x| / qmax (scales only shrink under FP8
        # rounding by at most ~6%).
        bound = max(float(np.max(np.abs(x))), 1e-12) / INT4.qmax * 0.6
        assert np.max(np.abs(out - x)) <= bound + 1e-9

    @given(finite_arrays)
    @settings(max_examples=30, deadline=None)
    def test_relu_output_nonnegative_and_sparse_where_negative(self, x):
        out = F.relu(x)
        assert np.all(out >= 0)
        assert np.all(out[x < 0] == 0)

    @given(finite_arrays)
    @settings(max_examples=30, deadline=None)
    def test_silu_bounded_below(self, x):
        assert np.all(F.silu(x) >= F.SILU_MIN - 1e-9)


class TestDetectorProperties:
    @given(
        hnp.arrays(
            dtype=np.float64,
            shape=st.integers(min_value=1, max_value=128),
            elements=st.floats(min_value=0.0, max_value=1.0),
        ),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_classification_partitions_channels(self, sparsity, threshold):
        cls = classify_channels(sparsity, threshold)
        combined = np.sort(np.concatenate([cls.dense_channels, cls.sparse_channels]))
        assert np.array_equal(combined, np.arange(sparsity.size))
        assert np.all(cls.sparsity[cls.sparse_channels] >= threshold)
        assert np.all(cls.sparsity[cls.dense_channels] < threshold)

    @given(
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=40, deadline=None)
    def test_activation_mapping_bijective(self, channels, height, width):
        mapping = ActivationMapping(channels, height, width)
        addresses = {
            mapping.address(c, y, x)
            for c in range(channels)
            for y in range(height)
            for x in range(width)
        }
        assert len(addresses) == mapping.size
        assert min(addresses) == 0 and max(addresses) == mapping.size - 1

    @given(st.integers(min_value=1, max_value=16), st.integers(min_value=1, max_value=16))
    @settings(max_examples=30, deadline=None)
    def test_weight_mapping_channel_slices_tile_address_space(self, out_channels, in_channels):
        mapping = WeightMapping(out_channels, in_channels, 3, 3)
        covered = []
        for c in range(in_channels):
            start, end = mapping.channel_slice(c)
            covered.extend(range(start, end))
        assert sorted(covered) == list(range(mapping.size))

    @given(
        hnp.arrays(
            dtype=np.float64,
            shape=st.integers(min_value=1, max_value=256),
            elements=st.floats(min_value=-10, max_value=10, allow_nan=False),
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_compress_decompress_roundtrip(self, data):
        record = compress_channel(data, 0)
        assert np.allclose(record.decompress(), data)
        assert record.nonzeros == int(np.count_nonzero(data))


class TestDatapathProperties:
    @given(st.floats(min_value=0, max_value=1e9), st.sampled_from([4, 8, 16]))
    @settings(max_examples=40, deadline=None)
    def test_dense_cycles_monotonic_in_macs(self, macs, bits):
        dp = DenseDatapath(PEConfig(), DEFAULT_ENERGY_TABLE)
        result = dp.execute(macs, bits, bits, 0, 0, 0)
        more = dp.execute(macs * 2 + 1, bits, bits, 0, 0, 0)
        assert more.cycles >= result.cycles
        assert result.cycles >= 0 and np.isfinite(result.cycles)

    @given(
        st.floats(min_value=1, max_value=1e8),
        st.floats(min_value=0, max_value=1),
        st.sampled_from([4, 8, 16]),
    )
    @settings(max_examples=40, deadline=None)
    def test_sparse_executed_plus_skipped_equals_total(self, macs, nonzero, bits):
        sp = SparseDatapath(PEConfig(), DEFAULT_ENERGY_TABLE)
        result = sp.execute(macs, nonzero, bits, bits, 0, 0, 0)
        assert result.macs_executed + result.macs_skipped == pytest.approx(macs)
        assert result.energy.total_pj >= 0

    @given(st.integers(min_value=1, max_value=256), st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=30, deadline=None)
    def test_random_workload_sparsity_valid(self, channels, mean_sparsity):
        w = random_workload(in_channels=channels, mean_sparsity=mean_sparsity, seed=1)
        assert w.channel_sparsity.shape == (channels,)
        assert np.all((w.channel_sparsity >= 0) & (w.channel_sparsity <= 1))
