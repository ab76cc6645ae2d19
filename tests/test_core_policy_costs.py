"""Tests for the mixed-precision policy and the compute/memory cost model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.costs import cost_summary, high_precision_cost_fraction
from repro.core.policy import (
    mixed_precision_policy,
    sensitive_block_names,
    single_block_4bit_policy,
    table1_policy,
    uniform_policy,
)
from repro.nn.layers import Conv2d, Linear
from repro.nn.unet import BLOCK_CONV, EDMUNet, UNetConfig
from repro.quant import int4_spec


@pytest.fixture()
def model():
    return EDMUNet(
        UNetConfig(
            img_resolution=8, model_channels=8, channel_mult=(1, 2), num_blocks_per_res=2, seed=9
        )
    )


class TestPolicies:
    def test_uniform_policy_covers_all_quantizable_layers(self, model):
        policy = uniform_policy(model, int4_spec())
        quantizable = [
            name for name, m in model.named_modules() if isinstance(m, (Conv2d, Linear))
        ]
        assert set(policy.assignments) == set(quantizable)

    def test_apply_sets_specs(self, model):
        policy = uniform_policy(model, int4_spec())
        policy.apply(model)
        assert all(
            m.weight_spec is not None
            for _, m in model.named_modules()
            if isinstance(m, (Conv2d, Linear))
        )

    def test_clear_removes_specs(self, model):
        policy = uniform_policy(model, int4_spec())
        policy.apply(model)
        policy.clear(model)
        assert all(
            m.weight_spec is None and m.act_spec is None
            for _, m in model.named_modules()
            if isinstance(m, (Conv2d, Linear))
        )

    def test_fp_policy_applies_no_specs(self, model):
        policy = table1_policy(model, "FP16")
        policy.apply(model)
        assert all(
            m.weight_spec is None
            for _, m in model.named_modules()
            if isinstance(m, (Conv2d, Linear))
        )

    def test_table1_unknown_format(self, model):
        with pytest.raises(KeyError):
            table1_policy(model, "INT2")

    def test_sensitive_blocks_are_first_and_last(self, model):
        names = sensitive_block_names(model, num_boundary_blocks=1)
        infos = sorted(model.block_infos(), key=lambda i: i.order)
        assert infos[0].name in names and infos[-1].name in names
        assert len(names) == 2

    def test_mixed_precision_conv_blocks_are_4bit(self, model):
        policy = mixed_precision_policy(model, relu=False)
        sensitive = sensitive_block_names(model, 1)
        for layer in model.layers():
            assignment = policy.assignments[layer.name]
            if layer.category == BLOCK_CONV and layer.block not in sensitive:
                assert assignment.weight_bits == 4
            else:
                assert assignment.weight_bits == 8

    def test_mixed_precision_relu_uses_unsigned_activations(self, model):
        policy = mixed_precision_policy(model, relu=True)
        four_bit_acts = [
            a.act_spec for a in policy.assignments.values() if a.act_bits == 4
        ]
        assert four_bit_acts
        assert all(spec.element is not None and not spec.element.signed for spec in four_bit_acts)
        assert policy.requires_relu

    def test_mp_only_uses_signed_activations(self, model):
        policy = mixed_precision_policy(model, relu=False)
        four_bit_acts = [a.act_spec for a in policy.assignments.values() if a.act_bits == 4]
        assert all(spec.element is not None and spec.element.signed for spec in four_bit_acts)

    def test_single_block_policy(self, model):
        target = model.block_names()[2]
        policy = single_block_4bit_policy(model, target)
        for layer in model.layers():
            assignment = policy.assignments[layer.name]
            if layer.block == target and layer.category == BLOCK_CONV:
                assert assignment.weight_bits == 4
            else:
                assert assignment.weight_bits == 8

    def test_single_block_policy_unknown_block(self, model):
        with pytest.raises(KeyError):
            single_block_4bit_policy(model, "enc.128x128_block7")

    def test_bits_for_unassigned_layer_defaults_to_16(self, model):
        policy = mixed_precision_policy(model)
        assert policy.bits_for_layer("nonexistent") == (16, 16)

    def test_average_bits_between_4_and_8(self, model):
        assignments = mixed_precision_policy(model).assignments.values()
        assert 4.0 <= np.mean([a.weight_bits for a in assignments]) <= 8.0
        assert 4.0 <= np.mean([a.act_bits for a in assignments]) <= 8.0

    def test_policy_apply_to_unknown_layer_raises(self, model):
        policy = uniform_policy(model, int4_spec())
        policy.assignments["bogus.layer"] = next(iter(policy.assignments.values()))
        with pytest.raises(KeyError):
            policy.apply(
                EDMUNet(UNetConfig(img_resolution=8, model_channels=8, channel_mult=(1,), seed=1))
            )


class TestCosts:
    def test_layer_inventory_covers_blocks(self, model):
        layers = model.layers()
        names = {layer.name for layer in layers}
        assert any("conv0" in n for n in names)
        assert "unet.conv_in" in names and "unet.emb_linear0" in names
        assert all(layer.macs >= 0 for layer in layers)

    def test_fp16_policy_has_zero_saving(self, model):
        summary = cost_summary(model, table1_policy(model, "FP16"))
        assert summary.compute_saving == pytest.approx(0.0)
        assert summary.memory_saving == pytest.approx(0.0)

    def test_uniform_int4_saving_is_75_percent_compute(self, model):
        summary = cost_summary(model, table1_policy(model, "INT4"))
        assert summary.compute_saving == pytest.approx(0.75)
        assert summary.memory_saving == pytest.approx(0.75)

    def test_int4_vsq_saving_close_to_75_percent(self, model):
        summary = cost_summary(model, table1_policy(model, "INT4-VSQ"))
        assert summary.compute_saving == pytest.approx(0.75)
        # 4 element bits + a 16-bit scale per 16 values = 5.0 bits (Table II's
        # 68.8%), although the arithmetic stores UINT8 per-vector codes.
        assert summary.memory_saving == pytest.approx(1.0 - 5.0 / 16.0)

    def test_mixed_precision_saving_between_half_and_75(self, model):
        summary = cost_summary(model, mixed_precision_policy(model, relu=True))
        assert 0.5 < summary.compute_saving < 0.75
        assert 0.5 < summary.memory_saving < 0.75

    def test_mxint8_saving_close_to_half(self, model):
        summary = cost_summary(model, table1_policy(model, "MXINT8"))
        assert summary.compute_saving == pytest.approx(0.5)
        assert 0.45 <= summary.memory_saving <= 0.5

    def test_none_policy_is_baseline(self, model):
        summary = cost_summary(model, None)
        assert summary.compute_saving == 0.0

    def test_high_precision_fraction_small_for_mp(self, model):
        policy = mixed_precision_policy(model)
        fraction = high_precision_cost_fraction(model, policy)
        # The paper quotes ~5% for the full-size EDM.  The scaled-down test
        # model has only 8 blocks, so its two boundary blocks (plus all
        # Skip/Embedding/Attention layers) represent a much larger share; the
        # 4-bit blocks must still carry a substantial part of the compute.
        assert 0.0 < fraction < 0.7

    def test_high_precision_fraction_one_for_uniform_8bit(self, model):
        policy = table1_policy(model, "MXINT8")
        assert high_precision_cost_fraction(model, policy) == pytest.approx(1.0)
