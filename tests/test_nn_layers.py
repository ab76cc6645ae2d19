"""Tests for the layer module system (repro.nn.layers)."""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.core.policy import table1_policy
from repro.diffusion.edm import quantization_disabled
from repro.nn import functional as F
from repro.nn import layers
from repro.nn.layers import (
    Activation,
    Conv2d,
    Downsample,
    GroupNorm,
    Linear,
    SelfAttention2d,
    Sequential,
    Upsample,
)
from repro.nn.unet import EDMUNet
from repro.workloads.models import load_workload, workload_names
from repro.quant import int4_spec, int8_spec, mxint8_spec
from repro.quant.dispatch import apply_weight_format


class TestModuleSystem:
    def test_named_modules_includes_children(self):
        seq = Sequential([Conv2d(3, 4, name="c1"), Activation("relu", name="a1")], name="seq")
        names = [name for name, _ in seq.named_modules()]
        assert "seq" in names and "seq.c1" in names and "seq.a1" in names

    @pytest.mark.parametrize("workload", workload_names())
    def test_modules_walks_named_modules_without_names(self, workload):
        unet = load_workload(workload).unet
        walked = list(unet.modules())
        named = [module for _, module in unet.named_modules()]
        assert walked[0] is unet
        assert len(walked) == len(named)
        assert all(a is b for a, b in zip(walked, named))

    def test_parameters_collects_weights(self):
        conv = Conv2d(3, 4, name="conv")
        params = conv.parameters()
        assert any(key.endswith(".weight") for key in params)
        assert any(key.endswith(".bias") for key in params)

    def test_parameter_count(self):
        conv = Conv2d(2, 3, kernel_size=3, name="c")
        assert sum(p.size for p in conv.parameters().values()) == 3 * 2 * 9 + 3

    def test_recording_toggles_for_children(self, rng):
        seq = Sequential([Conv2d(2, 2, name="c"), Activation("relu", name="a")], name="s")
        seq.set_recording(True)
        seq(rng.normal(size=(1, 2, 4, 4)))
        assert all(m.last_output is not None for _, m in seq.named_modules())
        seq.set_recording(False)
        assert all(m.last_output is None for _, m in seq.named_modules())

    def test_base_forward_not_implemented(self):
        from repro.nn.layers import Module

        with pytest.raises(NotImplementedError):
            Module()(np.zeros(1))


class TestConvLinearQuant:
    def test_conv_output_shape(self, rng):
        conv = Conv2d(3, 8, kernel_size=3)
        assert conv(rng.normal(size=(2, 3, 8, 8))).shape == (2, 8, 8, 8)

    def test_conv_1x1_no_padding(self, rng):
        conv = Conv2d(4, 2, kernel_size=1, padding=0)
        assert conv(rng.normal(size=(1, 4, 6, 6))).shape == (1, 2, 6, 6)

    def test_conv_macs(self):
        conv = Conv2d(4, 8, kernel_size=3)
        assert conv.macs((16, 16)) == 8 * 4 * 9 * 256

    def test_weight_quantization_changes_output(self, rng):
        conv = Conv2d(4, 4, rng=rng)
        x = rng.normal(size=(1, 4, 8, 8))
        reference = conv(x)
        conv.weight_spec = int4_spec()
        quantized = conv(x)
        assert not np.allclose(reference, quantized)
        assert np.linalg.norm(reference - quantized) / np.linalg.norm(reference) < 0.5

    def test_act_quantization_changes_output(self, rng):
        conv = Conv2d(4, 4, rng=rng)
        x = rng.normal(size=(1, 4, 8, 8))
        reference = conv(x)
        conv.act_spec = int8_spec()
        assert not np.allclose(reference, conv(x))

    def test_mxint8_quantization_small_error(self, rng):
        conv = Conv2d(8, 8, rng=rng)
        x = rng.normal(size=(1, 8, 8, 8))
        reference = conv(x)
        conv.weight_spec = mxint8_spec()
        conv.act_spec = mxint8_spec()
        out = conv(x)
        assert np.linalg.norm(out - reference) / np.linalg.norm(reference) < 0.05

    def test_linear_shape_and_macs(self, rng):
        lin = Linear(6, 3)
        assert lin(rng.normal(size=(5, 6))).shape == (5, 3)
        assert lin.macs(5) == 5 * 6 * 3

    def test_linear_quantization(self, rng):
        lin = Linear(16, 16, rng=rng)
        x = rng.normal(size=(2, 16))
        reference = lin(x)
        lin.weight_spec = int4_spec()
        lin.act_spec = int4_spec()
        assert not np.allclose(reference, lin(x))


def _layer_and_input(kind, rng):
    if kind == "conv":
        return Conv2d(4, 6, name="conv", rng=rng), rng.normal(size=(2, 4, 5, 5))
    return Linear(8, 6, name="lin", rng=rng), rng.normal(size=(3, 8))


def _fresh_forward(layer, x):
    """``layer(x)`` with the weight fake-quantized afresh (no activation spec)."""
    weight = layer.weight
    if layer.weight_spec is not None:
        weight = apply_weight_format(weight, layer.weight_spec, out_channel_axis=0)
    if isinstance(layer, Conv2d):
        return F.conv2d(x, weight, layer.bias, stride=layer.stride, padding=layer.padding)
    return F.linear(x, weight, layer.bias)


@pytest.mark.parametrize("kind", ["conv", "linear"])
class TestWeightMemo:
    """The memoised fake-quantized weight always equals a fresh ``apply_weight_format``."""

    def test_constant_weight_is_quantized_once(self, kind, rng, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return apply_weight_format(*args, **kwargs)

        monkeypatch.setattr(layers, "apply_weight_format", counting)
        layer, x = _layer_and_input(kind, rng)
        layer.weight_spec = int4_spec()
        for _ in range(3):
            assert np.array_equal(layer(x), _fresh_forward(layer, x))
        assert len(calls) == 1

    def test_weight_reassigned(self, kind, rng):
        layer, x = _layer_and_input(kind, rng)
        layer.weight_spec = int4_spec()
        before = layer(x)
        layer.weight = layer.weight * 3.0
        assert np.array_equal(layer(x), _fresh_forward(layer, x))
        assert not np.allclose(layer(x), before)

    def test_weight_spec_changed(self, kind, rng):
        layer, x = _layer_and_input(kind, rng)
        for spec in (int4_spec(), int8_spec(), mxint8_spec(), int4_spec()):
            layer.weight_spec = spec
            assert np.array_equal(layer(x), _fresh_forward(layer, x))

    def test_quantization_disabled(self, kind, rng):
        layer, x = _layer_and_input(kind, rng)
        layer.weight_spec = int4_spec()
        quantized = layer(x)
        with quantization_disabled(layer):
            assert np.array_equal(layer(x), _fresh_forward(layer, x))
            assert not np.allclose(layer(x), quantized)
        assert np.array_equal(layer(x), _fresh_forward(layer, x))
        assert np.array_equal(layer(x), quantized)

    def test_deepcopy_with_replaced_weight(self, kind, rng):
        layer, x = _layer_and_input(kind, rng)
        layer.weight_spec = int4_spec()
        original = layer(x)
        clone = copy.deepcopy(layer)
        assert np.array_equal(clone(x), original)
        clone.weight = rng.normal(size=clone.weight.shape)
        assert np.array_equal(clone(x), _fresh_forward(clone, x))
        assert not np.allclose(clone(x), original)
        assert np.array_equal(layer(x), original)

    def test_memo_is_not_a_parameter(self, kind, rng):
        layer, x = _layer_and_input(kind, rng)
        layer.weight_spec = int4_spec()
        layer(x)
        params = layer.parameters()
        assert sorted(params) == [f"{layer.name}.bias", f"{layer.name}.weight"]
        assert params[f"{layer.name}.weight"] is layer.weight


def test_weight_memo_follows_policy_clear_and_reapply(tiny_unet_config, rng):
    x = rng.normal(size=(2, 3, 8, 8))
    noise = rng.normal(size=2)

    def fresh(format_name):
        model = EDMUNet(tiny_unet_config)
        if format_name is not None:
            table1_policy(model, format_name).apply(model)
        return model(x, noise)

    model = EDMUNet(tiny_unet_config)
    policy = table1_policy(model, "INT4")
    policy.apply(model)
    assert np.array_equal(model(x, noise), fresh("INT4"))
    policy.clear(model)
    assert np.array_equal(model(x, noise), fresh(None))
    table1_policy(model, "INT8").apply(model)
    assert np.array_equal(model(x, noise), fresh("INT8"))


class TestOtherLayers:
    def test_group_norm_layer_adjusts_groups(self):
        norm = GroupNorm(num_channels=6, num_groups=4)
        assert 6 % norm.num_groups == 0

    def test_group_norm_forward(self, rng):
        norm = GroupNorm(8)
        out = norm(rng.normal(size=(1, 8, 4, 4)))
        assert out.shape == (1, 8, 4, 4)

    def test_activation_invalid_kind(self):
        with pytest.raises(ValueError):
            Activation("swishx")

    def test_activation_relu_sparsifies(self, rng):
        act = Activation("relu")
        out = act(rng.normal(size=(1, 4, 8, 8)))
        assert np.mean(out == 0) > 0.3

    def test_activation_silu_no_exact_zeros(self, rng):
        act = Activation("silu")
        out = act(rng.normal(size=(1, 4, 8, 8)))
        assert np.mean(out == 0) < 0.01

    def test_down_up_sample_layers(self, rng):
        x = rng.normal(size=(1, 2, 8, 8))
        assert Downsample()(x).shape == (1, 2, 4, 4)
        assert Upsample()(x).shape == (1, 2, 16, 16)

    def test_attention_preserves_shape(self, rng):
        attn = SelfAttention2d(8, rng=rng)
        x = rng.normal(size=(1, 8, 4, 4))
        assert attn(x).shape == x.shape

    def test_attention_is_residual(self, rng):
        attn = SelfAttention2d(8, rng=rng)
        attn.proj.weight = np.zeros_like(attn.proj.weight)
        attn.proj.bias = np.zeros_like(attn.proj.bias)
        x = rng.normal(size=(1, 8, 4, 4))
        assert np.allclose(attn(x), x)

    def test_attention_invalid_heads(self):
        with pytest.raises(ValueError):
            SelfAttention2d(6, num_heads=4)

    def test_sequential_applies_in_order(self, rng):
        seq = Sequential([Activation("relu"), Activation("relu")])
        x = rng.normal(size=(1, 2, 4, 4))
        assert np.allclose(seq(x), np.maximum(x, 0))
