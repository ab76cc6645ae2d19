"""The U-Net layer inventory against the hand-built layer lists it replaced.

``EDMUNet.layers()`` is the one list of Conv2d/Linear layers that the
quantization policies, cost summaries, the Fig. 4 breakdown, sparsity traces
and the SiLU -> ReLU calibration read.  The references below are copies of
the code that worked that list out before: a name parser
(``_classify_layer``), a hand-built cost table (``layer_cost_table``),
hand-built traced-layer names and a calibration keyed by object identity.
Every number must come out equal, not merely close: cost sums run in the
same order, so the reproduced Table II savings and Fig. 4 shares keep their
bits.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np
import pytest

from repro.analysis.breakdown import BLOCK_TYPES, BreakdownReport, cost_breakdown
from repro.core.costs import (
    CostSummary,
    _compute_weight,
    _memory_weight,
    cost_summary,
    high_precision_cost_fraction,
)
from repro.core.policy import (
    mixed_precision_policy,
    sensitive_block_names,
    single_block_4bit_policy,
    table1_policy,
)
from repro.core.sparsity import (
    TracedLayer,
    _per_channel_zero_fraction,
    collect_sparsity_trace,
    traced_layers_for_model,
)
from repro.diffusion.edm import EDMDenoiser
from repro.diffusion.finetune import _per_channel_stats, adapt_to_relu, make_calibration_batch
from repro.diffusion.sampler import SamplerConfig, sample
from repro.diffusion.schedule import ScheduleConfig
from repro.nn.layers import Conv2d, Linear
from repro.nn.unet import (
    BLOCK_ATTENTION,
    BLOCK_CONV,
    BLOCK_EMBEDDING,
    BLOCK_SKIP,
    EDMUNet,
    UNetConfig,
)
from repro.quant.formats import (
    TABLE1_FORMATS,
    fp16_spec,
    int4_fp8_spec,
    mxint8_spec,
    uint4_fp8_spec,
)
from repro.workloads.models import load_workload, workload_names

# -- references: the layer lists as they were built before the inventory -------


def _reference_quantizable_layers(model):
    return {
        name: module
        for name, module in model.named_modules()
        if isinstance(module, (Conv2d, Linear))
    }


def _reference_classify_layer(model, layer_name):
    for info in model.block_infos():
        if f".{info.name}." in layer_name or layer_name.endswith(f".{info.name}"):
            tail = layer_name.rsplit(".", 1)[-1]
            if tail in ("conv0", "conv1"):
                return info.name, BLOCK_CONV
            if tail == "skip_conv":
                return info.name, BLOCK_SKIP
            if tail == "emb_linear":
                return info.name, BLOCK_EMBEDDING
            if tail in ("qkv", "proj"):
                return info.name, BLOCK_ATTENTION
            return info.name, BLOCK_CONV
    tail = layer_name.rsplit(".", 1)[-1]
    if tail in ("conv_in", "conv_out"):
        return tail, BLOCK_SKIP
    if "label_linear" in tail or "emb_linear" in tail:
        return tail, BLOCK_EMBEDDING
    return tail, BLOCK_SKIP


def _reference_policy(model, choose):
    """name -> (block, category, weight spec, act spec); ``choose(block, category)``."""
    out = {}
    for name in _reference_quantizable_layers(model):
        block, category = _reference_classify_layer(model, name)
        out[name] = (block, category, *choose(block, category))
    return out


def _reference_uniform(model, spec):
    return _reference_policy(model, lambda block, category: (spec, spec))


def _reference_mixed_precision(model, relu):
    sensitive = sensitive_block_names(model, 1)
    act_4bit = uint4_fp8_spec() if relu else int4_fp8_spec()

    def choose(block, category):
        if category == BLOCK_CONV and block not in sensitive:
            return int4_fp8_spec(), act_4bit
        return mxint8_spec(), mxint8_spec()

    return _reference_policy(model, choose)


def _reference_single_block(model, block_name):
    def choose(block, category):
        spec = int4_fp8_spec() if block == block_name and category == BLOCK_CONV else mxint8_spec()
        return spec, spec

    return _reference_policy(model, choose)


@dataclass(frozen=True)
class _ReferenceLayerCost:
    layer_name: str
    block_name: str
    block_type: str
    macs: float
    weight_elements: float
    activation_elements: float


def _reference_layer_cost_table(model):
    costs = []
    for info in model.block_infos():
        spatial = info.spatial
        block = info.block
        height, width = spatial
        pixels = height * width
        for idx, conv in enumerate((block.conv0, block.conv1)):
            costs.append(
                _ReferenceLayerCost(
                    f"unet.{info.name}.conv{idx}",
                    info.name,
                    BLOCK_CONV,
                    float(conv.macs(spatial)),
                    float(conv.weight.size),
                    float(conv.in_channels * pixels),
                )
            )
        costs.append(
            _ReferenceLayerCost(
                f"unet.{info.name}.emb_linear",
                info.name,
                BLOCK_EMBEDDING,
                float(block.emb_linear.macs(1)),
                float(block.emb_linear.weight.size),
                float(block.emb_linear.in_features),
            )
        )
        if block.skip_conv is not None:
            costs.append(
                _ReferenceLayerCost(
                    f"unet.{info.name}.skip_conv",
                    info.name,
                    BLOCK_SKIP,
                    float(block.skip_conv.macs(spatial)),
                    float(block.skip_conv.weight.size),
                    float(block.skip_conv.in_channels * pixels),
                )
            )
        if block.attention is not None:
            attn = block.attention
            attention_matmul_macs = 2.0 * pixels * pixels * attn.channels
            costs.append(
                _ReferenceLayerCost(
                    f"unet.{info.name}.attention.qkv",
                    info.name,
                    BLOCK_ATTENTION,
                    float(attn.qkv.macs(spatial)) + attention_matmul_macs,
                    float(attn.qkv.weight.size),
                    float(3 * attn.channels * pixels),
                )
            )
            costs.append(
                _ReferenceLayerCost(
                    f"unet.{info.name}.attention.proj",
                    info.name,
                    BLOCK_ATTENTION,
                    float(attn.proj.macs(spatial)),
                    float(attn.proj.weight.size),
                    float(attn.channels * pixels),
                )
            )
    res = model.config.img_resolution
    for name, conv in (("unet.conv_in", model.conv_in), ("unet.conv_out", model.conv_out)):
        costs.append(
            _ReferenceLayerCost(
                name,
                name.split(".")[-1],
                BLOCK_SKIP,
                float(conv.macs((res, res))),
                float(conv.weight.size),
                float(conv.in_channels * res * res),
            )
        )
    for name, layer in (
        ("unet.emb_linear0", model.emb_linear0),
        ("unet.emb_linear1", model.emb_linear1),
    ):
        costs.append(
            _ReferenceLayerCost(
                name,
                name.split(".")[-1],
                BLOCK_EMBEDDING,
                float(layer.macs(1)),
                float(layer.weight.size),
                float(layer.in_features),
            )
        )
    return costs


def _reference_cost_summary(model, assignments):
    """``assignments``: name -> (block, category, weight spec, act spec), or None."""
    baseline = fp16_spec()
    compute = memory = baseline_compute = baseline_memory = 0.0
    for cost in _reference_layer_cost_table(model):
        if assignments is not None and cost.layer_name in assignments:
            weight_spec, act_spec = assignments[cost.layer_name][2:]
        else:
            weight_spec = act_spec = baseline
        compute += cost.macs * _compute_weight(weight_spec, act_spec)
        memory += _memory_weight(
            weight_spec, act_spec, cost.weight_elements, cost.activation_elements
        )
        baseline_compute += cost.macs * _compute_weight(baseline, baseline)
        baseline_memory += _memory_weight(
            baseline, baseline, cost.weight_elements, cost.activation_elements
        )
    return CostSummary(compute, memory, baseline_compute, baseline_memory)


def _reference_high_precision_fraction(model, assignments):
    table = _reference_layer_cost_table(model)
    total = sum(c.macs for c in table)
    high = 0.0
    for cost in table:
        entry = assignments.get(cost.layer_name)
        if (entry[2].element_bits if entry is not None else 16) > 4:
            high += cost.macs
    return high / total


def _reference_breakdown(model, workload):
    macs = {block_type: 0.0 for block_type in BLOCK_TYPES}
    memory = {block_type: 0.0 for block_type in BLOCK_TYPES}
    for cost in _reference_layer_cost_table(model):
        macs[cost.block_type] = macs.get(cost.block_type, 0.0) + cost.macs
        memory[cost.block_type] = memory.get(cost.block_type, 0.0) + (
            cost.weight_elements + cost.activation_elements
        )
    total_macs = sum(macs.values())
    total_memory = sum(memory.values())
    return BreakdownReport(
        workload=workload,
        compute_share={k: v / total_macs for k, v in macs.items()},
        memory_share={k: v / total_memory for k, v in memory.items()},
        total_macs=total_macs,
        total_memory_elements=total_memory,
    )


def _reference_traced_layers(model):
    layers = []
    for info in model.block_infos():
        height, width = info.spatial
        for idx, conv in enumerate((info.block.conv0, info.block.conv1)):
            layers.append(
                TracedLayer(
                    name=f"unet.{info.name}.conv{idx}",
                    block_name=info.name,
                    in_channels=conv.in_channels,
                    out_channels=conv.out_channels,
                    kernel_size=conv.kernel_size,
                    height=height,
                    width=width,
                )
            )
    return layers


# -- fixtures -------------------------------------------------------------------


@pytest.fixture(scope="module", params=workload_names())
def workload_unet(request):
    return request.param, load_workload(request.param).unet


def _conditional_unet():
    return EDMUNet(
        UNetConfig(img_resolution=8, model_channels=8, channel_mult=(1, 2), label_dim=4, seed=1)
    )


def _assignments(model, policy):
    layers = {layer.name: layer for layer in model.layers()}
    assert set(policy.assignments) == set(layers)
    return {
        name: (layers[name].block, layers[name].category, a.weight_spec, a.act_spec)
        for name, a in policy.assignments.items()
    }


def _costs(layer):
    return (layer.macs, layer.weight_elements, layer.activation_elements)


def _reference_costs(cost):
    return (cost.macs, cost.weight_elements, cost.activation_elements)


# -- the inventory itself ---------------------------------------------------------


class TestInventory:
    @staticmethod
    def _assert_every_conv_and_linear_once(model):
        layers = model.layers()
        names = [layer.name for layer in layers]
        assert len(names) == len(set(names))
        expected = _reference_quantizable_layers(model)
        assert {layer.name: layer.module for layer in layers} == expected

    def test_every_conv_and_linear_appears_once_under_its_module_name(self, workload_unet):
        self._assert_every_conv_and_linear_once(workload_unet[1])

    def test_names_categories_costs_and_order_equal_the_hand_built_table(self, workload_unet):
        model = workload_unet[1]
        layers = [
            (layer.name, layer.block, layer.category, _costs(layer)) for layer in model.layers()
        ]
        reference = [
            (cost.layer_name, cost.block_name, cost.block_type, _reference_costs(cost))
            for cost in _reference_layer_cost_table(model)
        ]
        assert layers == reference

    def test_conditional_unet_lists_label_linear_last(self):
        model = _conditional_unet()
        self._assert_every_conv_and_linear_once(model)
        layers = model.layers()
        reference = [cost.layer_name for cost in _reference_layer_cost_table(model)]
        assert [layer.name for layer in layers[:-1]] == reference
        label = layers[-1]
        assert label.name == "unet.label_linear"
        assert (label.block, label.category) == ("label_linear", BLOCK_EMBEDDING)
        assert _costs(label) == (4.0 * model.config.emb_dim, 4.0 * model.config.emb_dim, 4.0)

    def test_conv_act_layers_name_the_activation_that_feeds_them(self, workload_unet):
        model = workload_unet[1]
        for layer in model.layers():
            if layer.category != BLOCK_CONV:
                assert layer.activation is None
                continue
            block = model.get_block(layer.block)
            expected = block.act0 if layer.module is block.conv0 else block.act1
            assert layer.activation is expected


# -- readers of the inventory, against the references ----------------------------


class TestPolicies:
    def test_table1_policies(self, workload_unet):
        model = workload_unet[1]
        for format_name, spec in TABLE1_FORMATS.items():
            policy = table1_policy(model, format_name)
            assert _assignments(model, policy) == _reference_uniform(model, spec), format_name

    @pytest.mark.parametrize("relu", [False, True], ids=["MP-only", "MP+ReLU"])
    def test_mixed_precision_policies(self, workload_unet, relu):
        model = workload_unet[1]
        policy = mixed_precision_policy(model, relu=relu)
        assert _assignments(model, policy) == _reference_mixed_precision(model, relu)

    def test_single_block_policies(self, workload_unet):
        model = workload_unet[1]
        for block_name in model.block_names():
            policy = single_block_4bit_policy(model, block_name)
            reference = _reference_single_block(model, block_name)
            assert _assignments(model, policy) == reference, block_name

    def test_conditional_unet_policies(self):
        model = _conditional_unet()
        for relu in (False, True):
            policy = mixed_precision_policy(model, relu=relu)
            assert _assignments(model, policy) == _reference_mixed_precision(model, relu)
        policy = table1_policy(model, "INT4")
        assert _assignments(model, policy) == _reference_uniform(model, TABLE1_FORMATS["INT4"])


class TestCostsAndBreakdown:
    def test_cost_summaries(self, workload_unet):
        model = workload_unet[1]
        assert cost_summary(model, None) == _reference_cost_summary(model, None)
        policies = [table1_policy(model, name) for name in TABLE1_FORMATS]
        policies += [mixed_precision_policy(model, relu=relu) for relu in (False, True)]
        for policy in policies:
            reference = _reference_cost_summary(model, _assignments(model, policy))
            assert cost_summary(model, policy) == reference, policy.name

    def test_high_precision_cost_fractions(self, workload_unet):
        model = workload_unet[1]
        policies = [table1_policy(model, name) for name in TABLE1_FORMATS]
        policies += [mixed_precision_policy(model, relu=relu) for relu in (False, True)]
        for policy in policies:
            reference = _reference_high_precision_fraction(model, _assignments(model, policy))
            assert high_precision_cost_fraction(model, policy) == reference, policy.name

    def test_fig4_breakdown(self, workload_unet):
        name, model = workload_unet
        assert cost_breakdown(model, name) == _reference_breakdown(model, name)


class TestSparsityAndCalibration:
    def test_traced_layers(self, workload_unet):
        model = workload_unet[1]
        assert traced_layers_for_model(model) == _reference_traced_layers(model)

    def test_trace_snapshot_matches_hand_built_names(self):
        unet = EDMUNet(UNetConfig(img_resolution=8, model_channels=8, activation="relu", seed=3))
        denoiser = EDMDenoiser(unet)
        config = SamplerConfig(schedule=ScheduleConfig(num_steps=3), seed=5)
        trace = collect_sparsity_trace(
            denoiser, (3, 8, 8), config, num_samples=1, zero_tolerance_rel=0.05
        )

        steps = []

        def snapshot(step_index, sigma, x):
            record = {}
            for info in unet.block_infos():
                for idx, act in enumerate((info.block.act0, info.block.act1)):
                    zeros = _per_channel_zero_fraction(act.last_output, 0.05)
                    record[f"unet.{info.name}.conv{idx}"] = zeros
            steps.append(record)

        unet.set_recording(True)
        try:
            sample(denoiser, 1, (3, 8, 8), config, step_callback=snapshot)
        finally:
            unet.set_recording(False)
        assert len(trace.steps) == len(steps) == 3
        for new, old in zip(trace.steps, steps):
            assert list(new) == list(old)
            for name in old:
                assert new[name].tobytes() == old[name].tobytes()

    def test_relu_calibration_matches_identity_keyed_reference(self):
        model = EDMUNet(UNetConfig(img_resolution=8, model_channels=8, seed=7))
        batch = make_calibration_batch((3, 8, 8), batch_size=2, seed=2)
        adapted, report = adapt_to_relu(model, batch, num_passes=2)

        def stats(unet):
            unet.set_recording(True)
            try:
                unet(batch.images, batch.noise_cond, batch.labels)
                by_id = {}
                for info in unet.block_infos():
                    for conv in (info.block.conv0, info.block.conv1):
                        by_id[id(conv)] = _per_channel_stats(conv.last_output)
            finally:
                unet.set_recording(False)
            return {
                (info.name, idx): by_id[id(conv)]
                for info in unet.block_infos()
                for idx, conv in enumerate((info.block.conv0, info.block.conv1))
            }

        reference_stats = stats(model)
        reference = copy.deepcopy(model)
        reference.set_activation("relu")
        for _ in range(2):
            current = stats(reference)
            shifts, scales = [], []
            for info in reference.block_infos():
                for idx, conv in enumerate((info.block.conv0, info.block.conv1)):
                    cur_mean, cur_std = current[(info.name, idx)]
                    ref_mean, ref_std = reference_stats[(info.name, idx)]
                    scale = np.clip(ref_std / np.maximum(cur_std, 1e-6), 0.25, 4.0)
                    conv.weight = conv.weight * scale[:, None, None, None]
                    conv.bias = scale * (conv.bias - cur_mean) + ref_mean
                    shifts.append(float(np.mean(np.abs(ref_mean - cur_mean))))
                    scales.append(float(np.mean(scale)))

        assert report.adjusted_convs == len(scales) == 2 * len(model.block_infos())
        assert report.mean_output_shift == float(np.mean(shifts))
        assert report.mean_scale == float(np.mean(scales))
        new_params = adapted.parameters()
        for name, value in reference.parameters().items():
            assert new_params[name].tobytes() == value.tobytes(), name
