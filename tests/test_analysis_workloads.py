"""Tests for the analysis package and the workload zoo."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.breakdown import cost_breakdown
from repro.analysis.distributions import (
    compare_activation_distributions,
    distribution_summary,
    measure_model_sparsity,
    quantization_level_utilization,
    silu_minimum,
    silu_vs_relu_level_utilization,
)
from repro.analysis.speedup import figure1_summary, summarize_hardware
from repro.analysis.tables import format_percentage, format_speedup, format_table, render_ascii_map
from repro.core.pipeline import HardwareEvaluation
from repro.nn.unet import BLOCK_CONV
from repro.quant.formats import INT4, INT8, UINT4
from repro.workloads.models import WORKLOAD_SPECS, build_unet, load_workload, workload_names


class TestWorkloads:
    def test_four_workloads(self):
        assert workload_names() == ["cifar10", "afhqv2", "ffhq", "imagenet"]
        assert set(WORKLOAD_SPECS) == set(workload_names())

    def test_unknown_workload(self):
        with pytest.raises(KeyError):
            load_workload("celeba")

    def test_workload_bundles_dataset_and_model(self, cifar_workload):
        assert cifar_workload.name == "cifar10"
        assert cifar_workload.unet.config.img_resolution == cifar_workload.dataset.resolution
        assert cifar_workload.denoiser.unet is cifar_workload.unet

    def test_workload_resolution_override(self):
        wl = load_workload("afhqv2", resolution=8)
        assert wl.image_shape == (3, 8, 8)

    def test_relu_activation_option(self):
        wl = load_workload("cifar10", resolution=8, activation="relu")
        assert wl.unet.config.activation == "relu"

    def test_calibration_injects_weight_outliers(self, cifar_workload):
        # Heavy-tailed filters: the max |weight| is far above the median filter norm.
        conv = cifar_workload.unet.block_infos()[0].block.conv0
        filter_norms = np.linalg.norm(conv.weight.reshape(conv.weight.shape[0], -1), axis=1)
        assert filter_norms.max() / np.median(filter_norms) > 3.0

    def test_boundary_blocks_have_stronger_outliers(self):
        unet = build_unet(WORKLOAD_SPECS["cifar10"], resolution=8)
        infos = unet.block_infos()

        def outlier_strength(block):
            gamma = np.concatenate([block.norm0.gamma, block.norm1.gamma])
            return float(np.max(gamma))

        first = outlier_strength(infos[0].block)
        middle = outlier_strength(infos[len(infos) // 2].block)
        assert first > middle

    def test_models_are_deterministic(self):
        a = load_workload("cifar10", resolution=8).unet.parameters()
        b = load_workload("cifar10", resolution=8).unet.parameters()
        assert all(np.array_equal(a[k], b[k]) for k in a)


class TestBreakdown:
    def test_conv_blocks_dominate_compute(self, cifar_workload):
        report = cost_breakdown(cifar_workload.unet, "cifar10")
        assert report.dominant_type() == BLOCK_CONV
        assert report.conv_compute_share() > 0.5

    def test_shares_sum_to_one(self, cifar_workload):
        report = cost_breakdown(cifar_workload.unet)
        assert sum(report.compute_share.values()) == pytest.approx(1.0)
        assert sum(report.memory_share.values()) == pytest.approx(1.0)

    def test_totals_positive(self, cifar_workload):
        report = cost_breakdown(cifar_workload.unet)
        assert report.total_macs > 0 and report.total_memory_elements > 0


class TestDistributions:
    def test_silu_minimum_matches_paper(self):
        assert silu_minimum() == pytest.approx(-0.278, abs=1e-3)

    def test_level_utilization_silu_vs_relu(self):
        silu_util, relu_util = silu_vs_relu_level_utilization()
        # Fig. 6: SiLU wastes signed INT4 codes, ReLU uses every UINT4 code.
        assert relu_util.utilization == 1.0
        assert silu_util.utilization < 0.8
        assert silu_util.levels_used <= 11

    def test_level_utilization_int8(self):
        util = quantization_level_utilization("relu", INT8)
        assert util.levels_available == 255

    def test_level_utilization_generic(self):
        util = quantization_level_utilization("silu", INT4, input_range=(-3, 3))
        assert 0 < util.levels_used <= util.levels_available

    def test_distribution_summary_fields(self, rng):
        summary = distribution_summary(rng.normal(size=1000), "silu")
        assert summary.histogram.sum() == 1000
        assert summary.minimum < summary.mean < summary.maximum

    def test_compare_silu_relu_distributions(self, cifar_workload):
        import copy

        relu_model = copy.deepcopy(cifar_workload.unet)
        relu_model.set_activation("relu")
        silu_summary, relu_summary = compare_activation_distributions(
            cifar_workload.unet, relu_model
        )
        # Fig. 5: SiLU output has a (small) negative tail, ReLU output none.
        assert silu_summary.minimum < 0
        assert relu_summary.minimum >= 0
        assert relu_summary.zero_fraction > silu_summary.zero_fraction

    def test_model_sparsity_silu_vs_relu(self, cifar_workload):
        import copy

        relu_model = copy.deepcopy(cifar_workload.unet)
        relu_model.set_activation("relu")
        # Exact zeros: SiLU produces essentially none (paper: ~10% including
        # quantized near-zeros), ReLU clamps roughly half-to-two-thirds of
        # values to zero (paper: ~65%).
        silu_sparsity = measure_model_sparsity(cifar_workload.unet)
        relu_sparsity = measure_model_sparsity(relu_model)
        assert relu_sparsity > 0.45
        assert silu_sparsity < 0.15
        assert silu_sparsity < relu_sparsity / 2

    def test_uint4_has_16_levels(self):
        util = quantization_level_utilization("relu", UINT4)
        assert util.levels_available == 16


class TestSpeedupRollups:
    def _fake_hardware(self):
        from repro.accelerator import (
            AcceleratorSimulator,
            dense_baseline_config,
            random_workload,
            sqdm_config,
        )
        from repro.accelerator.simulator import retime_trace_precision

        trace = [[random_workload(mean_sparsity=0.65, seed=s)] for s in range(2)]
        quant = AcceleratorSimulator(sqdm_config()).run_trace(trace)
        dense = AcceleratorSimulator(dense_baseline_config()).run_trace(trace)
        fp16 = AcceleratorSimulator(dense_baseline_config()).run_trace(
            retime_trace_precision(trace, 16, 16)
        )
        return HardwareEvaluation(
            workload="cifar10",
            sqdm_report=quant,
            dense_baseline_report=dense,
            fp16_dense_report=fp16,
            average_sparsity=0.65,
        )

    def test_summarize_hardware_averages(self):
        evaluation = summarize_hardware([self._fake_hardware(), self._fake_hardware()])
        assert len(evaluation.per_workload) == 2
        assert evaluation.average_total_speedup > 1.0
        stack = evaluation.speedup_stack()
        assert stack["FP16 dense"] == 1.0
        assert stack["+ temporal sparsity (total)"] >= stack["+ 4-bit quantization"]

    def test_figure1_summary_assigns_speedups(self):
        rows = figure1_summary({"FP16": 2.0, "INT4-VSQ": 20.0, "Ours (MP+ReLU)": 2.2}, 3.8, 6.9)
        by_name = {r.format_name: r for r in rows}
        assert by_name["FP16"].speedup_vs_fp16 == 1.0
        assert by_name["INT4-VSQ"].speedup_vs_fp16 == pytest.approx(3.8)
        assert by_name["Ours (MP+ReLU)"].speedup_vs_fp16 == pytest.approx(6.9)


class TestTables:
    def test_format_table_contains_cells(self):
        text = format_table(["a", "b"], [[1, 2.5], ["x", 0.001]], title="T")
        assert "T" in text and "2.50" in text and "0.001" in text

    def test_format_percentage_and_speedup(self):
        assert format_percentage(0.515) == "51.5%"
        assert format_speedup(6.91) == "6.91x"

    def test_render_ascii_map(self):
        art = render_ascii_map(np.array([[1, 0], [0, 1]]))
        assert art.splitlines() == ["#.", ".#"]
