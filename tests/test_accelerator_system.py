"""System-level accelerator tests: workloads, controller, simulator and baseline comparisons."""

from __future__ import annotations

import numpy as np
import pytest

from repro.accelerator import (
    AcceleratorSimulator,
    ConvLayerWorkload,
    compare_to_dense_baseline,
    conv_workload_from_layer,
    dense_baseline_config,
    random_workload,
    retime_trace_precision,
    sqdm_config,
)
from repro.accelerator.controller import AcceleratorController
from repro.nn.layers import Conv2d


class TestWorkloadDescriptor:
    def test_total_macs(self):
        w = ConvLayerWorkload(
            "l", in_channels=8, out_channels=16, kernel_size=3, out_height=4, out_width=4
        )
        assert w.total_macs == 8 * 16 * 9 * 16
        assert w.macs_per_input_channel == 16 * 9 * 16

    def test_default_sparsity_is_dense(self):
        w = ConvLayerWorkload("l", 4, 4, 3, 4, 4)
        assert w.average_sparsity == 0.0

    def test_sparsity_shape_validation(self):
        with pytest.raises(ValueError):
            ConvLayerWorkload("l", 4, 4, 3, 4, 4, channel_sparsity=np.zeros(5))
        with pytest.raises(ValueError):
            ConvLayerWorkload("l", 4, 4, 3, 4, 4, channel_sparsity=np.full(4, 1.5))

    def test_weight_and_output_bytes_scale_with_bits(self):
        w4 = ConvLayerWorkload("l", 4, 4, 3, 4, 4, weight_bits=4, act_bits=4)
        w16 = ConvLayerWorkload("l", 4, 4, 3, 4, 4, weight_bits=16, act_bits=16)
        assert w16.weight_bytes() == 4 * w4.weight_bytes()
        assert w16.output_bytes() == 4 * w4.output_bytes()

    def test_compressed_input_bytes_smaller_when_sparse(self):
        sparsity = np.full(8, 0.9)
        w = ConvLayerWorkload("l", 8, 8, 3, 8, 8, act_bits=4, channel_sparsity=sparsity)
        assert w.input_bytes(dense_only=False) < w.input_bytes(dense_only=True)

    def test_channel_mask_restricts_bytes(self):
        w = ConvLayerWorkload("l", 8, 8, 3, 8, 8, act_bits=8)
        mask = np.zeros(8, dtype=bool)
        mask[:4] = True
        assert w.input_bytes(channel_mask=mask) == pytest.approx(w.input_bytes() / 2)

    def test_random_workload_mean_sparsity(self):
        w = random_workload(in_channels=256, mean_sparsity=0.65, seed=0)
        assert abs(w.average_sparsity - 0.65) < 0.1

    def test_conv_workload_from_layer(self):
        conv = Conv2d(8, 16, kernel_size=3)
        w = conv_workload_from_layer("layer", conv, (8, 8), weight_bits=4, act_bits=4)
        assert w.in_channels == 8 and w.out_channels == 16
        assert w.total_macs == conv.macs((8, 8))


class TestController:
    def test_layer_result_accounts_all_channels(self):
        controller = AcceleratorController(sqdm_config())
        workload = random_workload(in_channels=32, mean_sparsity=0.6, seed=1)
        result = controller.execute_layer(workload)
        assert result.dense_channels + result.sparse_channels == 32
        assert result.total_macs == workload.total_macs
        assert result.cycles > 0

    def test_dense_baseline_treats_all_channels_dense(self):
        controller = AcceleratorController(dense_baseline_config())
        workload = random_workload(in_channels=32, mean_sparsity=0.9, seed=2)
        result = controller.execute_layer(workload)
        assert result.sparse_channels == 0
        assert result.executed_macs == pytest.approx(workload.total_macs)

    def test_sqdm_skips_macs_on_sparse_workload(self):
        controller = AcceleratorController(sqdm_config())
        workload = random_workload(in_channels=32, mean_sparsity=0.8, seed=3)
        result = controller.execute_layer(workload)
        assert result.executed_macs < workload.total_macs
        assert 1.0 - result.executed_macs / result.total_macs > 0.2

    def test_energy_components_populated(self):
        controller = AcceleratorController(sqdm_config())
        result = controller.execute_layer(random_workload(seed=4))
        assert result.energy.mac_pj > 0
        assert result.energy.global_buffer_pj > 0
        assert result.energy.noc_pj > 0

    def test_load_imbalance_between_zero_and_one(self):
        controller = AcceleratorController(sqdm_config())
        result = controller.execute_layer(random_workload(seed=5))
        assert 0.0 <= result.load_imbalance <= 1.0

    def test_reset_clears_state(self):
        controller = AcceleratorController(sqdm_config())
        controller.execute_layer(random_workload(seed=6))
        controller.reset()
        assert controller.detector.updates_performed == 0
        assert controller.global_buffer.bytes_read == controller.global_buffer.bytes_written == 0


class TestSimulator:
    def test_run_step_sums_layer_cycles(self, synthetic_trace):
        sim = AcceleratorSimulator(sqdm_config())
        step = sim.run_step(synthetic_trace[0])
        assert step.cycles == pytest.approx(sum(r.cycles for r in step.layer_results))

    def test_run_trace_aggregates_steps(self, synthetic_trace):
        sim = AcceleratorSimulator(sqdm_config())
        report = sim.run_trace(synthetic_trace)
        assert len(report.step_results) == len(synthetic_trace)
        assert report.total_cycles == pytest.approx(sum(s.cycles for s in report.step_results))
        assert report.total_energy.total_pj > 0

    def test_report_time_conversion(self, synthetic_trace):
        report = AcceleratorSimulator(sqdm_config(clock_ghz=2.0)).run_trace(synthetic_trace)
        assert report.total_time_ms == pytest.approx(report.total_cycles / 2e9 * 1e3)

    def test_mac_skip_fraction_bounds(self, synthetic_trace):
        report = AcceleratorSimulator(sqdm_config()).run_trace(synthetic_trace)
        assert 0.0 <= report.mac_skip_fraction <= 1.0

    def test_retime_trace_precision(self, synthetic_trace):
        fp16 = retime_trace_precision(synthetic_trace, 16, 16)
        assert all(w.weight_bits == 16 and w.act_bits == 16 for step in fp16 for w in step)
        # Sparsity pattern is preserved.
        assert np.allclose(fp16[0][0].channel_sparsity, synthetic_trace[0][0].channel_sparsity)


class TestPaperComparisons:
    def test_sparsity_speedup_in_paper_range(self, synthetic_trace):
        comparison = compare_to_dense_baseline(synthetic_trace)
        # Paper reports 1.83x average; the synthetic 65%-sparse trace should
        # land in the same regime.
        assert 1.3 < comparison.speedup < 2.6

    def test_energy_saving_in_paper_range(self, synthetic_trace):
        comparison = compare_to_dense_baseline(synthetic_trace)
        # Paper reports 51.5% system energy saving.
        assert 0.3 < comparison.energy_saving < 0.75

    def test_no_speedup_without_sparsity(self):
        trace = [
            [random_workload(mean_sparsity=0.02, sparsity_spread=0.01, seed=s) for s in range(2)]
            for _ in range(2)
        ]
        comparison = compare_to_dense_baseline(trace)
        assert comparison.speedup < 1.2

    def test_quantization_speedup_matches_precision_ratio(self, synthetic_trace):
        fp16_trace = retime_trace_precision(synthetic_trace, 16, 16)
        int4_trace = retime_trace_precision(synthetic_trace, 4, 4)
        baseline = dense_baseline_config()
        fp16_report = AcceleratorSimulator(baseline).run_trace(fp16_trace)
        int4_report = AcceleratorSimulator(baseline).run_trace(int4_trace)
        speedup = fp16_report.total_cycles / int4_report.total_cycles
        # The paper assumes 1 FP16 = 4 INT4 multiplies; pipeline overheads keep
        # the measured value slightly below 4.
        assert 3.0 < speedup <= 4.05

    def test_total_speedup_compounds(self, synthetic_trace):
        fp16_trace = retime_trace_precision(synthetic_trace, 16, 16)
        fp16_dense = AcceleratorSimulator(dense_baseline_config()).run_trace(fp16_trace)
        sqdm = AcceleratorSimulator(sqdm_config()).run_trace(synthetic_trace)
        total = fp16_dense.total_cycles / sqdm.total_cycles
        quant_only = (
            fp16_dense.total_cycles
            / AcceleratorSimulator(dense_baseline_config()).run_trace(synthetic_trace).total_cycles
        )
        assert total > quant_only  # sparsity adds on top of quantization

    def test_more_sparsity_more_speedup(self):
        low = [
            [random_workload(mean_sparsity=0.4, seed=s, name=f"l{s}") for s in range(2)]
            for _ in range(2)
        ]
        high = [
            [random_workload(mean_sparsity=0.8, seed=s, name=f"l{s}") for s in range(2)]
            for _ in range(2)
        ]
        assert compare_to_dense_baseline(high).speedup > compare_to_dense_baseline(low).speedup
