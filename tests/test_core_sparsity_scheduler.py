"""Tests for temporal sparsity tracing and the threshold/update scheduling analyses."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.accelerator.config import AcceleratorConfig, PEConfig
from repro.accelerator.simulator import AcceleratorSimulator
from repro.accelerator.workload import random_workload
from repro.core import scheduler
from repro.core.policy import mixed_precision_policy
from repro.core.scheduler import (
    analyze_threshold,
    analyze_update_period,
    best_threshold,
    detection_overhead_fraction,
)
from repro.core.sparsity import (
    collect_sparsity_trace,
    sparsity_map,
    trace_to_workloads,
    traced_layers_for_model,
)
from repro.diffusion.edm import EDMDenoiser
from repro.diffusion.sampler import SamplerConfig
from repro.diffusion.schedule import ScheduleConfig
from repro.workloads.models import load_workload


@pytest.fixture(scope="module")
def relu_workload():
    wl = load_workload("cifar10", resolution=8, activation="relu")
    return wl


@pytest.fixture(scope="module")
def trace(relu_workload):
    denoiser = EDMDenoiser(relu_workload.unet, prior=relu_workload.dataset.prior)
    return collect_sparsity_trace(
        denoiser,
        relu_workload.image_shape,
        SamplerConfig(schedule=ScheduleConfig(num_steps=5)),
        num_samples=2,
        zero_tolerance_rel=1.0 / 30.0,
    )


class TestSparsityTrace:
    def test_traced_layers_are_block_convs(self, relu_workload):
        layers = traced_layers_for_model(relu_workload.unet)
        assert len(layers) == 2 * len(relu_workload.unet.block_infos())
        assert all(layer.name.endswith(("conv0", "conv1")) for layer in layers)

    def test_trace_has_one_record_per_step(self, trace):
        assert trace.num_steps == 5
        for step in trace.steps:
            assert set(step) == set(trace.layer_names())

    def test_sparsity_matrix_shape(self, trace):
        name = trace.layer_names()[0]
        matrix = trace.sparsity_matrix(name)
        assert matrix.shape == (trace.layer(name).in_channels, 5)
        assert np.all((matrix >= 0) & (matrix <= 1))

    def test_relu_model_average_sparsity_in_paper_range(self, trace):
        # Paper: ~65% average activation sparsity for the ReLU-based model.
        assert 0.45 < trace.average_sparsity() < 0.9

    def test_channels_differ_in_sparsity(self, trace):
        # Per-channel sparsity must have spread (some dense, some sparse channels).
        name = trace.layer_names()[1]
        matrix = trace.sparsity_matrix(name)
        assert matrix.std() > 0.05

    def test_sparsity_evolves_over_time(self, trace):
        # The temporal aspect: at least one layer's channel classification changes.
        rates = [trace.channel_switch_rate(name, 0.3) for name in trace.layer_names()]
        assert max(rates) > 0.0

    def test_unknown_layer_raises(self, trace):
        with pytest.raises(KeyError):
            trace.layer("unet.enc.64x64_block0.conv0")

    def test_sparsity_map_binary(self, trace):
        name = trace.layer_names()[0]
        binary = sparsity_map(trace, name, threshold=0.5)
        assert set(np.unique(binary)).issubset({0, 1})

    def test_trace_to_workloads_structure(self, trace, relu_workload):
        policy = mixed_precision_policy(relu_workload.unet, relu=True)
        workload_trace = trace_to_workloads(trace, policy)
        assert len(workload_trace) == trace.num_steps
        assert len(workload_trace[0]) == len(trace.layers)
        # Conv blocks assigned by the policy carry 4- or 8-bit precision.
        assert all(w.weight_bits in (4, 8) for w in workload_trace[0])

    def test_trace_to_workloads_default_bits(self, trace):
        workload_trace = trace_to_workloads(trace, policy=None, default_bits=16)
        assert all(w.weight_bits == 16 for w in workload_trace[0])

    def test_silu_trace_less_sparse_than_relu(self, relu_workload, trace):
        silu_wl = load_workload("cifar10", resolution=8, activation="silu")
        denoiser = EDMDenoiser(silu_wl.unet, prior=silu_wl.dataset.prior)
        silu_trace = collect_sparsity_trace(
            denoiser,
            silu_wl.image_shape,
            SamplerConfig(schedule=ScheduleConfig(num_steps=3)),
            num_samples=1,
            zero_tolerance_rel=1.0 / 30.0,
        )
        assert silu_trace.average_sparsity() < trace.average_sparsity()


class TestSchedulerAnalyses:
    @pytest.fixture(scope="class")
    def synthetic_hw_trace(self):
        return [
            [
                random_workload(in_channels=48, mean_sparsity=0.65, seed=7 * t + n, name=f"l{n}")
                for n in range(2)
            ]
            for t in range(4)
        ]

    def test_threshold_sweep_returns_all_points(self, synthetic_hw_trace):
        points = analyze_threshold(synthetic_hw_trace, thresholds=[0.1, 0.3, 0.6, 0.9])
        assert [p.threshold for p in points] == [0.1, 0.3, 0.6, 0.9]

    def test_sparse_fraction_decreases_with_threshold(self, synthetic_hw_trace):
        points = analyze_threshold(synthetic_hw_trace, thresholds=[0.1, 0.5, 0.9])
        fractions = [p.sparse_fraction for p in points]
        assert fractions[0] >= fractions[1] >= fractions[2]

    def test_sparse_group_sparsity_increases_with_threshold(self, synthetic_hw_trace):
        points = analyze_threshold(synthetic_hw_trace, thresholds=[0.1, 0.5, 0.8])
        sparsities = [p.sparse_group_sparsity for p in points]
        assert sparsities[0] <= sparsities[1] <= sparsities[2]

    def test_best_threshold_is_moderate(self, synthetic_hw_trace):
        points = analyze_threshold(synthetic_hw_trace, thresholds=[0.05, 0.2, 0.3, 0.5, 0.8, 0.95])
        best = best_threshold(points)
        # The paper picks 30%; extreme thresholds should not win.
        assert 0.05 < best.threshold < 0.95
        assert best.speedup >= points[0].speedup or best.speedup >= points[-1].speedup

    def test_best_threshold_empty_raises(self):
        with pytest.raises(ValueError):
            best_threshold([])

    def test_update_period_speedup_non_increasing(self, trace, relu_workload):
        policy = mixed_precision_policy(relu_workload.unet, relu=True)
        hw_trace = trace_to_workloads(trace, policy)
        points = analyze_update_period(hw_trace, periods=[1, 2, 4])
        speedups = [p.speedup for p in points]
        assert speedups[0] >= speedups[-1] - 1e-9

    def test_update_period_counts_updates(self, synthetic_hw_trace):
        points = analyze_update_period(synthetic_hw_trace, periods=[1, 4])
        assert points[0].updates_performed > points[1].updates_performed

    def test_sweeps_change_only_their_knob(self, synthetic_hw_trace, monkeypatch):
        """Every other field of the base config reaches the simulator."""
        base = AcceleratorConfig(
            name="custom",
            num_dpe=2,
            num_spe=3,
            pe=PEConfig(multipliers=64),
            clock_ghz=2.0,
            technology_nm=16,
            global_buffer_kib=64,
            dram_bandwidth_gbps=32.0,
            noc_bandwidth_bytes_per_cycle=32,
            sparsity_threshold=0.4,
            sparsity_update_period=2,
        )
        simulated: list[AcceleratorConfig] = []

        class RecordingSimulator(AcceleratorSimulator):
            def __init__(self, config, *args, **kwargs):
                simulated.append(config)
                super().__init__(config, *args, **kwargs)

        monkeypatch.setattr(scheduler, "AcceleratorSimulator", RecordingSimulator)
        analyze_threshold(synthetic_hw_trace, thresholds=[0.1, 0.9], base_config=base)
        analyze_update_period(synthetic_hw_trace, periods=[1, 4], base_config=base)
        swept = [config for config in simulated if config.name == "custom"]
        assert swept == [
            dataclasses.replace(base, sparsity_threshold=0.1),
            dataclasses.replace(base, sparsity_threshold=0.9),
            dataclasses.replace(base, sparsity_update_period=1),
            dataclasses.replace(base, sparsity_update_period=4),
        ]

    def test_detection_overhead_negligible(self, synthetic_hw_trace):
        # The paper hides detection behind compute because its cost is negligible.
        assert detection_overhead_fraction(synthetic_hw_trace) < 0.02
