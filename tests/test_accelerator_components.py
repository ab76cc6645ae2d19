"""Tests for the accelerator building blocks: config, energy, memory, detector,
datapaths, address generation, NoC and PEs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.accelerator import (
    AcceleratorConfig,
    ActivationMapping,
    EnergyBreakdown,
    EnergyTable,
    GlobalBuffer,
    InterconnectNetwork,
    PEConfig,
    ProcessingElement,
    SparsityAwareAddressGenerator,
    TemporalSparsityDetector,
    WeightMapping,
    classify_channels,
    compress_channel,
    dense_baseline_config,
    measure_channel_sparsity,
    precision_packing_factor,
    random_workload,
    sqdm_config,
)
from repro.accelerator.datapath import DenseDatapath, SparseDatapath, balance_point
from repro.accelerator.energy import DEFAULT_ENERGY_TABLE


class TestConfig:
    def test_sqdm_config_one_dpe_one_spe(self):
        cfg = sqdm_config()
        assert cfg.num_dpe == 1 and cfg.num_spe == 1
        assert cfg.pe.multipliers == 128

    def test_baseline_is_two_dpes(self):
        cfg = dense_baseline_config()
        assert cfg.num_dpe == 2 and cfg.num_spe == 0

    def test_paper_default_threshold_and_period(self):
        cfg = sqdm_config()
        assert cfg.sparsity_threshold == pytest.approx(0.30)
        assert cfg.sparsity_update_period == 1

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            AcceleratorConfig(num_dpe=0, num_spe=0)
        with pytest.raises(ValueError):
            AcceleratorConfig(sparsity_threshold=1.5)
        with pytest.raises(ValueError):
            AcceleratorConfig(sparsity_update_period=0)
        with pytest.raises(ValueError):
            PEConfig(multipliers=0)
        with pytest.raises(ValueError):
            PEConfig(sparse_utilization=0.0)


class TestEnergy:
    def test_mac_energy_monotonic_in_bits(self):
        table = EnergyTable()
        assert table.mac_energy(4) < table.mac_energy(8) < table.mac_energy(16)

    def test_mac_energy_interpolates(self):
        table = EnergyTable()
        assert table.mac_energy(4) < table.mac_energy(6) < table.mac_energy(8)

    def test_mac_energy_clamps_out_of_range(self):
        table = EnergyTable()
        assert table.mac_energy(2) == table.mac_energy(4)
        assert table.mac_energy(64) == table.mac_energy(32)

    def test_breakdown_addition(self):
        a = EnergyBreakdown(mac_pj=1.0, dram_pj=2.0)
        b = EnergyBreakdown(mac_pj=3.0, noc_pj=1.0)
        total = a + b
        assert total.mac_pj == 4.0 and total.dram_pj == 2.0 and total.noc_pj == 1.0
        assert total.total_pj == pytest.approx(7.0)

    def test_breakdown_scaled(self):
        assert EnergyBreakdown(mac_pj=2.0).scaled(0.5).mac_pj == 1.0

    def test_breakdown_as_dict(self):
        d = EnergyBreakdown(mac_pj=1.0).as_dict()
        assert d["total_pj"] == 1.0 and "dram_pj" in d

    def test_memory_hierarchy_energy_ordering(self):
        table = DEFAULT_ENERGY_TABLE
        assert table.local_buffer_pj_per_byte < table.global_buffer_pj_per_byte
        assert table.global_buffer_pj_per_byte < table.dram_pj_per_byte


class TestMemoryMapping:
    def test_activation_channel_last_contiguous(self):
        mapping = ActivationMapping(channels=4, height=3, width=3)
        start, end = mapping.channel_slice(2)
        addresses = [mapping.address(2, y, x) for y in range(3) for x in range(3)]
        assert addresses == list(range(start, end))

    def test_activation_address_order_w_then_h_then_c(self):
        mapping = ActivationMapping(channels=2, height=2, width=2)
        assert mapping.address(0, 0, 1) == mapping.address(0, 0, 0) + 1
        assert mapping.address(0, 1, 0) == mapping.address(0, 0, 0) + 2
        assert mapping.address(1, 0, 0) == mapping.address(0, 0, 0) + 4

    def test_activation_out_of_range(self):
        mapping = ActivationMapping(channels=2, height=2, width=2)
        with pytest.raises(IndexError):
            mapping.address(2, 0, 0)
        with pytest.raises(IndexError):
            mapping.channel_slice(5)

    def test_activation_linearize_matches_addresses(self, rng):
        mapping = ActivationMapping(channels=3, height=2, width=2)
        tensor = rng.normal(size=(3, 2, 2))
        flat = mapping.linearize(tensor)
        assert flat[mapping.address(1, 1, 0)] == tensor[1, 1, 0]

    def test_weight_channel_last_contiguous(self):
        mapping = WeightMapping(out_channels=4, in_channels=3, kernel_h=3, kernel_w=3)
        start, end = mapping.channel_slice(1)
        assert end - start == 4 * 9
        addresses = [
            mapping.address(k, 1, r, s) for k in range(4) for r in range(3) for s in range(3)
        ]
        assert sorted(addresses) == list(range(start, end))

    def test_weight_linearize_groups_by_input_channel(self, rng):
        mapping = WeightMapping(out_channels=2, in_channels=2, kernel_h=1, kernel_w=1)
        tensor = rng.normal(size=(2, 2, 1, 1))
        flat = mapping.linearize(tensor)
        assert flat[mapping.address(1, 0, 0, 0)] == tensor[1, 0, 0, 0]

    def test_weight_out_of_range(self):
        mapping = WeightMapping(out_channels=2, in_channels=2, kernel_h=3, kernel_w=3)
        with pytest.raises(IndexError):
            mapping.address(0, 3, 0, 0)

    def test_compress_channel_roundtrip(self, rng):
        data = rng.normal(size=(4, 4))
        data[data < 0.3] = 0.0
        record = compress_channel(data, channel_index=5)
        assert record.channel == 5
        assert np.allclose(record.decompress().reshape(4, 4), data)

    def test_compressed_storage_smaller_when_sparse(self):
        dense_bits = 16 * 4
        data = np.zeros(16)
        data[0] = 1.0
        record = compress_channel(data, 0)
        assert record.storage_bits(value_bits=4) < dense_bits

    def test_global_buffer_traffic_accounting(self):
        buffer = GlobalBuffer(capacity_kib=1)
        buffer.read(100.0)
        buffer.write(50.0)
        assert (buffer.bytes_read, buffer.bytes_written) == (100.0, 50.0)
        assert buffer.fits(1024) and not buffer.fits(2048)
        buffer.reset()
        assert (buffer.bytes_read, buffer.bytes_written) == (0.0, 0.0)
        with pytest.raises(ValueError):
            buffer.read(-1)


class TestDetector:
    def test_classification_respects_threshold(self):
        sparsity = np.array([0.1, 0.3, 0.8, 0.0])
        cls = classify_channels(sparsity, threshold=0.3)
        assert list(cls.dense_channels) == [0, 3]
        assert list(cls.sparse_channels) == [1, 2]

    def test_classification_statistics(self):
        cls = classify_channels(np.array([0.0, 0.5, 0.9]), threshold=0.3)
        assert cls.sparse_fraction == pytest.approx(2 / 3)
        assert cls.sparse_group_sparsity == pytest.approx(0.7)
        assert cls.dense_group_sparsity == pytest.approx(0.0)

    def test_invalid_sparsity_rejected(self):
        with pytest.raises(ValueError):
            classify_channels(np.array([1.5]), 0.3)

    def test_measure_channel_sparsity_4d(self):
        x = np.ones((2, 3, 4, 4))
        x[:, 1] = 0.0
        assert np.allclose(measure_channel_sparsity(x), [0.0, 1.0, 0.0])

    def test_measure_channel_sparsity_with_tolerance(self):
        x = np.full((1, 1, 2, 2), 1e-4)
        assert measure_channel_sparsity(x, zero_tolerance=1e-3)[0] == 1.0

    def test_measure_channel_sparsity_bad_ndim(self):
        with pytest.raises(ValueError):
            measure_channel_sparsity(np.zeros((4,)))

    def test_detector_updates_every_step_by_default(self):
        detector = TemporalSparsityDetector(threshold=0.3, update_period=1)
        detector.observe("layer", 0, np.array([0.9, 0.1]))
        detector.observe("layer", 1, np.array([0.1, 0.9]))
        assert detector.updates_performed == 2

    def test_detector_reuses_stale_classification(self):
        detector = TemporalSparsityDetector(threshold=0.3, update_period=4)
        first = detector.observe("layer", 0, np.array([0.9, 0.1]))
        second = detector.observe("layer", 1, np.array([0.1, 0.9]))
        assert detector.updates_performed == 1
        # Channel grouping is stale (channel 0 still "sparse") ...
        assert np.array_equal(second.sparse_channels, first.sparse_channels)
        # ... but the reported sparsity reflects the current data.
        assert second.sparsity[0] == pytest.approx(0.1)

    def test_detector_refreshes_after_period(self):
        detector = TemporalSparsityDetector(threshold=0.3, update_period=2)
        detector.observe("layer", 0, np.array([0.9]))
        detector.observe("layer", 1, np.array([0.9]))
        detector.observe("layer", 2, np.array([0.9]))
        assert detector.updates_performed == 2

    def test_detector_reset(self):
        detector = TemporalSparsityDetector()
        detector.observe("layer", 0, np.array([0.5]))
        detector.reset()
        assert detector.updates_performed == 0
        # The reset detector holds no classification, so even the step it
        # last classified at refreshes.
        assert detector.should_update("layer", 0)

    def test_detector_invalid_params(self):
        with pytest.raises(ValueError):
            TemporalSparsityDetector(threshold=2.0)
        with pytest.raises(ValueError):
            TemporalSparsityDetector(update_period=0)


class TestDatapaths:
    def test_precision_packing(self):
        assert precision_packing_factor(16) == 1.0
        assert precision_packing_factor(8) == 2.0
        assert precision_packing_factor(4) == 4.0
        with pytest.raises(ValueError):
            precision_packing_factor(0)

    def test_dense_throughput_scales_with_precision(self):
        dp = DenseDatapath(PEConfig(multipliers=128), DEFAULT_ENERGY_TABLE)
        assert dp.throughput_macs_per_cycle(4) == 4 * dp.throughput_macs_per_cycle(16)

    def test_dense_cycles_proportional_to_macs(self):
        dp = DenseDatapath(
            PEConfig(multipliers=128, pipeline_overhead_cycles=0), DEFAULT_ENERGY_TABLE
        )
        small = dp.execute(128 * 100, 4, 4, 0, 0, 0)
        large = dp.execute(128 * 200, 4, 4, 0, 0, 0)
        assert large.cycles == pytest.approx(2 * small.cycles)

    def test_dense_zero_work(self):
        dp = DenseDatapath(PEConfig(), DEFAULT_ENERGY_TABLE)
        result = dp.execute(0, 4, 4, 0, 0, 0)
        assert result.cycles == 0 and result.macs_executed == 0

    def test_sparse_skips_zero_macs(self):
        sp = SparseDatapath(PEConfig(), DEFAULT_ENERGY_TABLE)
        result = sp.execute(1000, nonzero_fraction=0.3, weight_bits=4, act_bits=4,
                            input_bytes=0, weight_bytes=0, output_bytes=0)
        assert result.macs_executed == pytest.approx(300)
        assert result.macs_skipped == pytest.approx(700)

    def test_sparse_faster_than_dense_on_sparse_data(self):
        pe = PEConfig()
        dense = DenseDatapath(pe, DEFAULT_ENERGY_TABLE).execute(1_000_000, 4, 4, 0, 0, 0)
        sparse = SparseDatapath(pe, DEFAULT_ENERGY_TABLE).execute(
            1_000_000, nonzero_fraction=0.3, weight_bits=4, act_bits=4,
            input_bytes=0, weight_bytes=0, output_bytes=0)
        assert sparse.cycles < dense.cycles

    def test_sparse_slower_than_dense_on_dense_data(self):
        pe = PEConfig()
        dense = DenseDatapath(pe, DEFAULT_ENERGY_TABLE).execute(1_000_000, 4, 4, 0, 0, 0)
        sparse = SparseDatapath(pe, DEFAULT_ENERGY_TABLE).execute(
            1_000_000, nonzero_fraction=1.0, weight_bits=4, act_bits=4,
            input_bytes=0, weight_bytes=0, output_bytes=0)
        assert sparse.cycles > dense.cycles

    def test_sparse_saves_mac_energy(self):
        pe = PEConfig()
        dense = DenseDatapath(pe, DEFAULT_ENERGY_TABLE).execute(1_000_000, 4, 4, 0, 0, 0)
        sparse = SparseDatapath(pe, DEFAULT_ENERGY_TABLE).execute(
            1_000_000, nonzero_fraction=0.3, weight_bits=4, act_bits=4,
            input_bytes=0, weight_bytes=0, output_bytes=0)
        assert sparse.energy.mac_pj < dense.energy.mac_pj

    def test_sparse_invalid_fraction(self):
        sp = SparseDatapath(PEConfig(), DEFAULT_ENERGY_TABLE)
        with pytest.raises(ValueError):
            sp.execute(100, nonzero_fraction=1.5, weight_bits=4, act_bits=4,
                       input_bytes=0, weight_bytes=0, output_bytes=0)

    def test_balance_point(self):
        assert balance_point(10, 10) == 0.0
        assert balance_point(10, 0) == 1.0
        assert balance_point(0, 0) == 0.0


class TestAddressGenAndNoC:
    def test_fetch_plans_partition_channels(self):
        workload = random_workload(in_channels=16, out_channels=8, spatial=4, seed=1)
        act_map = ActivationMapping(16, 4, 4)
        w_map = WeightMapping(8, 16, 3, 3)
        gen = SparsityAwareAddressGenerator(act_map, w_map)
        cls = classify_channels(workload.channel_sparsity, 0.3)
        dense_plan = gen.dense_plan(cls)
        sparse_plan = gen.sparse_plan(cls)
        assert dense_plan.num_channels + sparse_plan.num_channels == 16
        assert dense_plan.is_contiguous_per_channel()
        assert sparse_plan.activation_elements() == sparse_plan.num_channels * 16

    def test_mismatched_mappings_rejected(self):
        with pytest.raises(ValueError):
            SparsityAwareAddressGenerator(ActivationMapping(4, 2, 2), WeightMapping(3, 5, 1, 1))

    def test_noc_topology_and_hops(self):
        noc = InterconnectNetwork(sqdm_config(), DEFAULT_ENERGY_TABLE)
        assert noc.transfer("dpe0", 64).hops == 2
        assert noc.transfer("spe0", 64).hops == 3
        with pytest.raises(KeyError):
            noc.transfer("gpu0", 64)
        with pytest.raises(KeyError):
            noc.transfer("spe1", 64)  # one SPE only

    def test_noc_transfer_scales_with_bytes(self):
        noc = InterconnectNetwork(sqdm_config(), DEFAULT_ENERGY_TABLE)
        small = noc.transfer("dpe0", 64)
        large = noc.transfer("dpe0", 640)
        assert large.cycles == pytest.approx(10 * small.cycles)
        assert large.energy_pj > small.energy_pj
        with pytest.raises(ValueError):
            noc.transfer("dpe0", -5)


class TestProcessingElement:
    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            ProcessingElement("pe", "mixed", PEConfig(), DEFAULT_ENERGY_TABLE)

    def test_dense_pe_executes_all_macs(self):
        workload = random_workload(in_channels=8, out_channels=8, spatial=4, seed=2)
        pe = ProcessingElement("dpe0", "dense", PEConfig(), DEFAULT_ENERGY_TABLE)
        result = pe.process_channel_group(workload, np.arange(8))
        assert result.macs_executed == pytest.approx(workload.total_macs)
        assert result.macs_skipped == 0

    def test_sparse_pe_skips_work(self):
        workload = random_workload(
            in_channels=8, out_channels=8, spatial=4, mean_sparsity=0.8, seed=3
        )
        pe = ProcessingElement("spe0", "sparse", PEConfig(), DEFAULT_ENERGY_TABLE)
        result = pe.process_channel_group(workload, np.arange(8))
        assert result.macs_executed < workload.total_macs
        assert result.macs_skipped > 0

    def test_empty_channel_group(self):
        workload = random_workload(in_channels=8, out_channels=8, spatial=4, seed=4)
        pe = ProcessingElement("spe0", "sparse", PEConfig(), DEFAULT_ENERGY_TABLE)
        result = pe.process_channel_group(workload, np.array([], dtype=np.int64))
        assert result.macs_executed == 0

    def test_ppu_detector_energy_charged(self):
        workload = random_workload(in_channels=8, out_channels=8, spatial=4, seed=5)
        pe = ProcessingElement("dpe0", "dense", PEConfig(), DEFAULT_ENERGY_TABLE)
        result = pe.process_channel_group(workload, np.arange(8))
        assert result.energy.detector_pj > 0
