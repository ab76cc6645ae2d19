"""Accelerator controller: per-layer channel grouping, PE dispatch and accounting.

The controller (Fig. 9) manages time-step information, obtains the
dense/sparse channel classification from the temporal sparsity detector,
dispatches the dense channel group to the DPE(s) and the sparse group to the
SPE(s), waits for both (the layer's latency is the *maximum* of the two,
since they operate concurrently on disjoint input channels), accumulates the
partial sums, and charges global-buffer / NoC / DRAM traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import AcceleratorConfig
from .detector import ChannelClassification, TemporalSparsityDetector, classify_channels
from .energy import DEFAULT_ENERGY_TABLE, EnergyBreakdown, EnergyTable
from .memory import GlobalBuffer
from .noc import InterconnectNetwork
from .pe import ChannelGroupResult, ProcessingElement
from .workload import ConvLayerWorkload


@dataclass(slots=True)
class LayerExecutionResult:
    """Latency/energy of one convolution layer at one diffusion time step."""

    layer_name: str
    cycles: float
    energy: EnergyBreakdown
    total_macs: float
    executed_macs: float
    dense_channels: int
    sparse_channels: int
    pe_results: list[ChannelGroupResult] = field(default_factory=list)
    dense_cycles: float = 0.0
    sparse_cycles: float = 0.0

    @property
    def load_imbalance(self) -> float:
        """Relative idle time of the less-loaded PE class (0 = perfectly balanced)."""
        longest = max(self.dense_cycles, self.sparse_cycles)
        if longest == 0:
            return 0.0
        return abs(self.dense_cycles - self.sparse_cycles) / longest


def _split_evenly(channels: np.ndarray, num_parts: int) -> list[np.ndarray]:
    """Split a channel list into ``num_parts`` nearly equal chunks."""
    if num_parts <= 0:
        return []
    return [np.asarray(part, dtype=np.int64) for part in np.array_split(channels, num_parts)]


class AcceleratorController:
    """Executes layer workloads on the configured dense/sparse PE array."""

    def __init__(self, config: AcceleratorConfig, energy_table: EnergyTable | None = None):
        self.config = config
        self.energy_table = energy_table or DEFAULT_ENERGY_TABLE
        self.detector = TemporalSparsityDetector(
            threshold=config.sparsity_threshold, update_period=config.sparsity_update_period
        )
        self.global_buffer = GlobalBuffer(capacity_kib=config.global_buffer_kib)
        self.noc = InterconnectNetwork(config, self.energy_table)
        self.dense_pes = [
            ProcessingElement(f"dpe{i}", "dense", config.pe, self.energy_table)
            for i in range(config.num_dpe)
        ]
        self.sparse_pes = [
            ProcessingElement(f"spe{i}", "sparse", config.pe, self.energy_table)
            for i in range(config.num_spe)
        ]

    # -- channel grouping ------------------------------------------------------

    def classify(self, workload: ConvLayerWorkload, time_step: int) -> ChannelClassification:
        """Dense/sparse channel classification for this layer at this time step.

        A purely dense configuration (no SPEs) treats every channel as dense
        regardless of the detector output, which is exactly the baseline
        architecture of Sec. IV-D.
        """
        if not self.sparse_pes:
            return classify_channels(workload.channel_sparsity, threshold=1.1)
        if not self.dense_pes:
            return classify_channels(workload.channel_sparsity, threshold=-0.1)
        return self.detector.observe(workload.name, time_step, workload.channel_sparsity)

    # -- execution ---------------------------------------------------------------

    def execute_layer(
        self, workload: ConvLayerWorkload, time_step: int = 0
    ) -> LayerExecutionResult:
        """Execute one convolution layer, returning its latency and energy."""
        classification = self.classify(workload, time_step)

        pe_results: list[ChannelGroupResult] = []
        dense_cycles = 0.0
        sparse_cycles = 0.0
        energy = EnergyBreakdown()

        # Dense group split across DPEs; sparse group split across SPEs.
        if self.dense_pes:
            for pe, chans in zip(
                self.dense_pes, _split_evenly(classification.dense_channels, len(self.dense_pes))
            ):
                result = pe.process_channel_group(workload, chans)
                pe_results.append(result)
                dense_cycles = max(dense_cycles, result.cycles)
                energy = energy + result.energy
        if self.sparse_pes:
            for pe, chans in zip(
                self.sparse_pes, _split_evenly(classification.sparse_channels, len(self.sparse_pes))
            ):
                result = pe.process_channel_group(workload, chans)
                pe_results.append(result)
                sparse_cycles = max(sparse_cycles, result.cycles)
                energy = energy + result.energy

        # Global buffer and NoC traffic: every PE's operand fetches come from the
        # GLB; each PE writes back its partial sums which the PPU accumulates.
        glb_bytes = 0.0
        noc_cycles = 0.0
        for result in pe_results:
            operand_bytes = result.input_bytes + result.weight_bytes
            writeback_bytes = result.output_bytes
            self.global_buffer.read(operand_bytes)
            self.global_buffer.write(writeback_bytes)
            glb_bytes += operand_bytes + writeback_bytes
            transfer = self.noc.transfer(result.pe_name, operand_bytes + writeback_bytes)
            noc_cycles = max(noc_cycles, transfer.cycles)
            energy = energy + EnergyBreakdown(noc_pj=transfer.energy_pj)
        energy = energy + EnergyBreakdown(
            global_buffer_pj=glb_bytes * self.energy_table.global_buffer_pj_per_byte
        )

        # DRAM traffic for working sets that exceed the global buffer.
        working_set = workload.weight_bytes() + workload.input_bytes() + workload.output_bytes()
        if not self.global_buffer.fits(working_set):
            spill_bytes = working_set - self.global_buffer.capacity_bytes
            energy = energy + EnergyBreakdown(
                dram_pj=spill_bytes * self.energy_table.dram_pj_per_byte
            )

        # Compute/communication overlap: operand streaming is double-buffered, so
        # the layer latency is dominated by the slower of compute and NoC.
        compute_cycles = max(dense_cycles, sparse_cycles)
        cycles = max(compute_cycles, noc_cycles)

        executed = sum(r.macs_executed for r in pe_results)
        return LayerExecutionResult(
            layer_name=workload.name,
            cycles=cycles,
            energy=energy,
            total_macs=float(workload.total_macs),
            executed_macs=executed,
            dense_channels=int(classification.dense_channels.size),
            sparse_channels=int(classification.sparse_channels.size),
            pe_results=pe_results,
            dense_cycles=dense_cycles,
            sparse_cycles=sparse_cycles,
        )

    def reset(self) -> None:
        """Clear detector state and traffic counters between simulations."""
        self.detector.reset()
        self.global_buffer.reset()
