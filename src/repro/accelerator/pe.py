"""Processing-element model: a dense or sparse datapath plus local buffers and PPU.

Each D/S PE (Fig. 9) contains a sparsity-aware address generator,
weight/input/accumulation buffers, a dense or sparse vector-MAC datapath and
a post-processing unit with the temporal sparsity detector.  The PE model
computes the latency and energy of processing one *channel group* of one
convolution layer — the unit of work the controller assigns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import PEConfig
from .datapath import DatapathResult, DenseDatapath, SparseDatapath
from .energy import EnergyBreakdown, EnergyTable
from .workload import ConvLayerWorkload


@dataclass(slots=True)
class ChannelGroupResult:
    """Outcome of one PE processing one channel group of one layer."""

    pe_name: str
    mode: str  # "dense" or "sparse"
    cycles: float
    energy: EnergyBreakdown
    macs_executed: float
    macs_skipped: float
    input_bytes: float
    weight_bytes: float
    output_bytes: float
    num_channels: int


class ProcessingElement:
    """One PE configured as either a dense or a sparse engine.

    The configuration bit corresponds to the paper's statement that "each PE
    can be configured to either the dense or sparse datapath, depending on
    the computation type".
    """

    def __init__(self, name: str, mode: str, pe_config: PEConfig, energy_table: EnergyTable):
        if mode not in ("dense", "sparse"):
            raise ValueError(f"mode must be 'dense' or 'sparse', got {mode!r}")
        self.name = name
        self.mode = mode
        self.config = pe_config
        self.energy_table = energy_table
        self.dense_datapath = DenseDatapath(pe_config, energy_table)
        self.sparse_datapath = SparseDatapath(pe_config, energy_table)

    def process_channel_group(
        self, workload: ConvLayerWorkload, channels: np.ndarray
    ) -> ChannelGroupResult:
        """Process the subset ``channels`` of the layer's input channels.

        Dense PEs fetch the full channel data and execute every MAC.  Sparse
        PEs fetch compressed channels (values + bitmap) and only execute
        MACs for nonzero activations.
        """
        channels = np.asarray(channels, dtype=np.int64)
        num_channels = int(channels.size)
        mask = np.zeros(workload.in_channels, dtype=bool)
        mask[channels] = True

        group_macs = float(num_channels * workload.macs_per_input_channel)
        weight_bytes = workload.weight_bytes() * (num_channels / max(workload.in_channels, 1))
        output_bytes = workload.output_bytes()  # each PE produces full partial sums

        if self.mode == "dense":
            input_bytes = workload.input_bytes(dense_only=True, channel_mask=mask)
            result = self.dense_datapath.execute(
                macs=group_macs,
                weight_bits=workload.weight_bits,
                act_bits=workload.act_bits,
                input_bytes=input_bytes,
                weight_bytes=weight_bytes,
                output_bytes=output_bytes,
            )
        else:
            input_bytes = workload.input_bytes(dense_only=False, channel_mask=mask)
            if num_channels > 0:
                nonzero_fraction = float(np.mean(1.0 - workload.channel_sparsity[channels]))
            else:
                nonzero_fraction = 0.0
            result = self.sparse_datapath.execute(
                total_macs=group_macs,
                nonzero_fraction=nonzero_fraction,
                weight_bits=workload.weight_bits,
                act_bits=workload.act_bits,
                input_bytes=input_bytes,
                weight_bytes=weight_bytes,
                output_bytes=output_bytes,
            )

        energy = self._add_ppu_energy(result, workload)
        return ChannelGroupResult(
            pe_name=self.name,
            mode=self.mode,
            cycles=result.cycles,
            energy=energy,
            macs_executed=result.macs_executed,
            macs_skipped=result.macs_skipped,
            input_bytes=input_bytes,
            weight_bytes=weight_bytes,
            output_bytes=output_bytes,
            num_channels=num_channels,
        )

    def _add_ppu_energy(
        self, result: DatapathResult, workload: ConvLayerWorkload
    ) -> EnergyBreakdown:
        """Charge the PPU's temporal sparsity detector for scanning the output channels."""
        detector_energy = workload.out_channels * self.energy_table.detector_pj_per_channel
        return result.energy + EnergyBreakdown(detector_pj=detector_energy)
