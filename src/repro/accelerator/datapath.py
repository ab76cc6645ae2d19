"""Cycle and energy models of the dense (MAERI-like) and sparse (SIGMA-like) datapaths.

Both PE datapaths contain the same number of multiplier lanes.  Lanes operate
on FP16 operands natively and are packed 2x for INT8 and 4x for INT4, the
computational-equivalence assumption stated in Sec. III-A of the paper.

* The **dense datapath** (MAERI-style augmented reduction tree) streams dense
  channel groups through a vector MAC array; every multiplier does useful
  work each cycle apart from pipeline fill/drain on tile boundaries, so it
  handles irregular matrix sizes with high utilization.
* The **sparse datapath** (SIGMA-style flexible distribution + reduction
  network) consumes compressed channels (nonzero values + bitmaps) and only
  spends multiplier cycles on nonzero activations.  Its benefit is
  proportional to the sparsity of the channels routed to it; its cost is a
  modest utilization derating plus per-nonzero bookkeeping overhead.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import PEConfig
from .energy import EnergyBreakdown, EnergyTable


def precision_packing_factor(bits: int) -> float:
    """Operands processed per FP16 lane per cycle at the given precision."""
    if bits <= 0:
        raise ValueError("bits must be positive")
    return max(16.0 / bits, 1.0)


@dataclass(slots=True)
class DatapathResult:
    """Latency and energy of executing one channel-group workload on a datapath."""

    cycles: float
    energy: EnergyBreakdown
    macs_executed: float
    macs_skipped: float


class DenseDatapath:
    """MAERI-like vector MAC datapath processing dense channel groups."""

    def __init__(self, pe_config: PEConfig, energy_table: EnergyTable):
        self.config = pe_config
        self.energy_table = energy_table

    def throughput_macs_per_cycle(self, bits: int) -> float:
        return self.config.multipliers * precision_packing_factor(bits)

    def execute(
        self,
        macs: float,
        weight_bits: int,
        act_bits: int,
        input_bytes: float,
        weight_bytes: float,
        output_bytes: float,
    ) -> DatapathResult:
        """Run ``macs`` dense multiply-accumulates through the array.

        ``input_bytes``/``weight_bytes``/``output_bytes`` are the local
        buffer traffic charged to this group (operands are staged in the PE
        buffers; global-buffer and DRAM traffic are charged by the
        controller).
        """
        op_bits = max(weight_bits, act_bits)
        throughput = self.throughput_macs_per_cycle(op_bits)
        compute_cycles = macs / throughput if macs > 0 else 0.0
        cycles = compute_cycles + (self.config.pipeline_overhead_cycles if macs > 0 else 0.0)

        energy = EnergyBreakdown(
            mac_pj=macs * self.energy_table.mac_energy(op_bits),
            local_buffer_pj=(input_bytes + weight_bytes + output_bytes)
            * self.energy_table.local_buffer_pj_per_byte,
            idle_pj=cycles * self.energy_table.idle_pj_per_cycle_per_pe,
        )
        return DatapathResult(cycles=cycles, energy=energy, macs_executed=macs, macs_skipped=0.0)


class SparseDatapath:
    """SIGMA-like datapath that skips zero-valued activations.

    Only nonzero activation values are multiplied; the bitmap decode and the
    flexible distribution network add a small per-nonzero overhead and a
    utilization derating relative to the dense array.
    """

    def __init__(self, pe_config: PEConfig, energy_table: EnergyTable):
        self.config = pe_config
        self.energy_table = energy_table

    def throughput_macs_per_cycle(self, bits: int) -> float:
        return (
            self.config.multipliers
            * precision_packing_factor(bits)
            * self.config.sparse_utilization
        )

    def execute(
        self,
        total_macs: float,
        nonzero_fraction: float,
        weight_bits: int,
        act_bits: int,
        input_bytes: float,
        weight_bytes: float,
        output_bytes: float,
    ) -> DatapathResult:
        """Run a sparse channel group: only ``nonzero_fraction`` of MACs execute."""
        if not 0.0 <= nonzero_fraction <= 1.0:
            raise ValueError("nonzero_fraction must be in [0, 1]")
        op_bits = max(weight_bits, act_bits)
        effective_macs = total_macs * nonzero_fraction
        skipped = total_macs - effective_macs

        throughput = self.throughput_macs_per_cycle(op_bits)
        compute_cycles = effective_macs / throughput if effective_macs > 0 else 0.0
        overhead_cycles = effective_macs / 1024.0 * self.config.sparse_overhead_per_kmac
        cycles = compute_cycles + overhead_cycles
        if total_macs > 0:
            cycles += self.config.pipeline_overhead_cycles

        energy = EnergyBreakdown(
            mac_pj=effective_macs * self.energy_table.mac_energy(op_bits),
            local_buffer_pj=(input_bytes + weight_bytes + output_bytes)
            * self.energy_table.local_buffer_pj_per_byte,
            idle_pj=cycles * self.energy_table.idle_pj_per_cycle_per_pe,
        )
        return DatapathResult(
            cycles=cycles, energy=energy, macs_executed=effective_macs, macs_skipped=skipped
        )


def balance_point(
    dense_work: float, sparse_work_effective: float
) -> float:
    """Imbalance metric between the dense and sparse PE (0 = perfectly balanced).

    Used by the threshold analysis (Fig. 11, left): the 30% threshold is
    chosen so that the dense PE's work and the sparse PE's effective work are
    roughly equal, which minimizes the makespan ``max(dense, sparse)``.
    """
    total = dense_work + sparse_work_effective
    if total == 0:
        return 0.0
    return abs(dense_work - sparse_work_effective) / total
