"""Hardware configuration for the SQ-DM accelerator and the dense baseline.

The paper's evaluation (Sec. IV-D) assumes one Dense Processing Element (DPE)
and one Sparse Processing Element (SPE), each containing 128 multipliers,
simulated in 28 nm.  The baseline for comparison is a purely dense
architecture with two DPEs — i.e. the same total multiplier count, so any
speed-up comes from exploiting sparsity rather than from extra silicon.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True, slots=True)
class PEConfig:
    """Configuration of a single processing element.

    ``multipliers`` counts FP16-capable multiplier lanes; lower-precision
    operands are packed, giving ``2x`` throughput for INT8 and ``4x`` for
    INT4 per the paper's computational-equivalence assumption (Sec. III-A).
    """

    multipliers: int = 128
    weight_buffer_kib: int = 32
    input_buffer_kib: int = 32
    accum_buffer_kib: int = 16
    #: Pipeline fill/drain overhead charged once per (output-channel tile x layer).
    pipeline_overhead_cycles: int = 8
    #: Relative utilization of the sparse datapath's multipliers; SIGMA-style
    #: distribution/reduction networks cannot keep every lane busy on
    #: irregular sparsity, so effective throughput is derated.
    sparse_utilization: float = 0.85
    #: Per-nonzero bookkeeping overhead (bitmap decode, index match) of the
    #: sparse datapath, expressed as extra cycles per 1024 nonzero MACs.
    sparse_overhead_per_kmac: float = 0.5

    def __post_init__(self) -> None:
        if self.multipliers <= 0:
            raise ValueError("multipliers must be positive")
        if not 0.0 < self.sparse_utilization <= 1.0:
            raise ValueError("sparse_utilization must be in (0, 1]")


@dataclass(frozen=True, slots=True)
class AcceleratorConfig:
    """Top-level accelerator configuration (Fig. 9).

    ``num_dpe`` dense PEs and ``num_spe`` sparse PEs share a global buffer
    through a configurable router network.  The temporal sparsity detector
    lives in each PE's post-processing unit and re-classifies output
    channels every ``sparsity_update_period`` time steps (the paper selects
    1, i.e. every step, because the detection overhead is hidden behind
    compute).
    """

    name: str = "sqdm"
    num_dpe: int = 1
    num_spe: int = 1
    pe: PEConfig = field(default_factory=PEConfig)
    clock_ghz: float = 1.0
    technology_nm: int = 28
    global_buffer_kib: int = 512
    dram_bandwidth_gbps: float = 64.0
    noc_bandwidth_bytes_per_cycle: int = 64
    sparsity_threshold: float = 0.30
    sparsity_update_period: int = 1

    def __post_init__(self) -> None:
        if self.num_dpe < 0 or self.num_spe < 0 or self.num_dpe + self.num_spe == 0:
            raise ValueError("need at least one PE")
        if not 0.0 <= self.sparsity_threshold <= 1.0:
            raise ValueError("sparsity_threshold must be in [0, 1]")
        if self.sparsity_update_period < 1:
            raise ValueError("sparsity_update_period must be >= 1")


def sqdm_config(**overrides) -> AcceleratorConfig:
    """The paper's heterogeneous configuration: 1 DPE + 1 SPE, 128 multipliers each."""
    return AcceleratorConfig(name="sqdm", num_dpe=1, num_spe=1, **overrides)


def dense_baseline_config(**overrides) -> AcceleratorConfig:
    """The paper's baseline: a purely dense architecture with two DPEs."""
    return AcceleratorConfig(name="dense_baseline", num_dpe=2, num_spe=0, **overrides)
