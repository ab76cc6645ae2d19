"""Accelerator substrate: cycle-approximate model of the SQ-DM dense/sparse architecture."""

from .address_gen import FetchPlan, SparsityAwareAddressGenerator
from .backends import (
    DetectorStats,
    ReferenceBackend,
    SimulationBackend,
    VectorizedBackend,
    available_backends,
    get_backend,
)
from .config import AcceleratorConfig, PEConfig, dense_baseline_config, sqdm_config
from .controller import AcceleratorController, LayerExecutionResult
from .datapath import DenseDatapath, SparseDatapath, balance_point, precision_packing_factor
from .detector import (
    ChannelClassification,
    TemporalSparsityDetector,
    classify_channels,
    measure_channel_sparsity,
)
from .energy import DEFAULT_ENERGY_TABLE, EnergyBreakdown, EnergyTable
from .memory import (
    ActivationMapping,
    GlobalBuffer,
    SparseChannelRecord,
    WeightMapping,
    compress_channel,
)
from .noc import InterconnectNetwork, TransferResult
from .pe import ChannelGroupResult, ProcessingElement
from .simulator import (
    AcceleratorSimulator,
    ComparisonResult,
    SimulationReport,
    StepResult,
    WorkloadTrace,
    compare_to_dense_baseline,
    relative_saving,
    retime_trace_precision,
    safe_speedup,
)
from .workload import ConvLayerWorkload, conv_workload_from_layer, random_workload

__all__ = [
    "DEFAULT_ENERGY_TABLE",
    "AcceleratorConfig",
    "AcceleratorController",
    "AcceleratorSimulator",
    "ActivationMapping",
    "ChannelClassification",
    "ChannelGroupResult",
    "ComparisonResult",
    "ConvLayerWorkload",
    "DenseDatapath",
    "DetectorStats",
    "EnergyBreakdown",
    "EnergyTable",
    "FetchPlan",
    "GlobalBuffer",
    "InterconnectNetwork",
    "LayerExecutionResult",
    "PEConfig",
    "ProcessingElement",
    "ReferenceBackend",
    "SimulationBackend",
    "SimulationReport",
    "SparseChannelRecord",
    "SparseDatapath",
    "SparsityAwareAddressGenerator",
    "StepResult",
    "TemporalSparsityDetector",
    "TransferResult",
    "VectorizedBackend",
    "WeightMapping",
    "WorkloadTrace",
    "available_backends",
    "balance_point",
    "classify_channels",
    "compare_to_dense_baseline",
    "compress_channel",
    "conv_workload_from_layer",
    "dense_baseline_config",
    "get_backend",
    "measure_channel_sparsity",
    "precision_packing_factor",
    "random_workload",
    "relative_saving",
    "retime_trace_precision",
    "safe_speedup",
    "sqdm_config",
]
