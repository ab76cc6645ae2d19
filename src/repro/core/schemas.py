"""Wire-schema registrations for the repository's boundary-crossing types.

Importing this module (which :mod:`repro.core.codec` does lazily on first
use) registers a versioned schema for every dataclass that crosses a
process or network boundary: accelerator configurations, workload traces,
simulation reports, pipeline evaluations, FID reference statistics, and the
cache/eviction statistics the HTTP API reports.  Job specs and their
results live with the service layer in :mod:`repro.serve.specs`.

Schema names are stable wire identifiers; evolving a type means registering
the next version here (``register_dataclass(cls, name, version=2, ...)``)
while keeping the old decoder alive for as long as stored artifacts and
deployed clients may still speak it.
"""

from __future__ import annotations

from typing import Any, Mapping

from ..accelerator.backends.base import DetectorStats
from ..accelerator.config import AcceleratorConfig, PEConfig
from ..accelerator.controller import LayerExecutionResult
from ..accelerator.energy import EnergyBreakdown, EnergyTable
from ..accelerator.pe import ChannelGroupResult
from ..accelerator.simulator import SimulationReport, StepResult
from ..accelerator.workload import ConvLayerWorkload
from ..diffusion.fid import FeatureStatistics
from . import codec
from .artifacts import ArtifactStoreStats, EvictionResult
from .codec import Decoder, Encoder, register_dataclass, register_schema
from .columnar import ARRAY_FIELDS, ColumnarReportBatch
from .costs import CostSummary
from .pipeline import HardwareEvaluation, QuantizationEvaluation
from .report_cache import CacheStats
from .sparsity import TemporalSparsityTrace, TracedLayer

#: Schema name for a whole workload trace (``list[list[ConvLayerWorkload]]``),
#: which has no dataclass of its own — encode with
#: ``codec.encode(trace, name=WORKLOAD_TRACE_SCHEMA)``.
WORKLOAD_TRACE_SCHEMA = "workload_trace"

# -- hardware configuration --------------------------------------------------------

register_dataclass(PEConfig, "pe_config")
register_dataclass(AcceleratorConfig, "accelerator_config")
register_dataclass(
    EnergyTable,
    "energy_table",
    # JSON objects stringify keys: accept {"4": 0.06} and the $dict form alike.
    decode_hook=lambda kwargs: {
        **kwargs,
        "mac_pj": {int(bits): float(pj) for bits, pj in kwargs.get("mac_pj", {}).items()},
    },
)

# -- workloads and traces ----------------------------------------------------------

register_dataclass(ConvLayerWorkload, "conv_layer_workload")


def _encode_trace(trace: Any, ctx: Encoder) -> dict:
    return {"steps": [[ctx.encode(workload) for workload in workloads] for workloads in trace]}


def _decode_trace(doc: Mapping[str, Any], ctx: Decoder) -> list[list[ConvLayerWorkload]]:
    steps = doc["steps"]
    if not isinstance(steps, list) or not all(isinstance(step, list) for step in steps):
        raise codec.SchemaError("workload_trace 'steps' must be a list of lists")
    decoded = [[ctx.decode(workload) for workload in step] for step in steps]
    for step in decoded:
        for workload in step:
            if not isinstance(workload, ConvLayerWorkload):
                raise codec.SchemaError(
                    f"workload_trace steps must contain conv_layer_workload "
                    f"envelopes, got {type(workload).__name__}"
                )
    return decoded


register_schema(WORKLOAD_TRACE_SCHEMA, 1, _encode_trace, _decode_trace)

register_dataclass(TracedLayer, "traced_layer")
register_dataclass(TemporalSparsityTrace, "sparsity_trace")

# -- simulation results ------------------------------------------------------------

register_dataclass(EnergyBreakdown, "energy_breakdown")
register_dataclass(ChannelGroupResult, "channel_group_result")
register_dataclass(LayerExecutionResult, "layer_execution_result")
register_dataclass(StepResult, "step_result")
register_dataclass(DetectorStats, "detector_stats")
register_dataclass(SimulationReport, "simulation_report")

# Integer-valued columns of a columnar batch; everything else is float64.
_COLUMNAR_INT_FIELDS = frozenset(
    {
        "traces_per_config",
        "trace_steps",
        "step_sizes",
        "dense_channels",
        "sparse_channels",
        "detector_updates",
        "detector_channels",
    }
)


def _encode_columnar_batch(batch: ColumnarReportBatch, ctx: Encoder) -> dict:
    # One envelope for the whole (config x trace x step x layer) grid: two
    # string lists plus one $ndarray sidecar per column, instead of thousands
    # of nested report/step/layer dicts.
    doc: dict[str, Any] = {
        "config_names": list(batch.config_names),
        "layer_names": list(batch.layer_names),
    }
    for name in ARRAY_FIELDS:
        doc[name] = ctx.ndarray(getattr(batch, name))
    return doc


def _decode_columnar_batch(doc: Mapping[str, Any], ctx: Decoder) -> ColumnarReportBatch:
    for key in ("config_names", "layer_names"):
        names = doc[key]
        if not isinstance(names, list) or not all(isinstance(name, str) for name in names):
            raise codec.SchemaError(f"columnar_report_batch {key!r} must be a list of strings")
    arrays = {
        name: ctx.ndarray(doc[name], dtype="int64" if name in _COLUMNAR_INT_FIELDS else "float64")
        for name in ARRAY_FIELDS
    }
    try:
        return ColumnarReportBatch(
            config_names=list(doc["config_names"]),
            layer_names=list(doc["layer_names"]),
            **arrays,
        )
    except ValueError as exc:
        raise codec.SchemaError(f"inconsistent columnar_report_batch: {exc}") from None


register_schema(
    "columnar_report_batch",
    1,
    _encode_columnar_batch,
    _decode_columnar_batch,
    type=ColumnarReportBatch,
)

# -- pipeline evaluations ----------------------------------------------------------

register_dataclass(CostSummary, "cost_summary")
register_dataclass(QuantizationEvaluation, "quantization_evaluation")
register_dataclass(HardwareEvaluation, "hardware_evaluation")
register_dataclass(FeatureStatistics, "feature_statistics")

# -- cache / store statistics ------------------------------------------------------

register_dataclass(CacheStats, "cache_stats")
register_dataclass(ArtifactStoreStats, "artifact_store_stats")
register_dataclass(EvictionResult, "eviction_result")
