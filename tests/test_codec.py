"""Tests for the versioned wire codec and every registered schema."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.accelerator import AcceleratorSimulator, DetectorStats, random_workload, sqdm_config
from repro.accelerator.config import PEConfig, dense_baseline_config
from repro.accelerator.controller import LayerExecutionResult
from repro.accelerator.energy import EnergyBreakdown, EnergyTable
from repro.accelerator.pe import ChannelGroupResult
from repro.accelerator.simulator import StepResult
from repro.core import codec
from repro.core.artifacts import ArtifactStoreStats, EvictionResult
from repro.core.costs import CostSummary
from repro.core.pipeline import HardwareEvaluation, QuantizationEvaluation
from repro.core.report_cache import CacheStats
from repro.core.sparsity import TemporalSparsityTrace, TracedLayer
from repro.diffusion.fid import FeatureStatistics
from repro.serve.specs import (
    CallableJobSpec,
    QualityJobSpec,
    SimulateJobSpec,
    SweepJobResult,
    SweepJobSpec,
    TraceRef,
)


def make_trace(seed: int = 0, steps: int = 2, layers: int = 2):
    return [
        [
            random_workload(in_channels=8, spatial=4, seed=seed * 100 + 10 * s + n)
            for n in range(layers)
        ]
        for s in range(steps)
    ]


def make_report():
    return AcceleratorSimulator(sqdm_config()).run_trace(make_trace())


def make_columnar_batch():
    return AcceleratorSimulator(sqdm_config()).run(
        [
            (sqdm_config(), [make_trace(0), make_trace(1)]),
            (sqdm_config(sparsity_threshold=0.8), [make_trace(2)]),
        ]
    )


def _energy(scale: float = 1.0) -> EnergyBreakdown:
    return EnergyBreakdown(
        mac_pj=1.0 * scale,
        local_buffer_pj=0.5 * scale,
        global_buffer_pj=2.0 * scale,
        dram_pj=3.0 * scale,
        noc_pj=0.25 * scale,
        detector_pj=0.125 * scale,
        idle_pj=4.0 * scale,
    )


def _group_result() -> ChannelGroupResult:
    return ChannelGroupResult(
        pe_name="dpe0",
        mode="dense",
        cycles=12.5,
        energy=_energy(),
        macs_executed=1024.0,
        macs_skipped=16.0,
        input_bytes=64.0,
        weight_bytes=128.0,
        output_bytes=32.0,
        num_channels=8,
    )


def _layer_result() -> LayerExecutionResult:
    return LayerExecutionResult(
        layer_name="enc.conv0",
        cycles=20.0,
        energy=_energy(2.0),
        total_macs=2048.0,
        executed_macs=1800.0,
        dense_channels=6,
        sparse_channels=2,
        pe_results=[_group_result()],
        dense_cycles=15.0,
        sparse_cycles=5.0,
    )


def _sparsity_trace() -> TemporalSparsityTrace:
    layer = TracedLayer(
        name="enc.conv0",
        block_name="enc.16x16_block0",
        in_channels=4,
        out_channels=4,
        kernel_size=3,
        height=8,
        width=8,
    )
    return TemporalSparsityTrace(
        layers=[layer],
        steps=[{"enc.conv0": np.array([0.1, 0.9, 0.4, 0.0])} for _ in range(2)],
        zero_tolerance_rel=1.0 / 30.0,
    )


#: One representative instance per registered schema name.  The coverage
#: test below fails when a schema is registered without a sample here, so
#: every schema stays round-trip-tested.
def sample_objects() -> dict[str, tuple]:
    report = make_report()
    trace = make_trace()
    return {
        "value": ({"a": 1, "b": [1.5, "x", None], "blob": b"\x00\x01", 4: "int-key"}, None),
        "pe_config": (PEConfig(multipliers=64), None),
        "accelerator_config": (sqdm_config(sparsity_threshold=0.4), None),
        "energy_table": (EnergyTable(), None),
        "energy_breakdown": (_energy(), None),
        "conv_layer_workload": (random_workload(in_channels=8, spatial=4), None),
        "workload_trace": (trace, "workload_trace"),
        "traced_layer": (_sparsity_trace().layers[0], None),
        "sparsity_trace": (_sparsity_trace(), None),
        "channel_group_result": (_group_result(), None),
        "layer_execution_result": (_layer_result(), None),
        "step_result": (
            StepResult(time_step=1, cycles=20.0, energy=_energy(), layer_results=[_layer_result()]),
            None,
        ),
        "detector_stats": (DetectorStats(updates_performed=4, channels_evaluated=96), None),
        "simulation_report": (report, None),
        "cost_summary": (CostSummary(1.0, 2.0, 3.0, 4.0), None),
        "quantization_evaluation": (
            QuantizationEvaluation(
                workload="cifar10",
                scheme="INT4-VSQ",
                fid=12.5,
                costs=CostSummary(1.0, 2.0, 3.0, 4.0),
                relu_based=True,
            ),
            None,
        ),
        "hardware_evaluation": (
            HardwareEvaluation(
                workload="cifar10",
                sqdm_report=report,
                dense_baseline_report=report,
                fp16_dense_report=report,
                average_sparsity=0.55,
            ),
            None,
        ),
        "feature_statistics": (
            FeatureStatistics(mean=np.arange(4.0), cov=np.eye(4), num_samples=64),
            None,
        ),
        "cache_stats": (CacheStats(hits=3, disk_hits=2, misses=1), None),
        "artifact_store_stats": (ArtifactStoreStats(hits=1, misses=2, writes=3), None),
        "eviction_result": (EvictionResult(removed=2, reclaimed_bytes=4096), None),
        "simulate_spec": (SimulateJobSpec(config=sqdm_config(), trace=trace), None),
        "trace_ref": (TraceRef(digest="0f" * 32), None),
        "quality_spec": (
            QualityJobSpec(workload="cifar10", scheme="MXINT8", pipeline_overrides={"seed": 1}),
            None,
        ),
        "callable_spec": (
            CallableJobSpec(function="evaluate_quality", args=(1, "x"), kwargs={"k": [1, 2]}),
            None,
        ),
        "sweep_spec": (
            SweepJobSpec(
                base=sqdm_config(),
                grid={"sparsity_threshold": [0.1, 0.3], "num_spe": [1, 2]},
                trace=trace,
                baseline=dense_baseline_config(),
                name="grid",
            ),
            None,
        ),
        "columnar_report_batch": (make_columnar_batch(), None),
        "sweep_result": (
            SweepJobResult(
                name="grid",
                params=[{"sparsity_threshold": 0.1}, {"sparsity_threshold": 0.3}],
                # One-trace parts, as the server holds them: two cases, then
                # the baseline; @3 carries them as one concatenated batch.
                parts=make_columnar_batch().slices(),
                has_baseline=True,
            ),
            None,
        ),
    }


class TestEverySchemaRoundTrips:
    """Acceptance: ``decode(encode(x)) == x`` (JSON-identically) per schema."""

    def test_every_registered_schema_has_a_sample(self):
        samples = set(sample_objects())
        registered = {
            name for name in codec.registered_schemas() if not name.startswith("test ")
        }
        missing = registered - samples - _TEST_ONLY_SCHEMAS
        assert not missing, f"registered schemas without a round-trip sample: {sorted(missing)}"

    @pytest.mark.parametrize("schema_name", sorted(sample_objects()))
    def test_roundtrip(self, schema_name):
        obj, explicit_name = sample_objects()[schema_name]
        assert codec.roundtrip_equal(obj, name=explicit_name), schema_name

    @pytest.mark.parametrize("schema_name", sorted(sample_objects()))
    def test_envelope_is_pure_json_and_tagged(self, schema_name):
        obj, explicit_name = sample_objects()[schema_name]
        envelope = codec.encode(obj, name=explicit_name)
        assert envelope[codec.SCHEMA_KEY].startswith(f"{schema_name}@")
        json.dumps(envelope)  # must serialize without custom encoders

    def test_simulation_report_values_bit_identical(self):
        report = make_report()
        decoded = codec.decode(codec.encode(report))
        assert decoded.total_cycles == report.total_cycles
        assert decoded.total_energy.total_pj == report.total_energy.total_pj
        assert decoded.total_macs == report.total_macs
        assert len(decoded.step_results) == len(report.step_results)

    def test_simulation_report_detector_stats_round_trip_and_skew(self):
        """Per-report detector stats survive the wire, and reports encoded
        before the field existed still decode (to None)."""
        report = make_report()
        assert report.detector_stats is not None
        decoded = codec.decode(codec.encode(report))
        assert decoded.detector_stats == report.detector_stats
        legacy = codec.encode(report)
        del legacy["detector_stats"]
        assert codec.decode(legacy).detector_stats is None


class TestRegistry:
    def test_unknown_schema_name_rejected_with_known_names(self):
        with pytest.raises(codec.UnknownSchemaError, match="known schemas"):
            codec.decode({"$schema": "warp_drive@1"})

    def test_unknown_schema_version_rejected_with_known_versions(self):
        with pytest.raises(codec.UnknownSchemaError, match=r"version\(s\) \[1\]"):
            codec.decode({"$schema": "simulation_report@99"})

    def test_malformed_tag_rejected(self):
        with pytest.raises(codec.SchemaError, match="malformed"):
            codec.decode({"$schema": "no-version-here"})
        with pytest.raises(codec.SchemaError, match="envelope"):
            codec.decode(["not", "an", "envelope"])

    def test_duplicate_registration_rejected(self):
        codec.register_schema(
            "test duplicate", 1, lambda o, c: {}, lambda d, c: None
        )
        with pytest.raises(ValueError, match="already registered"):
            codec.register_schema(
                "test duplicate", 1, lambda o, c: {}, lambda d, c: None
            )

    def test_latest_version_wins_type_dispatch(self):
        class Toy:
            def __init__(self, x):
                self.x = x

        codec.register_schema(
            "test toy", 1, lambda o, c: {"x": o.x}, lambda d, c: Toy(d["x"]), type=Toy
        )
        codec.register_schema(
            "test toy",
            2,
            lambda o, c: {"x": o.x, "twice": o.x * 2},
            lambda d, c: Toy(d["x"]),
            type=Toy,
        )
        envelope = codec.encode(Toy(3))
        assert envelope["$schema"] == "test toy@2" and envelope["twice"] == 6
        # the old version stays decodable (stored artifacts, older clients)
        assert codec.decode({"$schema": "test toy@1", "x": 5}).x == 5

    def test_unregistered_type_rejected_with_guidance(self):
        class Stranger:
            pass

        with pytest.raises(codec.SchemaError, match="register_schema"):
            codec.encode(Stranger())
        with pytest.raises(codec.SchemaError, match="not wire-encodable"):
            codec.encode_value(Stranger())

    def test_unknown_dataclass_field_tolerated(self):
        """A newer same-version writer may add minor fields; old readers drop them."""
        doc = codec.encode(CostSummary(1.0, 2.0, 3.0, 4.0))
        doc["bonus_field"] = 1
        decoded = codec.decode(doc)
        assert isinstance(decoded, CostSummary)
        assert not hasattr(decoded, "bonus_field")


class TestSchemaVersionSkew:
    """Old-reader/new-writer round-trips across the wire (ROADMAP follow-up).

    Two processes on different revisions share one wire: a *new writer* may
    (a) add minor fields under the same schema version — old readers must
    tolerate and ignore them — or (b) bump the schema version for an
    incompatible layout — old readers must reject it naming the versions
    they do know, never misparse it.
    """

    def test_new_writer_minor_fields_survive_old_reader_roundtrip(self):
        # Simulate the new writer: a same-version envelope with extra minor
        # fields, serialized to the JSON the old reader actually receives.
        envelope = codec.encode(QualityJobSpec(workload="cifar10", scheme="MXINT8"))
        envelope["priority"] = 7  # minor addition the old reader predates
        envelope["submitted_by"] = "new-writer"
        wire = json.dumps(envelope, sort_keys=True)

        decoded = codec.loads(wire)  # the old reader's view
        assert decoded == QualityJobSpec(workload="cifar10", scheme="MXINT8")
        # Re-encoding on the old side produces a clean same-version envelope.
        assert codec.encode(decoded)[codec.SCHEMA_KEY] == "quality_spec@1"

    def test_nested_minor_fields_tolerated(self):
        """Skew applies per envelope: extras inside *nested* envelopes drop too."""
        spec = SimulateJobSpec(config=sqdm_config(), trace=make_trace())
        envelope = codec.encode(spec)
        envelope["config"]["fab_node_nm"] = 3  # newer accelerator_config writer
        decoded = codec.loads(json.dumps(envelope))
        assert decoded.config == sqdm_config()

    def test_unknown_schema_version_rejected_with_alternatives(self):
        """A version bump is a layout change: old readers refuse, citing what they know."""
        envelope = codec.encode(QualityJobSpec(workload="cifar10", scheme="MXINT8"))
        envelope[codec.SCHEMA_KEY] = "quality_spec@2"
        with pytest.raises(codec.UnknownSchemaError, match=r"version\(s\) \[1\]"):
            codec.loads(json.dumps(envelope))

    def test_unknown_version_rejected_before_payload_is_touched(self):
        """Rejection must come from the version gate, not from payload parsing."""
        with pytest.raises(codec.UnknownSchemaError, match="quality_spec"):
            codec.decode({codec.SCHEMA_KEY: "quality_spec@9", "garbage": object()})


#: Names registered by this module's own registry tests; excluded from the
#: sample-coverage check.
_TEST_ONLY_SCHEMAS = {"test duplicate", "test toy"}


class TestValueEncoding:
    def test_plain_lists_accepted_as_arrays(self):
        """Hand-written JSON (curl) may pass arrays as plain lists."""
        doc = codec.encode(random_workload(in_channels=4, spatial=4))
        doc["channel_sparsity"] = [0.5, 0.0, 0.9, 0.2]
        workload = codec.decode(doc)
        assert np.array_equal(workload.channel_sparsity, [0.5, 0.0, 0.9, 0.2])

    def test_ndarray_dtype_and_shape_preserved(self):
        array = np.arange(12, dtype=np.int32).reshape(3, 4)
        decoded = codec.decode_value(codec.encode_value(array))
        assert decoded.dtype == np.int32 and decoded.shape == (3, 4)
        assert np.array_equal(decoded, array)

    def test_non_string_and_reserved_dict_keys(self):
        value = {4: "int", (1, 2): "tuple", "$schema": "reserved", "plain": 1}
        decoded = codec.decode_value(codec.encode_value(value))
        assert decoded == value

    def test_sidecar_buffers_keep_json_small(self):
        array = np.arange(1024.0)
        buffers: list[bytes] = []
        envelope = codec.encode(array, arrays=buffers)
        assert len(buffers) == 1 and len(buffers[0]) == array.nbytes
        assert "data" not in json.dumps(envelope)  # no inline base64
        decoded = codec.decode(envelope, buffers=buffers)
        assert np.array_equal(decoded, array)

    def test_sidecar_buffer_out_of_range_rejected(self):
        buffers: list[bytes] = []
        envelope = codec.encode(np.arange(4.0), arrays=buffers)
        with pytest.raises(codec.SchemaError, match="out of range"):
            codec.decode(envelope, buffers=[])

    def test_a_frame_round_trips_a_document_and_its_buffers(self):
        buffers: list[bytes] = []
        doc = {"status": "done", "result": codec.encode(np.arange(6.0), arrays=buffers)}
        frame = codec.pack_frame(doc, buffers + [b""])
        header_len = int.from_bytes(frame[:8], "little")
        assert json.loads(frame[8 : 8 + header_len]) == {"buffers": [48, 0], "doc": doc}
        assert frame.endswith(np.arange(6.0).tobytes())
        unpacked, unpacked_buffers = codec.unpack_frame(frame)
        assert unpacked == doc and unpacked_buffers == buffers + [b""]
        result = codec.decode(unpacked["result"], buffers=unpacked_buffers)
        assert result.tobytes() == np.arange(6.0).tobytes()

    def test_corrupt_base64_rejected(self):
        with pytest.raises(codec.SchemaError, match="base64"):
            codec.decode_value({"$bytes": "!!! not base64 !!!"})

    def test_tuple_becomes_list(self):
        assert codec.decode_value(codec.encode_value((1, 2, 3))) == [1, 2, 3]

    def test_dumps_loads(self):
        config = sqdm_config()
        assert codec.loads(codec.dumps(config)) == config
