"""Property tests for columnar lazy-materialized reports (PR 9).

The contract under test: a :class:`ColumnarReportBatch` produced by the
vectorized kernel is a *view* of the same results the eager assembly path
produced — materialized reports must be **bitwise** identical to a solo run
of the same (config, trace), at any batch shape, including the all-dense /
all-sparse datapath edges and empty traces.  On top of that, batches must
survive the codec, the artifact store and the report cache unchanged.
"""

from __future__ import annotations

import copy
import gc
import pickle
import sys
import threading

import numpy as np
import pytest

from repro.accelerator import AcceleratorSimulator, sqdm_config
from repro.accelerator.backends import ReferenceBackend, vectorized
from repro.accelerator.config import AcceleratorConfig
from repro.accelerator.controller import LayerExecutionResult
from repro.accelerator.energy import EnergyBreakdown
from repro.accelerator.pe import ChannelGroupResult
from repro.accelerator.simulator import SimulationReport, StepResult
from repro.accelerator.workload import ConvLayerWorkload
from repro.core import codec
from repro.core.artifacts import ArtifactStore
from repro.core.columnar import ColumnarReportBatch, ensure_report
from repro.core.report_cache import REPORT_ARTIFACT_KIND, ReportCache, artifact_key_for


def random_trace(rng: np.random.Generator, steps: int, layers: int, channels: int = 12):
    """A random trace with mixed per-channel sparsity."""
    return [
        [
            ConvLayerWorkload(
                name=f"s{s}l{n}",
                in_channels=channels,
                out_channels=int(rng.integers(4, 17)),
                kernel_size=3,
                out_height=int(rng.integers(2, 9)),
                out_width=int(rng.integers(2, 9)),
                weight_bits=int(rng.choice([4, 8, 16])),
                act_bits=int(rng.choice([4, 8, 16])),
                channel_sparsity=rng.uniform(0.0, 1.0, size=channels),
            )
            for n in range(layers)
        ]
        for s in range(steps)
    ]


def uniform_trace(value: float, steps: int = 2, layers: int = 2, channels: int = 8):
    """Every channel at the same sparsity — drives all-dense/all-sparse edges."""
    return [
        [
            ConvLayerWorkload(
                name=f"s{s}l{n}",
                in_channels=channels,
                out_channels=8,
                kernel_size=3,
                out_height=4,
                out_width=4,
                channel_sparsity=np.full(channels, value),
            )
            for n in range(layers)
        ]
        for s in range(steps)
    ]


def random_grid(seed: int):
    """A small random (config x trace) grid with shared and empty traces."""
    rng = np.random.default_rng(seed)
    configs = [
        sqdm_config(),
        sqdm_config(sparsity_threshold=0.9),
        AcceleratorConfig(name="wide", num_dpe=2, num_spe=2, sparsity_update_period=2),
    ]
    shared = random_trace(rng, steps=2, layers=2)
    entries = []
    for i, config in enumerate(configs):
        traces = [shared, random_trace(rng, steps=int(rng.integers(1, 4)), layers=2)]
        if i == 1:
            traces.append([])  # zero-step trace inside a live group
        entries.append((config, traces))
    return entries


def solo_report(config, trace):
    return AcceleratorSimulator(config, backend="vectorized").run_trace(trace)


class TestBitwiseIdentity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_lazy_views_match_solo_runs_bitwise(self, seed):
        entries = random_grid(seed)
        batch = vectorized.run_config_traces_columnar(entries)
        flat = 0
        for config, traces in entries:
            for trace in traces:
                lazy = batch.report_at(flat)
                assert codec.dumps(lazy) == codec.dumps(solo_report(config, trace))
                flat += 1

    @pytest.mark.parametrize("seed", [0, 3])
    def test_bulk_materialization_matches_per_trace_path(self, seed):
        entries = random_grid(seed)
        bulk_lists = vectorized.run_config_traces_columnar(entries).report_lists()
        lazy = vectorized.run_config_traces_columnar(entries)
        flat = 0
        for reports in bulk_lists:
            for report in reports:
                assert codec.dumps(report) == codec.dumps(lazy.report_at(flat))
                flat += 1

    @pytest.mark.parametrize("value", [0.0, 1.0])
    def test_all_dense_and_all_sparse_traces_bitwise(self, value):
        config = sqdm_config(sparsity_threshold=0.5)
        trace = uniform_trace(value)
        batch = vectorized.run_config_traces_columnar([(config, [trace])])
        assert codec.dumps(batch.report_at(0)) == codec.dumps(solo_report(config, trace))

    def test_empty_trace_materializes(self):
        config = sqdm_config()
        batch = vectorized.run_config_traces_columnar([(config, [[]])])
        report = batch.report(0, 0)
        assert report.step_results == []
        assert report.total_cycles == 0.0
        assert codec.dumps(report) == codec.dumps(solo_report(config, []))

    def test_zero_entry_batch(self):
        batch = vectorized.run_config_traces_columnar([])
        assert batch.num_configs == 0
        assert batch.num_traces == 0
        assert batch.report_lists() == []

    def test_slice_trace_is_bitwise_and_standalone(self):
        entries = random_grid(4)
        batch = vectorized.run_config_traces_columnar(entries)
        for flat in range(batch.num_traces):
            piece = batch.slice_trace(flat)
            assert piece.num_traces == 1
            assert codec.dumps(piece.report_at(0)) == codec.dumps(batch.report_at(flat))
            # Standalone: arrays are copies, not views of the parent batch.
            assert piece.layer_cycles.base is None
            assert piece == codec.decode(codec.encode(piece))

    def test_materialization_is_memoized(self):
        batch = vectorized.run_config_traces_columnar(random_grid(5))
        assert batch.report_at(0) is batch.report_at(0)
        listed = batch.report_lists()
        assert listed[0][0] is batch.report_at(0)


class TestReferenceOracle:
    def test_columnar_matches_reference_backend(self):
        rng = np.random.default_rng(11)
        config = sqdm_config()
        trace = random_trace(rng, steps=2, layers=2)
        lazy = vectorized.run_config_traces_columnar([(config, [trace])]).report_at(0)
        oracle = AcceleratorSimulator(config, backend="reference").run_trace(trace)
        assert lazy.total_cycles == pytest.approx(oracle.total_cycles, rel=1e-9)
        assert lazy.total_energy.total_pj == pytest.approx(oracle.total_energy.total_pj, rel=1e-9)

    def test_from_reports_packs_uneven_reference_grids(self):
        """The reference backend's batch (built by ``from_reports``) keeps
        entries with no traces, empty traces and empty steps, and gives back
        every eager report except its per-PE results."""
        rng = np.random.default_rng(13)
        trace = random_trace(rng, steps=2, layers=2)
        entries = [
            (sqdm_config(), []),
            (AcceleratorConfig(name="all_sparse", num_dpe=0, num_spe=2), [[], trace]),
            (sqdm_config(sparsity_threshold=0.9), [trace, [[]]]),
        ]
        batch = ReferenceBackend(sqdm_config()).run(entries)
        assert batch.config_names == ["sqdm", "all_sparse", "sqdm"]
        assert batch.traces_per_config.tolist() == [0, 2, 2]
        for (config, traces), reports in zip(entries, batch.report_lists()):
            for trace, report in zip(traces, reports):
                eager = ReferenceBackend(config).run_trace(trace)
                for step in eager.step_results:
                    for layer in step.layer_results:
                        layer.pe_results = []
                assert report == eager
        assert codec.decode(codec.encode(batch)) == batch


class TestAggregates:
    def test_array_aggregates_match_materialized_reports(self):
        entries = random_grid(6)
        batch = vectorized.run_config_traces_columnar(entries)
        reports = [r for reports in batch.report_lists() for r in reports]
        assert batch.total_cycles.tolist() == [r.total_cycles for r in reports]
        np.testing.assert_allclose(
            batch.total_energy_pj,
            [r.total_energy.total_pj for r in reports],
            rtol=1e-12,
        )
        np.testing.assert_allclose(
            batch.mac_skip_fraction,
            [r.mac_skip_fraction for r in reports],
            rtol=1e-12,
        )

    def test_batch_equality_and_validation(self):
        batch = vectorized.run_config_traces_columnar(random_grid(7))
        other = vectorized.run_config_traces_columnar(random_grid(7))
        assert batch == other
        assert batch != vectorized.run_config_traces_columnar(random_grid(8))
        with pytest.raises(ValueError):
            ColumnarReportBatch(
                config_names=["a"],
                clock_ghz=np.array([1.0]),
                traces_per_config=np.array([1]),
                trace_steps=np.array([1]),
                step_sizes=np.array([2]),
                layer_names=["x"],  # one name for two entries -> shape error
                layer_cycles=np.zeros(2),
                total_macs=np.zeros(2),
                executed_macs=np.zeros(2),
                dense_channels=np.zeros(2, dtype=np.int64),
                sparse_channels=np.zeros(2, dtype=np.int64),
                dense_cycles=np.zeros(2),
                sparse_cycles=np.zeros(2),
                layer_energy=np.zeros((2, 7)),
                step_totals=np.zeros((1, 8)),
                trace_totals=np.zeros((1, 8)),
                detector_updates=np.zeros(1, dtype=np.int64),
                detector_channels=np.zeros(1, dtype=np.int64),
            )

    def test_ensure_report_contract(self):
        batch = vectorized.run_config_traces_columnar(random_grid(9))
        single = batch.slice_trace(0)
        report = ensure_report(single)
        assert report is single.report_at(0)
        assert ensure_report(report) is report
        with pytest.raises(ValueError):
            ensure_report(batch)  # multi-trace batches are not one report


class TestRoundTrips:
    def test_codec_roundtrip_batch(self):
        batch = vectorized.run_config_traces_columnar(random_grid(10))
        assert codec.roundtrip_equal(batch)
        decoded = codec.loads(codec.dumps(batch))
        assert decoded == batch
        # Decoded batches materialize to the same bits.
        assert codec.dumps(decoded.report_at(0)) == codec.dumps(batch.report_at(0))

    def test_artifact_store_roundtrip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        batch = vectorized.run_config_traces_columnar(random_grid(12))
        store.put("report", "batch-key", batch)
        assert store.get("report", "batch-key") == batch

    def test_report_cache_stores_columnar_entries(self, tmp_path):
        store = ArtifactStore(tmp_path)
        cache = ReportCache(max_entries=8, store=store)
        config = sqdm_config()
        trace = uniform_trace(0.5, steps=1, layers=1)
        batch = vectorized.run_config_traces_columnar([(config, [trace])])
        key = ReportCache.key(config, trace, None, "vectorized")
        entry = cache.insert_key(key, batch.slice_trace(0))
        assert cache.lookup_key(key) is entry
        assert entry.report_at(0) == batch.report_at(0)
        # The disk tier serves (and re-promotes) the columnar entry too.
        warm = ReportCache(max_entries=8, store=store)
        from_disk = warm.lookup_key(key)
        assert isinstance(from_disk, ColumnarReportBatch) and from_disk == entry
        assert warm.lookup_key(key) is from_disk

    @pytest.mark.parametrize("stale", ["eager report", "multi-trace batch"])
    def test_an_artifact_that_is_no_cache_entry_is_a_miss_the_next_insert_replaces(
        self, tmp_path, stale
    ):
        store = ArtifactStore(tmp_path)
        config = sqdm_config()
        trace = uniform_trace(0.5, steps=1, layers=1)
        key = ReportCache.key(config, trace, None, "vectorized")
        batch = vectorized.run_config_traces_columnar([(config, [trace, trace])])
        planted = batch.report_at(0) if stale == "eager report" else batch
        store.put(REPORT_ARTIFACT_KIND, artifact_key_for(key), planted)
        cache = ReportCache(max_entries=8, store=store)
        assert cache.lookup_key(key) is None and cache.stats.misses == 1
        cache.insert_key(key, batch.slice_trace(0))
        warm = ReportCache(max_entries=8, store=store)
        assert warm.lookup_key(key) == batch.slice_trace(0)
        assert warm.stats.disk_hits == 1

    def test_report_cache_rejects_multi_trace_batches(self):
        cache = ReportCache(max_entries=4)
        batch = vectorized.run_config_traces_columnar(random_grid(13))
        assert batch.num_traces > 1
        with pytest.raises(TypeError):
            cache.insert_key(("a", "b", "c", "d"), batch)


def _read_every_layer(reports) -> int:
    return sum(len(step.layer_results) for report in reports for step in report.step_results)


class TestLazySteps:
    """A materialized report's steps and layers stay columnar until its
    ``step_results`` is first read, and then behave as the eager list."""

    def test_totals_readers_build_no_steps_or_layers(self):
        """Counted over the collector's tracked objects, with it disabled: the
        headers of a 17-point sweep are a few dozen objects, its steps and
        layers thousands."""
        trace = random_trace(np.random.default_rng(20), steps=8, layers=30)
        thresholds = np.linspace(0.05, 0.85, 17)
        batch = vectorized.run_config_traces_columnar(
            [(sqdm_config(sparsity_threshold=float(t)), [trace]) for t in thresholds]
        )

        def built() -> int:
            return sum(
                isinstance(obj, (StepResult, LayerExecutionResult)) for obj in gc.get_objects()
            )

        gc.collect()
        gc.disable()
        try:
            objects, steps_and_layers = len(gc.get_objects()), built()
            reports = [report for reports in batch.report_lists() for report in reports]
            totals = [(r.total_cycles, r.total_energy.total_pj, r.total_time_ms) for r in reports]
            headers = len(gc.get_objects()) - objects
            assert built() == steps_and_layers
            assert _read_every_layer(reports) == batch.num_entries == 17 * 8 * 30
            assert built() - steps_and_layers == batch.num_steps + batch.num_entries
            graphs = len(gc.get_objects()) - objects - headers
        finally:
            gc.enable()
        assert 0 < 20 * headers < graphs
        assert [cycles for cycles, _, _ in totals] == batch.total_cycles.tolist()

    def test_materialized_reports_make_no_reference_cycle(self):
        """The batch memoizes its reports; steps that held the batch, built
        or not, would make a cycle only the collector frees."""
        batch = vectorized.run_config_traces_columnar(random_grid(21))
        gc.collect()
        gc.disable()
        try:
            reports = [report for reports in batch.report_lists() for report in reports]
            assert _read_every_layer(reports[::2]) > 0  # the others stay unbuilt
            ours = {id(batch), *(id(report) for report in reports)}
            del batch, reports
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            leaked = [
                obj
                for obj in gc.garbage
                if isinstance(obj, (ColumnarReportBatch, SimulationReport)) and id(obj) in ours
            ]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert leaked == []

    @staticmethod
    def _reference_pair():
        """(fresh lazy report, eager report) via ReferenceBackend.run."""
        rng = np.random.default_rng(22)
        config = sqdm_config()
        trace = random_trace(rng, steps=3, layers=2)
        batch = ReferenceBackend(config).run([(config, [trace])])
        eager = ReferenceBackend(config).run_trace(trace)
        for step in eager.step_results:
            for layer in step.layer_results:
                layer.pe_results = []
        return (lambda: batch.slice_trace(0).report_at(0)), eager

    @staticmethod
    def _from_reports_pair():
        """(fresh lazy report, eager report) via ColumnarReportBatch.from_reports."""
        config = sqdm_config(sparsity_threshold=0.3)
        trace = random_trace(np.random.default_rng(23), steps=3, layers=3)
        eager = codec.loads(codec.dumps(solo_report(config, trace)))
        return (lambda: ColumnarReportBatch.from_reports([(config, [eager])]).report_at(0)), eager

    @pytest.mark.parametrize("source", ["reference", "from_reports"])
    def test_lazy_steps_behave_as_the_eager_list(self, source):
        fresh, eager = getattr(self, f"_{source}_pair")()
        assert type(eager.step_results) is list and len(eager.step_results) == 3
        assert type(fresh().step_results) is not list
        # Each check reads a report whose steps are not built yet.
        assert fresh() == eager
        assert eager == fresh()
        assert fresh().step_results == eager.step_results
        assert eager.step_results == fresh().step_results
        assert not fresh().step_results != eager.step_results
        assert repr(fresh()) == repr(eager)
        assert codec.dumps(fresh()) == codec.dumps(eager)
        assert len(fresh().step_results) == 3 and fresh().step_results
        assert fresh().step_results[-1] == eager.step_results[-1]
        assert fresh().step_results[1:] == eager.step_results[1:]
        lazy = fresh()
        assert list(lazy.step_results) == list(lazy.step_results) == eager.step_results
        assert lazy.step_results.index(eager.step_results[1]) == 1
        for copied in (copy.deepcopy(fresh()), pickle.loads(pickle.dumps(fresh()))):
            assert type(copied.step_results) is list
            assert copied == eager and codec.dumps(copied) == codec.dumps(eager)
        assert copy.copy(fresh().step_results) == eager.step_results
        empty = vectorized.run_config_traces_columnar([(sqdm_config(), [[]])]).report_at(0)
        assert not empty.step_results and empty.step_results == [] and len(empty.step_results) == 0

    def test_concurrent_first_reads_share_one_list(self):
        batch = vectorized.run_config_traces_columnar(random_grid(24))
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for flat in range(batch.num_traces):
                report = batch.slice_trace(flat).report_at(0)
                barrier = threading.Barrier(8)
                seen: list = [None] * 8

                def read(index: int, report=report, barrier=barrier, seen=seen) -> None:
                    barrier.wait(timeout=10)
                    seen[index] = tuple(report.step_results)

                threads = [threading.Thread(target=read, args=(i,)) for i in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
                first = seen[0]
                assert first is not None and len(first) == int(batch.trace_steps[flat])
                for steps in seen[1:]:
                    assert steps is not None
                    assert all(a is b for a, b in zip(steps, first)) and len(steps) == len(first)
        finally:
            sys.setswitchinterval(previous)


class TestHotPathHygiene:
    @pytest.mark.parametrize(
        "cls", [EnergyBreakdown, ChannelGroupResult, LayerExecutionResult, StepResult]
    )
    def test_hot_result_classes_are_slotted(self, cls):
        if cls is EnergyBreakdown:
            instance = EnergyBreakdown()
        elif cls is ChannelGroupResult:
            instance = ChannelGroupResult(
                pe_name="dpe0", mode="dense", cycles=1.0, energy=EnergyBreakdown(),
                macs_executed=1.0, macs_skipped=0.0, input_bytes=1.0, weight_bytes=1.0,
                output_bytes=1.0, num_channels=1,
            )
        elif cls is LayerExecutionResult:
            instance = LayerExecutionResult(
                layer_name="l", cycles=1.0, energy=EnergyBreakdown(), total_macs=1.0,
                executed_macs=1.0, dense_channels=1, sparse_channels=0,
                pe_results=[], dense_cycles=1.0, sparse_cycles=0.0,
            )
        else:
            instance = StepResult(
                time_step=0, cycles=1.0, energy=EnergyBreakdown(), layer_results=[]
            )
        assert not hasattr(instance, "__dict__")
        with pytest.raises(AttributeError):
            instance.not_a_field = 1
        # The codec still round-trips slotted instances.
        assert codec.roundtrip_equal(instance)
