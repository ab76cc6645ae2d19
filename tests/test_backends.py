"""Simulation-backend tests: vectorized-vs-reference equivalence and the facade."""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest

from repro.accelerator import (
    AcceleratorConfig,
    AcceleratorSimulator,
    ComparisonResult,
    ConvLayerWorkload,
    ReferenceBackend,
    SimulationBackend,
    VectorizedBackend,
    available_backends,
    dense_baseline_config,
    get_backend,
    random_workload,
    relative_saving,
    safe_speedup,
    sqdm_config,
)
from repro.accelerator.backends.vectorized import _front_compact, _segment_sums
from repro.accelerator.energy import DEFAULT_ENERGY_TABLE
from repro.accelerator.noc import InterconnectNetwork, pe_hops

RTOL = 1e-9


def random_trace(
    rng: np.random.Generator, steps: int, layers: int
) -> list[list[ConvLayerWorkload]]:
    """A randomized trace: per-layer geometry fixed across steps (as in real
    traces — stale detector classifications index the layer's channels),
    per-step sparsity and per-layer precision randomized."""
    templates = [
        random_workload(
            in_channels=int(rng.integers(1, 96)),
            out_channels=int(rng.integers(1, 64)),
            spatial=int(rng.integers(1, 24)),
            kernel_size=int(rng.choice([1, 3, 5])),
            weight_bits=int(rng.choice([4, 8, 16])),
            act_bits=int(rng.choice([4, 8, 16])),
            seed=int(rng.integers(0, 2**31)),
            name=f"layer{layer}",
        )
        for layer in range(layers)
    ]
    return [
        [
            template.replace(
                channel_sparsity=rng.beta(
                    a=rng.uniform(0.5, 5.0), b=rng.uniform(0.5, 5.0), size=template.in_channels
                )
            )
            for template in templates
        ]
        for _ in range(steps)
    ]


def assert_reports_equivalent(ref, vec, rtol=RTOL):
    """Reference and vectorized reports agree on every reported quantity."""
    assert ref.config_name == vec.config_name
    assert ref.clock_ghz == vec.clock_ghz
    assert vec.total_cycles == pytest.approx(ref.total_cycles, rel=rtol)
    assert vec.total_macs == pytest.approx(ref.total_macs, rel=rtol)
    assert vec.executed_macs == pytest.approx(ref.executed_macs, rel=rtol)
    assert vec.average_load_imbalance() == pytest.approx(
        ref.average_load_imbalance(), rel=1e-8, abs=1e-12
    )
    for component, expected in ref.total_energy.as_dict().items():
        assert vec.total_energy.as_dict()[component] == pytest.approx(
            expected, rel=rtol, abs=1e-9
        ), component
    assert len(ref.step_results) == len(vec.step_results)
    for ref_step, vec_step in zip(ref.step_results, vec.step_results):
        assert vec_step.cycles == pytest.approx(ref_step.cycles, rel=rtol)
        assert len(ref_step.layer_results) == len(vec_step.layer_results)
        for ref_layer, vec_layer in zip(ref_step.layer_results, vec_step.layer_results):
            assert ref_layer.layer_name == vec_layer.layer_name
            assert vec_layer.cycles == pytest.approx(ref_layer.cycles, rel=rtol)
            assert vec_layer.dense_channels == ref_layer.dense_channels
            assert vec_layer.sparse_channels == ref_layer.sparse_channels
            assert vec_layer.executed_macs == pytest.approx(ref_layer.executed_macs, rel=rtol)
            assert vec_layer.dense_cycles == pytest.approx(ref_layer.dense_cycles, rel=rtol)
            assert vec_layer.sparse_cycles == pytest.approx(ref_layer.sparse_cycles, rel=rtol)


def chain_of_routers_hops(num_dpe: int, num_spe: int) -> dict[str, int]:
    """GLB-to-PE hop counts by breadth-first search over Fig. 9's topology.

    The global buffer feeds a chain of routers, one per PE; PE *i* (DPEs
    first, then SPEs) hangs off router *i*.
    """
    pes = [f"dpe{i}" for i in range(num_dpe)] + [f"spe{i}" for i in range(num_spe)]
    neighbours: dict[str, list[str]] = {"glb": []}
    previous = "glb"
    for index, pe in enumerate(pes):
        router = f"router{index}"
        neighbours[previous].append(router)
        neighbours[router] = [previous, pe]
        neighbours[pe] = [router]
        previous = router
    distance = {"glb": 0}
    frontier = deque(["glb"])
    while frontier:
        node = frontier.popleft()
        for neighbour in neighbours[node]:
            if neighbour not in distance:
                distance[neighbour] = distance[node] + 1
                frontier.append(neighbour)
    return {pe: distance[pe] for pe in pes}


class TestNoCHopOracle:
    """The closed-form hop count against a search over the router graph."""

    SHAPES = [(d, s) for d in range(9) for s in range(7) if d + s > 0]

    @pytest.mark.parametrize("num_dpe,num_spe", SHAPES)
    def test_closed_form_matches_breadth_first_search(self, num_dpe, num_spe):
        expected = chain_of_routers_hops(num_dpe, num_spe)
        config = AcceleratorConfig(name="hops", num_dpe=num_dpe, num_spe=num_spe)
        noc = InterconnectNetwork(config, DEFAULT_ENERGY_TABLE)
        assert {pe: noc.transfer(pe, 1.0).hops for pe in expected} == expected
        np.testing.assert_array_equal(
            pe_hops(np.arange(num_dpe + num_spe)), list(expected.values())
        )

    def test_reference_and_vectorized_noc_energy_agree_on_a_wide_array(self):
        config = AcceleratorConfig(name="d3s4", num_dpe=3, num_spe=4)
        trace = random_trace(np.random.default_rng(34), steps=3, layers=5)
        ref = AcceleratorSimulator(config, backend="reference").run_trace(trace)
        vec = AcceleratorSimulator(config, backend="vectorized").run_trace(trace)
        assert ref.total_energy.noc_pj > 0
        assert vec.total_energy.noc_pj == pytest.approx(ref.total_energy.noc_pj, rel=RTOL)
        for ref_step, vec_step in zip(ref.step_results, vec.step_results, strict=True):
            for ref_layer, vec_layer in zip(
                ref_step.layer_results, vec_step.layer_results, strict=True
            ):
                assert vec_layer.energy.noc_pj == pytest.approx(ref_layer.energy.noc_pj, rel=RTOL)


class TestBackendRegistry:
    def test_both_backends_registered(self):
        assert available_backends() == ["reference", "vectorized"]

    def test_get_backend_instances(self):
        config = sqdm_config()
        assert isinstance(get_backend("reference", config), ReferenceBackend)
        assert isinstance(get_backend("vectorized", config), VectorizedBackend)

    def test_backends_satisfy_protocol(self):
        config = sqdm_config()
        assert isinstance(ReferenceBackend(config), SimulationBackend)
        assert isinstance(VectorizedBackend(config), SimulationBackend)

    def test_protocol_declares_only_name_and_run(self):
        methods = {name for name in vars(SimulationBackend) if not name.startswith("_")}
        assert methods == {"run"}
        assert set(SimulationBackend.__annotations__) == {"name"}

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown simulation backend"):
            get_backend("cycle_accurate", sqdm_config())
        with pytest.raises(ValueError, match="unknown simulation backend"):
            AcceleratorSimulator(sqdm_config(), backend="cycle_accurate")

    def test_facade_exposes_backend_name(self):
        assert AcceleratorSimulator(sqdm_config(), backend="reference").backend_name == "reference"
        simulator = AcceleratorSimulator(sqdm_config(), backend="vectorized")
        assert simulator.backend_name == "vectorized"


class TestVectorizedEquivalence:
    """Property-style check: the vectorized engine reproduces the reference."""

    @pytest.mark.parametrize(
        "config",
        [
            sqdm_config(),
            dense_baseline_config(),
            AcceleratorConfig(name="all_sparse", num_dpe=0, num_spe=2),
            AcceleratorConfig(name="wide", num_dpe=3, num_spe=2),
            sqdm_config(sparsity_update_period=3),
            sqdm_config(sparsity_threshold=0.7),
            sqdm_config(global_buffer_kib=1),  # forces DRAM spills
        ],
        ids=lambda c: (
            f"{c.name}-p{c.sparsity_update_period}-t{c.sparsity_threshold}-g{c.global_buffer_kib}"
        ),
    )
    @pytest.mark.parametrize("trial", range(3))
    def test_randomized_traces_match(self, config, trial):
        rng = np.random.default_rng(1000 * trial + hash(config.name) % 997)
        trace = random_trace(rng, steps=int(rng.integers(1, 6)), layers=int(rng.integers(1, 5)))
        ref = AcceleratorSimulator(config, backend="reference").run_trace(trace)
        vec = AcceleratorSimulator(config, backend="vectorized").run_trace(trace)
        assert_reports_equivalent(ref, vec)

    def test_detector_update_schedule_matches(self, synthetic_trace):
        config = sqdm_config(sparsity_update_period=2)
        ref = AcceleratorSimulator(config, backend="reference").run_trace(synthetic_trace)
        vec = AcceleratorSimulator(config, backend="vectorized").run_trace(synthetic_trace)
        assert vec.detector_stats.updates_performed == ref.detector_stats.updates_performed
        assert vec.detector_stats.channels_evaluated == ref.detector_stats.channels_evaluated

    def test_empty_trace(self):
        for config in (sqdm_config(), dense_baseline_config()):
            ref = AcceleratorSimulator(config, backend="reference").run_trace([])
            vec = AcceleratorSimulator(config, backend="vectorized").run_trace([])
            assert_reports_equivalent(ref, vec)
            assert vec.total_cycles == 0.0

    def test_empty_steps(self):
        ref = AcceleratorSimulator(sqdm_config(), backend="reference").run_trace([[], []])
        vec = AcceleratorSimulator(sqdm_config(), backend="vectorized").run_trace([[], []])
        assert_reports_equivalent(ref, vec)
        assert len(vec.step_results) == 2

    def test_single_channel_layers(self):
        trace = [
            [
                ConvLayerWorkload(
                    "tiny", 1, 1, 1, 1, 1, weight_bits=4, act_bits=4,
                    channel_sparsity=np.array([sparsity]),
                )
            ]
            for sparsity in (0.0, 0.5, 1.0)
        ]
        ref = AcceleratorSimulator(sqdm_config(), backend="reference").run_trace(trace)
        vec = AcceleratorSimulator(sqdm_config(), backend="vectorized").run_trace(trace)
        assert_reports_equivalent(ref, vec)

    def test_vectorized_runs_equivalent_back_to_back(self, synthetic_trace):
        """Backend state (detector schedule) resets between run_trace calls."""
        sim = AcceleratorSimulator(sqdm_config(sparsity_update_period=2), backend="vectorized")
        first = sim.run_trace(synthetic_trace)
        second = sim.run_trace(synthetic_trace)
        assert second.total_cycles == first.total_cycles
        assert second.total_energy.total_pj == first.total_energy.total_pj


class TestCrossConfigBatching:
    """The cross-config kernel: one NumPy pass over a (config x trace) grid."""

    GRID = [
        sqdm_config(),
        dense_baseline_config(),  # num_spe == 0: detector bypassed, all dense
        AcceleratorConfig(name="all_sparse", num_dpe=0, num_spe=2),
        AcceleratorConfig(name="wide", num_dpe=3, num_spe=2),
        sqdm_config(sparsity_update_period=3),
        sqdm_config(sparsity_threshold=0.7),
    ]

    @pytest.mark.parametrize("trial", range(3))
    def test_randomized_grid_matches_reference(self, trial):
        """Property-style: a batched (config x trace) grid stays within 1e-9
        of per-pair reference runs, including both degenerate datapaths."""
        rng = np.random.default_rng(4242 + trial)
        traces = [
            random_trace(rng, steps=int(rng.integers(1, 4)), layers=int(rng.integers(1, 4)))
            for _ in range(3)
        ]
        entries = [(config, traces) for config in self.GRID]
        batched = AcceleratorSimulator(self.GRID[0]).run(entries).report_lists()
        assert [len(reports) for reports in batched] == [3] * len(self.GRID)
        for config, reports in zip(self.GRID, batched):
            for trace, report in zip(traces, reports):
                ref = AcceleratorSimulator(config, backend="reference").run_trace(trace)
                assert_reports_equivalent(ref, report)

    def test_batched_bit_identical_to_solo_vectorized(self):
        """Batching across configs must not change a single bit of any report:
        the per-config scalar gather, padded PE axes, and the vectorized
        sparsity fill all reproduce the solo pass exactly (not just to rtol)."""
        rng = np.random.default_rng(7)
        traces = [random_trace(rng, steps=2, layers=2) for _ in range(2)]
        entries = [(config, traces) for config in self.GRID]
        batched = AcceleratorSimulator(self.GRID[0]).run(entries).report_lists()
        for config, reports in zip(self.GRID, batched):
            for trace, report in zip(traces, reports):
                solo = AcceleratorSimulator(config).run_trace(trace)
                assert report.total_cycles == solo.total_cycles
                assert report.total_energy.as_dict() == solo.total_energy.as_dict()
                for batched_step, solo_step in zip(report.step_results, solo.step_results):
                    assert batched_step.cycles == solo_step.cycles
                    assert batched_step.energy.as_dict() == solo_step.energy.as_dict()
                    for batched_layer, solo_layer in zip(
                        batched_step.layer_results, solo_step.layer_results
                    ):
                        assert batched_layer.cycles == solo_layer.cycles
                        assert batched_layer.executed_macs == solo_layer.executed_macs

    def test_empty_and_uneven_trace_lists_in_batch(self):
        """Entries with zero traces, empty traces, and different trace counts
        coexist in one batch without perturbing their neighbours."""
        rng = np.random.default_rng(11)
        trace = random_trace(rng, steps=2, layers=1)
        entries = [
            (sqdm_config(), []),
            (dense_baseline_config(), [[], trace]),
            (sqdm_config(sparsity_threshold=0.7), [trace, [[]], []]),
        ]
        batched = AcceleratorSimulator(sqdm_config()).run(entries).report_lists()
        assert [len(reports) for reports in batched] == [0, 2, 3]
        assert batched[1][0].total_cycles == 0.0 and batched[1][0].step_results == []
        assert len(batched[2][1].step_results) == 1  # one empty step survives
        cases = ((dense_baseline_config(), 1), (sqdm_config(sparsity_threshold=0.7), 0))
        for config, index in cases:
            solo = AcceleratorSimulator(config).run_trace(trace)
            report = batched[1][1] if index == 1 else batched[2][0]
            assert report.total_cycles == solo.total_cycles

    def test_single_entry_batch_matches_run_traces(self):
        rng = np.random.default_rng(13)
        traces = [random_trace(rng, steps=1, layers=2) for _ in range(2)]
        via_batch = AcceleratorSimulator(sqdm_config()).run([(sqdm_config(), traces)])
        via_traces = [AcceleratorSimulator(sqdm_config()).run_trace(trace) for trace in traces]
        for batched, direct in zip(via_batch.report_lists()[0], via_traces):
            assert batched.total_cycles == direct.total_cycles
            assert batched.total_energy.total_pj == direct.total_energy.total_pj

    def test_reference_backend_supports_cross_config_entry_point(self):
        rng = np.random.default_rng(17)
        trace = random_trace(rng, steps=1, layers=1)
        entries = [(sqdm_config(), [trace]), (dense_baseline_config(), [trace])]
        reports = AcceleratorSimulator(sqdm_config(), backend="reference").run(entries)
        for (config, _), config_reports in zip(entries, reports.report_lists()):
            solo = AcceleratorSimulator(config, backend="reference").run_trace(trace)
            assert config_reports[0].total_cycles == pytest.approx(solo.total_cycles, rel=1e-12)

    def test_sparsity_fill_bit_identical_to_row_loop(self):
        """The concatenate + fancy-index sparsity fill reproduces the PR-2
        per-row Python loop bit for bit on ragged channel counts."""
        rng = np.random.default_rng(23)
        sparsities = [rng.random(int(rng.integers(1, 40))) for _ in range(25)]
        in_channels = np.array([s.size for s in sparsities])
        looped = np.zeros((len(sparsities), int(in_channels.max())))
        for row, values in enumerate(sparsities):
            looped[row, : values.size] = values
        flat = np.concatenate(sparsities)
        rows = np.repeat(np.arange(len(sparsities)), in_channels)
        starts = np.concatenate(([0], np.cumsum(in_channels)[:-1]))
        cols = np.arange(flat.size) - np.repeat(starts, in_channels)
        vectorized = np.zeros_like(looped)
        vectorized[rows, cols] = flat
        assert np.array_equal(looped, vectorized)


def _bits(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array, dtype=np.float64).view(np.uint64)


class TestKernelHelpers:
    """The kernel's segment reduction and sparse-channel compaction against
    their plain formulations, bit for bit, special values included."""

    def test_segment_sums_match_sequential_loop(self):
        rng = np.random.default_rng(29)
        rows = rng.normal(size=(40, 8)) * 10.0 ** rng.integers(-8, 8, size=(40, 8))
        rows[3] = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308, 5e-324]
        rows[4] = -0.0
        sizes = rng.integers(0, 7, size=12)
        sizes[[0, 5]] = 0
        starts = rng.integers(0, 40 - sizes)  # arbitrary, even overlapping windows
        starts[1], sizes[1] = 3, 2  # a segment over the special-value rows
        expected = np.zeros((len(sizes), rows.shape[1]))
        for segment, (start, size) in enumerate(zip(starts, sizes)):
            for offset in range(size):
                expected[segment] += rows[start + offset]
        got = _segment_sums(rows, starts, sizes)
        assert np.array_equal(_bits(got), _bits(expected))

    def test_segment_sums_of_no_segments(self):
        rows = np.ones((4, 3))
        empty = np.zeros(0, dtype=np.int64)
        assert _segment_sums(rows, empty, empty).shape == (0, 3)
        zeros = np.zeros(2, dtype=np.int64)
        assert np.array_equal(_bits(_segment_sums(rows, zeros, zeros)), _bits(np.zeros((2, 3))))

    def test_front_compact_matches_stable_argsort_gather(self):
        rng = np.random.default_rng(31)
        values = rng.random((30, 17))
        values[0, :4] = [np.nan, np.inf, -0.0, 0.0]
        mask = rng.random((30, 17)) < 0.4
        mask[0, :4] = True
        mask[1] = True
        mask[2] = False
        order = np.argsort(~mask, axis=1, kind="stable")
        expected = np.take_along_axis(np.where(mask, values, 0.0), order, axis=1)
        got = _front_compact(values, mask, mask.sum(axis=1))
        assert np.array_equal(_bits(got), _bits(expected))
        assert _front_compact(values[:0], mask[:0], np.zeros(0, dtype=np.int64)).shape == (0, 17)


def report_bits(report) -> tuple[list[str], list[int]]:
    """A report's names and every number in it (structure included), as bits."""
    names = [report.config_name]
    numbers = [
        report.clock_ghz,
        report.total_cycles,
        *report.total_energy.as_dict().values(),
        report.detector_stats.updates_performed,
        report.detector_stats.channels_evaluated,
    ]
    for step in report.step_results:
        numbers += [step.time_step, len(step.layer_results), step.cycles]
        numbers += step.energy.as_dict().values()
        for layer in step.layer_results:
            names.append(layer.layer_name)
            numbers += [
                layer.cycles,
                *layer.energy.as_dict().values(),
                layer.total_macs,
                layer.executed_macs,
                layer.dense_channels,
                layer.sparse_channels,
                layer.dense_cycles,
                layer.sparse_cycles,
                len(layer.pe_results),
            ]
    return names, _bits(np.array(numbers, dtype=np.float64)).tolist()


class TestSingleEntryPoint:
    """Every backend answers through ``run``; the reference backend packs its
    eager reports into a batch, so the facade's ``run_trace`` materializes
    them back.  That round trip must not change a bit."""

    @pytest.mark.parametrize("trial", range(3))
    def test_facade_reference_run_trace_is_bit_identical_to_backend(self, trial):
        rng = np.random.default_rng(9000 + trial)
        channels = int(rng.integers(1, 12))
        traces = [
            random_trace(rng, steps=int(rng.integers(1, 4)), layers=int(rng.integers(1, 4)))
            for _ in range(2)
        ]
        uniform = random_workload(in_channels=channels, seed=trial)
        traces += [
            [],
            [[]],
            # a step with every channel dense, then one with every channel sparse
            [[uniform.replace(channel_sparsity=np.full(channels, value))] for value in (0, 1)],
        ]
        for config in TestCrossConfigBatching.GRID:
            for trace in traces:
                via_facade = AcceleratorSimulator(config, backend="reference").run_trace(trace)
                direct = ReferenceBackend(config).run_trace(trace)
                for step in direct.step_results:
                    for layer in step.layer_results:
                        layer.pe_results = []
                assert via_facade == direct
                assert report_bits(via_facade) == report_bits(direct)


class TestPerReportDetectorStats:
    """Detector activity is reported per (config, trace) pair on the
    immutable report; backends keep no batch-level totals."""

    def test_solo_report_carries_detector_stats(self, synthetic_trace):
        config = sqdm_config(sparsity_update_period=2)
        report = AcceleratorSimulator(config).run_trace(synthetic_trace)
        ref = ReferenceBackend(config).run_trace(synthetic_trace)
        assert report.detector_stats is not None
        assert report.detector_stats == ref.detector_stats
        assert report.detector_stats.updates_performed > 0

    def test_batched_reports_carry_per_trace_stats(self, synthetic_trace):
        """The batch's per-trace detector columns sum to the batch totals, and
        each per-report value matches the solo run."""
        config = sqdm_config(sparsity_update_period=2)
        sim = AcceleratorSimulator(config)
        solo = sim.run_trace(synthetic_trace)
        batch = sim.run([(config, [synthetic_trace, synthetic_trace, synthetic_trace])])
        for report in batch.report_lists()[0]:
            assert report.detector_stats == solo.detector_stats
        assert batch.detector_updates.sum() == 3 * solo.detector_stats.updates_performed

    def test_cross_config_stats_match_reference(self):
        rng = np.random.default_rng(29)
        trace = random_trace(rng, steps=3, layers=2)
        configs = [sqdm_config(sparsity_update_period=2), sqdm_config(sparsity_threshold=0.7)]
        batched = AcceleratorSimulator(configs[0]).run(
            [(config, [trace]) for config in configs]
        ).report_lists()
        for config, reports in zip(configs, batched):
            ref = AcceleratorSimulator(config, backend="reference").run_trace(trace)
            assert reports[0].detector_stats.updates_performed == (
                ref.detector_stats.updates_performed
            )
            assert reports[0].detector_stats.channels_evaluated == (
                ref.detector_stats.channels_evaluated
            )

    def test_degenerate_configs_report_zero_detector_activity(self):
        rng = np.random.default_rng(31)
        trace = random_trace(rng, steps=2, layers=1)
        for config in (dense_baseline_config(), AcceleratorConfig(name="sp", num_dpe=0, num_spe=2)):
            report = AcceleratorSimulator(config).run_trace(trace)
            assert report.detector_stats.updates_performed == 0
            assert report.detector_stats.channels_evaluated == 0


class TestDivisionEdgeCases:
    def test_safe_speedup_zero_over_zero_is_one(self):
        assert safe_speedup(0.0, 0.0) == 1.0

    def test_safe_speedup_zero_candidate_is_inf(self):
        assert safe_speedup(10.0, 0.0) == float("inf")

    def test_relative_saving_zero_over_zero_is_zero(self):
        assert relative_saving(0.0, 0.0) == 0.0

    def test_relative_saving_zero_baseline_is_neg_inf(self):
        assert relative_saving(0.0, 5.0) == float("-inf")

    def test_comparison_of_empty_traces(self):
        empty_report = AcceleratorSimulator(sqdm_config()).run_trace([])
        baseline_report = AcceleratorSimulator(dense_baseline_config()).run_trace([])
        comparison = ComparisonResult(baseline=baseline_report, candidate=empty_report)
        assert comparison.speedup == 1.0
        assert comparison.energy_saving == 0.0

    def test_hardware_evaluation_of_zero_work(self):
        from repro.core.pipeline import HardwareEvaluation

        empty = AcceleratorSimulator(sqdm_config()).run_trace([])
        evaluation = HardwareEvaluation(
            workload="none",
            sqdm_report=empty,
            dense_baseline_report=empty,
            fp16_dense_report=empty,
            average_sparsity=0.0,
        )
        assert evaluation.sparsity_speedup == 1.0
        assert evaluation.quantization_speedup == 1.0
        assert evaluation.total_speedup == 1.0
        assert evaluation.sparsity_energy_saving == 0.0


class TestWorkloadReplace:
    def test_replace_overrides_fields(self):
        workload = random_workload(seed=1)
        copy = workload.replace(weight_bits=16, act_bits=8)
        assert copy.weight_bits == 16 and copy.act_bits == 8
        assert copy.name == workload.name
        assert np.array_equal(copy.channel_sparsity, workload.channel_sparsity)

    def test_replace_copies_sparsity(self):
        workload = random_workload(seed=2)
        copy = workload.replace()
        copy.channel_sparsity[0] = 0.123456
        assert workload.channel_sparsity[0] != 0.123456

    def test_replace_revalidates(self):
        workload = random_workload(in_channels=8, seed=3)
        with pytest.raises(ValueError):
            workload.replace(channel_sparsity=np.zeros(4))
