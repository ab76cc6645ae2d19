"""Tests for the sweep spec's grid and the simulation-report cache."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.accelerator import (
    AcceleratorSimulator,
    dense_baseline_config,
    random_workload,
    sqdm_config,
)
from repro.core.columnar import ensure_report
from repro.core.report_cache import (
    ReportCache,
    fingerprint_config,
    fingerprint_energy_table,
    fingerprint_trace,
)
from repro.accelerator.energy import EnergyTable
from repro.serve.scheduler import run_batched
from repro.serve.specs import SimulateJobSpec, SweepJobSpec


class TestSweepSpec:
    """The grid of a ``sweep_spec`` (:class:`SweepJobSpec`), the one sweep
    description."""

    def test_cases_enumerate_cross_product_in_order(self):
        spec = SweepJobSpec(
            base=sqdm_config(),
            grid={"num_spe": [1, 2], "sparsity_threshold": [0.1, 0.3]},
            trace=[],
        )
        assert spec.num_cases == 4
        assert spec.cases() == [
            {"num_spe": 1, "sparsity_threshold": 0.1},
            {"num_spe": 1, "sparsity_threshold": 0.3},
            {"num_spe": 2, "sparsity_threshold": 0.1},
            {"num_spe": 2, "sparsity_threshold": 0.3},
        ]
        # Planned in that order too, the baseline last.
        spec = SweepJobSpec(
            base=sqdm_config(), grid=spec.grid, trace=[], baseline=dense_baseline_config()
        )
        planned = [
            (request.config.num_spe, request.config.sparsity_threshold)
            for request in spec.plan()
        ]
        assert planned[:4] == [(1, 0.1), (1, 0.3), (2, 0.1), (2, 0.3)]
        assert spec.plan()[-1].config == dense_baseline_config()

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            SweepJobSpec(base=sqdm_config(), grid={}, trace=[])
        with pytest.raises(ValueError):
            SweepJobSpec(base=sqdm_config(), grid={"num_spe": []}, trace=[])


@pytest.fixture()
def small_trace():
    return [
        [
            random_workload(in_channels=16, spatial=4, seed=s * 3 + n, name=f"l{n}")
            for n in range(2)
        ]
        for s in range(2)
    ]


def cached_run(cache: ReportCache, config, trace):
    """One simulation through the cache: the scheduler is the only path to the
    simulator."""
    return ensure_report(run_batched([SimulateJobSpec(config, trace)], cache=cache)[0])


class TestReportCache:
    def test_identical_inputs_hit(self, small_trace):
        cache = ReportCache()
        first = cached_run(cache, sqdm_config(), small_trace)
        second = cached_run(cache, sqdm_config(), small_trace)
        assert second is first
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_cached_report_matches_direct_simulation(self, small_trace):
        cache = ReportCache()
        cached = cached_run(cache, sqdm_config(), small_trace)
        direct = AcceleratorSimulator(sqdm_config()).run_trace(small_trace)
        assert cached.total_cycles == direct.total_cycles
        assert cached.total_energy.total_pj == direct.total_energy.total_pj

    def test_different_config_misses(self, small_trace):
        cache = ReportCache()
        cached_run(cache, sqdm_config(), small_trace)
        cached_run(cache, dense_baseline_config(), small_trace)
        assert cache.stats.misses == 2

    def test_different_sparsity_misses(self, small_trace):
        cache = ReportCache()
        cached_run(cache, sqdm_config(), small_trace)
        changed = [
            [w.replace(channel_sparsity=np.zeros(w.in_channels)) for w in s] for s in small_trace
        ]
        cached_run(cache, sqdm_config(), changed)
        assert cache.stats.misses == 2

    def test_lru_eviction(self, small_trace):
        cache = ReportCache(max_entries=1)
        cached_run(cache, sqdm_config(), small_trace)
        cached_run(cache, dense_baseline_config(), small_trace)
        assert len(cache) == 1
        cached_run(cache, sqdm_config(), small_trace)  # evicted -> miss again
        assert cache.stats.misses == 3

    def test_clear(self, small_trace):
        cache = ReportCache()
        cached_run(cache, sqdm_config(), small_trace)
        cache.clear()
        assert len(cache) == 0 and cache.stats.requests == 0

    def test_lru_eviction_order_respects_recency(self, small_trace):
        """A hit refreshes recency: the least-recently-*used* entry goes, not
        the least-recently-inserted one."""
        configs = [sqdm_config(sparsity_threshold=t) for t in (0.1, 0.2, 0.3)]
        cache = ReportCache(max_entries=3)
        for config in configs:
            cached_run(cache, config, small_trace)
        assert cache.stats.misses == 3

        cached_run(cache, configs[0], small_trace)  # refresh the oldest entry
        assert cache.stats.hits == 1

        # Inserting a fourth entry must now evict configs[1] (the LRU), not
        # configs[0] (oldest inserted but recently used).
        cached_run(cache, sqdm_config(sparsity_threshold=0.4), small_trace)
        assert len(cache) == 3
        cached_run(cache, configs[0], small_trace)
        assert cache.stats.misses == 4  # still cached -> hit
        cached_run(cache, configs[1], small_trace)
        assert cache.stats.misses == 5  # evicted -> recomputed

    def test_concurrent_get_or_run_same_key_returns_one_report(self, small_trace):
        """Racing threads simulating one key through the cache all get the same
        object; stats balance."""
        cache = ReportCache()
        num_threads = 8
        barrier = threading.Barrier(num_threads, timeout=10)
        results: list = [None] * num_threads
        errors: list = []

        def worker(slot: int) -> None:
            try:
                barrier.wait()  # maximize lookup/insert overlap
                results[slot] = cached_run(cache, sqdm_config(), small_trace)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(num_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors
        first = results[0]
        assert all(report is first for report in results)
        assert len(cache) == 1
        assert cache.stats.requests == num_threads
        assert cache.stats.hits + cache.stats.misses == num_threads
        assert 1 <= cache.stats.misses <= num_threads

    def test_concurrent_distinct_keys_all_cached(self, small_trace):
        """Racing threads on different keys never clobber each other."""
        cache = ReportCache()
        thresholds = [round(0.1 * i, 1) for i in range(1, 7)]
        barrier = threading.Barrier(len(thresholds), timeout=10)

        def worker(threshold: float) -> None:
            barrier.wait()
            cached_run(cache, sqdm_config(sparsity_threshold=threshold), small_trace)

        threads = [threading.Thread(target=worker, args=(t,)) for t in thresholds]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert len(cache) == len(thresholds)
        assert cache.stats.misses == len(thresholds)
        for threshold in thresholds:
            cached_run(cache, sqdm_config(sparsity_threshold=threshold), small_trace)
        assert cache.stats.hits == len(thresholds)


class TestFingerprints:
    def test_config_fingerprint_sensitive_to_fields(self):
        assert fingerprint_config(sqdm_config()) != fingerprint_config(dense_baseline_config())
        assert fingerprint_config(sqdm_config()) != fingerprint_config(
            sqdm_config(sparsity_threshold=0.5)
        )
        assert fingerprint_config(sqdm_config()) == fingerprint_config(sqdm_config())

    def test_energy_table_fingerprint(self):
        assert fingerprint_energy_table(EnergyTable()) == fingerprint_energy_table(EnergyTable())
        assert fingerprint_energy_table(EnergyTable()) != fingerprint_energy_table(
            EnergyTable(dram_pj_per_byte=99.0)
        )

    def test_trace_fingerprint_sensitive_to_content(self, small_trace):
        base = fingerprint_trace(small_trace)
        assert base == fingerprint_trace(
            [[w.replace() for w in step] for step in small_trace]
        )  # deep copy, same content
        retimed = [[w.replace(weight_bits=16) for w in step] for step in small_trace]
        assert base != fingerprint_trace(retimed)

    def test_trace_fingerprint_memoized_per_object(self, small_trace, monkeypatch):
        """Cache keys sharing the same trace object hash it only once: a
        server-planned sweep builds one request per grid point over one trace."""
        import repro.core.report_cache as rc

        hashes: list[int] = []
        original = fingerprint_trace

        def counting(trace):
            hashes.append(id(trace))
            return original(trace)

        monkeypatch.setattr(rc, "fingerprint_trace", counting)
        expected = original(small_trace)
        keys = [
            ReportCache.key(sqdm_config(sparsity_threshold=t), small_trace)
            for t in (0.1, 0.2, 0.3, 0.4)
        ]
        assert all(key[2] == expected for key in keys)
        assert len(hashes) <= 1  # 0 if an earlier test already memoized it

        # A content-equal but distinct object gets its own hash (identity key).
        clone = [[w.replace() for w in step] for step in small_trace]
        assert ReportCache.key(sqdm_config(), clone)[2] == expected
        assert rc.memoized_fingerprint_trace(clone) == expected


class TestPipelineCaching:
    def test_evaluate_hardware_reuses_shared_baselines(self, cifar_workload):
        """Repeated hardware evaluations of the same trace only simulate once."""
        from repro.core.pipeline import PipelineConfig, SQDMPipeline
        from repro.core.report_cache import DEFAULT_REPORT_CACHE

        pipeline = SQDMPipeline(
            workload=cifar_workload,
            config=PipelineConfig(
                num_sampling_steps=2, num_trace_samples=1, num_reference_samples=8
            ),
        )
        trace = pipeline.collect_trace(relu=True)
        before = DEFAULT_REPORT_CACHE.stats.hits
        first = pipeline.evaluate_hardware(trace=trace)
        second = pipeline.evaluate_hardware(trace=trace)
        assert DEFAULT_REPORT_CACHE.stats.hits >= before + 3  # all three reports reused
        assert second.sqdm_report is first.sqdm_report
