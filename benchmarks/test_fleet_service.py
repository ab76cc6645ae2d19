"""Fleet-service acceptance: cross-trace batching beats the per-trace loop,
and a second process re-running a sweep is served from the artifact store.

Two scenarios back the evaluation-service subsystem:

* one ``run`` over a fleet of traces sharing one accelerator configuration
  must beat PR 1's per-trace ``run_trace`` loop on wall-clock (the batched
  pass amortizes per-call NumPy setup across the whole fleet);
* re-running the same sweep with a cold in-memory cache over a warm artifact
  store must perform zero simulations and still produce identical reports.
"""

from __future__ import annotations

import time

import pytest

from conftest import alternating_min_runtimes, run_once

from repro.accelerator import (
    AcceleratorSimulator,
    dense_baseline_config,
    random_workload,
    sqdm_config,
)
from repro.analysis.tables import format_table
from repro.core.artifacts import ArtifactStore
from repro.core.columnar import ensure_report
from repro.core.report_cache import ReportCache
from repro.serve.scheduler import run_batched
from repro.serve.specs import SimulateJobSpec

#: A healthy margin below the ~1.8-2x measured on CI-class CPUs, but enough
#: to fail if batching regresses to a hidden per-trace loop.
MIN_BATCH_SPEEDUP = 1.2


def fleet_traces(num_traces: int = 16, steps: int = 5, layers: int = 6):
    return [
        [
            [
                random_workload(
                    in_channels=48,
                    spatial=8,
                    seed=seed * 1000 + 10 * step + layer,
                    name=f"layer{layer}",
                )
                for layer in range(layers)
            ]
            for step in range(steps)
        ]
        for seed in range(num_traces)
    ]


def test_batched_sweep_beats_per_trace_loop(benchmark):
    traces = fleet_traces()
    simulator = AcceleratorSimulator(sqdm_config())

    def run_batch():
        return simulator.run([(simulator.config, traces)]).report_lists()[0]

    batched_reports = run_once(benchmark, run_batch)
    loop_reports = [AcceleratorSimulator(sqdm_config()).run_trace(trace) for trace in traces]

    # --- equivalence: batching changes performance, not results ------------
    for batched, single in zip(batched_reports, loop_reports):
        assert batched.total_cycles == pytest.approx(single.total_cycles, rel=1e-9)
        assert batched.total_energy.total_pj == pytest.approx(
            single.total_energy.total_pj, rel=1e-9
        )

    # --- speed: one batched pass vs the PR 1 per-trace loop ----------------
    loop_time, batched_time = alternating_min_runtimes(
        lambda: [simulator.run_trace(t) for t in traces], run_batch, rounds=5
    )
    speedup = loop_time / batched_time

    print()
    print(
        format_table(
            ["Strategy", f"{len(traces)}-trace sweep (ms)", "Speed-up"],
            [
                ["per-trace loop (PR 1)", f"{loop_time * 1e3:.2f}", "1.0x"],
                ["run batch", f"{batched_time * 1e3:.2f}", f"{speedup:.2f}x"],
            ],
            title="Cross-trace batched simulation on a shared config",
        )
    )
    assert speedup >= MIN_BATCH_SPEEDUP, (
        f"batched sweep only {speedup:.2f}x faster than the per-trace loop"
    )


def test_artifact_store_serves_rerun_without_simulation(tmp_path, benchmark):
    traces = fleet_traces(num_traces=8)
    store = ArtifactStore(tmp_path / "artifacts")
    requests = [SimulateJobSpec(sqdm_config(), trace) for trace in traces] + [
        SimulateJobSpec(dense_baseline_config(), trace) for trace in traces
    ]

    cold_cache = ReportCache(store=store)
    cold_start = time.perf_counter()
    cold_reports = run_batched(requests, cache=cold_cache)
    cold_time = time.perf_counter() - cold_start
    assert cold_cache.stats.misses == len(requests)

    # Second "process": fresh memory tier over the same store directory.
    warm_cache = ReportCache(store=ArtifactStore(store.root))
    warm_start = time.perf_counter()
    warm_reports = run_once(benchmark, lambda: run_batched(requests, cache=warm_cache))
    warm_time = time.perf_counter() - warm_start

    assert warm_cache.stats.misses == 0
    assert warm_cache.stats.hit_rate >= 0.9
    for cold, warm in zip(map(ensure_report, cold_reports), map(ensure_report, warm_reports)):
        assert warm.total_cycles == cold.total_cycles
        assert warm.total_energy.total_pj == cold.total_energy.total_pj

    print()
    print(
        format_table(
            ["Run", "Wall-clock (ms)", "Simulated", "Store hits"],
            [
                ["cold (first process)", f"{cold_time * 1e3:.1f}",
                 str(cold_cache.stats.misses), str(cold_cache.stats.disk_hits)],
                ["warm (second process)", f"{warm_time * 1e3:.1f}",
                 str(warm_cache.stats.misses), str(warm_cache.stats.disk_hits)],
            ],
            title=f"Artifact-store reuse across processes ({len(requests)} requests)",
        )
    )
