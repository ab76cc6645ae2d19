"""Fleet evaluation: job submission, coalesced batching and persistent artifacts.

Demonstrates the unified execution API end to end, the workflow a fleet
operator uses to serve evaluation traffic:

1. open an :class:`~repro.serve.EvaluationService` (itself an ``Executor``)
   as a context manager and submit a burst of typed simulation specs for
   design points sharing a hardware configuration — the service coalesces
   them into cross-trace batched NumPy passes, and every submission comes
   back as a uniform ``JobHandle``;
2. re-submit the same traffic against a fresh in-memory cache backed by the
   same artifact directory — everything is served from disk with zero
   re-simulation (what a second worker process or a re-started job sees).

The same flows are available from the command line::

    repro sweep --workload cifar10 --param sparsity_threshold=0.1,0.3,0.5 \
        --artifact-dir /tmp/repro-artifacts
    repro cache stats --artifact-dir /tmp/repro-artifacts

Usage::

    python examples/fleet_evaluation.py
"""

from __future__ import annotations

import tempfile

from repro.accelerator import dense_baseline_config, random_workload, sqdm_config
from repro.analysis.tables import format_speedup, format_table
from repro.core.artifacts import ArtifactStore
from repro.core.execution import Executor
from repro.core.report_cache import ReportCache
from repro.serve import EvaluationService, SimulateJobSpec


def build_fleet_traces(num_traces: int = 12, steps: int = 5, layers: int = 6):
    """Synthetic evaluation traffic: one trace per workload variant."""
    return [
        [
            [
                random_workload(
                    in_channels=64,
                    spatial=12,
                    mean_sparsity=0.45 + 0.04 * (seed % 11),
                    seed=seed * 1000 + 10 * step + layer,
                    name=f"layer{layer}",
                )
                for layer in range(layers)
            ]
            for step in range(steps)
        ]
        for seed in range(num_traces)
    ]


def submit_fleet(executor: Executor, traces) -> list:
    """One sweep's worth of traffic: every trace on SQ-DM and on the baseline.

    Specs in, ``JobHandle`` futures out — the same two lines would drive a
    ``RemoteEvaluationClient`` pointed at a ``repro serve`` endpoint.
    """
    specs, labels = [], []
    for index, trace in enumerate(traces):
        specs.append(SimulateJobSpec(config=sqdm_config(), trace=trace))
        labels.append(f"sqdm[{index}]")
        specs.append(SimulateJobSpec(config=dense_baseline_config(), trace=trace))
        labels.append(f"dense[{index}]")
    return executor.map(specs, labels=labels)


def main() -> None:
    traces = build_fleet_traces()

    with tempfile.TemporaryDirectory(prefix="repro-artifacts-") as root:
        store = ArtifactStore(root)

        print("== First process: cold cache, batched simulation ==")
        cache = ReportCache(store=store)
        with EvaluationService(cache=cache) as service:
            handles = submit_fleet(service, traces)
            reports = [handle.result() for handle in handles]
        rows = [
            [f"trace {i}",
             format_speedup(reports[2 * i + 1].total_cycles / reports[2 * i].total_cycles)]
            for i in range(0, len(traces), 4)
        ]
        print(format_table(["Workload variant", "SQ-DM speed-up vs dense"], rows))
        print(
            f"cache: {cache.stats.misses} simulated, {cache.stats.hits} memory hits; "
            f"store now holds {store.count()} artifacts\n"
        )

        print("== Second process: fresh memory cache over the same artifact dir ==")
        rerun_cache = ReportCache(store=ArtifactStore(root))
        with EvaluationService(cache=rerun_cache) as service:
            handles = submit_fleet(service, traces)
            rerun_reports = [handle.result() for handle in handles]
        identical = all(
            a.total_cycles == b.total_cycles for a, b in zip(reports, rerun_reports)
        )
        print(
            f"re-run: {rerun_cache.stats.misses} simulated, "
            f"{rerun_cache.stats.disk_hits} disk hits "
            f"({rerun_cache.stats.hit_rate:.0%} hit rate); identical reports: {identical}"
        )


if __name__ == "__main__":
    main()
