"""Remote fleet evaluation: an HTTP server, two clients, one artifact store.

Demonstrates the `repro.serve.http` front end end to end, the deployment
shape of a fleet evaluation service:

1. start an :class:`EvaluationHTTPServer` over an artifact directory (in a
   real deployment this is ``repro serve --port 8035 --artifact-dir ...`` on
   a beefy machine);
2. run two concurrent clients (:class:`~repro.serve.RemoteEvaluationClient`,
   an executor of the unified execution API over HTTP) submitting the
   *same* sweep — the server's single-flight scheduler coalesces their
   identical requests, so each unique (config, trace) pair is simulated
   exactly once;
3. restart the server over the same artifact directory and re-run the
   sweep — everything is served from disk with zero re-simulation;
4. submit one *grid description* (:class:`~repro.serve.specs.SweepJobSpec`)
   and let the server plan, coalesce and batch the design points.

The client code is executor-agnostic: swap
``RemoteEvaluationClient(endpoint)`` for an ``EvaluationService`` (or an
``InlineExecutor``) and the same specs, handles and results flow through an
in-process backend instead.

Everything crosses the wire as versioned, schema-tagged JSON — no pickles —
so any HTTP client (curl included) could drive the same flows.  The remote
clients here take each result as one binary frame instead: the same JSON
summary, with the result's arrays as raw buffers after it.

The same flows are available from the command line::

    repro serve --port 8035 --artifact-dir /tmp/repro-artifacts &
    repro sweep --workload cifar10 --endpoint http://127.0.0.1:8035
    repro cache evict --artifact-dir /tmp/repro-artifacts --max-bytes 100000000

Usage::

    python examples/remote_fleet.py
"""

from __future__ import annotations

import tempfile
import threading

from repro.accelerator import dense_baseline_config, random_workload, sqdm_config
from repro.core.artifacts import ArtifactStore
from repro.core.report_cache import ReportCache
from repro.serve import (
    EvaluationService,
    RemoteEvaluationClient,
    SimulateJobSpec,
    SweepJobSpec,
    start_http_server,
)


def build_traces(num_traces: int = 6, steps: int = 4, layers: int = 4):
    return [
        [
            [
                random_workload(
                    in_channels=48,
                    spatial=10,
                    mean_sparsity=0.5,
                    seed=seed * 1000 + 10 * step + layer,
                    name=f"layer{layer}",
                )
                for layer in range(layers)
            ]
            for step in range(steps)
        ]
        for seed in range(num_traces)
    ]


def client_sweep(name: str, endpoint: str, traces) -> list:
    """One remote client's traffic: every trace on SQ-DM and the dense baseline."""
    specs, labels = [], []
    for index, trace in enumerate(traces):
        specs.append(SimulateJobSpec(config=sqdm_config(), trace=trace))
        labels.append(f"{name}-sqdm[{index}]")
        specs.append(SimulateJobSpec(config=dense_baseline_config(), trace=trace))
        labels.append(f"{name}-dense[{index}]")
    with RemoteEvaluationClient(endpoint) as client:
        handles = client.map(specs, labels=labels)
        return [handle.result(timeout=600) for handle in handles]


def main() -> None:
    traces = build_traces()

    with tempfile.TemporaryDirectory(prefix="repro-remote-") as root:
        print("== Cold server: two concurrent clients, coalesced on the server ==")
        service = EvaluationService(cache=ReportCache(store=ArtifactStore(root)))
        server = start_http_server(service, port=0)
        results: dict[str, list] = {}
        workers = [
            threading.Thread(
                target=lambda n=n: results.update({n: client_sweep(n, server.endpoint, traces)})
            )
            for n in ("client-a", "client-b")
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        stats = service.cache.stats
        unique = 2 * len(traces)
        # Whether a duplicate attached in flight or hit the cache depends on
        # how the two clients interleave; the jobs answered without a
        # simulation of their own do not.
        print(
            f"two clients submitted {2 * unique} jobs over {unique} unique keys: "
            f"{stats.misses} simulated, {2 * unique - stats.misses} answered without "
            "simulating\n"
        )
        server.close()
        service.close()

        print("== Restarted server over the same artifact dir: warm traffic ==")
        service = EvaluationService(cache=ReportCache(store=ArtifactStore(root)))
        server = start_http_server(service, port=0)
        warm = client_sweep("client-c", server.endpoint, traces)
        stats = service.cache.stats
        identical = all(
            a.total_cycles == b.total_cycles for a, b in zip(results["client-a"], warm)
        )
        print(
            f"warm re-run: {stats.misses} simulated, {stats.disk_hits} disk hits "
            f"({stats.hit_rate:.0%} hit rate); identical reports: {identical}\n"
        )

        print("== Server-side sweep planning: one grid spec, N design points ==")
        spec = SweepJobSpec(
            base=sqdm_config(),
            grid={"sparsity_threshold": [0.1, 0.3, 0.5]},
            trace=traces[0],
            baseline=dense_baseline_config(),
            name="threshold-grid",
        )
        with RemoteEvaluationClient(server.endpoint) as client:
            outcome = client.submit(spec).result(timeout=600)
        for params, report in zip(outcome.params, outcome.reports):
            speedup = outcome.baseline.total_cycles / report.total_cycles
            print(f"  {params}: {report.total_time_ms:.3f} ms ({speedup:.2f}x vs dense)")
        print(
            f"one sweep job -> {len(outcome.reports)} planned cases; "
            f"{service.cache.stats.misses} simulated this restart"
        )
        server.close()
        service.close()


if __name__ == "__main__":
    main()
