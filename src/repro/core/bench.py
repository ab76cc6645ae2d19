"""Benchmark harness behind ``repro bench``: the repo's performance trajectory.

Performance work is only trustworthy when it is measured the same way every
time, so this module pins down *what* is measured and ``BENCH_<n>.json``
files committed at the repo root record *how fast it was* when each PR
landed.  Three measurements cover the stack:

``sim_entries_per_sec``
    Raw kernel throughput: flattened (config, trace, step, layer) entries
    simulated per second by one cross-config
    :func:`~repro.accelerator.backends.vectorized.run_config_traces_columnar`
    pass.  The kernel returns a columnar batch, so this is the cost of a
    sweep whose consumer reads array aggregates — no report objects built.
``sweep_wall_clock_s`` / ``per_config_sweep_wall_clock_s``
    Wall-clock of a 16-config x 8-trace design-space sweep through the
    cross-config kernel vs a per-config loop of single-config runs; their
    ratio is ``cross_config_speedup``.
``report_assembly_entries_per_sec``
    Materialization throughput: entries per second turned from columnar
    arrays into whole ``SimulationReport`` object trees, every step and
    layer read (a fresh batch per repeat, so memoization cannot flatter the
    number).
``sweep_peak_alloc_mb``
    tracemalloc peak of one columnar sweep at the bench shape — the
    allocation footprint of keeping results columnar.  Measured outside the
    timed sections (tracemalloc slows allocation), observability only.
``service_jobs_per_sec``
    End-to-end job throughput of an :class:`EvaluationService` fed distinct
    simulation jobs (cold cache), including queueing, coalescing and
    completion overhead.  The same run records per-job submitted->finished
    latency percentiles (``service_job_latency_p50_s`` / ``_p95_s``) from
    each job's monotonic trace — observability fields, not gated.

Absolute timings are machine-dependent, so the regression gate compares
*calibrated* values: every run also times a fixed NumPy reduction
(``calibration_score``) and the gated metrics are normalized by it
(``sim_entries_per_calib``, ``sweep_wall_clock_calib``).  A faster or slower
CI machine moves the raw numbers and the calibration score together, leaving
the normalized values comparable across hosts to first order.
"""

from __future__ import annotations

import json
import platform
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from ..accelerator.config import AcceleratorConfig
from ..accelerator.simulator import AcceleratorSimulator, WorkloadTrace
from ..accelerator.workload import random_workload

#: Schema version of the BENCH_<n>.json payload.
BENCH_SCHEMA_VERSION = 1

#: Metrics the CI gate enforces, with the direction that counts as better.
#: Calibrated metrics only — raw wall-clocks are recorded for humans.
GATED_METRICS: dict[str, str] = {
    "sim_entries_per_calib": "higher",
    "sweep_wall_clock_calib": "lower",
}

#: Default allowed bad-direction drift before the gate fails.
DEFAULT_TOLERANCE = 0.15


@dataclass
class BenchWorkload:
    """Size of the synthetic design-space sweep being timed."""

    num_configs: int = 16
    num_traces: int = 8
    steps: int = 2
    layers: int = 3
    channels: int = 32
    repeats: int = 3
    seed: int = 0

    @classmethod
    def quick(cls) -> "BenchWorkload":
        return cls()

    @classmethod
    def full(cls) -> "BenchWorkload":
        return cls(steps=4, layers=6, channels=64, repeats=5)

    @property
    def entries(self) -> int:
        return self.num_configs * self.num_traces * self.steps * self.layers

    def as_dict(self) -> dict[str, int]:
        return {
            "num_configs": self.num_configs,
            "num_traces": self.num_traces,
            "steps": self.steps,
            "layers": self.layers,
            "channels": self.channels,
            "repeats": self.repeats,
            "seed": self.seed,
        }


@dataclass
class RegressionFinding:
    """One gated metric that drifted in the bad direction past tolerance."""

    metric: str
    direction: str
    baseline: float
    current: float
    change: float

    def describe(self) -> str:
        return (
            f"{self.metric}: {self.current:.4g} vs baseline {self.baseline:.4g} "
            f"({self.change:+.1%}, '{self.direction}' is better)"
        )


@dataclass
class BenchResult:
    """One full benchmark run, ready to serialize as ``BENCH_<n>.json``."""

    metrics: dict[str, float]
    workload: dict[str, int]
    quick: bool
    environment: dict[str, str] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        return {
            "bench_schema_version": BENCH_SCHEMA_VERSION,
            "quick": self.quick,
            "workload": self.workload,
            "metrics": self.metrics,
            "environment": self.environment,
        }


def _min_runtime(fn: Callable[[], Any], repeats: int) -> float:
    """Best-of-N wall-clock: the minimum is the least noise-contaminated sample."""
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def calibration_score(repeats: int = 3) -> float:
    """Throughput of a fixed NumPy working set, as a machine-speed proxy.

    Dimensionless by convention (1.0 ~ one loop of the reference reduction
    per 10 ms); used to normalize the gated metrics so the committed
    baseline transfers across machines.
    """
    rng = np.random.default_rng(0)
    data = rng.random((256, 4096))

    def work() -> None:
        for _ in range(8):
            np.sort(data, axis=1)[:, ::-1].cumsum(axis=1).max(axis=1).sum()

    return 0.01 / _min_runtime(work, repeats)


def bench_grid(workload: BenchWorkload) -> list[AcceleratorConfig]:
    """A deterministic 16-point configuration grid exercising both datapaths."""
    configs = []
    for num_dpe in (1, 2):
        for num_spe in (1, 2):
            for threshold in (0.3, 0.5):
                for period in (1, 2):
                    configs.append(
                        AcceleratorConfig(
                            name=f"bench-d{num_dpe}s{num_spe}t{threshold}p{period}",
                            num_dpe=num_dpe,
                            num_spe=num_spe,
                            sparsity_threshold=threshold,
                            sparsity_update_period=period,
                        )
                    )
    return configs[: workload.num_configs]


def bench_traces(workload: BenchWorkload) -> list[WorkloadTrace]:
    """Deterministic synthetic traces shared by every configuration."""
    rng = np.random.default_rng(workload.seed)
    traces: list[WorkloadTrace] = []
    for trace_idx in range(workload.num_traces):
        templates = [
            random_workload(
                in_channels=workload.channels,
                out_channels=workload.channels,
                spatial=8,
                seed=int(rng.integers(0, 2**31)),
                name=f"layer{layer}",
            )
            for layer in range(workload.layers)
        ]
        traces.append(
            [
                [
                    template.replace(
                        channel_sparsity=rng.uniform(0.0, 1.0, size=template.in_channels)
                    )
                    for template in templates
                ]
                for _ in range(workload.steps)
            ]
        )
    return traces


def _time_sweeps(
    configs: list[AcceleratorConfig],
    traces: list[WorkloadTrace],
    repeats: int,
) -> tuple[float, float]:
    """(cross-config, per-config) wall-clock of the same sweep, best of N.

    The cross-config path times the columnar kernel alone — since PR 9 a
    sweep's results stay columnar until someone indexes a report, so the
    kernel pass *is* the end-to-end sweep cost for aggregate consumers.
    """
    entries = [(config, traces) for config in configs]
    simulator = AcceleratorSimulator(configs[0], backend="vectorized")

    def cross_config() -> None:
        simulator.run(entries)

    def per_config() -> None:
        for config in configs:
            AcceleratorSimulator(config, backend="vectorized").run(
                [(config, traces)]
            ).report_lists()

    return _min_runtime(cross_config, repeats), _min_runtime(per_config, repeats)


def _time_assembly(
    configs: list[AcceleratorConfig],
    traces: list[WorkloadTrace],
    repeats: int,
) -> float:
    """Best-of-N wall-clock of materializing every report from a columnar batch.

    Times whole object graphs: ``report_lists()`` builds report headers
    only, so the timed region also reads every report's ``step_results``
    and every step's ``layer_results``.  Each repeat materializes a *fresh*
    batch (built outside the timed region): ``ColumnarReportBatch`` memoizes
    per-trace reports, so re-timing one batch would measure dictionary
    lookups, not assembly.
    """
    entries = [(config, traces) for config in configs]
    simulator = AcceleratorSimulator(configs[0], backend="vectorized")
    best = float("inf")
    for _ in range(max(1, repeats)):
        batch = simulator.run(entries)
        start = time.perf_counter()
        for reports in batch.report_lists():
            for report in reports:
                for step in report.step_results:
                    step.layer_results
        best = min(best, time.perf_counter() - start)
    return best


def _sweep_peak_alloc_mb(
    configs: list[AcceleratorConfig], traces: list[WorkloadTrace]
) -> float:
    """tracemalloc peak (MiB) of one columnar sweep, cold start to batch."""
    entries = [(config, traces) for config in configs]
    simulator = AcceleratorSimulator(configs[0], backend="vectorized")
    tracemalloc.start()
    try:
        simulator.run(entries)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (1024.0 * 1024.0)


def _time_service(
    configs: list[AcceleratorConfig], traces: list[WorkloadTrace]
) -> tuple[float, float, float]:
    """(jobs/sec, p50 latency, p95 latency) of an EvaluationService fed one
    cold-cache job per config.  Latency is per-job submitted->finished time
    from the job's monotonic trace, so it includes queueing and coalescing."""
    from ..serve.service import EvaluationService
    from ..serve.specs import SimulateJobSpec
    from .report_cache import ReportCache

    jobs_submitted = len(configs)
    start = time.perf_counter()
    with EvaluationService(cache=ReportCache(max_entries=1024)) as service:
        jobs = [
            service.submit(SimulateJobSpec(config=config, trace=traces[0]))
            for config in configs
        ]
        for job in jobs:
            job.result()
        latencies = sorted(
            elapsed
            for job in jobs
            if (elapsed := job.trace.elapsed("submitted", "finished")) is not None
        )
    elapsed = time.perf_counter() - start

    def percentile(q: float) -> float:
        if not latencies:
            return 0.0
        return latencies[min(len(latencies) - 1, round(q * (len(latencies) - 1)))]

    jobs_per_sec = jobs_submitted / elapsed if elapsed > 0 else float("inf")
    return jobs_per_sec, percentile(0.50), percentile(0.95)


def run_bench(quick: bool = True, seed: int = 0) -> BenchResult:
    """Run the full measurement suite and assemble a :class:`BenchResult`."""
    workload = BenchWorkload.quick() if quick else BenchWorkload.full()
    workload.seed = seed
    configs = bench_grid(workload)
    traces = bench_traces(workload)

    calibration = calibration_score(workload.repeats)
    cross_s, per_config_s = _time_sweeps(configs, traces, workload.repeats)
    entries_per_sec = workload.entries / cross_s if cross_s > 0 else float("inf")
    assembly_s = _time_assembly(configs, traces, workload.repeats)
    assembly_per_sec = workload.entries / assembly_s if assembly_s > 0 else float("inf")
    peak_alloc_mb = _sweep_peak_alloc_mb(configs, traces)
    jobs_per_sec, latency_p50, latency_p95 = _time_service(configs, traces)

    metrics = {
        "calibration_score": calibration,
        "sim_entries_per_sec": entries_per_sec,
        "sweep_wall_clock_s": cross_s,
        "per_config_sweep_wall_clock_s": per_config_s,
        "cross_config_speedup": per_config_s / cross_s if cross_s > 0 else float("inf"),
        "report_assembly_entries_per_sec": assembly_per_sec,
        "sweep_peak_alloc_mb": peak_alloc_mb,
        "service_jobs_per_sec": jobs_per_sec,
        "service_job_latency_p50_s": latency_p50,
        "service_job_latency_p95_s": latency_p95,
        "sim_entries_per_calib": entries_per_sec / calibration,
        "sweep_wall_clock_calib": cross_s * calibration,
    }
    environment = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }
    return BenchResult(
        metrics=metrics, workload=workload.as_dict(), quick=quick, environment=environment
    )


def compare_to_baseline(
    current: dict[str, Any],
    baseline: dict[str, Any],
    tolerance: float = DEFAULT_TOLERANCE,
) -> list[RegressionFinding]:
    """Gate a run against a committed baseline; only bad-direction drift fails.

    Improvements of any size pass; a gated metric missing from either side is
    skipped (new metrics phase in without failing old baselines).
    """
    findings = []
    for metric, direction in GATED_METRICS.items():
        base = baseline.get("metrics", {}).get(metric)
        now = current.get("metrics", {}).get(metric)
        if base is None or now is None or base <= 0:
            continue
        change = (now - base) / base
        regressed = change < -tolerance if direction == "higher" else change > tolerance
        if regressed:
            findings.append(
                RegressionFinding(
                    metric=metric,
                    direction=direction,
                    baseline=float(base),
                    current=float(now),
                    change=change,
                )
            )
    return findings


def load_baseline(path: str) -> dict[str, Any]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)
