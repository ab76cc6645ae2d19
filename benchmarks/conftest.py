"""Shared infrastructure for the paper-reproduction benchmarks.

Each benchmark module regenerates one table or figure of the paper at a
reduced evaluation scale (fewer generated samples, fewer sampling steps,
smaller synthetic models) so the whole suite runs on a laptop CPU in minutes.
Pipelines, FID reference statistics and sparsity traces are cached per
workload and shared across benchmark modules.
"""

from __future__ import annotations

import time
from collections.abc import Callable

import pytest

from repro.core.pipeline import PipelineConfig, SQDMPipeline
from repro.core.sparsity import TemporalSparsityTrace
from repro.workloads.models import workload_names

#: Evaluation scale used by every benchmark (README.md, "Running tests and
#: benchmarks", states it).
BENCH_CONFIG = PipelineConfig(
    num_fid_samples=8,
    num_reference_samples=256,
    num_sampling_steps=5,
    num_trace_samples=1,
    seed=0,
)


class BenchmarkContext:
    """Lazily-constructed, cached pipelines / traces / evaluations per workload."""

    def __init__(self) -> None:
        self._pipelines: dict[str, SQDMPipeline] = {}
        self._traces: dict[str, TemporalSparsityTrace] = {}
        self._format_evals: dict[tuple[str, str], object] = {}
        self._hardware: dict[str, object] = {}

    def pipeline(self, workload: str) -> SQDMPipeline:
        if workload not in self._pipelines:
            self._pipelines[workload] = SQDMPipeline(workload, BENCH_CONFIG)
        return self._pipelines[workload]

    def trace(self, workload: str) -> TemporalSparsityTrace:
        if workload not in self._traces:
            self._traces[workload] = self.pipeline(workload).collect_trace(relu=True)
        return self._traces[workload]

    def format_evaluation(self, workload: str, format_name: str):
        key = (workload, format_name)
        if key not in self._format_evals:
            self._format_evals[key] = self.pipeline(workload).evaluate_format(format_name)
        return self._format_evals[key]

    def hardware(self, workload: str):
        if workload not in self._hardware:
            self._hardware[workload] = self.pipeline(workload).evaluate_hardware(
                trace=self.trace(workload)
            )
        return self._hardware[workload]

    def hardware_evaluations(self) -> list[object]:
        """Hardware evaluations for every workload, in workload order, from
        the per-workload cache :meth:`hardware` fills."""
        return [self.hardware(w) for w in self.workloads()]

    def workloads(self) -> list[str]:
        return workload_names()


@pytest.fixture(scope="session")
def ctx() -> BenchmarkContext:
    return BenchmarkContext()


def run_once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


def _elapsed(fn: Callable[[], object]) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def alternating_min_runtimes(
    slow: Callable[[], object],
    fast: Callable[[], object],
    rounds: int,
    fast_per_round: int = 1,
) -> tuple[float, float]:
    """Minimum wall-clock of both sides of a speed gate, timed in one window.

    Each round runs ``slow`` once and then ``fast`` ``fast_per_round`` times,
    so when a shared host switches between a fast and a slow phase both
    sides see it, instead of one side being timed in each phase.  Returns
    ``(slow_min, fast_min)`` in seconds.
    """
    slow_min = fast_min = float("inf")
    for _ in range(rounds):
        slow_min = min(slow_min, _elapsed(slow))
        for _ in range(fast_per_round):
            fast_min = min(fast_min, _elapsed(fast))
    return slow_min, fast_min
