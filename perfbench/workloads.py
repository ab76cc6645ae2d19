"""The benchmark's three workloads and their output checks.

Each workload has a set-up (timed on its own), an iteration (the timed
work), and a check over every iteration of a run.  Inputs come only from
the workload seed: it is the sampling seed of every pipeline and it draws
the sweep grids.
"""

from __future__ import annotations

import hashlib
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.accelerator.backends import vectorized  # noqa: F401 - registers the kernel metric
from repro.accelerator.config import dense_baseline_config, sqdm_config
from repro.analysis.speedup import summarize_hardware
from repro.core.columnar import ARRAY_FIELDS, ColumnarReportBatch, ensure_report
from repro.core.execution import InlineExecutor
from repro.core.pipeline import PipelineConfig, SQDMPipeline
from repro.core.policy import mixed_precision_policy
from repro.core.report_cache import ReportCache
from repro.core.sparsity import trace_to_workloads
from repro.core.telemetry import get_registry
from repro.serve.client import RemoteEvaluationClient
from repro.serve.http import EvaluationHTTPServer
from repro.serve.service import EvaluationService
from repro.serve.specs import SweepJobSpec
from repro.workloads.models import workload_names

#: Table I format rows and the two workloads the quality workload runs.
FORMATS = ("FP32", "FP16", "INT8", "MXINT8", "INT4", "INT4-VSQ")
QUALITY_WORKLOADS = ("cifar10", "imagenet")

#: Fig. 12 paper averages the hardware workload is scored against.
PAPER_TOTAL_SPEEDUP = 6.91
PAPER_ENERGY_SAVING = 0.515

#: Distinct cache keys one ``evaluate_hardware`` call simulates: the
#: quantized trace on SQ-DM and on the dense baseline, and the FP16 trace
#: on the dense baseline.
HARDWARE_UNIQUE_KEYS = 3

#: Sweep-http shape: two closed-loop clients; grids of 8 thresholds x 2 SPE
#: counts (16 cases) on one of the four paper traces.
SWEEP_CLIENTS = 2
SWEEP_THRESHOLDS = 8
SWEEP_SPE_COUNTS = (1, 2)
#: Client cycles per client in a traced (fixed-work) sweep iteration.
TRACED_CYCLES = 12
#: Sweep grids whose per-case totals are pinned per seed.
PINNED_GRIDS = 4
SWEEP_TIMEOUT_S = 60.0


def pipeline_config(seed: int) -> PipelineConfig:
    """The evaluation scale of ``benchmarks/conftest.py::BENCH_CONFIG``,
    sampled with the workload seed."""
    return PipelineConfig(
        num_fid_samples=8,
        num_reference_samples=256,
        num_sampling_steps=5,
        num_trace_samples=1,
        seed=seed,
    )


def fresh_pipeline(workload: str, seed: int) -> SQDMPipeline:
    """A cold pipeline: no artifact store and its own empty report cache."""
    return SQDMPipeline(
        workload, pipeline_config(seed), artifacts=None, report_cache=ReportCache()
    )


@dataclass
class Iteration:
    """What one iteration did, measured from outside the program."""

    latencies: list[float] = field(default_factory=list)  #: one per operation
    attempted: int = 0  #: work units attempted
    units: int = 0  #: work units completed (the throughput numerator)
    busy_s: float = 0.0  #: time those units took
    wall_s: float = 0.0
    failures: list[str] = field(default_factory=list)
    outputs: dict[str, Any] = field(default_factory=dict)
    #: (thread ident, start, end) of every thread that generated load.
    load_threads: list[tuple[int, float, float]] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    service_queued_s: float = 0.0
    service_running_s: float = 0.0


def _totals(report: Any) -> list[float]:
    """[total cycles, total energy pJ] of a report or single-trace batch."""
    if isinstance(report, ColumnarReportBatch):
        return [float(report.total_cycles[0]), float(report.total_energy_pj[0])]
    return [float(report.total_cycles), float(report.total_energy.total_pj)]


def _digest(result: Any) -> str:
    """Bitwise fingerprint of one simulation result (every array column)."""
    h = hashlib.sha256()
    if isinstance(result, ColumnarReportBatch):
        h.update(repr((result.config_names, result.layer_names)).encode())
        for name in ARRAY_FIELDS:
            array = np.ascontiguousarray(getattr(result, name))
            h.update(array.dtype.str.encode())
            h.update(array.tobytes())
    else:
        h.update(repr(ensure_report(result)).encode())
    return h.hexdigest()


def _relative(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference) if reference else abs(value)


class Table1Quality:
    """``evaluate_format`` for every Table I format on cifar10 and imagenet."""

    name = "table1-quality"
    fresh_state_per_iteration = True

    def __init__(self, seed: int, pinned: dict | None, tolerances: dict) -> None:
        self.seed = seed
        self.pinned = pinned
        self.fid_rel_tol = tolerances["fid"]["rel"]

    def setup(self) -> dict[str, SQDMPipeline]:
        pipelines = {w: fresh_pipeline(w, self.seed) for w in QUALITY_WORKLOADS}
        for pipeline in pipelines.values():
            pipeline.fid_evaluator  # reference statistics
        return pipelines

    def iteration(self, pipelines: dict[str, SQDMPipeline], deadline: float | None) -> Iteration:
        it = Iteration()
        began = time.perf_counter()
        for workload, pipeline in pipelines.items():
            for fmt in FORMATS:
                it.attempted += 1
                # One load thread and one BLAS thread: its CPU time is the
                # wall-clock a user waits on an otherwise idle machine.
                start = time.thread_time()
                try:
                    fid = pipeline.evaluate_format(fmt).fid
                except Exception as exc:  # noqa: BLE001 - a failed operation is counted
                    it.failures.append(f"{workload}/{fmt}: {exc!r}")
                    fid = None
                it.latencies.append(time.thread_time() - start)
                if fid is not None:
                    it.outputs.setdefault(workload, {})[fmt] = fid
                    it.units += 1
        end = time.perf_counter()
        it.busy_s = sum(it.latencies)
        it.wall_s = end - began
        it.load_threads.append((threading.get_ident(), began, end))
        return it

    def close(self, state: Any) -> None:
        pass

    def check(self, state: Any, iterations: list[Iteration]) -> tuple[dict, list[str]]:
        failures: list[str] = []
        first = iterations[0].outputs
        reference = self.pinned if self.pinned is not None else first
        drift = 0.0
        for n, it in enumerate(iterations):
            for workload in QUALITY_WORKLOADS:
                fids = it.outputs.get(workload, {})
                for fmt, fid in fids.items():
                    dev = _relative(fid, reference[workload][fmt])
                    drift = max(drift, dev)
                    if self.pinned is not None and dev > self.fid_rel_tol:
                        failures.append(
                            f"{workload}/{fmt} FID {fid!r} vs pinned "
                            f"{reference[workload][fmt]!r} (rel {dev:.3g})"
                        )
                    if fid != first.get(workload, {}).get(fmt):
                        failures.append(f"{workload}/{fmt} FID changed in iteration {n}")
                # Table I orderings: FP16 is quality-neutral, VSQ rescues INT4.
                if {"FP32", "FP16"} <= fids.keys() and _relative(fids["FP16"], fids["FP32"]) > 0.05:
                    failures.append(f"{workload}: FP16 FID not within 5% of FP32")
                if {"INT4", "INT4-VSQ"} <= fids.keys() and not fids["INT4-VSQ"] < fids["INT4"]:
                    failures.append(f"{workload}: INT4-VSQ FID not below INT4")
        detail = {
            "fid_drift": drift,
            "fid_reference": "pinned" if self.pinned is not None else "first iteration",
            "fids": first,
        }
        return detail, failures

    def expected_outputs(self) -> dict:
        return self.iteration(self.setup(), None).outputs


class Fig12Hardware:
    """Cold ``evaluate_hardware`` for all four paper workloads, then Fig. 12.

    The operation timed for latency is one whole Fig. 12 evaluation; the
    throughput unit is one paper workload evaluated.
    """

    name = "fig12-hardware"
    fresh_state_per_iteration = True

    def __init__(self, seed: int, pinned: dict | None, tolerances: dict) -> None:
        self.seed = seed
        self.pinned = pinned

    def setup(self) -> dict[str, SQDMPipeline]:
        return {w: fresh_pipeline(w, self.seed) for w in workload_names()}

    def iteration(self, pipelines: dict[str, SQDMPipeline], deadline: float | None) -> Iteration:
        it = Iteration()
        kernel = get_registry().get("repro_kernel_duration_seconds")
        evaluations = []
        began, cpu_began = time.perf_counter(), time.thread_time()
        for workload, pipeline in pipelines.items():
            it.attempted += 1
            calls_before = kernel.count()
            try:
                evaluation = pipeline.evaluate_hardware()
            except Exception as exc:  # noqa: BLE001 - a failed operation is counted
                it.failures.append(f"{workload}: {exc!r}")
                continue
            stats = pipeline.report_cache.stats
            it.cache_hits += stats.hits + stats.disk_hits
            it.cache_misses += stats.misses
            # Cold-start hygiene: nothing may come from an earlier iteration.
            if kernel.count() - calls_before <= 0:
                it.failures.append(f"{workload}: no kernel call (served from a warm cache)")
            elif stats.misses != HARDWARE_UNIQUE_KEYS or stats.hits or stats.disk_hits:
                it.failures.append(
                    f"{workload}: cache {stats.hits}+{stats.disk_hits} hits / "
                    f"{stats.misses} misses, expected {HARDWARE_UNIQUE_KEYS} misses"
                )
            else:
                it.units += 1
            evaluations.append(evaluation)
            it.outputs[workload] = {
                "sqdm": _totals(evaluation.sqdm_report),
                "dense": _totals(evaluation.dense_baseline_report),
                "fp16": _totals(evaluation.fp16_dense_report),
            }
        if len(evaluations) == len(pipelines):
            system = summarize_hardware(evaluations)
            it.outputs["summary"] = {
                "total_speedup": system.average_total_speedup,
                "energy_saving": system.average_energy_saving,
                "sparsity_speedups": [row.sparsity_speedup for row in system.per_workload],
                "energy_savings": [row.energy_saving for row in system.per_workload],
            }
        end, busy = time.perf_counter(), time.thread_time() - cpu_began
        it.latencies.append(busy)
        it.busy_s = busy
        it.wall_s = end - began
        it.load_threads.append((threading.get_ident(), began, end))
        return it

    def close(self, state: Any) -> None:
        pass

    def check(self, state: Any, iterations: list[Iteration]) -> tuple[dict, list[str]]:
        failures: list[str] = []
        first = iterations[0].outputs
        for n, it in enumerate(iterations):
            for workload in workload_names():
                got = it.outputs.get(workload)
                if got is None:
                    continue
                if self.pinned is not None and got != self.pinned[workload]:
                    failures.append(f"{workload}: simulated totals {got} != pinned {self.pinned[workload]}")
                if got != first.get(workload):
                    failures.append(f"{workload}: simulated totals changed in iteration {n}")
            summary = it.outputs.get("summary")
            if summary is not None:
                # Every workload beats the dense baseline (Fig. 12, top).
                if not all(s > 1.0 for s in summary["sparsity_speedups"]):
                    failures.append(f"iteration {n}: a sparsity speed-up is not above 1")
                if not all(e > 0.0 for e in summary["energy_savings"]):
                    failures.append(f"iteration {n}: an energy saving is not positive")
        detail: dict[str, Any] = {}
        summary = first.get("summary")
        if summary is not None:
            detail = {
                "total_speedup": summary["total_speedup"],
                "speedup_err_vs_paper": abs(summary["total_speedup"] / PAPER_TOTAL_SPEEDUP - 1.0),
                "energy_saving": summary["energy_saving"],
                "energy_err_vs_paper": abs(summary["energy_saving"] - PAPER_ENERGY_SAVING)
                / PAPER_ENERGY_SAVING,
            }
        return detail, failures

    def expected_outputs(self) -> dict:
        outputs = self.iteration(self.setup(), None).outputs
        outputs.pop("summary", None)
        return outputs


def sweep_grid(seed: int, index: int) -> tuple[str, dict[str, list]]:
    """Grid ``index`` of a seed: a paper trace and 16 design points.

    Each client cycles through the four traces, so every run sends the same
    mix whatever the seed.  Thresholds are full-precision draws, so every
    grid's cases are new cache keys and a first send is cold.
    """
    names = workload_names()
    workload = names[(index // SWEEP_CLIENTS) % len(names)]
    rng = np.random.default_rng([seed, index])
    thresholds = sorted(float(x) for x in rng.uniform(0.05, 0.6, SWEEP_THRESHOLDS))
    return workload, {"sparsity_threshold": thresholds, "num_spe": list(SWEEP_SPE_COUNTS)}


def sweep_spec(seed: int, index: int, traces: dict[str, Any]) -> SweepJobSpec:
    workload, grid = sweep_grid(seed, index)
    return SweepJobSpec(
        base=sqdm_config(),
        grid=grid,
        trace=traces[workload],
        baseline=dense_baseline_config(),
        name=f"bench-{seed}-{index}",
    )


def client_schedule(client: int, cycle: int) -> list[tuple[int, str]]:
    """(grid index, "cold"|"warm") sends of one client cycle: a new grid,
    then the grid of the client's previous cycle again."""
    sends = [(SWEEP_CLIENTS * cycle + client, "cold")]
    if cycle > 0:
        sends.append((SWEEP_CLIENTS * (cycle - 1) + client, "warm"))
    return sends


@dataclass
class SweepState:
    traces: dict[str, Any]
    service: EvaluationService
    server: EvaluationHTTPServer
    clients: list[RemoteEvaluationClient]
    next_cycle: int = 0


class SweepHTTP:
    """Closed-loop sweep clients against an in-process loopback server."""

    name = "sweep-http"
    fresh_state_per_iteration = False

    def __init__(self, seed: int, pinned: dict | None, tolerances: dict) -> None:
        self.seed = seed
        self.pinned = pinned

    def collect_traces(self) -> dict[str, Any]:
        """The four real paper traces, quantized as the sweep CLI does."""
        traces = {}
        for workload in workload_names():
            pipeline = fresh_pipeline(workload, self.seed)
            policy = mixed_precision_policy(pipeline.relu_unet(), relu=True)
            trace = pipeline.collect_trace(relu=True, policy=policy)
            traces[workload] = trace_to_workloads(trace, policy)
        return traces

    def setup(self) -> SweepState:
        traces = self.collect_traces()
        service = EvaluationService(cache=ReportCache())
        try:
            server = EvaluationHTTPServer(("127.0.0.1", 0), service).start_background()
        except BaseException:
            service.close()
            raise
        # Default polling, as every client in the program uses.
        clients = [RemoteEvaluationClient(server.endpoint) for _ in range(SWEEP_CLIENTS)]
        return SweepState(traces, service, server, clients)

    def close(self, state: SweepState) -> None:
        for client in state.clients:
            client.close()
        state.server.close()
        state.service.close(cancel_queued=True)

    def iteration(self, state: SweepState, deadline: float | None) -> Iteration:
        """Until ``deadline``, or for :data:`TRACED_CYCLES` cycles when it is None."""
        it = Iteration()
        first_cycle = state.next_cycle
        n_clients = len(state.clients)
        records: list[list[dict]] = [[] for _ in range(n_clients)]
        windows: list[tuple[int, float, float] | None] = [None] * n_clients
        cycles_done = [first_cycle] * n_clients
        stats_before = (state.service.cache.stats.hits, state.service.cache.stats.misses)

        def more(cycle: int) -> bool:
            if deadline is None:
                return cycle < first_cycle + TRACED_CYCLES
            return time.perf_counter() < deadline

        def drive(c: int) -> None:
            began = time.perf_counter()
            cycle = first_cycle
            while more(cycle):
                for index, kind in client_schedule(c, cycle):
                    records[c].append(self._send(state, state.clients[c], index, kind))
                cycle += 1
            cycles_done[c] = cycle
            windows[c] = (threading.get_ident(), began, time.perf_counter())

        threads = [threading.Thread(target=drive, args=(c,)) for c in range(n_clients)]
        began = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=SWEEP_TIMEOUT_S * 4)
            if thread.is_alive():
                it.failures.append("a sweep client did not finish")
        finished = [window for window in windows if window is not None]
        end = max((window[2] for window in finished), default=time.perf_counter())
        state.next_cycle = max(cycles_done)
        stats = state.service.cache.stats
        it.cache_hits = stats.hits - stats_before[0]
        it.cache_misses = stats.misses - stats_before[1]
        it.load_threads = finished
        sweeps = [record for client_records in records for record in client_records]
        it.attempted = len(sweeps)
        for record in sweeps:
            it.latencies.append(record["latency"])
            if "error" in record:
                it.failures.append(record["error"])
            else:
                it.units += len(record["cases"])
                it.service_queued_s += record["queued_s"]
                it.service_running_s += record["running_s"]
        it.busy_s = end - began
        it.wall_s = end - began
        it.outputs = {"sweeps": sweeps}
        return it

    def _send(self, state: SweepState, client: RemoteEvaluationClient, index: int, kind: str) -> dict:
        spec = sweep_spec(self.seed, index, state.traces)
        start = time.perf_counter()
        try:
            job = client.submit_sweep(spec)
            result = job.result(timeout=SWEEP_TIMEOUT_S)
            # What `repro sweep --endpoint` reads: materialized reports.
            result.reports, result.baseline
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted
            return {
                "index": index,
                "kind": kind,
                "latency": time.perf_counter() - start,
                "error": f"grid {index} ({kind}): {exc!r}",
            }
        latency = time.perf_counter() - start
        summary = job.summary()
        return {
            "index": index,
            "kind": kind,
            "latency": latency,
            "cases": [_digest(case) for case in result.case_results()],
            "baseline": _digest(result.baseline_result()),
            "totals": [_totals(case) for case in result.case_results()]
            + [_totals(result.baseline_result())],
            "queued_s": summary["queued_seconds"] or 0.0,
            "running_s": summary["running_seconds"] or 0.0,
        }

    def _inline(self, traces: dict[str, Any], index: int) -> Any:
        spec = sweep_spec(self.seed, index, traces)
        return InlineExecutor(cache=ReportCache()).submit(spec).result()

    def check(self, state: SweepState, iterations: list[Iteration]) -> tuple[dict, list[str]]:
        failures: list[str] = []
        sweeps = [r for it in iterations for r in it.outputs["sweeps"] if "error" not in r]
        by_index: dict[int, list[dict]] = {}
        for record in sweeps:
            by_index.setdefault(record["index"], []).append(record)
        expected_cases = SWEEP_THRESHOLDS * len(SWEEP_SPE_COUNTS)
        for index, records in sorted(by_index.items()):
            # Served reports must be bit-identical to the same spec inline.
            inline = self._inline(state.traces, index)
            want_cases = [_digest(case) for case in inline.case_results()]
            want_baseline = _digest(inline.baseline_result())
            for record in records:
                if len(record["cases"]) != expected_cases:
                    failures.append(f"grid {index}: {len(record['cases'])} cases")
                elif record["cases"] != want_cases or record["baseline"] != want_baseline:
                    failures.append(f"grid {index} ({record['kind']}): served != inline")
            if self.pinned is not None and str(index) in self.pinned:
                for record in records:
                    if record["totals"] != self.pinned[str(index)]:
                        failures.append(f"grid {index}: totals differ from pinned values")
        detail: dict[str, Any] = {
            "cold_sweeps": sum(r["kind"] == "cold" for r in sweeps),
            "distinct_grids": len(by_index),
        }
        for kind in ("cold", "warm"):
            values = [r["latency"] for r in sweeps if r["kind"] == kind]
            if values:
                detail[f"{kind}_p50_s"] = statistics.median(values)
        return detail, failures

    def expected_outputs(self) -> dict:
        traces = self.collect_traces()
        outputs = {}
        for index in range(PINNED_GRIDS):
            result = self._inline(traces, index)
            outputs[str(index)] = [_totals(c) for c in result.case_results()] + [
                _totals(result.baseline_result())
            ]
        return outputs


WORKLOADS = {cls.name: cls for cls in (Table1Quality, Fig12Hardware, SweepHTTP)}
