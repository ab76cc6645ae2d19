"""Tests for the fleet evaluation service: batched simulation, jobs, CLI."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.accelerator import (
    AcceleratorSimulator,
    dense_baseline_config,
    random_workload,
    sqdm_config,
)
from repro.accelerator.backends import resolve_backend_name
from repro.core.artifacts import ArtifactStore
from repro.core.columnar import ARRAY_FIELDS, ColumnarReportBatch, ensure_report
from repro.core.report_cache import ReportCache
from repro.serve import (
    BatchStats,
    EvaluationService,
    InlineExecutor,
    JobFailedError,
    JobKind,
    JobStatus,
    QualityJobSpec,
    SimulateJobSpec,
    SweepJobSpec,
    coalesce_requests,
    run_batched,
)
from repro.serve import service as service_module
from repro.serve.cli import main as cli_main
from repro.serve.workers import evaluate_quality


def make_trace(seed: int, steps: int = 3, layers: int = 2, in_channels: int = 24):
    return [
        [
            random_workload(
                in_channels=in_channels,
                spatial=6,
                seed=seed * 100 + 10 * s + layer,
                name=f"layer{layer}",
            )
            for layer in range(layers)
        ]
        for s in range(steps)
    ]


def simulate(seed: int, backend: str | None = None) -> SimulateJobSpec:
    """A simulate spec on a trace of its own: distinct seeds never share a
    cache key, so no job hits the cache or coalesces with another."""
    return SimulateJobSpec(config=sqdm_config(), trace=make_trace(seed), backend=backend)


def cycles(spec: SimulateJobSpec) -> float:
    """The spec's total cycles, simulated directly."""
    return AcceleratorSimulator(spec.config).run_trace(spec.trace).total_cycles


#: A quality spec that fails fast wherever it runs, in a pool worker included.
UNKNOWN_WORKLOAD = QualityJobSpec(workload="no-such-workload", scheme="INT8")


# -- cross-trace batched backend entry point ------------------------------------


def run_traces(simulator, traces):
    """Run several traces on the simulator's own configuration, one report each."""
    return simulator.run([(simulator.config, traces)]).report_lists()[0]


class TestRunTraces:
    """Cross-trace batching: several traces on one configuration in one ``run``."""

    def test_batched_reports_bit_identical_to_per_trace_runs(self):
        """Acceptance: one run batches >=2 traces and matches per-trace runs
        to (better than) 1e-9 relative."""
        config = sqdm_config(sparsity_update_period=2)
        traces = [make_trace(seed) for seed in range(4)]
        batched = run_traces(AcceleratorSimulator(config), traces)
        assert len(batched) == 4
        for trace, report in zip(traces, batched):
            single = AcceleratorSimulator(config).run_trace(trace)
            assert report.total_cycles == single.total_cycles  # bit-identical
            assert report.total_energy.total_pj == single.total_energy.total_pj
            assert len(report.step_results) == len(single.step_results)
            for batched_step, single_step in zip(report.step_results, single.step_results):
                assert batched_step.cycles == single_step.cycles
                for batched_layer, single_layer in zip(
                    batched_step.layer_results, single_step.layer_results
                ):
                    assert batched_layer.cycles == single_layer.cycles
                    assert batched_layer.energy.total_pj == single_layer.energy.total_pj

    def test_detector_schedule_isolated_per_trace(self):
        """Stale-classification reuse must not leak between batch members."""
        config = sqdm_config(sparsity_update_period=3)
        trace = make_trace(7, steps=5)
        simulator = AcceleratorSimulator(config)
        single = simulator.run_trace(trace)
        batched = run_traces(simulator, [trace, trace, trace])
        for report in batched:
            assert report.total_cycles == single.total_cycles
            assert report.detector_stats == single.detector_stats

    def test_empty_batch_and_empty_members(self):
        simulator = AcceleratorSimulator(sqdm_config())
        assert run_traces(simulator, []) == []
        reports = run_traces(simulator, [[], make_trace(1), [[]]])
        assert reports[0].total_cycles == 0.0 and reports[0].step_results == []
        assert reports[1].total_cycles > 0.0
        assert reports[2].total_cycles == 0.0 and len(reports[2].step_results) == 1

    def test_reference_backend_runs_traces_sequentially(self):
        traces = [make_trace(seed) for seed in range(2)]
        reference = AcceleratorSimulator(sqdm_config(), backend="reference")
        reports = run_traces(reference, traces)
        for trace, report in zip(traces, reports):
            single = AcceleratorSimulator(sqdm_config(), backend="reference").run_trace(trace)
            assert report.total_cycles == pytest.approx(single.total_cycles, rel=1e-12)

    def test_mixed_precision_batch(self):
        """Traces with different per-layer precisions batch correctly."""
        config = sqdm_config()
        lowp = make_trace(3)
        highp = [[w.replace(weight_bits=16, act_bits=16) for w in step] for step in lowp]
        batched = run_traces(AcceleratorSimulator(config), [lowp, highp])
        assert batched[0].total_cycles == AcceleratorSimulator(config).run_trace(lowp).total_cycles
        assert batched[1].total_cycles == AcceleratorSimulator(config).run_trace(highp).total_cycles


# -- coalescing scheduler --------------------------------------------------------


class TestRunBatched:
    def test_results_in_request_order_and_coalesced(self, monkeypatch):
        trace_a, trace_b = make_trace(1), make_trace(2)
        sqdm, dense = sqdm_config(), dense_baseline_config()
        requests = [
            SimulateJobSpec(sqdm, trace_a),
            SimulateJobSpec(dense, trace_a),
            SimulateJobSpec(sqdm, trace_b),
            SimulateJobSpec(dense, trace_b),
        ]

        calls: list[list[int]] = []
        original = AcceleratorSimulator.run

        def counting(self, entries):
            calls.append([len(traces) for _, traces in entries])
            return original(self, entries)

        monkeypatch.setattr(AcceleratorSimulator, "run", counting)
        cache = ReportCache()
        stats = BatchStats()
        batches = run_batched(requests, cache=cache, stats=stats)
        reports = [ensure_report(batch) for batch in batches]

        # sqdm + dense share an energy table and backend, so the whole
        # request stream fuses into ONE cross-config kernel call.
        assert calls == [[2, 2]]
        assert stats.kernel_calls == 1
        assert stats.configs_simulated == 2
        assert stats.traces_simulated == 4
        for request, report in zip(requests, reports):
            expected = AcceleratorSimulator(request.config).run_trace(request.trace)
            assert report.total_cycles == expected.total_cycles
            assert report.config_name == request.config.name

    def test_single_config_group_is_one_kernel_call(self, monkeypatch):
        """A group with one distinct configuration still costs exactly one
        kernel call, over one configuration."""
        calls: list[list[int]] = []
        original = AcceleratorSimulator.run

        def counting(self, entries):
            calls.append([len(traces) for _, traces in entries])
            return original(self, entries)

        monkeypatch.setattr(AcceleratorSimulator, "run", counting)
        requests = [SimulateJobSpec(sqdm_config(), make_trace(seed)) for seed in range(3)]
        stats = BatchStats()
        run_batched(requests, cache=ReportCache(), stats=stats)
        assert calls == [[3]]
        assert stats.as_dict() == {
            "kernel_calls": 1,
            "configs_simulated": 1,
            "traces_simulated": 3,
        }

    def test_reference_backend_batches_match_vectorized(self):
        """The reference backend goes through the same batch path: its
        single-trace batches match the vectorized ones within 1e-9."""
        configs = [sqdm_config(), dense_baseline_config(), sqdm_config(sparsity_update_period=2)]
        traces = [make_trace(seed) for seed in range(3)] + [[], [[]]]

        def batches(backend):
            requests = [
                SimulateJobSpec(config, trace, backend=backend)
                for config in configs
                for trace in traces
            ]
            return run_batched(requests, cache=ReportCache())

        for ref, vec in zip(batches("reference"), batches("vectorized"), strict=True):
            assert isinstance(ref, ColumnarReportBatch) and ref.num_traces == 1
            assert ref.config_names == vec.config_names
            assert ref.layer_names == vec.layer_names
            for name in ARRAY_FIELDS:
                np.testing.assert_allclose(
                    getattr(ref, name), getattr(vec, name), rtol=1e-9, atol=1e-9, err_msg=name
                )

    def test_duplicate_requests_simulated_once(self):
        trace = make_trace(5)
        cache = ReportCache()
        requests = [SimulateJobSpec(sqdm_config(), trace) for _ in range(3)]
        reports = run_batched(requests, cache=cache)
        assert cache.stats.misses == 1
        assert reports[0] is reports[1] is reports[2]

    def test_cached_requests_not_resimulated(self):
        trace = make_trace(6)
        cache = ReportCache()
        first = run_batched([SimulateJobSpec(sqdm_config(), trace)], cache=cache)
        second = run_batched([SimulateJobSpec(sqdm_config(), trace)], cache=cache)
        assert second[0] is first[0]
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_coalesce_groups_by_energy_table_and_backend(self):
        """Configs no longer split groups — only energy table and backend do."""
        trace = make_trace(7)
        groups = coalesce_requests(
            [
                SimulateJobSpec(sqdm_config(), trace),
                SimulateJobSpec(sqdm_config(), make_trace(8)),
                SimulateJobSpec(dense_baseline_config(), trace),
                SimulateJobSpec(sqdm_config(), trace, backend="reference"),
            ]
        )
        # sqdm x2 + dense coalesce (same table/backend); reference stays apart
        assert [len(g) for g in groups] == [3, 1]


# -- evaluation service ----------------------------------------------------------


class TestEvaluationService:
    def test_simulation_jobs_coalesce_and_complete(self, monkeypatch):
        calls: list[int] = []
        original = AcceleratorSimulator.run

        def counting(self, entries):
            calls.append(sum(len(traces) for _, traces in entries))
            return original(self, entries)

        monkeypatch.setattr(AcceleratorSimulator, "run", counting)

        traces = [make_trace(seed) for seed in range(4)]
        cache = ReportCache()
        with EvaluationService(cache=cache, max_workers=2) as service:
            # All four land in one drain: the scheduler waits on this lock.
            with service._condition:
                jobs = [
                    service.submit(SimulateJobSpec(config=sqdm_config(), trace=trace))
                    for trace in traces
                ]
            reports = [job.result(timeout=60) for job in jobs]
        # all four unique traces were simulated, in fewer batched calls
        assert sum(calls) == 4 and len(calls) < 4
        for trace, report in zip(traces, reports):
            expected = AcceleratorSimulator(sqdm_config()).run_trace(trace)
            assert report.total_cycles == expected.total_cycles

    def test_jobs_and_status(self):
        spec = simulate(30)
        with EvaluationService(cache=ReportCache(), max_workers=2) as service:
            job = service.submit(spec)
            assert job.result(timeout=30).total_cycles == cycles(spec)
            assert service.status(job.id) is JobStatus.DONE
            assert service.job(job.id).summary()["status"] == "done"
            with pytest.raises(KeyError):
                service.job("job-9999")

    def test_failed_job_reports_error(self, failing_backend):
        with EvaluationService(cache=ReportCache(), max_workers=1) as service:
            job = service.submit(simulate(31, backend=failing_backend))
            job.wait(30)
            assert job.status is JobStatus.FAILED
            with pytest.raises(JobFailedError, match="kaboom"):
                job.result()

    def test_sampling_job_runs_in_separate_process(self):
        """A quality spec is a sampling job and runs in a pool worker: its
        error carries the worker's traceback, which an exception raised in
        this process would not."""
        with EvaluationService(process_workers=1) as service:
            job = service.submit(UNKNOWN_WORKLOAD)
            assert job.wait(120)
        assert job.kind is JobKind.SAMPLING and job.status is JobStatus.FAILED
        assert isinstance(job.error, KeyError) and "unknown workload" in str(job.error)
        assert type(job.error.__cause__).__name__ == "_RemoteTraceback"

    def test_killed_sampling_worker_does_not_break_later_jobs(self, tmp_path):
        """A worker that dies takes the process pool with it; the service
        replaces the pool, so only the killed job fails."""
        evaluation = QualityJobSpec(
            workload="cifar10",
            scheme="INT8",
            resolution=8,
            pipeline_overrides=QUALITY_OVERRIDES,
            artifact_dir=str(tmp_path),
        )
        with EvaluationService(process_workers=1) as service:
            killed = service.submit(evaluation)
            deadline = time.monotonic() + 60
            while not (service._process_pool and service._process_pool._processes):
                assert time.monotonic() < deadline, "the pool never started a worker"
                time.sleep(0.005)
            for pid in list(service._process_pool._processes):
                os.kill(pid, signal.SIGKILL)
            assert killed.wait(120)
            assert killed.status is JobStatus.FAILED
            assert isinstance(killed.error, BrokenProcessPool)
            survivor = service.submit(UNKNOWN_WORKLOAD)
            assert survivor.wait(120)
        assert "unknown workload" in str(survivor.error)  # the new pool ran it
        assert type(survivor.error.__cause__).__name__ == "_RemoteTraceback"

    def test_sampling_pool_starts_while_the_caller_multiplies_matrices(self):
        """``repro evaluate`` runs the hardware evaluation (BLAS GEMMs) while
        its quality jobs start the process pool from the scheduler thread.  A
        fork at that moment deadlocked OpenBLAS and left the caller spinning
        in its GEMM.  A child interpreter runs the race, so a deadlock fails
        this test at its timeout instead of wedging the test process."""
        import repro

        script = "\n".join(
            [
                "import numpy as np",
                "from repro.serve import EvaluationService, QualityJobSpec",
                "spec = QualityJobSpec(workload='no-such-workload', scheme='INT8')",
                "a = np.random.default_rng(0).normal(size=(300, 300))",
                "for _ in range(2):",
                "    with EvaluationService(process_workers=1) as service:",
                "        job = service.submit(spec)",
                "        while not job.done:",
                "            a @ a",
                "        assert 'unknown workload' in str(job.error), job.error",
            ]
        )
        env = dict(os.environ)
        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        completed = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, timeout=60
        )
        assert completed.returncode == 0, completed.stderr.decode()

    def test_unpicklable_sampling_job_fails_fast(self):
        spec = QualityJobSpec(
            workload="cifar10", scheme="INT8", pipeline_overrides={"seed": lambda: 1}
        )
        with EvaluationService() as service:
            with pytest.raises(ValueError, match="picklable"):
                service.submit(spec)
        # nothing was queued, so the failure cannot have come from the pool
        assert service.jobs() == []

    def test_unknown_backend_simulation_rejected_at_submit(self):
        """A simulate spec naming no known backend is refused at submission,
        as a sweep spec is; once drained it failed every job of its drain."""
        spec = SimulateJobSpec(config=sqdm_config(), trace=make_trace(1), backend="warp_drive")
        with EvaluationService(cache=ReportCache(), max_workers=1) as service:
            with pytest.raises(ValueError, match="backend"):
                service.submit(spec)
            assert service.jobs() == []
        with pytest.raises(ValueError, match="backend"):
            InlineExecutor().submit(spec)

    def test_untraceable_trace_is_refused_at_submit_and_strands_no_key(self):
        """A trace that cannot be fingerprinted is a TypeError at submission.
        Sharing a scheduler drain with a good job, it used to fail that job
        and leave its single-flight key registered, so an identical
        resubmission stayed queued forever."""
        good = SimulateJobSpec(config=sqdm_config(), trace=make_trace(7))
        bad = SimulateJobSpec(config=sqdm_config(), trace=[[object()]])
        with EvaluationService(cache=ReportCache(), max_workers=2) as service:
            # Both would land in one drain: the scheduler waits on this lock.
            with service._condition:
                job = service.submit(good)
                with pytest.raises(TypeError, match="fingerprint"):
                    service.submit(bad)
            report = job.result(timeout=30)
            again = service.submit(SimulateJobSpec(config=sqdm_config(), trace=make_trace(7)))
            assert again.result(timeout=5) == report
            assert service.service_stats()["inflight_keys"] == 0
            assert len(service.jobs()) == 2
            sweep = SweepJobSpec(
                base=sqdm_config(), grid={"sparsity_threshold": [0.2]}, trace=[[object()]]
            )
            with pytest.raises(TypeError, match="fingerprint"):
                service.submit(sweep)
            assert len(service.jobs()) == 2
        with pytest.raises(TypeError, match="fingerprint"):
            InlineExecutor().submit(bad)

    def test_submit_after_close_rejected(self):
        service = EvaluationService(max_workers=1)
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.submit(simulate(32))

    def test_wait_all(self):
        specs = [simulate(40 + i) for i in range(5)]
        with EvaluationService(cache=ReportCache(), max_workers=2) as service:
            jobs = [service.submit(spec) for spec in specs]
            assert service.wait_all(jobs, timeout=60)
            assert [job.result_value.total_cycles for job in jobs] == [
                cycles(spec) for spec in specs
            ]

    def test_completed_job_history_is_bounded(self):
        """A long-lived service must not pin every finished job forever."""
        specs = [simulate(50 + i) for i in range(8)]
        with EvaluationService(cache=ReportCache(), max_workers=2, history_limit=3) as service:
            jobs = [service.submit(spec) for spec in specs]
            assert service.wait_all(jobs, timeout=60)
            # triggers pruning
            final = service.submit(simulate(59))
            assert final.result(timeout=30).total_cycles == cycles(simulate(59))
            assert len(service.jobs()) <= 4  # 3 retained terminal + the new one
            # retired jobs lose id-based lookup, but the handles still work
            assert jobs[0].result_value.total_cycles == cycles(specs[0])
            with pytest.raises(KeyError):
                service.job(jobs[0].id)


class TestSweepJobs:
    """Server-side sweep planning through the in-process service."""

    def test_sweep_result_parts_are_the_cache_slices(self):
        trace = make_trace(12)
        cache = ReportCache()
        spec = SweepJobSpec(
            base=sqdm_config(),
            grid={"sparsity_threshold": [0.2, 0.6]},
            trace=trace,
            baseline=dense_baseline_config(),
        )
        with EvaluationService(cache=cache, max_workers=2) as service:
            result = service.submit(spec).result(timeout=60)
        # The retained result shares its one-trace parts with the report cache.
        assert len(result.parts) == 3
        for part, request in zip(result.parts, spec.plan()):
            assert part is cache.lookup_key(request.key())
        assert result.case_results() == result.parts[:2]
        assert result.baseline_result() is result.parts[2]


    def test_submit_sweep_plans_batches_and_caches(self):
        trace = make_trace(9)
        cache = ReportCache()
        spec = SweepJobSpec(
            base=sqdm_config(),
            grid={"sparsity_threshold": [0.1, 0.5]},
            trace=trace,
            baseline=dense_baseline_config(),
            name="local-grid",
        )
        with EvaluationService(cache=cache, max_workers=2) as service:
            first = service.submit(spec).result(timeout=120)
            second = service.submit(spec).result(timeout=120)
        assert first.params == [{"sparsity_threshold": 0.1}, {"sparsity_threshold": 0.5}]
        for params, report in zip(first.params, first.reports):
            expected = AcceleratorSimulator(sqdm_config(**params)).run_trace(trace)
            assert report.total_cycles == expected.total_cycles
        baseline = AcceleratorSimulator(dense_baseline_config()).run_trace(trace)
        assert first.baseline.total_cycles == baseline.total_cycles
        # the identical second sweep was served entirely from the cache
        assert cache.stats.misses == 3
        for again, once in zip(second.reports, first.reports):
            assert again.total_cycles == once.total_cycles

    def test_sweep_fuses_into_one_kernel_call_and_exposes_stats(self):
        """A server-planned sweep (grid + baseline, shared table/backend)
        dispatches as ONE cross-config kernel call, visible in service_stats."""
        spec = SweepJobSpec(
            base=sqdm_config(),
            grid={"sparsity_threshold": [0.1, 0.3, 0.5]},
            trace=make_trace(12),
            baseline=dense_baseline_config(),
        )
        with EvaluationService(cache=ReportCache(), max_workers=2) as service:
            assert service.submit(spec).result(timeout=120) is not None
            scheduler = service.service_stats()["scheduler"]
        assert scheduler == {
            "kernel_calls": 1,
            "configs_simulated": 4,
            "traces_simulated": 4,
        }

    def test_sweep_trace_marks_each_phase_once(self):
        """A sweep's trace records each lifecycle phase once per job, not
        once per case: a 17-case cold sweep with a baseline ends with the
        same five marks as a 2-case one."""
        jobs = []
        for values in ([0.05 * i for i in range(1, 18)], [0.2, 0.4]):
            spec = SweepJobSpec(
                base=sqdm_config(),
                grid={"sparsity_threshold": values},
                trace=make_trace(13),
                baseline=dense_baseline_config(),
            )
            with EvaluationService(cache=ReportCache(), max_workers=2) as service:
                jobs.append(service.submit(spec))
                jobs[-1].result(timeout=120)
        wide, narrow = (job.trace.phases() for job in jobs)
        assert wide == ["submitted", "coalesced", "dispatched", "kernel", "finished"]
        assert len(narrow) == len(wide)
        coalesced = dict(jobs[0].trace.marks[1][2])
        assert coalesced == {"requests": 18}

    def test_sweep_without_baseline(self):
        spec = SweepJobSpec(
            base=sqdm_config(), grid={"num_spe": [1, 2]}, trace=make_trace(10)
        )
        with EvaluationService(cache=ReportCache(), max_workers=2) as service:
            outcome = service.submit(spec).result(timeout=120)
        assert outcome.baseline is None and len(outcome.reports) == 2

    def test_invalid_grid_rejected_at_submit(self):
        with pytest.raises(ValueError, match="sweepable"):
            SweepJobSpec(base=sqdm_config(), grid={"warp_factor": [9]}, trace=make_trace(1))
        with EvaluationService(cache=ReportCache(), max_workers=1) as service:
            # a value the config itself rejects also fails at submission
            spec = SweepJobSpec(
                base=sqdm_config(), grid={"sparsity_threshold": [1.5]}, trace=make_trace(1)
            )
            with pytest.raises(ValueError, match="sparsity_threshold"):
                service.submit(spec)
            assert service.jobs() == []

    def test_sweep_failure_marks_job_failed(self, monkeypatch):
        def explode(self, entries):
            raise RuntimeError("sim exploded")

        monkeypatch.setattr(AcceleratorSimulator, "run", explode)
        spec = SweepJobSpec(
            base=sqdm_config(), grid={"sparsity_threshold": [0.2]}, trace=make_trace(3)
        )
        with EvaluationService(cache=ReportCache(), max_workers=1) as service:
            job = service.submit(spec)
            assert job.wait(30)
            assert job.status is JobStatus.FAILED
            with pytest.raises(JobFailedError, match="sim exploded"):
                job.result()

    def test_cancel_queued_sweep_never_simulates(self, monkeypatch):
        """A sweep cancelled while still queued is skipped at dispatch."""
        drained, proceed = threading.Event(), threading.Event()
        original_coalesce = service_module.coalesce_requests

        def gated(requests):
            if requests:
                drained.set()
                proceed.wait(30)
            return original_coalesce(requests)

        monkeypatch.setattr(service_module, "coalesce_requests", gated)

        simulated: list[int] = []
        original_run = AcceleratorSimulator.run

        def counting(self, entries):
            simulated.append(sum(len(traces) for _, traces in entries))
            return original_run(self, entries)

        monkeypatch.setattr(AcceleratorSimulator, "run", counting)

        with EvaluationService(cache=ReportCache(), max_workers=2) as service:
            blocker = service.submit(SimulateJobSpec(config=sqdm_config(), trace=make_trace(1)))
            assert drained.wait(30), "scheduler never drained the queue"
            sweep_job = service.submit(
                SweepJobSpec(
                    base=sqdm_config(),
                    grid={"sparsity_threshold": [0.2, 0.4]},
                    trace=make_trace(2),
                )
            )
            assert service.cancel(sweep_job.id) is True
            proceed.set()
            assert blocker.result(timeout=60) is not None
            assert sweep_job.wait(30)
            assert sweep_job.status is JobStatus.CANCELLED
        assert simulated == [1], "cancelled sweep was simulated anyway"

    def test_submit_spec_dispatches_by_type(self):
        sweep = SweepJobSpec(
            base=sqdm_config(), grid={"sparsity_threshold": [0.2]}, trace=make_trace(33)
        )
        with EvaluationService(cache=ReportCache(), max_workers=1) as service:
            jobs = [service.submit(simulate(33)), service.submit(sweep)]
            assert [job.kind for job in jobs] == [JobKind.SIMULATION, JobKind.SWEEP]
            assert service.wait_all(jobs, timeout=60) and all(job.ok for job in jobs)
            for not_a_spec in ({"kind": "dict"}, print):
                with pytest.raises(TypeError, match="not a job spec"):
                    service.submit(not_a_spec)
            assert len(service.jobs()) == 2


class TestCancellation:
    def test_cancel_between_coalescing_and_dispatch(self, monkeypatch):
        """Regression: a pending job cancelled after the scheduler drained it
        (so it is no longer in the queue) but before a worker claimed it must
        report CANCELLED and must not be simulated."""
        drained, proceed = threading.Event(), threading.Event()
        original_coalesce = service_module.coalesce_requests

        def gated(requests):
            groups = original_coalesce(requests)
            if requests:  # only gate the drain that carries our job
                drained.set()
                proceed.wait(30)
            return groups

        monkeypatch.setattr(service_module, "coalesce_requests", gated)

        simulated: list[int] = []
        original_run = AcceleratorSimulator.run

        def counting(self, entries):
            simulated.append(sum(len(traces) for _, traces in entries))
            return original_run(self, entries)

        monkeypatch.setattr(AcceleratorSimulator, "run", counting)

        with EvaluationService(cache=ReportCache(), max_workers=2) as service:
            job = service.submit(SimulateJobSpec(config=sqdm_config(), trace=make_trace(1)))
            assert drained.wait(30), "scheduler never drained the queue"
            assert service.cancel(job.id) is True
            proceed.set()
            assert job.wait(30)
            assert job.status is JobStatus.CANCELLED
            with pytest.raises(JobFailedError, match="cancel"):
                job.result()
        assert simulated == [], "cancelled job was simulated anyway"

    def test_cancel_drained_sweep_before_any_case_is_claimed(self, monkeypatch):
        """A sweep stays cancellable after the scheduler drained it, until a
        pool thread claims its first case: it reports CANCELLED and none of
        its cases is simulated."""
        drained, proceed = threading.Event(), threading.Event()
        original_coalesce = service_module.coalesce_requests

        def gated(requests):
            groups = original_coalesce(requests)
            if requests:
                drained.set()
                proceed.wait(30)
            return groups

        monkeypatch.setattr(service_module, "coalesce_requests", gated)

        simulated: list[int] = []
        original_run = AcceleratorSimulator.run

        def counting(self, entries):
            simulated.append(sum(len(traces) for _, traces in entries))
            return original_run(self, entries)

        monkeypatch.setattr(AcceleratorSimulator, "run", counting)

        with EvaluationService(cache=ReportCache(), max_workers=2) as service:
            job = service.submit(
                SweepJobSpec(
                    base=sqdm_config(),
                    grid={"sparsity_threshold": [0.2, 0.4]},
                    trace=make_trace(2),
                    baseline=dense_baseline_config(),
                )
            )
            assert drained.wait(30), "scheduler never drained the queue"
            assert job.status is JobStatus.QUEUED
            assert service.cancel(job.id) is True
            proceed.set()
            assert job.wait(30)
            assert job.status is JobStatus.CANCELLED
            with pytest.raises(JobFailedError, match="cancel"):
                job.result()
        assert simulated == [], "cancelled sweep was simulated anyway"

    def test_cancelled_queued_jobs_never_run(self, gated_backend, monkeypatch):
        """Jobs queued behind a busy pool are cancellable until they start."""
        simulated: list[int] = []
        original_run = AcceleratorSimulator.run

        def counting(self, entries):
            simulated.append(sum(len(traces) for _, traces in entries))
            return original_run(self, entries)

        monkeypatch.setattr(AcceleratorSimulator, "run", counting)
        with EvaluationService(cache=ReportCache(), max_workers=1) as service:
            blocker = service.submit(simulate(60, backend=gated_backend.backend))
            assert gated_backend.started.wait(10)
            victims = [service.submit(simulate(61 + i)) for i in range(3)]
            cancelled = [service.cancel(job.id) for job in victims]
            gated_backend.release.set()
            blocker.wait(30)
        assert all(cancelled)
        assert simulated == [1], "only the blocker's trace may be simulated"
        assert all(job.status is JobStatus.CANCELLED for job in victims)

    def test_cancel_finished_job_returns_false(self):
        with EvaluationService(cache=ReportCache(), max_workers=1) as service:
            job = service.submit(simulate(64))
            assert job.result(timeout=30).total_cycles == cycles(simulate(64))
            assert service.cancel(job.id) is False
            assert job.status is JobStatus.DONE
            with pytest.raises(KeyError):
                service.cancel("job-9999")

    def test_cancelled_count_in_service_stats(self, gated_backend):
        with EvaluationService(cache=ReportCache(), max_workers=1) as service:
            blocker = service.submit(simulate(65, backend=gated_backend.backend))
            assert gated_backend.started.wait(10)
            victim = service.submit(simulate(66))
            assert service.cancel(victim.id)
            stats = service.service_stats()
            gated_backend.release.set()
            blocker.wait(30)
        assert stats["cancelled"] == 1
        assert stats["submitted"]["simulation"] == 2


class TestSingleFlight:
    def test_duplicate_requests_across_drains_simulate_once(self, monkeypatch):
        """Identical simulation jobs arriving while their batch is in flight
        attach to it instead of re-simulating (N clients, one sweep)."""
        release = threading.Event()
        simulated: list[int] = []
        original_run = AcceleratorSimulator.run

        def slow_counting(self, entries):
            release.wait(30)
            simulated.append(sum(len(traces) for _, traces in entries))
            return original_run(self, entries)

        monkeypatch.setattr(AcceleratorSimulator, "run", slow_counting)

        trace = make_trace(11)
        cache = ReportCache()
        with EvaluationService(cache=cache, max_workers=4) as service:
            first = service.submit(SimulateJobSpec(config=sqdm_config(), trace=trace))
            # Wait until the first job's batch is claimed, then submit
            # duplicates in later drains; they must attach, not re-simulate.
            deadline = time.monotonic() + 30
            while first.status is not JobStatus.RUNNING and time.monotonic() < deadline:
                time.sleep(0.005)
            followers = [
                service.submit(SimulateJobSpec(config=sqdm_config(), trace=trace))
                for _ in range(3)
            ]
            while (
                service.service_stats()["coalesced_attached"] < 3
                and time.monotonic() < deadline
            ):
                time.sleep(0.005)
            release.set()
            reports = [job.result(timeout=60) for job in (first, *followers)]
        assert simulated == [1], f"expected one batched pass, saw {simulated}"
        assert cache.stats.misses == 1
        assert all(report.total_cycles == reports[0].total_cycles for report in reports)
        assert service.service_stats()["coalesced_attached"] == 3


# -- satellite guards ------------------------------------------------------------


class TestEagerBackendValidation:
    def test_env_var_backend_validated_with_clear_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_BACKEND", "warp_drive")
        with pytest.raises(ValueError, match="REPRO_SIM_BACKEND") as excinfo:
            AcceleratorSimulator(sqdm_config())
        assert "reference" in str(excinfo.value) and "vectorized" in str(excinfo.value)

    def test_resolve_backend_name_defaults(self, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_BACKEND", raising=False)
        assert resolve_backend_name() == "vectorized"
        monkeypatch.setenv("REPRO_SIM_BACKEND", "reference")
        assert resolve_backend_name() == "reference"
        assert resolve_backend_name("vectorized") == "vectorized"

    def test_explicit_argument_validated(self):
        with pytest.raises(ValueError, match="backend argument"):
            resolve_backend_name("cycle_accurate")

    def test_cache_key_validates_backend(self):
        with pytest.raises(ValueError, match="unknown simulation backend"):
            ReportCache.key(sqdm_config(), [], backend="warp_drive")


# -- served quality path ------------------------------------------------------------

#: The ``cli_scale_args`` scale as pipeline overrides.
QUALITY_OVERRIDES = {
    "num_fid_samples": 4,
    "num_reference_samples": 16,
    "num_sampling_steps": 2,
    "num_trace_samples": 1,
    "seed": 0,
}


def test_process_pool_quality_jobs_equal_in_process_evaluation(tmp_path):
    """A quality spec runs in a process-pool child and returns exactly the
    numbers the same evaluation gives in this process."""
    specs = [
        QualityJobSpec(
            workload="cifar10",
            scheme=scheme,
            resolution=8,
            pipeline_overrides=QUALITY_OVERRIDES,
            artifact_dir=str(tmp_path / "served"),
        )
        for scheme in ("MXINT8", "MP+ReLU")
    ]
    with EvaluationService(process_workers=1) as service:
        jobs = [service.submit(spec) for spec in specs]
        served = [job.result(timeout=300) for job in jobs]
    in_process = [
        evaluate_quality(
            spec.workload, spec.scheme, 8, QUALITY_OVERRIDES, str(tmp_path / "in-process")
        )
        for spec in specs
    ]
    assert served == in_process
    assert [result["scheme"] for result in served] == ["MXINT8", "Ours (MP+ReLU)"]


# -- CLI -------------------------------------------------------------------------


@pytest.fixture()
def cli_scale_args(tmp_path):
    return [
        "--workload", "cifar10",
        "--resolution", "8",
        "--sampling-steps", "2",
        "--trace-samples", "1",
        "--reference-samples", "16",
        "--fid-samples", "4",
        "--artifact-dir", str(tmp_path / "artifacts"),
    ]


class TestCLI:
    def test_sweep_cold_then_warm_reuses_artifacts(self, tmp_path, cli_scale_args, capsys):
        json_cold = tmp_path / "cold.json"
        json_warm = tmp_path / "warm.json"
        sweep_args = ["sweep", *cli_scale_args, "--param", "sparsity_threshold=0.2,0.4"]

        assert cli_main([*sweep_args, "--json", str(json_cold)]) == 0
        cold = json.loads(json_cold.read_text())
        assert cold["cache"]["misses"] > 0
        assert [case["params"]["sparsity_threshold"] for case in cold["cases"]] == [0.2, 0.4]
        for case in cold["cases"]:
            assert case["speedup_vs_dense_baseline"] > 0

        # The CLI builds a fresh in-memory cache per invocation, so this is
        # the cross-process path: everything must come from the store.
        assert cli_main([*sweep_args, "--json", str(json_warm)]) == 0
        warm = json.loads(json_warm.read_text())
        assert warm["cache"]["misses"] == 0
        assert warm["cache"]["hit_rate"] >= 0.9
        assert warm["cases"] == cold["cases"]
        assert "design points" in capsys.readouterr().out

    def test_evaluate_writes_summary_json(self, tmp_path, cli_scale_args):
        json_path = tmp_path / "eval.json"
        assert cli_main(["evaluate", *cli_scale_args, "--json", str(json_path)]) == 0
        payload = json.loads(json_path.read_text())
        assert payload["hardware"]["total_speedup"] > 1.0
        assert payload["quality"] == []

    def test_evaluate_quality_writes_the_in_process_numbers(self, tmp_path, cli_scale_args):
        json_path = tmp_path / "eval.json"
        command = ["evaluate", *cli_scale_args, "--quality", "MXINT8", "--json", str(json_path)]
        assert cli_main(command) == 0
        payload = json.loads(json_path.read_text())
        expected = evaluate_quality(
            "cifar10", "MXINT8", 8, QUALITY_OVERRIDES, str(tmp_path / "in-process")
        )
        assert payload["quality"] == [expected]

    def test_cache_stats_and_wipe(self, tmp_path, cli_scale_args, capsys):
        assert cli_main(["sweep", *cli_scale_args, "--param", "sparsity_threshold=0.3"]) == 0
        artifact_dir = cli_scale_args[-1]
        assert cli_main(["cache", "stats", "--artifact-dir", artifact_dir]) == 0
        assert "report" in capsys.readouterr().out
        assert cli_main(["cache", "wipe", "--artifact-dir", artifact_dir]) == 0
        assert ArtifactStore(artifact_dir).count() == 0

    def test_cache_without_dir_errors(self, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_ARTIFACT_DIR", raising=False)
        assert cli_main(["cache", "stats"]) == 2
        assert "artifact" in capsys.readouterr().err

    def test_sweep_rejects_unknown_param(self, cli_scale_args):
        with pytest.raises(SystemExit):
            cli_main(["sweep", *cli_scale_args, "--param", "warp_factor=9"])

    @pytest.mark.parametrize(
        "command, names",
        [
            ("sweep", ["inline", "service", "worker-pool", "remote"]),
            ("evaluate", ["inline", "service", "worker-pool"]),
        ],
        ids=["sweep", "evaluate"],
    )
    def test_executor_is_a_fixed_choice(self, command, names, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main([command, "--executor", "thread"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'thread'" in err
        offered = err.split("choose from", 1)[1]
        assert [n for n in ("inline", "service", "worker-pool", "remote") if n in offered] == names


class TestConcurrentServiceTraffic:
    def test_many_clients_submitting_simultaneously(self):
        """Service survives a burst of mixed traffic from several threads."""
        cache = ReportCache()
        traces = [make_trace(seed) for seed in range(3)]
        # A one-case sweep of the sqdm config itself: a second job kind on
        # the same three design points.
        grid = {"sparsity_threshold": [sqdm_config().sparsity_threshold]}
        with EvaluationService(cache=cache, max_workers=4) as service:
            jobs: list = []
            jobs_lock = threading.Lock()

            def client(seed: int) -> None:
                trace = traces[seed % 3]
                submitted = [
                    service.submit(SimulateJobSpec(config=sqdm_config(), trace=trace)),
                    service.submit(SweepJobSpec(base=sqdm_config(), grid=grid, trace=trace)),
                ]
                with jobs_lock:
                    jobs.extend(submitted)

            threads = [threading.Thread(target=client, args=(i,)) for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert service.wait_all(jobs, timeout=120)
        assert all(job.ok for job in jobs)
        # Three unique design points exist.  Concurrent drains may race
        # benignly on a key (both simulate, one insert wins), so misses can
        # exceed 3 but never the request count, and the cache stays
        # deduplicated.
        assert 3 <= cache.stats.misses <= 12
        assert len(cache) == 3
