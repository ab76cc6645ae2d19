"""Tests for the unified execution API: Executor protocol + JobHandle futures.

`InlineExecutor`, `EvaluationService` and `RemoteEvaluationClient` are each
an `Executor`, and their handles (`CompletedHandle`, `Job`, `RemoteJob`) are
`JobHandle`s.  Covers the handle contract on every backend —
`result(timeout=)`, `cancel()`, callbacks, `kind` — with simulate specs over
small traces, and one sweep driven through all three backends yielding
bit-identical `SimulationReport`s.  A job that must stay queued or running
runs on the test-only ``gated`` simulation backend, a job that must fail on
the ``failing`` one (both in tests/conftest.py).
"""

from __future__ import annotations

import contextlib
import threading

import pytest

from repro.accelerator import dense_baseline_config, random_workload, sqdm_config
from repro.core import codec
from repro.core.execution import (
    CompletedHandle,
    Executor,
    InlineExecutor,
    JobFailedError,
    JobKind,
    JobStatus,
    job_kind,
)
from repro.core.pipeline import PipelineConfig, SQDMPipeline
from repro.core.report_cache import ReportCache
from repro.serve import (
    EvaluationService,
    QualityJobSpec,
    RemoteEvaluationClient,
    SimulateJobSpec,
    SweepJobSpec,
    start_http_server,
)

from test_serve import cycles, simulate


def make_trace(seed: int = 0, steps: int = 2, layers: int = 2):
    return [
        [
            random_workload(
                in_channels=16, spatial=5, seed=seed * 100 + 10 * s + n, name=f"l{n}"
            )
            for n in range(layers)
        ]
        for s in range(steps)
    ]


def small_pipeline(workload) -> SQDMPipeline:
    """A pipeline whose hardware evaluation takes a fraction of a second."""
    return SQDMPipeline(
        workload=workload,
        config=PipelineConfig(num_sampling_steps=2, num_trace_samples=1, num_reference_samples=8),
        artifacts=None,
        report_cache=ReportCache(),
    )


@contextlib.contextmanager
def open_backend(name: str, gate):
    """One executor per backend; the queueing ones run one job at a time."""
    if name == "inline":
        yield InlineExecutor(cache=ReportCache())
        return
    service = EvaluationService(cache=ReportCache(), max_workers=1)
    server = start_http_server(service, port=0) if name == "remote" else None
    try:
        yield service if server is None else RemoteEvaluationClient(server.endpoint)
    finally:
        gate.release.set()  # a parked job would stall the shutdown below
        if server is not None:
            server.close()
        service.close(cancel_queued=True)


@pytest.fixture()
def client(gated_backend):
    """A client of a live HTTP server that has its own cache and one worker."""
    with open_backend("remote", gated_backend) as client:
        yield client


@pytest.fixture(params=["inline", "service", "remote"])
def executor(request, gated_backend):
    with open_backend(request.param, gated_backend) as executor:
        yield executor


@pytest.fixture(params=["service", "remote"])
def queueing(request, gated_backend):
    """The backends that queue work, so a job can still be waiting or running."""
    with open_backend(request.param, gated_backend) as executor:
        yield executor


def _park(executor, gate):
    """Occupy the backend's single worker; returns the running handle."""
    blocker = executor.submit(simulate(100, backend=gate.backend))
    assert gate.started.wait(10)
    return blocker


# -- InlineExecutor ----------------------------------------------------------------


class TestInlineExecutor:
    def test_submit_returns_completed_handle(self):
        spec = simulate(1)
        with InlineExecutor(cache=ReportCache()) as executor:
            handle = executor.submit(spec)
        assert handle.done and handle.ok
        assert handle.status is JobStatus.DONE
        assert handle.result().total_cycles == cycles(spec)
        assert handle.result(timeout=0.001) is handle.result()  # timeout is moot when done

    def test_work_failure_captured_on_handle(self, failing_backend):
        with InlineExecutor(cache=ReportCache()) as executor:
            handle = executor.submit(simulate(2, backend=failing_backend))
        assert handle.status is JobStatus.FAILED and not handle.ok
        assert isinstance(handle.error, RuntimeError)
        with pytest.raises(JobFailedError, match="kaboom") as excinfo:
            handle.result()
        assert excinfo.value.__cause__ is handle.error

    def test_cancel_is_always_false(self):
        """Inline work runs at submission; there is never anything to prevent."""
        with InlineExecutor(cache=ReportCache()) as executor:
            handle = executor.submit(simulate(3))
        assert handle.cancel() is False
        assert handle.status is JobStatus.DONE  # cancel() never corrupts a result

    def test_add_done_callback_fires_immediately(self):
        seen = []
        spec = simulate(4)
        with InlineExecutor(cache=ReportCache()) as executor:
            handle = executor.submit(spec)
            handle.add_done_callback(lambda h: seen.append(h.result().total_cycles))
        assert seen == [cycles(spec)]

    def test_add_done_callback_swallows_observer_errors_like_other_backends(self):
        with InlineExecutor(cache=ReportCache()) as executor:
            handle = executor.submit(simulate(5))
            handle.add_done_callback(lambda h: (_ for _ in ()).throw(RuntimeError("observer")))
        assert handle.ok  # the raising callback never escaped

    def test_map_batches_simulations_and_coalesces_duplicates(self):
        """One map() call = one batched pass; duplicate keys cost one simulation."""
        cache = ReportCache()
        trace = make_trace(1)
        with InlineExecutor(cache=cache) as executor:
            handles = executor.map(
                [
                    SimulateJobSpec(config=sqdm_config(), trace=trace),
                    SimulateJobSpec(config=sqdm_config(), trace=trace),  # duplicate
                    SimulateJobSpec(config=dense_baseline_config(), trace=trace),
                ]
            )
        reports = [handle.result() for handle in handles]
        assert cache.stats.misses == 2  # two unique keys, three requests
        assert reports[0] is reports[1]
        assert reports[0].total_cycles != reports[2].total_cycles

    def test_sweep_spec_executes_inline(self):
        trace = make_trace(2)
        spec = SweepJobSpec(
            base=sqdm_config(),
            grid={"sparsity_threshold": [0.2, 0.4]},
            trace=trace,
            baseline=dense_baseline_config(),
            name="inline-grid",
        )
        with InlineExecutor() as executor:
            outcome = executor.submit(spec).result()
        assert [case["sparsity_threshold"] for case in outcome.params] == [0.2, 0.4]
        assert len(outcome.reports) == 2 and outcome.baseline is not None

    def test_invalid_sweep_grid_raises_at_submission(self):
        with InlineExecutor() as executor:
            with pytest.raises(ValueError, match="sweepable"):
                executor.submit(
                    SweepJobSpec(
                        base=sqdm_config(), grid={"warp_factor": [1]}, trace=make_trace()
                    )
                )

    def test_stats_count_submissions_and_failures(self, failing_backend):
        with InlineExecutor(cache=ReportCache()) as executor:
            executor.submit(simulate(6))
            executor.submit(simulate(7, backend=failing_backend))
            stats = executor.stats()
        assert stats["submitted"] == 2 and stats["failed"] == 1

    def test_rejects_non_specs(self):
        with pytest.raises(TypeError, match="not a job spec"):
            InlineExecutor().submit(object())


# -- the handle contract on every backend ------------------------------------------


class TestHandleContract:
    def test_map_runs_specs_in_order(self, executor):
        specs = [simulate(seed) for seed in (8, 9, 10)]
        handles = executor.map(specs)
        assert [h.result(timeout=30).total_cycles for h in handles] == [
            cycles(spec) for spec in specs
        ]

    def test_result_timeout_raises_while_queued(self, queueing, gated_backend):
        blocker = _park(queueing, gated_backend)
        spec = simulate(11)
        queued = queueing.submit(spec)
        with pytest.raises(TimeoutError, match="still running"):
            blocker.result(timeout=0.05)
        with pytest.raises(TimeoutError, match="still running"):
            queued.result(timeout=0.05)
        gated_backend.release.set()
        assert blocker.result(timeout=30).total_cycles == cycles(simulate(100))
        assert queued.result(timeout=30).total_cycles == cycles(spec)

    def test_failure_raises_job_failed_error_chained_to_cause(self, executor, failing_backend):
        handle = executor.submit(simulate(12, backend=failing_backend))
        with pytest.raises(JobFailedError, match="kaboom") as excinfo:
            handle.result(timeout=30)
        assert handle.status is JobStatus.FAILED and not handle.ok
        # Local backends chain the original exception; the remote one raises
        # its error as is, since exception types do not cross the wire.
        assert handle.error in (excinfo.value.__cause__, excinfo.value)

    def test_cancel_queued_job_wins_and_result_reports_it(self, queueing, gated_backend):
        _park(queueing, gated_backend)
        queued = queueing.submit(simulate(13))
        assert queued.cancel() is True
        assert queued.status is JobStatus.CANCELLED and queued.done
        with pytest.raises(JobFailedError, match="cancelled"):
            queued.result(timeout=30)
        assert queued.cancel() is False  # a second attempt cannot win again

    def test_cancel_running_job_is_false(self, queueing, gated_backend):
        running = _park(queueing, gated_backend)
        assert running.status is JobStatus.RUNNING
        assert running.cancel() is False
        gated_backend.release.set()
        assert running.result(timeout=30).total_cycles == cycles(simulate(100))
        assert running.cancel() is False  # finished work is never cancellable

    def test_add_done_callback_fires_once(self, executor):
        fired = threading.Event()
        seen = []
        spec = simulate(14)
        handle = executor.submit(spec)
        handle.add_done_callback(lambda h: (seen.append(h.result().total_cycles), fired.set()))
        assert fired.wait(30) and handle.wait(30)
        late = []
        handle.add_done_callback(lambda h: late.append(h.status))  # terminal: fires now
        assert seen == [cycles(spec)] and late == [JobStatus.DONE]

    def test_add_done_callback_swallows_observer_errors(self, executor):
        fired = threading.Event()

        def observer(handle):
            raise RuntimeError("observer")

        spec = simulate(15)
        handle = executor.submit(spec)
        handle.add_done_callback(observer)
        handle.add_done_callback(lambda h: fired.set())
        assert fired.wait(30)  # the raising callback stopped nothing
        assert handle.result(timeout=30).total_cycles == cycles(spec)

    def test_same_kind_on_every_backend(self, executor):
        """A handle's kind is the service's job kind, whichever backend ran it."""
        trace = make_trace(4)
        specs = {
            "simulation": SimulateJobSpec(config=sqdm_config(), trace=trace),
            "sweep": SweepJobSpec(
                base=sqdm_config(), grid={"sparsity_threshold": [0.3]}, trace=trace
            ),
        }
        handles = {kind: executor.submit(spec) for kind, spec in specs.items()}
        for handle in handles.values():
            handle.wait(60)
        assert {kind: handle.kind for kind, handle in handles.items()} == {
            kind: kind for kind in specs
        }


# -- EvaluationService as an executor ----------------------------------------------


class TestServiceExecutor:
    """The in-process service, submitted to directly as an `Executor`."""

    def test_owned_service_lifecycle_and_results(self):
        spec = simulate(16)
        with EvaluationService(cache=ReportCache(), max_workers=2) as service:
            handle = service.submit(spec)
            assert handle.result(timeout=30).total_cycles == cycles(spec)
            assert service.stats()["executor"] == "service"
            assert service.stats()["submitted"] == {"simulation": 1}
        assert service._closed  # the context manager shut the service down

    def test_borrowed_service_stays_open(self):
        """Code handed a service never closes it: an HTTP server over it
        closes, and the service keeps taking jobs."""
        with EvaluationService(cache=ReportCache(), max_workers=1) as service:
            start_http_server(service, port=0).close()
            assert not service._closed
            spec = simulate(28)
            assert service.submit(spec).result(timeout=30).total_cycles == cycles(spec)

    def test_result_timeout_and_failure_semantics(self, gated_backend, failing_backend):
        with EvaluationService(cache=ReportCache(), max_workers=1) as service:
            try:
                blocker = service.submit(simulate(17, backend=gated_backend.backend))
                assert gated_backend.started.wait(10)
                with pytest.raises(TimeoutError, match="still running"):
                    blocker.result(timeout=0.05)
                failing = service.submit(simulate(18, backend=failing_backend))
                gated_backend.release.set()
                assert blocker.result(timeout=30).total_cycles == cycles(simulate(17))
                with pytest.raises(JobFailedError, match="kaboom"):
                    failing.result(timeout=30)
            finally:
                gated_backend.release.set()

    def test_cancel_queued_job_wins(self, gated_backend):
        with EvaluationService(cache=ReportCache(), max_workers=1) as service:
            try:
                _park(service, gated_backend)
                queued = service.submit(simulate(19))
                assert queued.cancel() is True
                assert queued.status is JobStatus.CANCELLED
                with pytest.raises(JobFailedError, match="cancelled"):
                    queued.result(timeout=30)
                assert queued.cancel() is False  # second attempt cannot win again
                # Job.cancel() goes through the service like service.cancel(id).
                assert service.service_stats()["cancelled"] == 1
            finally:
                gated_backend.release.set()

    def test_cancel_retired_job_returns_false(self):
        with EvaluationService(cache=ReportCache(), max_workers=1, history_limit=0) as service:
            retired = service.submit(simulate(20))
            assert retired.result(timeout=30).total_cycles == cycles(simulate(20))
            service.submit(simulate(21)).result(timeout=30)
            with pytest.raises(KeyError):
                service.cancel(retired.id)  # gone from the service's history
            assert retired.cancel() is False
            assert service.service_stats()["cancelled"] == 0

    def test_add_done_callback_through_job(self):
        done = threading.Event()
        seen = []
        spec = simulate(22)
        with EvaluationService(cache=ReportCache(), max_workers=1) as service:
            handle = service.submit(spec)
            handle.add_done_callback(lambda h: (seen.append(h.result().total_cycles), done.set()))
            assert done.wait(10)
            assert seen == [cycles(spec)]
            # registering after completion fires immediately
            late = []
            handle.add_done_callback(lambda h: late.append(h.status))
            assert late == [JobStatus.DONE]

    def test_simulation_specs_share_the_service_scheduler(self):
        cache = ReportCache()
        trace = make_trace(3)
        with EvaluationService(cache=cache, max_workers=2) as service:
            handles = service.map(
                [
                    SimulateJobSpec(config=sqdm_config(), trace=trace),
                    SimulateJobSpec(config=sqdm_config(), trace=trace),
                ]
            )
            reports = [h.result(timeout=60) for h in handles]
        assert cache.stats.misses == 1  # coalesced/single-flight on the service
        assert reports[0].total_cycles == reports[1].total_cycles


# -- RemoteEvaluationClient as an executor -----------------------------------------


class TestRemoteExecutor:
    """The remote client, submitted to directly as an `Executor`."""

    def test_submit_and_result(self, client):
        spec = simulate(23)
        handle = client.submit(spec)
        assert handle.result(timeout=60).total_cycles == cycles(spec)
        assert handle.status is JobStatus.DONE and handle.ok

    def test_result_timeout_raises(self, client, gated_backend):
        blocker = _park(client, gated_backend)
        with pytest.raises(TimeoutError, match="still running"):
            blocker.result(timeout=0.05)
        gated_backend.release.set()
        assert blocker.result(timeout=60).total_cycles == cycles(simulate(100))

    def test_cancel_queued_job_wins(self, client, gated_backend):
        blocker = _park(client, gated_backend)  # the single worker is now parked
        queued = client.submit(simulate(24))
        assert queued.cancel() is True
        assert queued.status is JobStatus.CANCELLED
        with pytest.raises(JobFailedError, match="cancelled"):
            queued.result(timeout=60)
        gated_backend.release.set()
        assert blocker.result(timeout=60).total_cycles == cycles(simulate(100))
        assert blocker.cancel() is False  # already finished

    def test_failure_carries_server_message(self, client, failing_backend):
        handle = client.submit(simulate(25, backend=failing_backend))
        with pytest.raises(JobFailedError, match="kaboom"):
            handle.result(timeout=60)
        assert handle.status is JobStatus.FAILED

    def test_add_done_callback_via_watcher(self, client):
        done = threading.Event()
        seen = []
        spec = simulate(26)
        handle = client.submit(spec)
        handle.add_done_callback(lambda h: (seen.append(h.result().total_cycles), done.set()))
        assert done.wait(30)
        assert seen == [cycles(spec)]
        late = []
        handle.add_done_callback(lambda h: late.append(h.ok))
        assert late == [True]

    def test_client_as_executor_shares_transport(self, client, monkeypatch):
        """The client is the executor: its jobs poll through its own transport."""
        calls = []
        request = client._request

        def recording_request(method, path, *args, **kwargs):
            calls.append((method, path))
            return request(method, path, *args, **kwargs)

        monkeypatch.setattr(client, "_request", recording_request)
        spec = simulate(27)
        handle = client.submit(spec)
        assert handle.result(60).total_cycles == cycles(spec)
        assert calls[0] == ("POST", "/jobs")
        assert all(method == "GET" for method, _ in calls[1:]) and len(calls) >= 2

    def test_borrowed_client_not_closed_with_executor(self, client, monkeypatch, cifar_workload):
        """Code handed a client (here a pipeline's hardware evaluation) never
        closes it; the context manager is what closes one."""
        closed = []
        monkeypatch.setattr(client, "close", lambda: closed.append(True))
        pipeline = small_pipeline(cifar_workload)
        trace = pipeline.collect_trace(relu=True)
        remote = pipeline.evaluate_hardware(trace=trace, executor=client)
        assert remote.total_speedup == pipeline.evaluate_hardware(trace=trace).total_speedup
        assert closed == []  # borrowed: untouched
        with client:
            pass
        assert closed == [True]


# -- cross-backend bit-identity ----------------------------------------------------


class TestCrossBackendBitIdentity:
    def test_sweep_bit_identical_across_inline_service_remote(self, client):
        """Acceptance: the same sweep spec through InlineExecutor,
        EvaluationService and RemoteEvaluationClient yields bit-identical
        reports.

        Each backend gets an *independent* cache, so all three actually
        simulate; equality is asserted on the encoded wire bytes of every
        report, the strongest identity the schema layer can express.
        """
        trace = make_trace(9, steps=3)
        spec = SweepJobSpec(
            base=sqdm_config(),
            grid={"sparsity_threshold": [0.15, 0.45]},
            trace=trace,
            baseline=dense_baseline_config(),
            name="tri-backend",
        )

        outcomes = {}
        with InlineExecutor(cache=ReportCache()) as inline:
            outcomes["inline"] = inline.submit(spec).result()
        with EvaluationService(cache=ReportCache(), max_workers=2) as service:
            outcomes["service"] = service.submit(spec).result(timeout=120)
        outcomes["remote"] = client.submit(spec).result(timeout=120)

        def wire(outcome):
            return [codec.dumps(report) for report in outcome.reports] + [
                codec.dumps(outcome.baseline)
            ]

        reference = wire(outcomes["inline"])
        assert all(case_json for case_json in reference)
        assert wire(outcomes["service"]) == reference
        assert wire(outcomes["remote"]) == reference
        assert [c["sparsity_threshold"] for c in outcomes["remote"].params] == [0.15, 0.45]

    def test_evaluate_hardware_identical_through_service_executor(self, cifar_workload):
        pipeline = small_pipeline(cifar_workload)
        trace = pipeline.collect_trace(relu=True)
        default = pipeline.evaluate_hardware(trace=trace)
        with EvaluationService(cache=ReportCache(), max_workers=2) as service:
            routed = pipeline.evaluate_hardware(trace=trace, executor=service)
            assert not service._closed  # borrowed, so left open
        assert routed.sqdm_report.total_cycles == default.sqdm_report.total_cycles
        assert routed.total_speedup == default.total_speedup


# -- handle odds and ends ----------------------------------------------------------


class TestHandleBasics:
    def test_completed_handle_repr_and_done(self):
        handle = CompletedHandle("inline-0001", "lbl", "simulation", value=1)
        assert handle.done and handle.wait(0) and handle.error is None

    def test_executor_protocol_is_abstract(self):
        with pytest.raises(TypeError):
            Executor()  # submit() is abstract

    def test_job_kind_names(self):
        """Three specs are jobs, and nothing else is."""
        assert [kind.value for kind in JobKind] == ["simulation", "sweep", "sampling"]
        assert job_kind(SimulateJobSpec(config=sqdm_config(), trace=[])) is JobKind.SIMULATION
        sweep = SweepJobSpec(base=sqdm_config(), grid={"sparsity_threshold": [0.2]}, trace=[])
        assert job_kind(sweep) is JobKind.SWEEP
        assert job_kind(QualityJobSpec(workload="cifar10", scheme="INT8")) is JobKind.SAMPLING
        for not_a_spec in (sqdm_config(), {"kind": "dict"}, print):
            with pytest.raises(TypeError, match="not a job spec"):
                job_kind(not_a_spec)
