"""Tests for the unified execution API: Executor protocol + JobHandle futures.

`InlineExecutor`, `EvaluationService` and `RemoteEvaluationClient` are each
an `Executor`, and their handles (`CompletedHandle`, `Job`, `RemoteJob`) are
`JobHandle`s.  Covers the handle contract on every backend —
`result(timeout=)`, `cancel()`, callbacks, `kind` — run_sweep's executor
ownership, and one sweep driven through all three backends yielding
bit-identical `SimulationReport`s.
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
    LocalCallSpec,
    job_kind,
)
from repro.core.experiments import SweepSpec, run_sweep
from repro.core.report_cache import ReportCache
from repro.serve import (
    EvaluationService,
    RemoteEvaluationClient,
    SimulateJobSpec,
    SweepJobSpec,
    register_wire_function,
    start_http_server,
)
from repro.serve import service as service_module


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


def _square(x):
    return x * x


def _boom():
    raise RuntimeError("kaboom")


#: Event-rendezvous wire functions: the HTTP test server runs in-process, so
#: these module-level events synchronize remote jobs deterministically.
_BLOCK_STARTED = threading.Event()
_BLOCK_RELEASE = threading.Event()


def _blocking_job():
    _BLOCK_STARTED.set()
    assert _BLOCK_RELEASE.wait(30)
    return "released"


register_wire_function("exec_square", _square)
register_wire_function("exec_boom", _boom)
register_wire_function("exec_block", _blocking_job)


@pytest.fixture(autouse=True)
def _reset_block_events():
    _BLOCK_STARTED.clear()
    _BLOCK_RELEASE.clear()
    yield
    _BLOCK_RELEASE.set()  # never leave a worker parked


@contextlib.contextmanager
def open_backend(name: str):
    """One executor per backend; the queueing ones run one job at a time."""
    if name == "inline":
        yield InlineExecutor(cache=ReportCache())
        return
    service = EvaluationService(cache=ReportCache(), max_workers=1)
    server = start_http_server(service, port=0) if name == "remote" else None
    try:
        yield service if server is None else RemoteEvaluationClient(server.endpoint)
    finally:
        _BLOCK_RELEASE.set()  # a parked job would stall the shutdown below
        if server is not None:
            server.close()
        service.close(cancel_queued=True)


@pytest.fixture()
def client():
    """A client of a live HTTP server that has its own cache and one worker."""
    with open_backend("remote") as client:
        yield client


@pytest.fixture(params=["inline", "service", "remote"])
def executor(request):
    with open_backend(request.param) as executor:
        yield executor


@pytest.fixture(params=["service", "remote"])
def queueing(request):
    """The backends that queue work, so a job can still be waiting or running."""
    with open_backend(request.param) as executor:
        yield executor


def _park(executor):
    """Occupy the backend's single worker; returns the running handle."""
    blocker = executor.submit(LocalCallSpec(fn="exec_block"))
    assert _BLOCK_STARTED.wait(10)
    return blocker


# -- InlineExecutor ----------------------------------------------------------------


class TestInlineExecutor:
    def test_submit_returns_completed_handle(self):
        with InlineExecutor() as executor:
            handle = executor.submit(LocalCallSpec(fn=_square, kwargs={"x": 7}))
        assert handle.done and handle.ok
        assert handle.status is JobStatus.DONE
        assert handle.result() == 49
        assert handle.result(timeout=0.001) == 49  # timeout is moot when done

    def test_work_failure_captured_on_handle(self):
        with InlineExecutor() as executor:
            handle = executor.submit(LocalCallSpec(fn=_boom))
        assert handle.status is JobStatus.FAILED and not handle.ok
        assert isinstance(handle.error, RuntimeError)
        with pytest.raises(JobFailedError, match="kaboom") as excinfo:
            handle.result()
        assert excinfo.value.__cause__ is handle.error

    def test_cancel_is_always_false(self):
        """Inline work runs at submission; there is never anything to prevent."""
        with InlineExecutor() as executor:
            handle = executor.submit(LocalCallSpec(fn=_square, kwargs={"x": 2}))
        assert handle.cancel() is False
        assert handle.status is JobStatus.DONE  # cancel() never corrupts a result

    def test_add_done_callback_fires_immediately(self):
        seen = []
        with InlineExecutor() as executor:
            handle = executor.submit(LocalCallSpec(fn=_square, kwargs={"x": 3}))
            handle.add_done_callback(lambda h: seen.append(h.result()))
        assert seen == [9]

    def test_add_done_callback_swallows_observer_errors_like_other_backends(self):
        with InlineExecutor() as executor:
            handle = executor.submit(LocalCallSpec(fn=_square, kwargs={"x": 3}))
            handle.add_done_callback(lambda h: (_ for _ in ()).throw(RuntimeError("observer")))
        assert handle.result() == 9  # the raising callback never escaped

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

    def test_wire_function_name_resolves_locally(self):
        with InlineExecutor() as executor:
            assert executor.submit(LocalCallSpec(fn="exec_square", kwargs={"x": 6})).result() == 36

    def test_unknown_wire_name_raises_at_submission(self):
        """Parity with the queueing backends: a bad name is a submit error,
        not a deferred handle failure."""
        with InlineExecutor() as executor:
            with pytest.raises(ValueError, match="unknown wire function"):
                executor.submit(LocalCallSpec(fn="no_such_wire_fn"))

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

    def test_stats_count_submissions_and_failures(self):
        with InlineExecutor() as executor:
            executor.submit(LocalCallSpec(fn=_square, kwargs={"x": 1}))
            executor.submit(LocalCallSpec(fn=_boom))
            stats = executor.stats()
        assert stats["submitted"] == 2 and stats["failed"] == 1

    def test_rejects_non_specs(self):
        with pytest.raises(TypeError, match="not a job spec"):
            InlineExecutor().submit(object())


# -- the handle contract on every backend ------------------------------------------


class TestHandleContract:
    def test_map_runs_specs_in_order(self, executor):
        handles = executor.map(
            [LocalCallSpec(fn="exec_square", kwargs={"x": x}) for x in (2, 3, 4)]
        )
        assert [h.result(timeout=30) for h in handles] == [4, 9, 16]

    def test_result_timeout_raises_while_queued(self, queueing):
        blocker = _park(queueing)
        queued = queueing.submit(LocalCallSpec(fn="exec_square", kwargs={"x": 5}))
        with pytest.raises(TimeoutError, match="still running"):
            blocker.result(timeout=0.05)
        with pytest.raises(TimeoutError, match="still running"):
            queued.result(timeout=0.05)
        _BLOCK_RELEASE.set()
        assert blocker.result(timeout=30) == "released"
        assert queued.result(timeout=30) == 25

    def test_failure_raises_job_failed_error_chained_to_cause(self, executor):
        handle = executor.submit(LocalCallSpec(fn="exec_boom"))
        with pytest.raises(JobFailedError, match="kaboom") as excinfo:
            handle.result(timeout=30)
        assert handle.status is JobStatus.FAILED and not handle.ok
        # Local backends chain the original exception; the remote one raises
        # its error as is, since exception types do not cross the wire.
        assert handle.error in (excinfo.value.__cause__, excinfo.value)

    def test_cancel_queued_job_wins_and_result_reports_it(self, queueing):
        _park(queueing)
        queued = queueing.submit(LocalCallSpec(fn="exec_square", kwargs={"x": 5}))
        assert queued.cancel() is True
        assert queued.status is JobStatus.CANCELLED and queued.done
        with pytest.raises(JobFailedError, match="cancelled"):
            queued.result(timeout=30)
        assert queued.cancel() is False  # a second attempt cannot win again

    def test_cancel_running_job_is_false(self, queueing):
        running = _park(queueing)
        assert running.status is JobStatus.RUNNING
        assert running.cancel() is False
        _BLOCK_RELEASE.set()
        assert running.result(timeout=30) == "released"
        assert running.cancel() is False  # finished work is never cancellable

    def test_add_done_callback_fires_once(self, executor):
        fired = threading.Event()
        seen = []
        handle = executor.submit(LocalCallSpec(fn="exec_square", kwargs={"x": 8}))
        handle.add_done_callback(lambda h: (seen.append(h.result()), fired.set()))
        assert fired.wait(30) and handle.wait(30)
        late = []
        handle.add_done_callback(lambda h: late.append(h.status))  # terminal: fires now
        assert seen == [64] and late == [JobStatus.DONE]

    def test_add_done_callback_swallows_observer_errors(self, executor):
        fired = threading.Event()

        def observer(handle):
            raise RuntimeError("observer")

        handle = executor.submit(LocalCallSpec(fn="exec_square", kwargs={"x": 3}))
        handle.add_done_callback(observer)
        handle.add_done_callback(lambda h: fired.set())
        assert fired.wait(30)  # the raising callback stopped nothing
        assert handle.result(timeout=30) == 9

    def test_same_kind_on_every_backend(self, executor):
        """A handle's kind is the service's job kind, whichever backend ran it."""
        trace = make_trace(4)
        specs = {
            "simulation": SimulateJobSpec(config=sqdm_config(), trace=trace),
            "sweep": SweepJobSpec(
                base=sqdm_config(), grid={"sparsity_threshold": [0.3]}, trace=trace
            ),
            "callable": LocalCallSpec(fn="exec_square", kwargs={"x": 2}),
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
        with EvaluationService(max_workers=2) as service:
            handle = service.submit(LocalCallSpec(fn=_square, kwargs={"x": 12}))
            assert handle.result(timeout=30) == 144
            assert service.stats()["executor"] == "service"
            assert service.stats()["submitted"] == {"callable": 1}
        assert service._closed  # the context manager shut the service down

    def test_borrowed_service_stays_open(self):
        with EvaluationService(max_workers=1) as service:
            assert run_sweep(_square, {"x": [2]}, executor=service).values() == [4]
            assert not service._closed  # run_sweep never closes a borrowed executor
            assert service.submit(LocalCallSpec(fn=_square, args=(3,))).result(30) == 9

    def test_result_timeout_and_failure_semantics(self):
        release = threading.Event()
        try:
            with EvaluationService(max_workers=1) as service:
                blocker = service.submit(LocalCallSpec(fn=release.wait, args=(30,)))
                with pytest.raises(TimeoutError, match="still running"):
                    blocker.result(timeout=0.05)
                failing = service.submit(LocalCallSpec(fn=_boom))
                release.set()
                assert blocker.result(timeout=30) is True
                with pytest.raises(JobFailedError, match="kaboom"):
                    failing.result(timeout=30)
        finally:
            release.set()

    def test_cancel_queued_job_wins(self):
        release = threading.Event()
        try:
            with EvaluationService(max_workers=1) as service:
                service.submit(LocalCallSpec(fn=release.wait, args=(30,)))
                queued = service.submit(LocalCallSpec(fn=_square, kwargs={"x": 5}))
                assert queued.cancel() is True
                assert queued.status is JobStatus.CANCELLED
                with pytest.raises(JobFailedError, match="cancelled"):
                    queued.result(timeout=30)
                assert queued.cancel() is False  # second attempt cannot win again
                # Job.cancel() goes through the service like service.cancel(id).
                assert service.service_stats()["cancelled"] == 1
                release.set()
        finally:
            release.set()

    def test_cancel_retired_job_returns_false(self):
        with EvaluationService(max_workers=1, history_limit=0) as service:
            retired = service.submit(LocalCallSpec(fn=_square, kwargs={"x": 2}))
            assert retired.result(timeout=30) == 4
            service.submit(LocalCallSpec(fn=_square, kwargs={"x": 3})).result(timeout=30)
            with pytest.raises(KeyError):
                service.cancel(retired.id)  # gone from the service's history
            assert retired.cancel() is False
            assert service.service_stats()["cancelled"] == 0

    def test_add_done_callback_through_job(self):
        done = threading.Event()
        seen = []
        with EvaluationService(max_workers=1) as service:
            handle = service.submit(LocalCallSpec(fn=_square, kwargs={"x": 4}))
            handle.add_done_callback(lambda h: (seen.append(h.result()), done.set()))
            assert done.wait(10)
            assert seen == [16]
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
        handle = client.submit(LocalCallSpec(fn="exec_square", kwargs={"x": 11}))
        assert handle.result(timeout=60) == 121
        assert handle.status is JobStatus.DONE and handle.ok

    def test_live_callables_must_be_wire_registered(self, client):
        with pytest.raises(ValueError, match="register_wire_function"):
            client.submit(LocalCallSpec(fn=lambda: 1))
        assert client.submit(LocalCallSpec(fn=_square, kwargs={"x": 5})).result(60) == 25

    def test_result_timeout_raises(self, client):
        blocker = client.submit(LocalCallSpec(fn="exec_block"))
        assert _BLOCK_STARTED.wait(10)
        with pytest.raises(TimeoutError, match="still running"):
            blocker.result(timeout=0.05)
        _BLOCK_RELEASE.set()
        assert blocker.result(timeout=60) == "released"

    def test_cancel_queued_job_wins(self, client):
        blocker = client.submit(LocalCallSpec(fn="exec_block"))
        assert _BLOCK_STARTED.wait(10)  # the single worker is now parked
        queued = client.submit(LocalCallSpec(fn="exec_square", kwargs={"x": 3}))
        assert queued.cancel() is True
        assert queued.status is JobStatus.CANCELLED
        with pytest.raises(JobFailedError, match="cancelled"):
            queued.result(timeout=60)
        _BLOCK_RELEASE.set()
        assert blocker.result(timeout=60) == "released"
        assert blocker.cancel() is False  # already finished

    def test_failure_carries_server_message(self, client):
        handle = client.submit(LocalCallSpec(fn="exec_boom"))
        with pytest.raises(JobFailedError, match="kaboom"):
            handle.result(timeout=60)
        assert handle.status is JobStatus.FAILED

    def test_add_done_callback_via_watcher(self, client):
        done = threading.Event()
        seen = []
        handle = client.submit(LocalCallSpec(fn="exec_square", kwargs={"x": 7}))
        handle.add_done_callback(lambda h: (seen.append(h.result()), done.set()))
        assert done.wait(30)
        assert seen == [49]
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
        handle = client.submit(LocalCallSpec(fn="exec_square", kwargs={"x": 2}))
        assert handle.result(60) == 4
        assert calls[0] == ("POST", "/jobs")
        assert all(method == "GET" for method, _ in calls[1:]) and len(calls) >= 2

    def test_borrowed_client_not_closed_with_executor(self, client, monkeypatch):
        """run_sweep borrows a client it is handed and never closes it; the
        context manager is what closes one."""
        closed = []
        monkeypatch.setattr(client, "close", lambda: closed.append(True))
        assert run_sweep("exec_square", {"x": [2]}, executor=client).values() == [4]
        assert closed == []  # borrowed: untouched
        with client:
            pass
        assert closed == [True]


# -- run_sweep over the executors --------------------------------------------------


class TestRunSweepExecutors:
    def test_executor_instance_is_borrowed_not_closed(self):
        with EvaluationService(max_workers=2) as executor:
            first = run_sweep(_square, {"x": [1, 2]}, executor=executor)
            second = run_sweep(_square, {"x": [3]}, executor=executor)
        assert first.values() == [1, 4] and second.values() == [9]

    def test_default_executor_is_an_owned_service_closed_after(self, monkeypatch):
        built = []

        class RecordingService(EvaluationService):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(service_module, "EvaluationService", RecordingService)
        result = run_sweep(_square, {"x": [1, 2, 3]}, max_workers=3)
        assert result.values() == [1, 4, 9]
        assert len(built) == 1 and built[0]._closed
        assert built[0].stats()["submitted"] == {"callable": 3}

    def test_inline_instance_runs_sweep(self):
        result = run_sweep(
            lambda a, b: a * 10 + b,
            SweepSpec(name="s", grid={"a": [1, 2], "b": [3, 4]}),
            executor=InlineExecutor(),
        )
        assert result.values() == [13, 14, 23, 24]

    def test_inline_raise_mode_stops_at_first_failure(self):
        """The historical serial contract: on_error='raise' must not run the
        rest of the grid once a case fails."""
        ran = []

        def flaky(i):
            ran.append(i)
            if i == 1:
                raise RuntimeError("stop here")
            return i

        with pytest.raises(RuntimeError, match="stop here"):
            run_sweep(flaky, {"i": [0, 1, 2, 3]}, executor=InlineExecutor())
        assert ran == [0, 1]  # cases 2 and 3 never executed

    def test_non_executor_object_rejected_with_guidance(self):
        """A non-executor must not surface as a bare AttributeError deep
        inside map(); the error names what to pass instead."""
        with pytest.raises(TypeError, match="EvaluationService"):
            run_sweep(_square, {"x": [1]}, executor=object())

    def test_capture_mode_records_handle_errors(self):
        def flaky(i):
            if i == 1:
                raise RuntimeError("nope")
            return i

        with EvaluationService(max_workers=2) as executor:
            result = run_sweep(
                flaky, {"i": [0, 1, 2]}, executor=executor, on_error="capture"
            )
        assert [case.ok for case in result.cases] == [True, False, True]
        assert "nope" in str(result.cases[1].error)


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
        from repro.core.pipeline import PipelineConfig, SQDMPipeline

        pipeline = SQDMPipeline(
            workload=cifar_workload,
            config=PipelineConfig(
                num_sampling_steps=2, num_trace_samples=1, num_reference_samples=8
            ),
            artifacts=None,
            report_cache=ReportCache(),
        )
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
        handle = CompletedHandle("inline-0001", "lbl", "callable", value=1)
        assert handle.done and handle.wait(0) and handle.error is None

    def test_executor_protocol_is_abstract(self):
        with pytest.raises(TypeError):
            Executor()  # submit() is abstract

    def test_job_kind_names(self):
        assert job_kind(LocalCallSpec(fn=_square)) is JobKind.CALLABLE
        assert job_kind(SimulateJobSpec(config=sqdm_config(), trace=[])) is JobKind.SIMULATION
        with pytest.raises(TypeError, match="not a job spec"):
            job_kind(sqdm_config())
