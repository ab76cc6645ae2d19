"""Tests for the unified execution API: Executor protocol + JobHandle futures.

Covers the acceptance contract of the redesign: `JobHandle.cancel()` /
`result(timeout=)` semantics on every backend, the executor registry, and
one sweep driven through `InlineExecutor`, `ServiceExecutor` and
`RemoteExecutor` yielding bit-identical `SimulationReport`s.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.accelerator import dense_baseline_config, random_workload, sqdm_config
from repro.core import codec
from repro.core.execution import (
    LOCAL_SPEC_KINDS,
    CompletedHandle,
    Executor,
    InlineExecutor,
    JobFailedError,
    JobStatus,
    LocalCallSpec,
    PoolExecutor,
    RemoteExecutor,
    ServiceExecutor,
    executor_names,
    register_executor,
    resolve_executor,
    spec_kind,
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


@pytest.fixture()
def remote(tmp_path):
    """A live HTTP server with its own cache, plus a RemoteExecutor on it."""
    service = EvaluationService(cache=ReportCache(), max_workers=1)
    server = start_http_server(service, port=0)
    executor = RemoteExecutor(endpoint=server.endpoint)
    try:
        yield executor, service, server
    finally:
        executor.close()
        server.close()
        service.close(cancel_queued=True)


@pytest.fixture(autouse=True)
def _reset_block_events():
    _BLOCK_STARTED.clear()
    _BLOCK_RELEASE.clear()
    yield
    _BLOCK_RELEASE.set()  # never leave a worker parked


# -- InlineExecutor ----------------------------------------------------------------


class TestInlineExecutor:
    def test_submit_returns_completed_handle(self):
        with InlineExecutor() as executor:
            handle = executor.submit(LocalCallSpec(fn=_square, kwargs={"x": 7}))
        assert handle.done() and handle.ok
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

    def test_capabilities_include_local_call(self):
        assert InlineExecutor().capabilities() == LOCAL_SPEC_KINDS

    def test_stats_count_submissions_and_failures(self):
        with InlineExecutor() as executor:
            executor.submit(LocalCallSpec(fn=_square, kwargs={"x": 1}))
            executor.submit(LocalCallSpec(fn=_boom))
            stats = executor.stats()
        assert stats["submitted"] == 2 and stats["failed"] == 1

    def test_rejects_non_specs(self):
        with pytest.raises(TypeError, match="not a job spec"):
            InlineExecutor().submit(object())


# -- PoolExecutor ------------------------------------------------------------------


class TestPoolExecutor:
    def test_thread_pool_runs_specs(self):
        with PoolExecutor("thread", max_workers=2) as executor:
            handles = executor.map(
                [LocalCallSpec(fn=_square, kwargs={"x": x}) for x in (2, 3, 4)]
            )
            assert [h.result(timeout=30) for h in handles] == [4, 9, 16]

    def test_result_timeout_raises_while_queued(self):
        release = threading.Event()
        try:
            with PoolExecutor("thread", max_workers=1) as executor:
                blocker = executor.submit(LocalCallSpec(fn=release.wait, args=(30,)))
                with pytest.raises(TimeoutError, match="still running"):
                    blocker.result(timeout=0.05)
                release.set()
                assert blocker.result(timeout=30) is True
        finally:
            release.set()

    def test_cancel_queued_job_wins_and_result_reports_it(self):
        release = threading.Event()
        try:
            with PoolExecutor("thread", max_workers=1) as executor:
                executor.submit(LocalCallSpec(fn=release.wait, args=(30,)))
                queued = executor.submit(LocalCallSpec(fn=_square, kwargs={"x": 5}))
                assert queued.cancel() is True
                assert queued.status is JobStatus.CANCELLED and queued.done()
                with pytest.raises(JobFailedError, match="cancelled"):
                    queued.result()
                release.set()
        finally:
            release.set()

    def test_cancel_running_job_is_false(self):
        release = threading.Event()
        try:
            with PoolExecutor("thread", max_workers=1) as executor:
                running = executor.submit(LocalCallSpec(fn=release.wait, args=(30,)))
                deadline = time.monotonic() + 10
                while running.status is not JobStatus.RUNNING:
                    assert time.monotonic() < deadline
                    time.sleep(0.005)
                assert running.cancel() is False
                release.set()
                assert running.result(timeout=30) is True
        finally:
            release.set()

    def test_add_done_callback_fires_on_completion(self):
        done = threading.Event()
        seen = []
        with PoolExecutor("thread", max_workers=1) as executor:
            handle = executor.submit(LocalCallSpec(fn=_square, kwargs={"x": 8}))
            handle.add_done_callback(lambda h: (seen.append(h.result()), done.set()))
            assert done.wait(10)
        assert seen == [64]

    def test_process_pool_requires_picklable_specs(self):
        captured = []
        with PoolExecutor("process", max_workers=1) as executor:
            with pytest.raises(ValueError, match="picklable"):
                executor.submit(LocalCallSpec(fn=lambda: captured.append(1)))

    def test_process_pool_runs_module_level_functions(self):
        with PoolExecutor("process", max_workers=1) as executor:
            assert executor.submit(LocalCallSpec(fn=_square, kwargs={"x": 9})).result(60) == 81


# -- ServiceExecutor ---------------------------------------------------------------


class TestServiceExecutor:
    def test_owned_service_lifecycle_and_results(self):
        with ServiceExecutor(max_workers=2) as executor:
            handle = executor.submit(LocalCallSpec(fn=_square, kwargs={"x": 12}))
            assert handle.result(timeout=30) == 144
            assert executor.stats()["submitted"] == {"callable": 1}
        assert executor.service._closed  # owned service shut down with the executor

    def test_borrowed_service_stays_open(self):
        with EvaluationService(max_workers=1) as service:
            executor = service.as_executor()
            assert executor.submit(LocalCallSpec(fn=_square, kwargs={"x": 2})).result(30) == 4
            executor.close()
            assert not service._closed
            # still usable after the borrowing executor went away
            assert service.submit(_square, 3).result(30) == 9

    def test_result_timeout_and_failure_semantics(self):
        release = threading.Event()
        try:
            with ServiceExecutor(max_workers=1) as executor:
                blocker = executor.submit(LocalCallSpec(fn=release.wait, args=(30,)))
                with pytest.raises(TimeoutError, match="still running"):
                    blocker.result(timeout=0.05)
                failing = executor.submit(LocalCallSpec(fn=_boom))
                release.set()
                assert blocker.result(timeout=30) is True
                with pytest.raises(JobFailedError, match="kaboom"):
                    failing.result(timeout=30)
        finally:
            release.set()

    def test_cancel_queued_job_wins(self):
        release = threading.Event()
        try:
            with ServiceExecutor(max_workers=1) as executor:
                executor.submit(LocalCallSpec(fn=release.wait, args=(30,)))
                queued = executor.submit(LocalCallSpec(fn=_square, kwargs={"x": 5}))
                assert queued.cancel() is True
                assert queued.status is JobStatus.CANCELLED
                with pytest.raises(JobFailedError, match="cancelled"):
                    queued.result(timeout=30)
                assert queued.cancel() is False  # second attempt cannot win again
                release.set()
        finally:
            release.set()

    def test_add_done_callback_through_job(self):
        done = threading.Event()
        seen = []
        with ServiceExecutor(max_workers=1) as executor:
            handle = executor.submit(LocalCallSpec(fn=_square, kwargs={"x": 4}))
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
        with ServiceExecutor(cache=cache, max_workers=2) as executor:
            handles = executor.map(
                [
                    SimulateJobSpec(config=sqdm_config(), trace=trace),
                    SimulateJobSpec(config=sqdm_config(), trace=trace),
                ]
            )
            reports = [h.result(timeout=60) for h in handles]
        assert cache.stats.misses == 1  # coalesced/single-flight on the service
        assert reports[0].total_cycles == reports[1].total_cycles


# -- RemoteExecutor ----------------------------------------------------------------


class TestRemoteExecutor:
    def test_needs_endpoint_or_client(self):
        with pytest.raises(ValueError, match="endpoint"):
            RemoteExecutor()

    def test_submit_and_result(self, remote):
        executor, _, _ = remote
        handle = executor.submit(LocalCallSpec(fn="exec_square", kwargs={"x": 11}))
        assert handle.result(timeout=60) == 121
        assert handle.status is JobStatus.DONE and handle.ok

    def test_live_callables_must_be_wire_registered(self, remote):
        executor, _, _ = remote
        with pytest.raises(ValueError, match="register_wire_function"):
            executor.submit(LocalCallSpec(fn=lambda: 1))
        assert executor.submit(LocalCallSpec(fn=_square, kwargs={"x": 5})).result(60) == 25

    def test_result_timeout_raises(self, remote):
        executor, _, _ = remote
        blocker = executor.submit(LocalCallSpec(fn="exec_block"))
        assert _BLOCK_STARTED.wait(10)
        with pytest.raises(TimeoutError, match="still running"):
            blocker.result(timeout=0.05)
        _BLOCK_RELEASE.set()
        assert blocker.result(timeout=60) == "released"

    def test_cancel_queued_job_wins(self, remote):
        executor, _, _ = remote
        blocker = executor.submit(LocalCallSpec(fn="exec_block"))
        assert _BLOCK_STARTED.wait(10)  # the single worker is now parked
        queued = executor.submit(LocalCallSpec(fn="exec_square", kwargs={"x": 3}))
        assert queued.cancel() is True
        assert queued.status is JobStatus.CANCELLED
        with pytest.raises(JobFailedError, match="cancelled"):
            queued.result(timeout=60)
        _BLOCK_RELEASE.set()
        assert blocker.result(timeout=60) == "released"
        assert blocker.cancel() is False  # already finished

    def test_failure_carries_server_message(self, remote):
        executor, _, _ = remote
        handle = executor.submit(LocalCallSpec(fn="exec_boom"))
        with pytest.raises(JobFailedError, match="kaboom"):
            handle.result(timeout=60)
        assert handle.status is JobStatus.FAILED

    def test_add_done_callback_via_watcher(self, remote):
        executor, _, _ = remote
        done = threading.Event()
        seen = []
        handle = executor.submit(LocalCallSpec(fn="exec_square", kwargs={"x": 7}))
        handle.add_done_callback(lambda h: (seen.append(h.result()), done.set()))
        assert done.wait(30)
        assert seen == [49]
        late = []
        handle.add_done_callback(lambda h: late.append(h.ok))
        assert late == [True]

    def test_capabilities_discovered_from_schemas_endpoint(self, remote):
        executor, _, _ = remote
        assert executor.capabilities() == frozenset(
            {"simulate_spec", "sweep_spec", "quality_spec", "callable_spec"}
        )

    def test_client_as_executor_shares_transport(self, remote):
        _, _, server = remote
        client = RemoteEvaluationClient(server.endpoint)
        executor = client.as_executor()
        assert executor.client is client
        assert executor.submit(LocalCallSpec(fn="exec_square", kwargs={"x": 2})).result(60) == 4

    def test_borrowed_client_not_closed_with_executor(self, remote, monkeypatch):
        """Parity with ServiceExecutor: a passed-in client is borrowed, so
        executor.close() must not tear it down."""
        _, _, server = remote
        client = RemoteEvaluationClient(server.endpoint)
        closed = []
        monkeypatch.setattr(client, "close", lambda: closed.append(True))
        with client.as_executor() as executor:
            assert executor._owned is False
        assert closed == []  # borrowed: untouched
        owned = RemoteExecutor(endpoint=server.endpoint)
        monkeypatch.setattr(owned.client, "close", lambda: closed.append(True))
        owned.close()
        assert closed == [True]  # owned: closed with the executor


# -- registry ----------------------------------------------------------------------


class TestExecutorRegistry:
    def test_builtins_registered(self):
        assert {"inline", "thread", "process", "service", "remote"} <= set(executor_names())
        assert "serial" not in executor_names()

    def test_unknown_name_rejected_with_alternatives(self):
        with pytest.raises(ValueError, match="registered executors"):
            resolve_executor("warp_drive")

    def test_third_party_backend_registers_and_resolves(self):
        class RecordingExecutor(InlineExecutor):
            created_with: dict = {}

        def factory(**options):
            RecordingExecutor.created_with = options
            return RecordingExecutor(cache=options.get("cache"))

        register_executor("recording", factory)
        try:
            with resolve_executor("recording", max_workers=3) as executor:
                assert isinstance(executor, RecordingExecutor)
                assert RecordingExecutor.created_with["max_workers"] == 3
                assert executor.submit(LocalCallSpec(fn=_square, kwargs={"x": 2})).result() == 4
                # run_sweep takes the resolved instance
                result = run_sweep(_square, {"x": [2, 3]}, executor=executor)
            assert result.values() == [4, 9]
        finally:
            from repro.core.execution import _EXECUTOR_FACTORIES

            _EXECUTOR_FACTORIES.pop("recording", None)

    def test_spec_kind_names(self):
        assert spec_kind(LocalCallSpec(fn=_square)) == "local_call"
        assert spec_kind(SimulateJobSpec(config=sqdm_config(), trace=[])) == "simulate_spec"


# -- run_sweep over the new surface ------------------------------------------------


class TestRunSweepExecutors:
    def test_executor_instance_is_borrowed_not_closed(self):
        with PoolExecutor("thread", max_workers=2) as executor:
            first = run_sweep(_square, {"x": [1, 2]}, executor=executor)
            second = run_sweep(_square, {"x": [3]}, executor=executor)
        assert first.values() == [1, 4] and second.values() == [9]

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
        """Passing the old service= style object as executor= must not surface
        as a bare AttributeError deep inside map()."""
        with EvaluationService(max_workers=1) as service:
            with pytest.raises(TypeError, match="as_executor"):
                run_sweep(_square, {"x": [1]}, executor=service)

    def test_capture_mode_records_handle_errors(self):
        def flaky(i):
            if i == 1:
                raise RuntimeError("nope")
            return i

        with ServiceExecutor(max_workers=2) as executor:
            result = run_sweep(
                flaky, {"i": [0, 1, 2]}, executor=executor, on_error="capture"
            )
        assert [case.ok for case in result.cases] == [True, False, True]
        assert "nope" in str(result.cases[1].error)


# -- cross-backend bit-identity ----------------------------------------------------


class TestCrossBackendBitIdentity:
    def test_sweep_bit_identical_across_inline_service_remote(self, remote):
        """Acceptance: the same sweep spec through InlineExecutor,
        ServiceExecutor and RemoteExecutor yields bit-identical reports.

        Each backend gets an *independent* cache, so all three actually
        simulate; equality is asserted on the encoded wire bytes of every
        report, the strongest identity the schema layer can express.
        """
        remote_executor, _, _ = remote
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
        with ServiceExecutor(cache=ReportCache(), max_workers=2) as service:
            outcomes["service"] = service.submit(spec).result(timeout=120)
        outcomes["remote"] = remote_executor.submit(spec).result(timeout=120)

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
        with ServiceExecutor(cache=ReportCache(), max_workers=2) as executor:
            routed = pipeline.evaluate_hardware(trace=trace, executor=executor)
        assert routed.sqdm_report.total_cycles == default.sqdm_report.total_cycles
        assert routed.total_speedup == default.total_speedup


# -- handle odds and ends ----------------------------------------------------------


class TestHandleBasics:
    def test_completed_handle_repr_and_done(self):
        handle = CompletedHandle("inline-0001", "lbl", "local_call", value=1)
        assert handle.done() and handle.wait(0) and handle.error is None

    def test_executor_protocol_is_abstract(self):
        with pytest.raises(TypeError):
            Executor()  # submit() is abstract
