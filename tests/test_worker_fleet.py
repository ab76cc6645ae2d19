"""Lease/heartbeat liveness tests for the pull-based worker fleet.

The edge cases that make a lease protocol honest: heartbeats renew under
load, an expired lease requeues exactly once, a completion arriving after
expiry is rejected (no duplicate results), cancel-while-claimed resolves to
one winner, and a restarted worker re-registering under its old name
reclaims nothing but strands nothing either.
"""

import dataclasses
import threading
import time

import pytest

from repro.accelerator.backends import vectorized
from repro.accelerator.config import AcceleratorConfig
from repro.core import codec
from repro.core.columnar import ColumnarReportBatch, ensure_report
from repro.core.execution import InlineExecutor, JobStatus
from repro.core.report_cache import ReportCache
from repro.core.telemetry import Trace
from repro.serve import (
    EvaluationService,
    RemoteEvaluationClient,
    RemoteServiceError,
    WorkerFleet,
    WorkerPoolExecutor,
    WorkerRuntime,
    start_http_server,
)
from repro.serve.fleet import MAX_LEASE_SECONDS, MIN_LEASE_SECONDS
from repro.serve.scheduler import run_batched
from repro.serve.specs import SimulateJobSpec, SweepJobSpec

from test_http_serve import _raw_request


class RecordingSink:
    """Stands in for the service's request sink: counts claims, records
    deliveries, and carries the trace the fleet marks leases on."""

    def __init__(self, live: bool = True):
        self.live = live
        self.claims = 0
        self.delivered: list = []
        self.failures: list = []
        self.trace = Trace("recording-sink")

    def claim(self) -> bool:
        self.claims += 1
        return self.live

    def deliver(self, report) -> None:
        self.delivered.append(report)

    def fail(self, error) -> None:
        self.failures.append(error)


class DeliveryLog:
    """A fleet ``deliver`` hook that records every completion."""

    def __init__(self):
        self.completions: list = []
        self.errors: list = []
        self.event = threading.Event()

    def __call__(self, sinks, requests, reports=None, error=None):
        if error is not None:
            self.errors.append((sinks, requests, error))
        else:
            self.completions.append((sinks, requests, reports))
        self.event.set()


@pytest.fixture()
def request_factory(synthetic_trace):
    def make(threshold: float) -> SimulateJobSpec:
        config = AcceleratorConfig(name="fleet-test", sparsity_threshold=threshold)
        return SimulateJobSpec(config=config, trace=synthetic_trace)

    return make


def tagged_result(tag: str) -> ColumnarReportBatch:
    """A valid completion for one request: a one-trace report batch, told
    apart from others by its config name."""
    return vectorized.run_config_traces_columnar([(AcceleratorConfig(name=tag), [[]])])


def make_fleet(**kwargs) -> WorkerFleet:
    kwargs.setdefault("lease_seconds", 0.3)
    return WorkerFleet(**kwargs)


def wait_until(predicate, timeout: float = 10.0, message: str = "condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    raise AssertionError(f"timed out waiting for {message}")


# -- fleet unit tests ---------------------------------------------------------------


class TestLeaseLifecycle:
    def test_claim_complete_roundtrip(self, request_factory):
        log = DeliveryLog()
        fleet = make_fleet(deliver=log)
        try:
            sink = RecordingSink()
            request = request_factory(0.5)
            fleet.offer([sink], [request])
            worker = fleet.register("w1")
            tasks = fleet.claim(worker.id)
            assert len(tasks) == 1
            payload = tasks[0]
            assert payload["attempts"] == 0
            # The payload carries typed simulate_spec envelopes the codec
            # round-trips; attempting to decode proves the wire contract.
            spec = codec.decode(payload["specs"][0])
            assert spec.config.sparsity_threshold == 0.5
            result = tagged_result("r0")
            assert fleet.complete(worker.id, payload["id"], reports=[result])
            assert log.completions == [([sink], [request], [result])]
            assert fleet.tasks_completed == 1
            assert sink.claims == 1
        finally:
            fleet.close()

    def test_claim_long_poll_blocks_until_offer(self, request_factory):
        fleet = make_fleet()
        try:
            worker = fleet.register("w1")
            assert fleet.claim(worker.id, wait_seconds=0.05) == []
            result: list = []

            def claim():
                result.extend(fleet.claim(worker.id, wait_seconds=5.0))

            thread = threading.Thread(target=claim)
            thread.start()
            time.sleep(0.1)
            fleet.offer([RecordingSink()], [request_factory(0.1)])
            thread.join(timeout=5.0)
            assert len(result) == 1
        finally:
            fleet.close()

    def test_unknown_worker_rejected_everywhere(self, request_factory):
        fleet = make_fleet()
        try:
            with pytest.raises(KeyError):
                fleet.claim("worker-9999")
            with pytest.raises(KeyError):
                fleet.heartbeat("worker-9999")
            with pytest.raises(KeyError):
                fleet.complete("worker-9999", "task-0001", reports=[])
        finally:
            fleet.close()

    def test_worker_error_fails_jobs_immediately(self, request_factory):
        log = DeliveryLog()
        fleet = make_fleet(deliver=log)
        try:
            fleet.offer([RecordingSink()], [request_factory(0.2)])
            worker = fleet.register("w1")
            (task,) = fleet.claim(worker.id)
            assert fleet.complete(worker.id, task["id"], error="kernel exploded")
            assert len(log.errors) == 1
            assert "kernel exploded" in str(log.errors[0][2])
            # A deterministic failure is not requeued.
            assert fleet.claim(worker.id) == []
        finally:
            fleet.close()


class TestWireDurations:
    """Durations from the wire must be numbers: a NaN claim wait spun the
    handler under the fleet lock, and a NaN lease never expired."""

    def test_fleet_rejects_nan_booleans_and_non_numbers(self):
        fleet = make_fleet()
        try:
            worker = fleet.register("w1")
            for bad in (float("nan"), True, "5"):
                with pytest.raises(ValueError, match="lease_seconds"):
                    fleet.register("w2", lease_seconds=bad)
            for bad in (True, "5"):
                with pytest.raises(ValueError, match="wait_seconds"):
                    fleet.claim(worker.id, wait_seconds=bad)
            # In-range clamping is unchanged.
            assert fleet.register("w3", lease_seconds=-1).lease_seconds == MIN_LEASE_SECONDS
            assert fleet.register("w4", lease_seconds=1e9).lease_seconds == MAX_LEASE_SECONDS
            assert fleet.claim(worker.id, wait_seconds=-1) == []
        finally:
            fleet.close()

    def test_http_nan_durations_are_refused_with_400(self):
        service = EvaluationService(cache=ReportCache(), worker_fleet=True, lease_seconds=5.0)
        server = start_http_server(service)
        client = RemoteEvaluationClient(server.endpoint, retries=1)
        try:
            worker_id = client.register_worker("nan-probe")["worker_id"]
            # A short socket timeout, so a server that spins on the NaN wait
            # fails this test instead of hanging it.
            with pytest.raises(RemoteServiceError, match=r"wait_seconds.*HTTP 400"):
                client._request(
                    "POST",
                    f"/workers/{worker_id}/claim",
                    {"max_tasks": 1, "wait_seconds": float("nan")},
                    timeout=3.0,
                )
            with pytest.raises(RemoteServiceError, match=r"lease_seconds.*HTTP 400"):
                client._request(
                    "POST",
                    "/workers/register",
                    {"name": "nan-lease", "lease_seconds": float("nan")},
                    timeout=3.0,
                )
            assert [w["name"] for w in client.workers()["workers"]] == ["nan-probe"]
            assert client.claim_tasks(worker_id, wait_seconds=0.05) == []
        finally:
            client.close()
            server.close()
            service.close()


class TestWireCounts:
    """Counts from the wire must be JSON integers >= 1: ``1e999`` (which JSON
    reads as infinity) answered 500, and ``true``, ``2.9``, ``"2"`` and ``0``
    were silently read as 1, 2, 2 and 1."""

    BAD = ("1e999", "true", "2.9", '"2"', "0")

    def test_fleet_rejects_non_integer_counts(self):
        fleet = make_fleet()
        try:
            for bad in (float("inf"), True, 2.9, "2", 0):
                with pytest.raises(ValueError, match="concurrency"):
                    fleet.register("w0", concurrency=bad)
            worker = fleet.register("w1", concurrency=3)
            assert worker.concurrency == 3
            for bad in (float("inf"), True, 2.9, "2", 0):
                with pytest.raises(ValueError, match="max_tasks"):
                    fleet.claim(worker.id, max_tasks=bad)
            assert fleet.claim(worker.id, max_tasks=2) == []
        finally:
            fleet.close()

    @pytest.mark.parametrize("raw", BAD)
    def test_http_worker_counts_are_refused_with_400(self, raw):
        service = EvaluationService(cache=ReportCache(), worker_fleet=True, lease_seconds=5.0)
        server = start_http_server(service)
        try:
            endpoint = server.endpoint
            body = f'{{"name": "bad-count", "concurrency": {raw}}}'.encode()
            status, reply = _raw_request(endpoint, "/workers/register", data=body)
            assert status == 400 and "concurrency" in reply["error"]
            # An absent count reads as 1.
            status, reply = _raw_request(endpoint, "/workers/register", data=b'{"name": "plain"}')
            assert status == 201
            worker_id = reply["worker_id"]
            claim = f"/workers/{worker_id}/claim"
            status, reply = _raw_request(endpoint, claim, data=f'{{"max_tasks": {raw}}}'.encode())
            assert status == 400 and "max_tasks" in reply["error"]
            status, reply = _raw_request(endpoint, claim, data=b"{}")
            assert status == 200 and reply["tasks"] == []
            workers = _raw_request(endpoint, "/workers")[1]["workers"]
            assert [(w["name"], w["concurrency"]) for w in workers] == [("plain", 1)]
        finally:
            server.close()
            service.close()


class TestHeartbeatAndExpiry:
    def test_heartbeat_renews_lease_under_load(self, request_factory):
        fleet = make_fleet(lease_seconds=0.3)
        try:
            fleet.offer([RecordingSink()], [request_factory(0.1)])
            worker = fleet.register("w1")
            (task,) = fleet.claim(worker.id)
            # Hold the lease 4x its length, heartbeating the whole time (the
            # "worker is busy simulating" case): it must never expire.
            for _ in range(12):
                time.sleep(0.1)
                renewed = fleet.heartbeat(worker.id)
                assert task["id"] in renewed["tasks"]
                assert fleet.expire_now() == 0
            assert fleet.leases_expired == 0
            assert fleet.complete(worker.id, task["id"], reports=[tagged_result("late")])
        finally:
            fleet.close()

    def test_expiry_requeues_exactly_once(self, request_factory):
        log = DeliveryLog()
        fleet = make_fleet(lease_seconds=0.2, deliver=log)
        try:
            sink = RecordingSink()
            fleet.offer([sink], [request_factory(0.1)])
            worker = fleet.register("w1")
            (task,) = fleet.claim(worker.id)
            wait_until(
                lambda: fleet.leases_expired >= 1, message="the expiry monitor"
            )
            assert fleet.leases_expired == 1
            assert fleet.tasks_requeued == 1
            # Requeued once, claimable again with the attempt recorded — and
            # the sink is NOT re-claimed (claiming is a one-shot CAS on the
            # underlying job; a second claim would orphan it).
            (retry,) = fleet.claim(worker.id, wait_seconds=1.0)
            assert retry["id"] == task["id"]
            assert retry["attempts"] == 1
            assert sink.claims == 1
            second_try = tagged_result("second-try")
            assert fleet.complete(worker.id, retry["id"], reports=[second_try])
            assert len(log.completions) == 1
            delivered_sinks, _, delivered_reports = log.completions[0]
            assert delivered_sinks == [sink]
            assert delivered_reports == [second_try]
        finally:
            fleet.close()

    def test_completion_after_expiry_rejected(self, request_factory):
        log = DeliveryLog()
        fleet = make_fleet(lease_seconds=10.0, deliver=log)
        try:
            fleet.offer([RecordingSink()], [request_factory(0.3)])
            zombie = fleet.register("zombie", lease_seconds=0.15)
            (task,) = fleet.claim(zombie.id)
            wait_until(lambda: fleet.leases_expired >= 1, message="lease expiry")
            healthy = fleet.register("healthy")
            (retry,) = fleet.claim(healthy.id, wait_seconds=1.0)
            assert retry["id"] == task["id"]
            # The zombie wakes up and posts its result: rejected, the retry
            # owns the task now.  Exactly one delivery ever happens.
            assert not fleet.complete(zombie.id, task["id"], reports=[tagged_result("zombie")])
            assert fleet.completions_rejected == 1
            healthy_result = tagged_result("healthy")
            assert fleet.complete(healthy.id, retry["id"], reports=[healthy_result])
            assert len(log.completions) == 1
            assert log.completions[0][2] == [healthy_result]
            # Double completion of a finished task is likewise rejected.
            assert not fleet.complete(healthy.id, retry["id"], reports=[tagged_result("again")])
        finally:
            fleet.close()

    def test_poisonous_task_fails_after_max_attempts(self, request_factory):
        log = DeliveryLog()
        fleet = make_fleet(lease_seconds=0.1, max_attempts=2, deliver=log)
        try:
            fleet.offer([RecordingSink()], [request_factory(0.4)])
            worker = fleet.register("w1")
            (task,) = fleet.claim(worker.id)
            wait_until(lambda: fleet.tasks_requeued >= 1, message="first requeue")
            (retry,) = fleet.claim(worker.id, wait_seconds=1.0)
            assert retry["attempts"] == 1
            wait_until(lambda: fleet.tasks_failed >= 1, message="task abandonment")
            assert len(log.errors) == 1
            assert "abandoned after 2 expired leases" in str(log.errors[0][2])
            assert fleet.claim(worker.id) == []  # not requeued a third time
        finally:
            fleet.close()


class TestReRegistration:
    def test_reregistration_retires_and_requeues(self, request_factory):
        fleet = make_fleet(lease_seconds=30.0)  # too long to expire naturally
        try:
            fleet.offer([RecordingSink()], [request_factory(0.6)])
            first = fleet.register("restarting-worker")
            (task,) = fleet.claim(first.id)
            # The worker restarts and re-registers under the same name: the
            # old incarnation is retired and its lease requeued immediately —
            # no waiting out a 30s lease.
            second = fleet.register("restarting-worker")
            assert second.id != first.id
            with pytest.raises(KeyError):
                fleet.heartbeat(first.id)
            (requeued,) = fleet.claim(second.id, wait_seconds=1.0)
            assert requeued["id"] == task["id"]
            assert fleet.tasks_requeued == 1
            assert fleet.complete(second.id, requeued["id"], reports=[tagged_result("restart")])
            summary = fleet.summary()
            by_name = {w["id"]: w for w in summary["workers"]}
            assert by_name[first.id]["retired"] is True
            assert by_name[second.id]["alive"] is True
        finally:
            fleet.close()

    def test_runtime_reregisters_after_server_side_retirement(self, synthetic_trace):
        service = EvaluationService(worker_fleet=True, lease_seconds=5.0)
        server = start_http_server(service)
        runtime = WorkerRuntime(
            server.endpoint, name="phoenix", poll_seconds=0.1, cache=ReportCache()
        )
        try:
            runtime.start()
            first_id = runtime.worker_id
            # Another process steals the name (as a restarted twin would):
            # the runtime's next verb 404s and it re-registers transparently.
            service.fleet.register("phoenix")
            wait_until(
                lambda: runtime.registrations >= 2 and runtime.worker_id != first_id,
                message="runtime re-registration",
            )
            config = AcceleratorConfig(name="phoenix-job")
            job = service.submit(SimulateJobSpec(config=config, trace=synthetic_trace))
            assert job.result(timeout=60) is not None
        finally:
            runtime.stop()
            server.close()
            service.close()


# -- service integration ------------------------------------------------------------


class TestServiceIntegration:
    def test_cancel_before_claim_discards_task(self, synthetic_trace):
        service = EvaluationService(worker_fleet=True, lease_seconds=5.0)
        try:
            config = AcceleratorConfig(name="cancel-before")
            job = service.submit(SimulateJobSpec(config=config, trace=synthetic_trace))
            wait_until(
                lambda: service.fleet.summary()["queue_depth"] == 1,
                message="fleet enqueue",
            )
            assert service.cancel(job.id) is True
            worker = service.fleet.register("w1")
            # The cancelled job's task dissolves at claim time (its sink
            # refuses the CAS); the worker never sees it.
            assert service.fleet.claim(worker.id, wait_seconds=0.2) == []
            assert job.status is JobStatus.CANCELLED
        finally:
            service.close()

    def test_cancel_while_claimed_loses_the_race(self, synthetic_trace):
        service = EvaluationService(worker_fleet=True, lease_seconds=5.0)
        try:
            config = AcceleratorConfig(name="cancel-while")
            job = service.submit(SimulateJobSpec(config=config, trace=synthetic_trace))
            worker = service.fleet.register("w1")
            (task,) = service.fleet.claim(worker.id, wait_seconds=5.0)
            # Claimed means RUNNING: cancellation is refused, and the
            # worker's completion still lands.
            assert service.cancel(job.id) is False
            batch = run_batched(
                [SimulateJobSpec(config=config, trace=synthetic_trace)],
                cache=ReportCache(),
            )[0]
            assert service.fleet.complete(worker.id, task["id"], reports=[batch])
            assert job.result(timeout=10) == ensure_report(batch)
        finally:
            service.close()

    def test_fleet_results_land_in_shared_cache(self, synthetic_trace):
        cache = ReportCache()
        service = EvaluationService(cache=cache, worker_fleet=True, lease_seconds=5.0)
        try:
            config = AcceleratorConfig(name="cache-landing")
            request = SimulateJobSpec(config=config, trace=synthetic_trace)
            job = service.submit(SimulateJobSpec(config=config, trace=synthetic_trace))
            worker = service.fleet.register("w1")
            (task,) = service.fleet.claim(worker.id, wait_seconds=5.0)
            batch = run_batched([request], cache=ReportCache())[0]
            report = ensure_report(batch)
            assert service.fleet.complete(worker.id, task["id"], reports=[batch])
            assert job.result(timeout=10) == report
            # The completion was inserted into the server cache, so an
            # identical submission is served without any fleet task.
            job2 = service.submit(SimulateJobSpec(config=config, trace=synthetic_trace))
            assert job2.result(timeout=10) == report
            assert service.fleet.summary()["queue_depth"] == 0
            assert service.fleet.tasks_completed == 1
        finally:
            service.close()

    def test_close_fails_outstanding_fleet_tasks(self, synthetic_trace):
        service = EvaluationService(worker_fleet=True, lease_seconds=5.0)
        config = AcceleratorConfig(name="close-outstanding")
        job = service.submit(SimulateJobSpec(config=config, trace=synthetic_trace))
        worker = service.fleet.register("w1")
        (task,) = service.fleet.claim(worker.id, wait_seconds=5.0)
        service.close()
        with pytest.raises(Exception, match="fleet closed"):
            job.result(timeout=10)

    @pytest.mark.parametrize("kind", ["simulation", "sweep"])
    def test_close_fails_jobs_no_worker_ever_claimed(self, synthetic_trace, kind):
        service = EvaluationService(worker_fleet=True, lease_seconds=5.0)
        config = AcceleratorConfig(name=f"close-unclaimed-{kind}")
        if kind == "simulation":
            spec = SimulateJobSpec(config=config, trace=synthetic_trace)
        else:
            grid = {"sparsity_threshold": [0.2, 0.4]}
            spec = SweepJobSpec(base=config, grid=grid, trace=synthetic_trace)
        job = service.submit(spec)
        # No worker registers: the fleet task is never claimed.
        service.close()
        assert job.wait(1)
        assert job.status is JobStatus.FAILED
        with pytest.raises(Exception, match="worker fleet closed"):
            job.result(timeout=1)
        assert service.service_stats()["inflight_keys"] == 0


# -- end-to-end over HTTP -----------------------------------------------------------


class TestEndToEnd:
    def test_worker_death_mid_lease_requeues_and_completes(self, synthetic_trace):
        service = EvaluationService(
            cache=ReportCache(), worker_fleet=True, lease_seconds=0.5
        )
        server = start_http_server(service)
        # The doomed worker holds every claimed task indefinitely (chaos
        # hold), heartbeating — only its death can release the lease.
        doomed = WorkerRuntime(
            server.endpoint,
            name="doomed",
            poll_seconds=0.1,
            chaos_hold_seconds=600.0,
            cache=ReportCache(),
        )
        rescuer = None
        try:
            doomed.start()
            config = AcceleratorConfig(name="chaos-e2e")
            job = service.submit(SimulateJobSpec(config=config, trace=synthetic_trace))
            wait_until(
                lambda: service.fleet.summary()["leased"] == 1,
                message="the doomed worker's claim",
            )
            # SIGKILL equivalent for a thread: stop heartbeating and never
            # complete.  The lease must expire and the task requeue.
            doomed.stop(abandon=True, timeout=1.0)
            rescuer = WorkerRuntime(
                server.endpoint, name="rescuer", poll_seconds=0.1, cache=ReportCache()
            )
            rescuer.start()
            report = job.result(timeout=60)
            assert service.fleet.leases_expired >= 1
            assert service.fleet.tasks_requeued >= 1
            # Zero lost jobs, and the rescued result is bit-identical to a
            # local single-process run.
            reference = run_batched(
                [SimulateJobSpec(config=config, trace=synthetic_trace)],
                cache=ReportCache(),
            )[0]
            assert report == ensure_report(reference)
        finally:
            if rescuer is not None:
                rescuer.stop()
            doomed.stop(abandon=True)
            server.close()
            service.close()

    def test_http_worker_protocol_and_metrics(self, synthetic_trace):
        service = EvaluationService(
            cache=ReportCache(), worker_fleet=True, lease_seconds=5.0
        )
        server = start_http_server(service)
        client = RemoteEvaluationClient(server.endpoint)
        try:
            contract = client.register_worker("http-worker", lease_seconds=2.0)
            assert contract["lease_seconds"] == 2.0
            assert contract["heartbeat_seconds"] == pytest.approx(2.0 / 3.0)
            worker_id = contract["worker_id"]
            assert client.claim_tasks(worker_id, wait_seconds=0.05) == []
            with pytest.raises(KeyError):
                client.claim_tasks("worker-9999")
            with pytest.raises(KeyError):
                client.worker_heartbeat("worker-9999")
            # Completing a task that never existed is a rejection, not an error.
            assert client.complete_task(worker_id, "task-9999", reports=[]) is False

            config = AcceleratorConfig(name="http-protocol")
            job = client.submit(SimulateJobSpec(config=config, trace=synthetic_trace))
            (task,) = client.claim_tasks(worker_id, wait_seconds=5.0)
            heartbeat = client.worker_heartbeat(worker_id)
            assert task["id"] in heartbeat["tasks"]
            spec = codec.decode(task["specs"][0])
            batch = run_batched(
                [
                    SimulateJobSpec(
                        config=spec.config,
                        trace=spec.trace,
                        energy_table=spec.energy_table,
                        backend=spec.backend,
                    )
                ],
                cache=ReportCache(),
            )[0]
            assert client.complete_task(worker_id, task["id"], [codec.encode(batch)])
            assert job.result(timeout=30) == ensure_report(batch)

            listing = client.workers()
            assert listing["workers_alive"] >= 1
            assert listing["tasks_completed"] >= 1
            from repro.serve.top import fetch_text, parse_prometheus, sample_total

            samples = parse_prometheus(fetch_text(f"{server.endpoint}/metrics"))
            for name in (
                "repro_fleet_workers_alive",
                "repro_fleet_leases_expired_total",
                "repro_fleet_jobs_requeued_total",
                "repro_fleet_claim_latency_seconds_count",
            ):
                assert name in samples, f"missing {name} in /metrics"
            assert sample_total(samples, "repro_fleet_workers_alive") >= 1
        finally:
            client.close()
            server.close()
            service.close()

    def test_a_completion_that_is_no_report_batch_is_refused_and_keeps_the_lease(
        self, synthetic_trace
    ):
        """A result the report cache cannot hold is a 400 before the task is
        marked done, so neither the job nor its single-flight key wedges."""
        service = EvaluationService(cache=ReportCache(), worker_fleet=True, lease_seconds=5.0)
        server = start_http_server(service)
        client = RemoteEvaluationClient(server.endpoint)
        try:
            worker_id = client.register_worker("confused")["worker_id"]
            config = AcceleratorConfig(name="wrong-envelope")
            job = client.submit(SimulateJobSpec(config=config, trace=synthetic_trace))
            (task,) = client.claim_tasks(worker_id, wait_seconds=5.0)
            with pytest.raises(RemoteServiceError, match="HTTP 400"):
                client.complete_task(worker_id, task["id"], [codec.encode(config)])
            assert task["id"] in client.worker_heartbeat(worker_id)["tasks"]
            # An identical job attaches to the same key; the worker's real
            # result then finishes both.
            twin = client.submit(SimulateJobSpec(config=config, trace=synthetic_trace))
            batch = run_batched(
                [SimulateJobSpec(config=config, trace=synthetic_trace)], cache=ReportCache()
            )[0]
            assert client.complete_task(worker_id, task["id"], [codec.encode(batch)])
            assert job.result(timeout=30) == ensure_report(batch)
            assert twin.result(timeout=30) == ensure_report(batch)
            assert service.service_stats()["inflight_keys"] == 0
        finally:
            client.close()
            server.close()
            service.close()

    def test_pool_dispatch_server_rejects_worker_verbs(self):
        service = EvaluationService()  # default: in-process pool dispatch
        server = start_http_server(service)
        client = RemoteEvaluationClient(server.endpoint)
        try:
            from repro.serve.client import RemoteServiceError

            with pytest.raises(RemoteServiceError, match="dispatch workers"):
                client.register_worker("nope")
            with pytest.raises(RemoteServiceError, match="HTTP 409"):
                client.workers()
        finally:
            client.close()
            server.close()
            service.close()


# -- executor parity ---------------------------------------------------------------


class TestWorkerPoolExecutor:
    def test_sweep_matches_inline_bit_for_bit(self, synthetic_trace):
        base = AcceleratorConfig(name="pool-parity")
        spec = SweepJobSpec(
            base=base,
            trace=synthetic_trace,
            grid={"sparsity_threshold": [0.2, 0.5, 0.8]},
            baseline=dataclasses.replace(base, name="pool-parity-dense"),
        )
        with InlineExecutor(cache=ReportCache()) as inline:
            reference = inline.submit(spec).result()
        pool = WorkerPoolExecutor(num_workers=2, cache=ReportCache(), poll_seconds=0.2)
        with pool:
            fleet_result = pool.submit(spec).result()
            stats = pool.stats()
        assert [r == e for r, e in zip(fleet_result.reports, reference.reports)] == [
            True
        ] * 3
        assert fleet_result.baseline == reference.baseline
        # The work actually went through the fleet (4 unique keys, one task
        # per configuration partition), not a local fallback.
        assert stats["fleet"]["tasks_completed"] == 4
        assert stats["cache"]["memory"]["misses"] == 4

    def test_cli_executor_name_builds_worker_pool(self):
        from repro.serve.cli import _build_executor

        with _build_executor("worker-pool", ReportCache(), max_workers=1) as executor:
            assert isinstance(executor, WorkerPoolExecutor)
            assert isinstance(executor, EvaluationService)  # the pool is a service
            assert len(executor.workers) == 1
            assert executor.stats()["executor"] == "worker-pool"
        assert executor._closed and all(w._stop.is_set() for w in executor.workers)
