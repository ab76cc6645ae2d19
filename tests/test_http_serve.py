"""Tests for the HTTP front end and the remote evaluation client.

The wire contract under test: everything crossing the HTTP boundary is
plain, versioned, schema-tagged JSON — job submissions are typed specs,
results are self-describing envelopes, and nothing on the wire requires
unpickling (see ``TestRawJSONWire``, which drives a sweep with nothing but
``urllib`` and ``json``).
"""

from __future__ import annotations

import contextlib
import hashlib
import http.client
import io
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.accelerator import AcceleratorSimulator, dense_baseline_config, sqdm_config
from repro.core import codec, telemetry
from repro.core.artifacts import ArtifactStore
from repro.core.columnar import ARRAY_FIELDS
from repro.core.report_cache import ReportCache, fingerprint_trace
from repro.serve import (
    EvaluationService,
    InlineExecutor,
    JobFailedError,
    JobStatus,
    RemoteEvaluationClient,
    RemoteServiceError,
    SimulateJobSpec,
    SweepJobSpec,
    start_http_server,
)
from repro.serve import client as client_module
from repro.serve import service as service_module
from repro.serve.cli import main as cli_main

from test_serve import cycles, make_trace, simulate


@pytest.fixture()
def served(tmp_path):
    """A live HTTP server over a fresh service + artifact store."""
    store = ArtifactStore(tmp_path / "artifacts")
    cache = ReportCache(store=store)
    service = EvaluationService(cache=cache, max_workers=4)
    server = start_http_server(service, port=0)
    client = RemoteEvaluationClient(server.endpoint)
    try:
        yield client, service, store, server
    finally:
        server.close()
        service.close(cancel_queued=True)


@contextlib.contextmanager
def held_scheduler(service, monkeypatch):
    """Hold the service's scheduler in its next drain, so that jobs submitted
    meanwhile stay queued; yields the event the hold sets once it begins."""
    dispatching, release = threading.Event(), threading.Event()
    dispatch = service._dispatch

    def held_dispatch(drained):
        dispatching.set()
        release.wait(30)
        dispatch(drained)

    monkeypatch.setattr(service, "_dispatch", held_dispatch)
    try:
        yield dispatching
    finally:
        release.set()


def _raw_request(endpoint, path, data=None, headers=None, method=None):
    """urllib round-trip returning (status, parsed JSON body)."""
    request = urllib.request.Request(
        f"{endpoint}{path}",
        data=data,
        headers=headers if headers is not None else {"Content-Type": "application/json"},
        method=method or ("POST" if data is not None else "GET"),
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode("utf-8"))


def _digest(batch):
    """Bitwise fingerprint of a one-trace batch: names, dtypes and every array."""
    digest = hashlib.sha256(repr((batch.config_names, batch.layer_names)).encode())
    for name in ARRAY_FIELDS:
        array = np.ascontiguousarray(getattr(batch, name))
        digest.update(array.dtype.str.encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def _exchange(connection, method, path, body=None):
    """One request on a raw ``http.client`` connection: (status, parsed body)."""
    headers = {} if body is None else {"Content-Type": "application/json"}
    connection.request(method, path, body, headers)
    response = connection.getresponse()
    return response.status, json.loads(response.read().decode("utf-8"))


class TestEndpoints:
    def test_healthz(self, served):
        client, _, store, _ = served
        health = client.health()
        assert health["status"] == "ok"
        assert health["wire_version"] == 1
        assert health["store"] == str(store.root)
        assert health["service"]["closed"] is False

    def test_schemas_endpoint_lists_versions(self, served):
        client, _, _, _ = served
        listing = client.schemas()
        assert listing["wire_version"] == 1
        for name in ("simulate_spec", "sweep_spec", "simulation_report"):
            assert listing["schemas"][name] == [1]
        assert listing["schemas"]["sweep_result"] == [3]
        assert listing["schemas"]["columnar_report_batch"] == [1]
        assert "callable_spec" not in listing["schemas"]  # no job carries code

    def test_cache_stats_shape(self, served):
        client, _, _, _ = served
        stats = client.cache_stats()
        assert set(stats["cache"]) >= {"memory_hits", "disk_hits", "misses", "hit_rate"}
        assert stats["store"]["total_artifacts"] == 0
        assert stats["service"]["submitted"] == {}

    def test_evict_endpoint(self, served):
        client, _, store, _ = served
        for i in range(4):
            store.put("report", ArtifactStore.key_for(f"r{i}"), os.urandom(2048))
        result = client.evict(max_bytes=1)
        assert result["removed"] == 4
        assert store.count() == 0

    def test_evict_rejects_malformed_bounds_before_touching_the_store(self, served):
        _, _, store, server = served
        store.put("report", ArtifactStore.key_for("kept"), os.urandom(2048))
        for body in (
            {"max_bytes": "abc"},
            {"ttl_seconds": "x"},
            {"max_bytes": True},
            {"max_bytes": -1},
            {"max_bytes": 1.5},
            {"ttl_seconds": -0.5},
        ):
            data = json.dumps(body).encode("utf-8")
            status, reply = _raw_request(server.endpoint, "/cache/evict", data=data)
            field = next(iter(body))
            assert status == 400 and field in reply["error"], (body, status, reply)
        assert store.count() == 1
        status, reply = _raw_request(
            server.endpoint, "/cache/evict", data=b'{"max_bytes": null, "ttl_seconds": 3600.5}'
        )
        assert status == 200 and reply["removed"] == 0
        assert store.count() == 1


class TestHTTPErrorPaths:
    def test_unknown_endpoint_is_404(self, served):
        _, _, _, server = served
        status, body = _raw_request(server.endpoint, "/nope")
        assert status == 404 and "unknown path" in body["error"]
        status, _ = _raw_request(server.endpoint, "/jobs/x/y/z")
        assert status == 404

    def test_malformed_json_body_is_400(self, served):
        _, _, _, server = served
        status, body = _raw_request(server.endpoint, "/jobs", data=b"{not json")
        assert status == 400 and "not valid JSON" in body["error"]
        status, body = _raw_request(server.endpoint, "/jobs", data=b'["an", "array"]')
        assert status == 400 and "JSON object" in body["error"]

    def test_missing_spec_is_400(self, served):
        _, _, _, server = served
        status, body = _raw_request(server.endpoint, "/jobs", data=b'{"label": "x"}')
        assert status == 400 and "'spec'" in body["error"]

    def test_unknown_schema_name_is_400_with_known_names(self, served):
        _, _, _, server = served
        payload = json.dumps({"spec": {"$schema": "warp_drive@1"}}).encode()
        status, body = _raw_request(server.endpoint, "/jobs", data=payload)
        assert status == 400
        assert "unknown schema" in body["error"] and "sweep_spec" in body["error"]

    def test_unknown_schema_version_is_400_with_known_versions(self, served):
        _, _, _, server = served
        payload = json.dumps({"spec": {"$schema": "sweep_spec@99"}}).encode()
        status, body = _raw_request(server.endpoint, "/jobs", data=payload)
        assert status == 400 and "version" in body["error"]

    def test_non_spec_envelope_is_400(self, served):
        _, _, _, server = served
        payload = json.dumps(
            {"spec": {"$schema": "value@1", "value": {"just": "data"}}}
        ).encode()
        status, body = _raw_request(server.endpoint, "/jobs", data=payload)
        assert status == 400 and "not a job spec" in body["error"]

    def test_callable_spec_is_an_unknown_schema_and_writes_nothing(self, served, tmp_path):
        """No job carries code: an envelope naming a server function and a
        filesystem path for it to write into is an unknown schema, refused
        before any job exists or anything is written there."""
        _, service, _, server = served
        target = tmp_path / "chosen-by-the-client"
        payload = json.dumps(
            {
                "spec": {
                    "$schema": "callable_spec@1",
                    "function": "evaluate_hardware",
                    "kwargs": {"workload": "cifar10", "artifact_dir": str(target)},
                }
            }
        ).encode()
        status, body = _raw_request(server.endpoint, "/jobs", data=payload)
        assert status == 400
        assert "unknown schema 'callable_spec'" in body["error"]
        assert service.jobs() == []
        assert not target.exists()

    def test_wrong_content_type_is_415(self, served):
        _, _, _, server = served
        status, body = _raw_request(
            server.endpoint,
            "/jobs",
            data=b"kind=sweep",
            headers={"Content-Type": "application/x-www-form-urlencoded"},
        )
        assert status == 415 and "application/json" in body["error"]

    def test_unacceptable_accept_header_is_406(self, served):
        _, _, _, server = served
        status, body = _raw_request(
            server.endpoint, "/healthz", headers={"Accept": "application/x-pickle"}
        )
        assert status == 406 and "application/json" in body["error"]
        # JSON-compatible Accept values pass
        for accept in ("application/json", "*/*", "text/html, application/*;q=0.9"):
            status, _ = _raw_request(server.endpoint, "/healthz", headers={"Accept": accept})
            assert status == 200, accept

    def test_wire_version_mismatch_is_406(self, served):
        _, _, _, server = served
        status, body = _raw_request(
            server.endpoint, "/healthz", headers={"X-Repro-Wire-Version": "99"}
        )
        assert status == 406 and "wire version" in body["error"]

    def test_oversized_body_is_413(self, tmp_path):
        service = EvaluationService(cache=ReportCache(), max_workers=1)
        server = start_http_server(service, port=0, max_request_bytes=1024)
        try:
            blob = json.dumps({"spec": {"$schema": "value@1", "value": "x" * 4096}}).encode()
            status, body = _raw_request(server.endpoint, "/jobs", data=blob)
            assert status == 413 and "exceeds" in body["error"]
        finally:
            server.close()
            service.close(cancel_queued=True)

    def test_body_skipping_refusals_close_the_connection(self):
        """A 413 is sent before the body is read, so the server must close
        the keep-alive connection instead of parsing the unread body as the
        next request."""
        import http.client

        service = EvaluationService(cache=ReportCache(), max_workers=1)
        server = start_http_server(service, port=0, max_request_bytes=1024)
        try:
            host, port = server.server_address[:2]
            connection = http.client.HTTPConnection(host, port, timeout=10)
            connection.putrequest("POST", "/jobs")
            connection.putheader("Content-Type", "application/json")
            connection.putheader("Content-Length", "999999")
            connection.endheaders()  # body intentionally never sent
            response = connection.getresponse()
            assert response.status == 413
            assert response.getheader("Connection") == "close"
            response.read()
            connection.close()
        finally:
            server.close()
            service.close(cancel_queued=True)

    @staticmethod
    def _post_with_content_length(server, value, body=b""):
        """POST /jobs on a raw keep-alive connection with a hand-written Content-Length."""
        import http.client

        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            connection.putrequest("POST", "/jobs")
            connection.putheader("Content-Type", "application/json")
            connection.putheader("Content-Length", value)
            connection.endheaders(body)
            response = connection.getresponse()
            payload = json.loads(response.read().decode("utf-8"))
            return response.status, response.getheader("Connection"), payload
        finally:
            connection.close()

    @pytest.mark.parametrize("value", ["abc", "-1", "1.5", "+2"])
    def test_malformed_content_length_is_400_and_closes_the_connection(self, served, value):
        """The body's extent is unknown, so any bytes sent after the headers
        must not be parsed as the next request on the connection."""
        _, _, _, server = served
        status, connection, payload = self._post_with_content_length(server, value, b"{}")
        assert status == 400
        assert "Content-Length" in payload["error"] and repr(value) in payload["error"]
        assert connection == "close"

    def test_malformed_content_length_is_answered_with_access_log_on(self, served, monkeypatch):
        _, _, _, server = served
        log = telemetry.event_log()
        stream = io.StringIO()
        monkeypatch.setattr(log, "_stream", stream)
        monkeypatch.setattr(log, "level", log.level)
        monkeypatch.setattr(log, "_threshold", log._threshold)
        log.configure(level="info")
        status, connection, _ = self._post_with_content_length(server, "abc")
        assert status == 400 and connection == "close"
        records = [json.loads(line) for line in stream.getvalue().splitlines()]
        access = [record for record in records if record["event"] == "http.access"]
        assert access[-1]["status"] == 400 and access[-1]["request_bytes"] == 0

    def test_overlong_request_line_is_a_414_with_access_log_on(self, served, monkeypatch):
        """The stdlib answers a request line over 65536 bytes before
        ``parse_request`` sets ``path``; the access log records it pathless."""
        import socket

        _, _, _, server = served
        log = telemetry.event_log()
        stream = io.StringIO()
        monkeypatch.setattr(log, "_stream", stream)
        monkeypatch.setattr(log, "level", log.level)
        monkeypatch.setattr(log, "_threshold", log._threshold)
        log.configure(level="info")
        with socket.create_connection(server.server_address[:2], timeout=10) as sock:
            # Exactly the 65537 bytes the stdlib reads for a request line:
            # bytes left unread would turn the server's close into a reset.
            sock.sendall(b"GET /" + b"a" * (65537 - 5))
            reply = sock.makefile("rb").readline()
        assert reply.startswith(b"HTTP/1.1 414"), reply
        records = [json.loads(line) for line in stream.getvalue().splitlines()]
        access = [record for record in records if record["event"] == "http.access"]
        assert access[-1]["status"] == 414 and access[-1]["path"] is None

    def test_keep_alive_requests_do_not_wait_for_delayed_acks(self, served):
        """Headers and body are separate writes: with Nagle on, every request
        after the first on one connection stalls ~40 ms on the delayed ACK."""
        import http.client

        _, _, _, server = served
        connection = http.client.HTTPConnection(*server.server_address[:2], timeout=10)
        elapsed = []
        try:
            for _ in range(10):
                began = time.perf_counter()
                connection.request("GET", "/schemas")
                response = connection.getresponse()
                response.read()
                elapsed.append(time.perf_counter() - began)
                assert response.status == 200
        finally:
            connection.close()
        # A stall costs ~40 ms on every reuse; the median of the nine reuses
        # stays clear of one scheduling hiccup on a busy machine.
        reuses = sorted(elapsed[1:])
        assert reuses[len(reuses) // 2] < 0.02, [f"{t * 1e3:.1f} ms" for t in elapsed]

    def test_quality_spec_artifact_dir_is_pinned_to_server_store(self, served, monkeypatch):
        """Remote clients cannot aim server-side writes at arbitrary paths:
        the server rewrites quality specs onto its own artifact store."""
        _, service, store, server = served
        captured = {}

        def capture(spec, label=""):
            captured["spec"] = spec
            raise ValueError("captured before submission")

        monkeypatch.setattr(service, "submit", capture)
        payload = json.dumps(
            {
                "spec": {
                    "$schema": "quality_spec@1",
                    "workload": "cifar10",
                    "scheme": "INT8",
                    "artifact_dir": "/definitely/not/allowed",
                }
            }
        ).encode()
        status, _ = _raw_request(server.endpoint, "/jobs", data=payload)
        assert status == 400  # from the capture stub
        assert captured["spec"].artifact_dir == str(store.root)

    def test_cancelled_job_result_fetch(self, served, monkeypatch):
        """``?result=1`` on a cancelled job returns its summary, no result."""
        client, service, _, server = served
        with held_scheduler(service, monkeypatch) as dispatching:
            first = client.submit(simulate(80))
            assert dispatching.wait(10)  # the next job stays queued
            victim = client.submit(simulate(81))
            assert victim.cancel() is True
        assert client.wait_all([first, victim], timeout=30)
        status, body = _raw_request(server.endpoint, f"/jobs/{victim.id}?result=1")
        assert status == 200
        assert body["status"] == "cancelled"
        assert "result" not in body
        assert "cancel" in body["error"]


class TestKeepAlive:
    """Connections stay open between requests: one per client thread, never
    left holding an unread body, and resent once when the server closed
    one while it sat idle."""

    @staticmethod
    def _count_accepts(server, monkeypatch):
        accepted = []
        get_request = server.get_request

        def counting_get_request():
            connection = get_request()
            accepted.append(connection[1])
            return connection

        monkeypatch.setattr(server, "get_request", counting_get_request)
        return accepted

    @staticmethod
    def _close_idle_connections(server):
        """Once every connection is idle (a handler marks it so just after
        writing its response), shut them server-side and wait until their
        handlers let go."""

        def wait_for(condition, what):
            deadline = time.monotonic() + 10
            while not condition():
                assert time.monotonic() < deadline, what
                time.sleep(0.01)

        def tracked():
            with server._connections_lock:
                return dict(server._connections)

        wait_for(lambda: not any(tracked().values()), "a connection stayed busy")
        idle = list(tracked())
        for conn in idle:
            conn.shutdown(socket.SHUT_RDWR)
        wait_for(lambda: not set(idle) & set(tracked()), "the server kept a connection it shut")

    def test_one_client_thread_sends_on_one_connection(self, served, monkeypatch):
        client, _, _, server = served
        accepted = self._count_accepts(server, monkeypatch)
        for _ in range(20):
            assert client.health()["status"] == "ok"
        assert len(accepted) == 1, accepted

    def test_threads_sharing_a_client_never_share_a_connection(self, served):
        """More threads than cores on one client, switching often: each reply
        names the job its own request asked for, so no two threads ever
        interleaved on one connection."""
        client, _, _, _ = served
        threads_n, rounds = 8, 25
        errors = []

        def hammer(t):
            for i in range(rounds):
                job_id = f"missing-{t}-{i}"
                try:
                    client.job(job_id)
                except KeyError as exc:
                    if job_id not in str(exc):
                        errors.append((job_id, str(exc)))
                else:
                    errors.append((job_id, "no KeyError"))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=hammer, args=(t,)) for t in range(threads_n)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []

    def test_get_and_post_on_a_connection_closed_while_idle_are_resent_once(
        self, served, monkeypatch
    ):
        client, service, _, server = served
        accepted = self._count_accepts(server, monkeypatch)
        assert client.health()["status"] == "ok"
        # The client cannot see the close before it sends: the request itself
        # finds the connection dead, before any response byte.
        monkeypatch.setattr(client_module, "_closed_by_peer", lambda sock: False)
        self._close_idle_connections(server)
        assert client.health()["status"] == "ok"
        assert len(accepted) == 2
        self._close_idle_connections(server)
        job = client.submit(simulate(82))
        assert len(accepted) == 3
        assert job.result(timeout=30).total_cycles == cycles(simulate(82))
        assert [j.id for j in service.jobs()] == [job.id]  # submitted exactly once

    def test_a_connection_closed_while_idle_is_dropped_before_reuse(self, served, monkeypatch):
        client, _, _, server = served
        accepted = self._count_accepts(server, monkeypatch)
        assert client.health()["status"] == "ok"
        self._close_idle_connections(server)
        exchange = client._exchange
        sent = []

        def recording_exchange(*args, **kwargs):
            sent.append(args)
            return exchange(*args, **kwargs)

        monkeypatch.setattr(client, "_exchange", recording_exchange)
        assert client.health()["status"] == "ok"
        assert len(accepted) == 2 and len(sent) == 1

    def test_an_unread_body_is_discarded_after_a_404(self, served):
        _, _, _, server = served
        connection = http.client.HTTPConnection(*server.server_address[:2], timeout=10)
        try:
            status, _ = _exchange(connection, "POST", "/nope", b'{"spec": {}}')
            assert status == 404
            assert _exchange(connection, "GET", "/healthz")[0] == 200
        finally:
            connection.close()

    def test_an_unread_body_is_discarded_after_a_409(self, served):
        """A pool-dispatch server refuses worker verbs before reading the body."""
        _, _, _, server = served
        connection = http.client.HTTPConnection(*server.server_address[:2], timeout=10)
        try:
            status, body = _exchange(connection, "POST", "/workers/register", b'{"name": "w"}')
            assert status == 409 and "dispatch workers" in body["error"]
            assert _exchange(connection, "GET", "/healthz")[0] == 200
        finally:
            connection.close()

    def test_two_heartbeats_on_one_connection(self):
        """A heartbeat never reads its ``{}`` body; the second used to be a 501."""
        service = EvaluationService(cache=ReportCache(), worker_fleet=True)
        server = start_http_server(service, port=0)
        client = RemoteEvaluationClient(server.endpoint)
        connection = http.client.HTTPConnection(*server.server_address[:2], timeout=10)
        try:
            worker_id = client.register_worker("beating")["worker_id"]
            for _ in range(2):
                status, _ = _exchange(connection, "POST", f"/workers/{worker_id}/heartbeat", b"{}")
                assert status == 200
        finally:
            connection.close()
            client.close()
            server.close()
            service.close()

    def test_close_on_an_idle_server_returns_at_once(self, served):
        """The accept loop notices shutdown within its short poll (the stdlib's
        0.5 s made every server teardown wait it out)."""
        client, _, _, server = served
        assert client.health()["status"] == "ok"  # one idle kept-alive connection
        time.sleep(0.1)  # the accept loop is parked in its poll
        began = time.monotonic()
        server.close()
        assert time.monotonic() - began < 0.2


class TestJobListing:
    def test_status_filter_and_limit(self, served):
        client, _, _, _ = served
        jobs = [client.submit(simulate(seed)) for seed in range(70, 74)]
        assert client.wait_all(jobs, timeout=30)
        done = client.list_jobs(status="done")
        assert {job.id for job in jobs} <= {job.id for job in done}
        assert client.list_jobs(status=JobStatus.FAILED) == []
        limited = client.list_jobs(status="done", limit=2)
        assert len(limited) == 2
        # limit keeps the most recently submitted matches
        assert [job.id for job in limited] == [job.id for job in done[-2:]]
        assert len(client.list_jobs(limit=0)) == 0

    def test_invalid_filters_rejected(self, served):
        _, _, _, server = served
        status, body = _raw_request(server.endpoint, "/jobs?status=exploded")
        assert status == 400 and "queued" in body["error"]
        status, body = _raw_request(server.endpoint, "/jobs?limit=banana")
        assert status == 400 and "integer" in body["error"]
        status, body = _raw_request(server.endpoint, "/jobs?limit=-1")
        assert status == 400


class TestRemoteJobs:
    def test_job_roundtrip_by_handle_and_by_id(self, served):
        client, _, _, _ = served
        spec = simulate(83)
        job = client.submit(spec)
        assert job.result(timeout=30).total_cycles == cycles(spec)
        assert job.ok and job.done
        assert client.status(job.id) is JobStatus.DONE
        assert client.result(job.id, timeout=30).total_cycles == cycles(spec)

    def test_non_spec_rejected_client_side(self, served, monkeypatch):
        client, _, _, _ = served
        sent = []
        monkeypatch.setattr(client, "_request", lambda *args, **kwargs: sent.append(args))
        for not_a_spec in (lambda: 1, {"kind": "dict"}):
            with pytest.raises(TypeError, match="not a job spec"):
                client.submit(not_a_spec)
        assert sent == []  # nothing hit the wire

    def test_failed_job_surfaces_server_error(self, served, failing_backend):
        client, _, _, _ = served
        job = client.submit(simulate(84, backend=failing_backend))
        assert job.wait(30)
        assert job.status is JobStatus.FAILED
        with pytest.raises(JobFailedError, match="kaboom"):
            job.result()

    def test_unknown_job_raises_keyerror(self, served):
        client, _, _, _ = served
        with pytest.raises(KeyError):
            client.job("job-9999")
        with pytest.raises(KeyError):
            client.cancel("job-9999")

    def test_cancel_pending_job(self, served, monkeypatch):
        client, service, _, _ = served
        with held_scheduler(service, monkeypatch) as dispatching:
            first = client.submit(simulate(85))
            assert dispatching.wait(10)  # the next job stays queued
            victim = client.submit(simulate(86))
            assert victim.cancel() is True
        assert client.wait_all([first, victim], timeout=30)
        assert victim.status is JobStatus.CANCELLED  # it never ran
        with pytest.raises(JobFailedError, match="cancel"):
            victim.result()
        assert first.result(timeout=30).total_cycles == cycles(simulate(85))

    def test_simulation_job_matches_local_run(self, served):
        client, _, _, _ = served
        trace = make_trace(21)
        job = client.submit(SimulateJobSpec(config=sqdm_config(), trace=trace))
        report = job.result(timeout=120)
        expected = AcceleratorSimulator(sqdm_config()).run_trace(trace)
        assert report.total_cycles == expected.total_cycles
        assert report.total_energy.total_pj == expected.total_energy.total_pj


class TestLongPoll:
    """``GET /jobs/<id>?wait=<s>`` holds the request until the job ends, and
    the client's waits ride on it: no sleep between polls, and the result
    arrives in the response that sees the job finish."""

    def test_cold_sweep_costs_one_post_and_one_get(self, served, monkeypatch):
        client, service, _, _ = served
        calls = []
        request = client._request

        def recording_request(method, path, *args, **kwargs):
            calls.append((method, path))
            return request(method, path, *args, **kwargs)

        monkeypatch.setattr(client, "_request", recording_request)
        spec = SweepJobSpec(
            base=sqdm_config(),
            grid={"sparsity_threshold": [0.2, 0.4]},
            trace=make_trace(43),
            baseline=dense_baseline_config(),
        )
        job = client.submit_sweep(spec)
        outcome = job.result(timeout=120)
        assert len(outcome.reports) == 2
        assert service.cache.stats.misses == 3  # cold: every design point simulated
        assert [method for method, _ in calls] == ["POST", "GET"], calls
        assert calls[1][1].startswith(f"/jobs/{job.id}?result=1&wait=")

    def test_open_get_returns_as_soon_as_the_job_finishes(self, served, gated_backend):
        client, _, _, server = served
        job = client.submit(simulate(87, backend=gated_backend.backend))
        response = {}

        def long_poll():
            response["reply"] = _raw_request(server.endpoint, f"/jobs/{job.id}?wait=10&result=1")
            response["at"] = time.monotonic()

        thread = threading.Thread(target=long_poll)
        thread.start()
        time.sleep(0.3)
        assert "reply" not in response, "the GET must be held while the job runs"
        released = time.monotonic()
        gated_backend.release.set()
        thread.join(timeout=10)
        assert not thread.is_alive()
        status, body = response["reply"]
        assert status == 200 and body["status"] == "done"
        assert codec.decode(body["result"]).total_cycles == cycles(simulate(87))
        assert response["at"] - released < 0.2

    def test_result_timeout_clips_the_hold(self, served, gated_backend):
        client, _, _, _ = served
        job = client.submit(simulate(88, backend=gated_backend.backend))
        began = time.monotonic()
        with pytest.raises(TimeoutError):
            job.result(timeout=0.3)
        assert time.monotonic() - began < 1.0
        gated_backend.release.set()
        assert job.result(timeout=30).total_cycles == cycles(simulate(88))

    def test_socket_timeout_covers_the_hold(self, served, gated_backend):
        """With no retries to fall back on, a 0.5-s socket timeout still
        collects a 1.5-s job: the hold is added to the timeout."""
        _, _, _, server = served
        client = RemoteEvaluationClient(server.endpoint, timeout=0.5, retries=1)
        release = threading.Timer(1.5, gated_backend.release.set)
        release.start()
        try:
            job = client.submit(simulate(89, backend=gated_backend.backend))
            assert job.result(timeout=30).total_cycles == cycles(simulate(89))
        finally:
            release.cancel()

    def test_close_cancel_queued_ends_a_long_poll_at_once(self, served, monkeypatch):
        client, service, _, _ = served
        dispatching, release = threading.Event(), threading.Event()
        dispatch = service._dispatch

        def held_dispatch(drained):
            dispatching.set()
            release.wait(30)
            dispatch(drained)

        monkeypatch.setattr(service, "_dispatch", held_dispatch)
        client.submit(simulate(90))
        assert dispatching.wait(10)  # the scheduler is held: the next job stays queued
        victim = client.submit(simulate(91))
        outcome = {}

        def wait_for_victim():
            try:
                victim.result(timeout=30)
            except JobFailedError as exc:
                outcome["error"] = exc
            outcome["at"] = time.monotonic()

        waiter = threading.Thread(target=wait_for_victim)
        waiter.start()
        time.sleep(0.3)  # the victim's long-poll is open
        closing = time.monotonic()
        closer = threading.Thread(target=service.close, kwargs={"cancel_queued": True})
        closer.start()
        waiter.join(timeout=10)
        release.set()
        closer.join(timeout=30)
        assert not waiter.is_alive() and not closer.is_alive()
        assert "cancelled" in str(outcome.get("error")), outcome
        assert outcome["at"] - closing < 0.5

    def test_server_close_lets_an_open_long_poll_finish(self, served, gated_backend):
        """close() shuts a busy connection only for reading: the held GET
        still gets its whole response once the job ends."""
        client, _, _, server = served
        job = client.submit(simulate(92, backend=gated_backend.backend))
        response = {}

        def long_poll():
            response["reply"] = _raw_request(server.endpoint, f"/jobs/{job.id}?wait=10&result=1")

        thread = threading.Thread(target=long_poll)
        thread.start()
        time.sleep(0.3)  # the GET is held
        server.close()
        gated_backend.release.set()
        thread.join(timeout=10)
        assert not thread.is_alive()
        status, body = response["reply"]
        assert status == 200 and body["status"] == "done"
        assert codec.decode(body["result"]).total_cycles == cycles(simulate(92))

    def test_wait_parameter_is_validated(self, served):
        client, _, _, server = served
        job = client.submit(simulate(93))
        assert job.result(timeout=30).total_cycles == cycles(simulate(93))
        for bad in ("nan", "NaN", "banana"):
            status, body = _raw_request(server.endpoint, f"/jobs/{job.id}?wait={bad}")
            assert status == 400 and "wait" in body["error"], (bad, body)
        # In-range clamping: a negative hold is no hold.
        status, body = _raw_request(server.endpoint, f"/jobs/{job.id}?wait=-5&result=1")
        assert status == 200 and body["status"] == "done" and "result" in body


class TestServerSideSweeps:
    def test_sweep_spec_planned_and_batched_on_server(self, served):
        """One grid submission -> per-case reports + baseline, all planned
        server-side and bit-identical to local simulation."""
        client, service, _, _ = served
        trace = make_trace(41)
        spec = SweepJobSpec(
            base=sqdm_config(),
            grid={"sparsity_threshold": [0.2, 0.4]},
            trace=trace,
            baseline=dense_baseline_config(),
            name="remote-grid",
        )
        outcome = client.submit_sweep(spec).result(timeout=120)
        assert outcome.name == "remote-grid"
        assert outcome.params == [
            {"sparsity_threshold": 0.2},
            {"sparsity_threshold": 0.4},
        ]
        for params, report in zip(outcome.params, outcome.reports):
            expected = AcceleratorSimulator(sqdm_config(**params)).run_trace(trace)
            assert report.total_cycles == expected.total_cycles
        expected_baseline = AcceleratorSimulator(dense_baseline_config()).run_trace(trace)
        assert outcome.baseline.total_cycles == expected_baseline.total_cycles
        # one job submitted, three unique keys simulated
        stats = service.service_stats()
        assert stats["submitted"] == {"sweep": 1}
        assert service.cache.stats.misses == 3

    def test_served_sweep_slices_are_bit_identical_to_inline(self, served):
        """A served sweep arrives as one batch; the one-trace slices it hands
        out carry the bits InlineExecutor's cache slices do, cold and warm."""
        client, _, _, _ = served
        spec = SweepJobSpec(
            base=sqdm_config(),
            grid={"sparsity_threshold": [0.2, 0.4, 0.6]},
            trace=make_trace(45),
            baseline=dense_baseline_config(),
        )
        inline = InlineExecutor(cache=ReportCache()).submit(spec).result()
        want = [_digest(case) for case in inline.case_results()]
        for _ in ("cold", "warm"):
            result = client.submit_sweep(spec).result(timeout=120)
            assert len(result.parts) == 1 and result.parts[0].num_traces == 4
            assert [_digest(case) for case in result.case_results()] == want
            assert _digest(result.baseline_result()) == _digest(inline.baseline_result())
            assert result.reports == inline.reports and result.baseline == inline.baseline

    def test_served_sweep_reports_encode_as_inline_ones(self, served):
        """Reports read from a served sweep build their steps and layers from
        the decoded batch on first read, with every layer's bits intact."""
        client, _, _, _ = served
        spec = SweepJobSpec(
            base=sqdm_config(),
            grid={"sparsity_threshold": [0.2, 0.5]},
            trace=make_trace(46),
            baseline=dense_baseline_config(),
        )
        inline = InlineExecutor(cache=ReportCache()).submit(spec).result()
        result = client.submit_sweep(spec).result(timeout=120)
        assert [codec.dumps(report) for report in result.reports] == [
            codec.dumps(report) for report in inline.reports
        ]
        assert codec.dumps(result.baseline) == codec.dumps(inline.baseline)
        assert sum(len(step.layer_results) for step in result.baseline.step_results) > 0

    def test_concurrent_sweeps_from_two_clients_coalesce(self, served):
        """Acceptance: N clients submitting one grid each cost one simulation
        per unique design point, via single-flight + the shared cache."""
        client_a, service, _, server = served
        client_b = RemoteEvaluationClient(server.endpoint)
        trace = make_trace(42)
        spec = SweepJobSpec(
            base=sqdm_config(),
            grid={"sparsity_threshold": [0.2, 0.4]},
            trace=trace,
            baseline=dense_baseline_config(),
        )
        results: dict[str, object] = {}

        def sweep(name: str, client: RemoteEvaluationClient) -> None:
            results[name] = client.submit_sweep(spec).result(timeout=120)

        threads = [
            threading.Thread(target=sweep, args=("a", client_a)),
            threading.Thread(target=sweep, args=("b", client_b)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        for report_a, report_b in zip(results["a"].reports, results["b"].reports):
            assert report_a.total_cycles == report_b.total_cycles
        # 2 sweeps x 3 requests over 3 unique keys: exactly 3 simulations.
        assert service.cache.stats.misses == 3
        assert service.service_stats()["submitted"] == {"sweep": 2}

    def test_invalid_grid_rejected_before_queueing(self, served):
        client, service, _, _ = served
        with pytest.raises(ValueError, match="sweepable"):
            SweepJobSpec(base=sqdm_config(), grid={"warp_factor": [9]}, trace=make_trace(1))
        # a hand-crafted bad spec is refused by the server with 400
        spec = SweepJobSpec(
            base=sqdm_config(), grid={"sparsity_threshold": [0.2]}, trace=make_trace(1)
        )
        import repro.core.codec as codec

        doc = codec.encode(spec)
        doc["grid"] = {"warp_factor": [9]}
        with pytest.raises(RemoteServiceError, match="sweepable"):
            client._request("POST", "/jobs", {"spec": doc, "label": ""})
        assert service.jobs() == []  # nothing was queued

    def test_unknown_backend_rejected_at_submit(self, served):
        client, service, _, _ = served
        spec = SweepJobSpec(
            base=sqdm_config(),
            grid={"sparsity_threshold": [0.2]},
            trace=make_trace(2),
            backend="warp_drive",
        )
        with pytest.raises(RemoteServiceError, match="backend"):
            client.submit_sweep(spec)
        assert service.jobs() == []


def _ref(digest):
    return {"$schema": "trace_ref@1", "digest": digest}


def _sweep_body(trace_doc, **extra):
    """A hand-written sweep submission whose trace field is ``trace_doc``."""
    spec = {
        "$schema": "sweep_spec@1",
        "base": {"$schema": "accelerator_config@1", "name": "sqdm"},
        "grid": {"sparsity_threshold": [0.1, 0.3]},
        "trace": trace_doc,
    }
    return json.dumps({"spec": spec, **extra}).encode()


class TestTraceRefs:
    """A trace crosses the wire once per server: later specs on it carry
    ``trace_ref@1`` with the digest the server named in its ``201``."""

    @staticmethod
    def _record_requests(client, monkeypatch):
        calls = []
        request = client._request

        def recording_request(method, path, payload=None, *args, **kwargs):
            calls.append((method, path, payload))
            return request(method, path, payload, *args, **kwargs)

        monkeypatch.setattr(client, "_request", recording_request)
        return calls

    @staticmethod
    def _sweep(trace, thresholds=(0.2, 0.4)):
        return SweepJobSpec(
            base=sqdm_config(),
            grid={"sparsity_threshold": list(thresholds)},
            trace=trace,
            baseline=dense_baseline_config(),
        )

    def test_second_sweep_on_a_trace_posts_a_small_reference(self, served, monkeypatch):
        client, _, _, _ = served
        calls = self._record_requests(client, monkeypatch)
        trace = make_trace(43, steps=8, layers=4)
        inline = client.submit_sweep(self._sweep(trace)).result(timeout=120)
        by_ref = client.submit_sweep(self._sweep(trace)).result(timeout=120)
        assert by_ref == inline
        assert [method for method, _, _ in calls] == ["POST", "GET", "POST", "GET"]
        first, second = calls[0][2], calls[2][2]
        assert len(json.dumps(first)) > 4096
        assert len(json.dumps(second)) < 4096
        assert second["spec"]["trace"] == _ref(fingerprint_trace(trace))

    def test_fresh_server_answers_404_and_the_client_resends_inline_once(
        self, tmp_path, monkeypatch
    ):
        """A restarted server holds no traces: the reference costs one 404
        and one inline POST, and the sweep still succeeds."""
        trace = make_trace(44, steps=4)

        def serve(port):
            service = EvaluationService(cache=ReportCache(), max_workers=2)
            return service, start_http_server(service, port=port)

        service, server = serve(0)
        client = RemoteEvaluationClient(server.endpoint)
        calls = self._record_requests(client, monkeypatch)
        try:
            inline = client.submit_sweep(self._sweep(trace)).result(timeout=120)
        finally:
            server.close()
            service.close()
        service, server = serve(server.server_address[1])
        try:
            del calls[:]
            after_restart = client.submit_sweep(self._sweep(trace)).result(timeout=120)
            assert [method for method, _, _ in calls] == ["POST", "POST", "GET"]
            assert calls[0][2]["spec"]["trace"]["$schema"] == "trace_ref@1"
            assert calls[1][2]["spec"]["trace"]["$schema"] == "workload_trace@1"
            assert after_restart == inline
            # The inline resend registered the trace again.
            del calls[:]
            client.submit_sweep(self._sweep(trace, (0.3,))).result(timeout=120)
            assert calls[0][2]["spec"]["trace"]["$schema"] == "trace_ref@1"
        finally:
            server.close()
            service.close()

    def test_unknown_digest_is_a_404_that_names_it(self, served):
        _, service, _, server = served
        digest = "ab" * 32
        status, payload = _raw_request(server.endpoint, "/jobs", data=_sweep_body(_ref(digest)))
        assert status == 404
        assert payload["trace_digest"] == digest and digest in payload["error"]
        assert service.jobs() == []

    def test_equal_traces_from_two_clients_share_one_stored_object(self, served, monkeypatch):
        client_a, service, _, server = served
        client_b = RemoteEvaluationClient(server.endpoint)
        submitted = []
        submit = service.submit

        def recording_submit(spec, label=""):
            submitted.append(spec)
            return submit(spec, label)

        monkeypatch.setattr(service, "submit", recording_submit)
        trace_a, trace_b = make_trace(45), make_trace(45)
        assert trace_a is not trace_b
        job_a = client_a.submit_sweep(self._sweep(trace_a))
        job_b = client_b.submit_sweep(self._sweep(trace_b))
        assert job_a.summary()["trace_digest"] == job_b.summary()["trace_digest"]
        assert submitted[0].trace is submitted[1].trace
        assert job_a.result(timeout=120) == job_b.result(timeout=120)

    def test_simulate_spec_by_reference(self, served, monkeypatch):
        client, _, _, _ = served
        calls = self._record_requests(client, monkeypatch)
        trace = make_trace(46)
        first = client.submit(SimulateJobSpec(config=sqdm_config(), trace=trace)).result(
            timeout=120
        )
        second = client.submit(SimulateJobSpec(config=sqdm_config(), trace=trace)).result(
            timeout=120
        )
        posts = [payload for method, _, payload in calls if method == "POST"]
        assert posts[0]["spec"]["trace"]["$schema"] == "workload_trace@1"
        assert posts[1]["spec"]["trace"] == _ref(fingerprint_trace(trace))
        assert second == first
        expected = AcceleratorSimulator(sqdm_config()).run_trace(trace)
        assert second.total_cycles == expected.total_cycles

    def test_server_stores_only_digests_it_computed(self, served):
        """A client cannot name the digest a trace is stored under: the
        server fingerprints what it decoded and ignores any offered digest."""
        client, _, _, server = served
        chosen = "f" * 64
        trace = make_trace(47)
        trace_doc = codec.encode(trace, name="workload_trace")
        status, summary = _raw_request(
            server.endpoint, "/jobs", data=_sweep_body(trace_doc, trace_digest=chosen)
        )
        assert status == 201
        assert summary["trace_digest"] == fingerprint_trace(trace) != chosen
        status, _ = _raw_request(server.endpoint, "/jobs", data=_sweep_body(_ref(chosen)))
        assert status == 404
        status, by_ref = _raw_request(
            server.endpoint, "/jobs", data=_sweep_body(_ref(summary["trace_digest"]))
        )
        assert status == 201 and by_ref["trace_digest"] == summary["trace_digest"]
        assert client.schemas()["schemas"]["trace_ref"] == [1]

    def test_a_non_trace_envelope_is_a_400(self, served):
        _, _, _, server = served
        status, payload = _raw_request(
            server.endpoint,
            "/jobs",
            data=_sweep_body({"$schema": "accelerator_config@1", "name": "sqdm"}),
        )
        assert status == 400 and "trace_ref" in payload["error"]


class TestJobHistoryBytes:
    def test_old_sweeps_age_out_by_retained_result_bytes(self, served, monkeypatch):
        """Beyond MAX_RETAINED_RESULT_BYTES of results the oldest finished
        jobs lose id lookup (404), while their handles keep their results."""
        _, service, _, server = served
        trace = make_trace(48)

        def sweep(threshold):
            spec = SweepJobSpec(
                base=sqdm_config(), grid={"sparsity_threshold": [threshold]}, trace=trace
            )
            job = service.submit(spec)
            job.result(timeout=120)
            return job

        jobs = [sweep(0.1)]
        one = service_module._result_nbytes(jobs[0].result_value)
        assert one > 0
        monkeypatch.setattr(service_module, "MAX_RETAINED_RESULT_BYTES", one * 3 // 2)
        jobs += [sweep(0.2), sweep(0.3)]
        deadline = time.monotonic() + 10
        while len(service.jobs()) > 1 and time.monotonic() < deadline:
            time.sleep(0.01)  # the last completion callback retires the older jobs
        assert [job.id for job in service.jobs()] == [jobs[2].id]
        assert service.service_stats()["retained_result_bytes"] == one
        for job in jobs[:2]:
            status, _ = _raw_request(server.endpoint, f"/jobs/{job.id}")
            assert status == 404
            assert len(job.result().reports) == 1
        status, summary = _raw_request(server.endpoint, f"/jobs/{jobs[2].id}")
        assert status == 200 and summary["status"] == "done"


class TestMultiClientCoalescing:
    def test_two_clients_one_server_simulate_each_key_once(self, served):
        """Concurrent remote clients submitting the same individual jobs
        coalesce through the scheduler — one simulation per unique key."""
        client_a, service, _, server = served
        client_b = RemoteEvaluationClient(server.endpoint)
        traces = [make_trace(seed) for seed in range(2)]
        configs = [sqdm_config(), dense_baseline_config()]
        results: dict[str, list] = {}

        def sweep(name: str, client: RemoteEvaluationClient) -> None:
            jobs = [
                client.submit(SimulateJobSpec(config=config, trace=trace))
                for config in configs
                for trace in traces
            ]
            results[name] = [job.result(timeout=120) for job in jobs]

        threads = [
            threading.Thread(target=sweep, args=("a", client_a)),
            threading.Thread(target=sweep, args=("b", client_b)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert len(results["a"]) == len(results["b"]) == 4
        for report_a, report_b in zip(results["a"], results["b"]):
            assert report_a.total_cycles == report_b.total_cycles
        # 8 submissions, 4 unique (config, trace) keys: single-flight +
        # cache guarantee exactly one simulation per key.
        assert service.cache.stats.misses == 4
        stats = service.service_stats()
        assert stats["submitted"]["simulation"] == 8

    def test_warm_restarted_server_serves_from_store(self, tmp_path):
        """A new server over the same artifact dir re-simulates nothing."""
        root = tmp_path / "shared-store"
        trace = make_trace(31)

        def run_once() -> tuple:
            store = ArtifactStore(root)
            service = EvaluationService(cache=ReportCache(store=store), max_workers=2)
            server = start_http_server(service, port=0)
            client = RemoteEvaluationClient(server.endpoint)
            try:
                report = client.submit(SimulateJobSpec(config=sqdm_config(), trace=trace)).result(
                    timeout=120
                )
                return report, service.cache.stats
            finally:
                server.close()
                service.close()

        cold_report, cold_stats = run_once()
        warm_report, warm_stats = run_once()
        assert cold_stats.misses == 1
        assert warm_stats.misses == 0 and warm_stats.disk_hits == 1
        assert warm_report.total_cycles == cold_report.total_cycles


class TestRawJSONWire:
    """Acceptance: nothing on the wire requires unpickling — a sweep can be
    driven end to end with urllib + json alone (the curl contract)."""

    def test_handwritten_sweep_spec_runs_and_returns_plain_json(self, served):
        _, _, _, server = served
        raw_trace = [
            [
                {
                    "$schema": "conv_layer_workload@1",
                    "name": "l0",
                    "in_channels": 4,
                    "out_channels": 4,
                    "kernel_size": 3,
                    "out_height": 4,
                    "out_width": 4,
                    "weight_bits": 4,
                    "act_bits": 4,
                    "channel_sparsity": [0.5, 0.0, 0.9, 0.2],
                }
            ]
        ]
        body = json.dumps(
            {
                "spec": {
                    "$schema": "sweep_spec@1",
                    "base": {"$schema": "accelerator_config@1", "name": "sqdm"},
                    "grid": {"sparsity_threshold": [0.1, 0.3]},
                    "trace": raw_trace,
                    "baseline": {
                        "$schema": "accelerator_config@1",
                        "name": "dense_baseline",
                        "num_dpe": 2,
                        "num_spe": 0,
                    },
                },
                "label": "curl-style",
            }
        ).encode()
        status, summary = _raw_request(server.endpoint, "/jobs", data=body)
        assert status == 201 and summary["kind"] == "sweep"

        # One long-poll: held until the sweep ends, with the result attached.
        status, doc = _raw_request(server.endpoint, f"/jobs/{summary['id']}?wait=30&result=1")
        assert status == 200 and doc["status"] == "done", doc
        result = doc["result"]
        assert result["$schema"] == "sweep_result@3"
        # The sweep rides the wire as one columnar batch: the two cases in
        # grid order, then the baseline.
        assert result["baseline"] is True
        assert result["params"] == [{"sparsity_threshold": 0.1}, {"sparsity_threshold": 0.3}]
        assert result["batch"]["$schema"] == "columnar_report_batch@1"
        batch = codec.decode(result["batch"])
        assert batch.num_traces == 3
        assert batch.config_names == ["sqdm", "sqdm", "dense_baseline"]
        assert all(float(cycles) > 0 for cycles in batch.total_cycles)

    def test_http_and_client_modules_are_pickle_free(self):
        """The serve wire modules must not import pickle or base64 at all."""
        import repro.serve.client as client_module
        import repro.serve.http as http_module

        for module in (http_module, client_module):
            source = open(module.__file__, encoding="utf-8").read()
            assert "import pickle" not in source, module.__name__
            assert "import base64" not in source, module.__name__


_FRAME_ACCEPT = f"{codec.FRAME_MEDIA_TYPE}, application/json"


def _get(endpoint, path, accept):
    """One GET on a fresh ``http.client`` connection: (status, Content-Type, body)."""
    connection = http.client.HTTPConnection(endpoint.split("//", 1)[1], timeout=30)
    try:
        connection.request("GET", path, headers={"Accept": accept})
        response = connection.getresponse()
        return response.status, response.getheader("Content-Type"), response.read()
    finally:
        connection.close()


def _frame_bytes(lengths, tail=b"", result=None):
    """A hand-built frame of a done job whose header declares buffers of
    ``lengths`` bytes, followed by ``tail``."""
    doc = {"id": "job-1", "status": "done"}
    if result is not None:
        doc["result"] = result
    text = json.dumps({"doc": doc, "buffers": lengths}).encode()
    return len(text).to_bytes(8, "little") + text + tail


#: A result whose array names sidecar buffer 1, in a frame that carries one.
_SECOND_BUFFER_RESULT = {
    "$schema": "value@1",
    "value": {"$ndarray": {"dtype": "<f8", "shape": [2], "buffer": 1}},
}


class TestResultFrames:
    """A result long-poll whose Accept names the frame gets one binary frame;
    every other answer stays JSON, and a broken frame is an error, never a
    result."""

    def _finished_sweep(self, client, seed=47):
        spec = SweepJobSpec(
            base=sqdm_config(),
            grid={"sparsity_threshold": [0.2, 0.5]},
            trace=make_trace(seed),
            baseline=dense_baseline_config(),
        )
        job = client.submit_sweep(spec)
        return job, job.result(timeout=120)

    def test_the_frame_and_curls_json_decode_to_the_same_sweep(self, served, monkeypatch):
        client, _, _, server = served
        content_types = []
        exchange = client._exchange

        def recording_exchange(*args, **kwargs):
            response, data = exchange(*args, **kwargs)
            content_types.append(response.getheader("Content-Type"))
            return response, data

        monkeypatch.setattr(client, "_exchange", recording_exchange)
        job, framed = self._finished_sweep(client)
        assert content_types[-1] == codec.FRAME_MEDIA_TYPE

        status, content_type, body = _get(server.endpoint, f"/jobs/{job.id}?result=1", "*/*")
        assert (status, content_type) == (200, "application/json")
        doc = json.loads(body)
        assert doc["result"]["batch"]["trace_totals"]["$ndarray"]["data"]  # base64 inline
        inline = codec.decode(doc.pop("result"))
        assert job.summary() == doc
        assert [_digest(case) for case in framed.case_results()] == [
            _digest(case) for case in inline.case_results()
        ]
        assert _digest(framed.baseline_result()) == _digest(inline.baseline_result())
        assert (framed.name, framed.params) == (inline.name, inline.params)

    def test_the_frame_carries_the_artifact_layout(self, served):
        client, _, _, server = served
        job, _ = self._finished_sweep(client, seed=48)
        status, content_type, body = _get(
            server.endpoint, f"/jobs/{job.id}?result=1", _FRAME_ACCEPT
        )
        assert (status, content_type) == (200, codec.FRAME_MEDIA_TYPE)
        header_len = int.from_bytes(body[:8], "little")
        header = json.loads(body[8 : 8 + header_len])
        assert sorted(header) == ["buffers", "doc"]
        assert len(body) == 8 + header_len + sum(header["buffers"])
        doc, buffers = codec.unpack_frame(body)
        assert doc["status"] == "done" and doc["id"] == job.id
        totals = doc["result"]["batch"]["trace_totals"]["$ndarray"]
        assert "data" not in totals and isinstance(totals["buffer"], int)
        json_doc = json.loads(_get(server.endpoint, f"/jobs/{job.id}?result=1", "*/*")[2])
        raw = np.frombuffer(buffers[totals["buffer"]], dtype=totals["dtype"])
        inline = codec.decode_value(json_doc["result"]["batch"]["trace_totals"])
        assert raw.tobytes() == inline.tobytes()
        assert len(body) < len(json.dumps(json_doc))

    @pytest.mark.parametrize(
        "accept, query",
        [
            ("*/*", "?result=1"),
            ("application/json", "?result=1"),
            (_FRAME_ACCEPT, ""),
            (_FRAME_ACCEPT, "?result=0"),
        ],
    )
    def test_json_unless_a_result_long_poll_names_the_frame(self, served, accept, query):
        client, _, _, server = served
        job = client.submit(simulate(94))
        assert job.result(timeout=30).total_cycles == cycles(simulate(94))
        status, content_type, body = _get(server.endpoint, f"/jobs/{job.id}{query}", accept)
        assert (status, content_type) == (200, "application/json")
        assert json.loads(body)["status"] == "done"

    def test_errors_stay_json_when_the_frame_is_accepted(self, served):
        _, _, _, server = served
        for path in ("/jobs/job-9999?result=1", "/jobs/job-9999?result=1&wait=nan"):
            status, content_type, body = _get(server.endpoint, path, _FRAME_ACCEPT)
            assert status in (400, 404) and content_type == "application/json", path
            assert "error" in json.loads(body)

    def test_a_frame_only_accept_is_refused_since_errors_are_json(self, served):
        client, _, _, server = served
        job = client.submit(simulate(95))
        job.result(timeout=30)
        status, content_type, body = _get(
            server.endpoint, f"/jobs/{job.id}?result=1", codec.FRAME_MEDIA_TYPE
        )
        assert (status, content_type) == (406, "application/json")

    @pytest.mark.parametrize(
        "body, fault",
        [
            (b"\x07\x00", "shorter than its 8-byte length field"),
            ((10**6).to_bytes(8, "little") + b"{}", "header length 1000000 overruns"),
            (_frame_bytes([16], b"x" * 10), "buffers declare 16 bytes but 10 follow"),
            (_frame_bytes([], b"extra"), "buffers declare 0 bytes but 5 follow"),
            (_frame_bytes([-4]), "non-negative byte lengths"),
            (b"\x03\x00\x00\x00\x00\x00\x00\x00{x}", "not UTF-8 JSON"),
            (
                _frame_bytes([16], b"\x00" * 16, result=_SECOND_BUFFER_RESULT),
                r"binary buffer 1 out of range \(1 sidecar buffer",
            ),
        ],
        ids=[
            "short",
            "header-overruns",
            "buffers-overrun",
            "trailing-bytes",
            "negative-length",
            "header-not-json",
            "missing-buffer",
        ],
    )
    def test_a_broken_frame_raises_naming_the_fault(self, monkeypatch, body, fault):
        client = RemoteEvaluationClient("http://fleet", retries=1)
        response = _FakeResponse(200, {"Content-Type": codec.FRAME_MEDIA_TYPE}, body)
        monkeypatch.setattr(client._pool, "connect", lambda timeout: _FakeConnection(response))
        job = client_module.RemoteJob(client, {"id": "job-1", "status": "running"})
        with pytest.raises((RemoteServiceError, codec.SchemaError), match=fault):
            job.result(timeout=5)
        assert job.result_value is None


class TestCLIRemote:
    def test_cli_sweep_against_endpoint_matches_in_process(self, tmp_path, served):
        client, service, _, server = served
        scale = [
            "--workload", "cifar10",
            "--resolution", "8",
            "--sampling-steps", "2",
            "--trace-samples", "1",
            "--reference-samples", "16",
            "--fid-samples", "4",
            "--param", "sparsity_threshold=0.2,0.4",
        ]
        remote_json = tmp_path / "remote.json"
        local_json = tmp_path / "local.json"
        assert cli_main(
            [
                "sweep", *scale,
                "--endpoint", server.endpoint,
                "--json", str(remote_json),
            ]
        ) == 0
        assert cli_main(
            [
                "sweep", *scale,
                "--artifact-dir", str(tmp_path / "local-artifacts"),
                "--json", str(local_json),
            ]
        ) == 0
        remote = json.loads(remote_json.read_text())
        local = json.loads(local_json.read_text())
        assert remote["cases"] == local["cases"], "remote diverged from in-process service"
        assert remote["baseline_cycles"] == local["baseline_cycles"]
        assert remote["endpoint"] == server.endpoint
        assert remote["cache"]["misses"] == 3  # baseline + two cases, cold
        # the whole grid crossed the wire as ONE planned sweep job
        assert remote["cache"]["server"]["service"]["submitted"]["sweep"] == 1

    def test_serve_cli_starts_and_shuts_down(self, tmp_path):
        import repro

        env = dict(os.environ)
        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.serve.cli",
                "serve",
                "--port", "0",
                "--artifact-dir", str(tmp_path / "artifacts"),
                "--max-bytes", "1000000",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            line = process.stdout.readline()
            assert "listening on http://" in line
            endpoint = line.strip().split("listening on ")[-1]
            health = RemoteEvaluationClient(endpoint, retries=8).health()
            assert health["status"] == "ok"
            process.send_signal(signal.SIGINT)
            assert process.wait(timeout=30) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)


# -- retry backoff: bounded jitter + Retry-After ---------------------------------


class _FakeResponse:
    """Minimal ``http.client`` response with a fixed status, headers and body."""

    will_close = True  # never pooled: every scripted attempt gets a new connection

    def __init__(self, status=200, headers=None, payload=b'{"status": "ok"}'):
        self.status = status
        self._headers = headers or {}
        self._payload = payload

    def getheader(self, name, default=None):
        return self._headers.get(name, default)

    def read(self):
        return self._payload


class _FakeConnection:
    """An ``http.client`` connection stand-in playing one scripted outcome:
    an exception raised while sending, or a response."""

    sock = None

    def __init__(self, outcome):
        self._outcome = outcome

    def request(self, method, url, body=None, headers=None):
        if isinstance(self._outcome, Exception):
            raise self._outcome

    def getresponse(self):
        return self._outcome

    def close(self):
        pass


class TestRetryBackoff:
    """The client's retry schedule must not march a fleet in lockstep: delays
    carry bounded jitter, and a 503's Retry-After sets the delay floor."""

    def _patch_transport(self, monkeypatch, client, responses):
        """New connections play scripted outcomes; sleeps are recorded, not taken."""
        sleeps = []
        calls = {"count": 0}

        def fake_connect(timeout):
            calls["count"] += 1
            outcome = responses[min(calls["count"], len(responses)) - 1]
            if outcome == "ok":
                return _FakeConnection(_FakeResponse())
            if isinstance(outcome, Exception):
                return _FakeConnection(outcome)
            # an int (+ optional Retry-After) scripts an HTTP error response
            code, retry_after = outcome
            headers = {} if retry_after is None else {"Retry-After": str(retry_after)}
            return _FakeConnection(_FakeResponse(code, headers, b'{"error": "overloaded"}'))

        monkeypatch.setattr(client._pool, "connect", fake_connect)
        monkeypatch.setattr(
            "repro.serve.client.time.sleep", lambda seconds: sleeps.append(seconds)
        )
        return sleeps, calls

    def test_503_retries_honor_retry_after_floor(self, monkeypatch):
        client = RemoteEvaluationClient("http://fleet", retries=5, backoff=0.01)
        sleeps, calls = self._patch_transport(
            monkeypatch, client, [(503, "0.4"), (503, "0.4"), "ok"]
        )
        assert client.health() == {"status": "ok"}
        assert calls["count"] == 3
        assert len(sleeps) == 2
        assert all(delay >= 0.4 for delay in sleeps), sleeps

    def test_503_without_retry_after_uses_jittered_backoff(self, monkeypatch):
        client = RemoteEvaluationClient(
            "http://fleet", retries=3, backoff=0.1, jitter=0.5, max_backoff=5.0
        )
        sleeps, calls = self._patch_transport(monkeypatch, client, [(503, None), "ok"])
        assert client.health() == {"status": "ok"}
        assert len(sleeps) == 1
        # attempt 0: base 0.1, stretched into [0.1, 0.15] by bounded jitter
        assert 0.1 <= sleeps[0] <= 0.15 + 1e-9, sleeps

    def test_503_exhaustion_surfaces_server_error(self, monkeypatch):
        client = RemoteEvaluationClient("http://fleet", retries=3, backoff=0.01)
        self._patch_transport(monkeypatch, client, [(503, "0.1")] * 4)
        with pytest.raises(RemoteServiceError, match="503"):
            client.health()

    def test_post_retries_on_503_but_not_on_dropped_connection(self, monkeypatch):
        # 503 means the server did no work: POSTs retry.
        client = RemoteEvaluationClient("http://fleet", retries=4, backoff=0.01)
        sleeps, calls = self._patch_transport(monkeypatch, client, [(503, "0.2"), "ok"])
        assert client._request("POST", "/jobs", {"spec": {}}) == {"status": "ok"}
        assert calls["count"] == 2
        # A connection dropped mid-POST on a fresh connection may have
        # enqueued the job: no retry.
        sleeps2, calls2 = self._patch_transport(
            monkeypatch, client, [ConnectionResetError("connection reset")] * 3
        )
        with pytest.raises(RemoteServiceError, match="1 attempt"):
            client._request("POST", "/jobs", {"spec": {}})
        assert calls2["count"] == 1 and sleeps2 == []

    def test_transport_retry_delays_are_jittered_and_capped(self, monkeypatch):
        import random

        client = RemoteEvaluationClient(
            "http://fleet", retries=8, backoff=0.1, jitter=0.5, max_backoff=0.8
        )
        sleeps, calls = self._patch_transport(
            monkeypatch, client, [ConnectionRefusedError()] * 8
        )
        client._rng = random.Random(1234)  # deterministic but non-degenerate jitter
        with pytest.raises(RemoteServiceError, match="8 attempt"):
            client.health()
        assert calls["count"] == 8  # every attempt met a scripted refusal
        assert len(sleeps) == 7  # one backoff between each two attempts
        for attempt, delay in enumerate(sleeps):
            base = min(0.1 * 2**attempt, 0.8)
            assert base - 1e-9 <= delay <= base * 1.5 + 1e-9, (attempt, delay)
        # jitter actually varies the schedule (no lockstep)
        ratios = {round(delay / min(0.1 * 2**i, 0.8), 6) for i, delay in enumerate(sleeps)}
        assert len(ratios) > 1, ratios

    def test_the_last_refused_attempt_raises_without_sleeping(self, monkeypatch):
        """A dead server is reported when the last attempt fails: backoff
        sleeps only between attempts, and the retry counter counts only the
        attempts that follow one."""
        for retries in (1, 3):
            client = RemoteEvaluationClient("http://fleet", retries=retries, backoff=0.1)
            _, calls = self._patch_transport(
                monkeypatch, client, [ConnectionRefusedError()] * retries
            )
            slept_after = []
            monkeypatch.setattr(
                "repro.serve.client.time.sleep", lambda _: slept_after.append(calls["count"])
            )
            counted = client_module._RETRIES.total()
            with pytest.raises(RemoteServiceError, match=f"{retries} attempt"):
                client.health()
            assert calls["count"] == retries
            assert slept_after == list(range(1, retries))
            assert client_module._RETRIES.total() - counted == retries - 1

    def test_claims_and_heartbeats_make_one_attempt(self, monkeypatch):
        """A worker's own loops retry claims and heartbeats, and stop when the
        worker is told to: the client adds no retries or backoff of its own."""
        client = RemoteEvaluationClient("http://fleet", retries=5, backoff=0.01)
        sleeps, calls = self._patch_transport(
            monkeypatch, client, [ConnectionRefusedError()] * 5
        )
        with pytest.raises(RemoteServiceError, match="1 attempt"):
            client.claim_tasks("w1", wait_seconds=0.5)
        assert calls["count"] == 1 and sleeps == []
        with pytest.raises(RemoteServiceError, match="1 attempt"):
            client.worker_heartbeat("w1")
        assert calls["count"] == 2 and sleeps == []
        # A 503 is not retried either.
        sleeps, calls = self._patch_transport(monkeypatch, client, [(503, "0.1"), "ok"])
        with pytest.raises(RemoteServiceError, match="503"):
            client.worker_heartbeat("w1")
        assert calls["count"] == 1 and sleeps == []
        # Every other request keeps the client's retries: a refused GET retries.
        sleeps, calls = self._patch_transport(
            monkeypatch, client, [ConnectionRefusedError(), "ok"]
        )
        assert client.health() == {"status": "ok"}
        assert calls["count"] == 2 and len(sleeps) == 1

    def test_retry_after_parse_rules(self):
        from repro.serve.client import RETRY_AFTER_CAP, _parse_retry_after

        assert _parse_retry_after(None) is None
        assert _parse_retry_after("2.5") == 2.5
        assert _parse_retry_after("  7 ") == 7.0
        assert _parse_retry_after("-3") is None
        assert _parse_retry_after("Wed, 21 Oct 2026 07:28:00 GMT") is None
        assert _parse_retry_after("86400") == RETRY_AFTER_CAP


def _fetch_metrics(endpoint, headers=None):
    """Raw GET /metrics returning (status, content_type, body text)."""
    request = urllib.request.Request(
        f"{endpoint}/metrics", headers=headers or {}, method="GET"
    )
    with urllib.request.urlopen(request) as response:
        return response.status, response.headers.get("Content-Type"), response.read().decode(
            "utf-8"
        )


class TestMetricsAndTop:
    """GET /metrics (Prometheus text) and the repro top dashboard."""

    def _run_sweep(self, client, seed=47):
        spec = SweepJobSpec(
            base=sqdm_config(),
            grid={"sparsity_threshold": [0.2, 0.4]},
            trace=make_trace(seed),
            baseline=dense_baseline_config(),
            name="metrics-sweep",
        )
        return client.submit_sweep(spec).result(timeout=120)

    def test_metrics_is_prometheus_text(self, served):
        client, _, _, server = served
        self._run_sweep(client)
        status, content_type, text = _fetch_metrics(server.endpoint)
        assert status == 200
        assert content_type == "text/plain; version=0.0.4; charset=utf-8"
        # every layer of the stack reports at least one family
        for family in (
            "repro_service_jobs_submitted_total",
            "repro_service_jobs_completed_total",
            "repro_service_job_duration_seconds",
            "repro_service_queue_depth",
            "repro_scheduler_kernel_calls_total",
            "repro_scheduler_traces_simulated_total",
            "repro_cache_misses_total",
            "repro_kernel_duration_seconds",
            "repro_http_requests_total",
        ):
            assert f"# TYPE {family} " in text, family
        # histograms expose the full bucket/sum/count series
        assert 'repro_service_job_duration_seconds_bucket{kind="sweep",le="+Inf"}' in text
        assert "repro_service_job_duration_seconds_sum" in text

    def test_metrics_count_full_garbage_collections(self, served):
        """The interpreter's full collections, read at scrape time, so a
        collection storm shows in the server's own output."""
        import gc

        from repro.serve.top import parse_prometheus, sample_total

        _, _, _, server = served

        def full_collections():
            text = _fetch_metrics(server.endpoint)[2]
            assert "# TYPE repro_gc_full_collections gauge" in text
            return sample_total(parse_prometheus(text), "repro_gc_full_collections")

        before = full_collections()
        gc.collect()
        assert full_collections() > before

    def test_metrics_bypasses_json_content_negotiation(self, served):
        """Prometheus scrapers send text Accept headers; /metrics must not 406."""
        _, _, _, server = served
        status, content_type, _ = _fetch_metrics(
            server.endpoint, headers={"Accept": "text/plain"}
        )
        assert status == 200
        assert content_type.startswith("text/plain")

    def test_metrics_reconcile_with_service_stats(self, served):
        """Counter deltas across one sweep match the per-instance stats exactly
        (the registry is process-wide, so reconcile on before/after deltas)."""
        from repro.serve.top import parse_prometheus, sample_total

        client, service, _, server = served

        def scrape():
            return parse_prometheus(_fetch_metrics(server.endpoint)[2])

        before = scrape()
        self._run_sweep(client)
        after = scrape()

        def delta(name, **match):
            return sample_total(after, name, **match) - sample_total(before, name, **match)

        stats = service.service_stats()
        assert stats["submitted"] == {"sweep": 1}
        assert delta("repro_service_jobs_submitted_total", kind="sweep") == 1
        assert delta("repro_service_jobs_completed_total", kind="sweep", status="done") == 1
        # 2 grid points + 1 baseline = 3 unique design points, all cold
        assert delta("repro_cache_misses_total") == service.cache.stats.misses == 3
        assert delta("repro_scheduler_traces_simulated_total") == 3
        assert stats["scheduler"]["traces_simulated"] == 3
        assert delta("repro_scheduler_kernel_calls_total") >= 1
        assert delta("repro_kernel_duration_seconds_count") >= 1
        assert delta("repro_http_requests_total", method="GET", status="200") > 0

    def test_job_payloads_carry_monotonic_timing(self, served):
        client, _, _, server = served
        self._run_sweep(client)
        _, payload = _raw_request(server.endpoint, "/jobs")
        (job,) = payload["jobs"]
        assert job["status"] == "done"
        assert job["queued_seconds"] >= 0.0
        assert job["running_seconds"] > 0.0

    def test_top_once_renders_live_dashboard(self, served):
        import io

        from repro.serve.top import run_top

        client, _, _, server = served
        self._run_sweep(client)
        stream = io.StringIO()
        assert run_top(server.endpoint, once=True, stream=stream) == 0
        frame = stream.getvalue()
        assert "queue depth" in frame
        assert "coalescing ratio" in frame
        assert "cache hit rate" in frame
        assert "job latency p50" in frame and "p95" in frame and "p99" in frame
        assert "p50 -" not in frame  # completed jobs -> real latency estimates
        assert "metrics-sweep" in frame  # recent-jobs table shows the label

    def test_cli_top_once(self, served, capsys):
        client, _, _, server = served
        self._run_sweep(client)
        assert cli_main(["top", "--endpoint", server.endpoint, "--once"]) == 0
        out = capsys.readouterr().out
        assert "repro top" in out
        assert "queue depth" in out

    def test_top_unreachable_endpoint_fails_cleanly(self, capsys):
        import io

        from repro.serve.top import run_top

        assert run_top("http://127.0.0.1:9", once=True, stream=io.StringIO()) == 1
        assert "cannot reach" in capsys.readouterr().err
