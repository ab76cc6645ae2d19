"""Remote client for the evaluation service's HTTP front end.

:class:`RemoteEvaluationClient` mirrors the surface of
:class:`~repro.serve.service.EvaluationService` — the executor entry point
``submit(spec)`` and ``job`` / ``jobs`` / ``cancel`` / ``wait_all`` — over
kept-alive :mod:`http.client` connections (``submit_sweep(spec)`` is
``submit`` for a sweep spec).
Both are :class:`~repro.core.execution.Executor` implementations, so call
sites switch between the in-process service and a remote server by swapping
one object:

    with RemoteEvaluationClient("http://fleet-server:8035") as client:
        job = client.submit(SimulateJobSpec(config=sqdm_config(), trace=trace))
        report = job.result(timeout=300)

Everything crosses the wire as versioned, schema-tagged JSON
(:mod:`repro.core.codec` envelopes) — never pickles.  A job's result comes
back in one binary frame (:func:`~repro.core.codec.unpack_frame`): the
summary as JSON, the result's arrays as raw sidecar buffers after it.
Specs are plain data, never code; sweeps are submitted as one grid spec and
planned server-side.  The client advertises its wire version on every
request and surfaces the server's 4xx rejections (unknown schema, oversized
body, bad spec) as :class:`RemoteServiceError` without retrying; unknown job
ids become :class:`KeyError`, matching the in-process service.

Connections live in a small pool owned by the client: a request checks one
out and returns it after a complete response, so a thread's requests share
one connection, and :meth:`RemoteEvaluationClient.close` closes the pool.
A pooled connection the server closed is dropped before reuse, and a
request that fails on a reused connection before any response byte arrived
is resent once on a new connection, whatever its method: this server closes
a kept-alive connection only between requests, so nothing reached a handler.

Other transient transport failures (connection refused while the server
starts, a connection dropped mid-request) and HTTP 503 rejections are
retried with exponential backoff plus *bounded jitter*, so a fleet of clients hitting a
restarting server spreads its retries instead of hammering it in lockstep;
a ``Retry-After`` header on a 503 sets the floor of the next delay.  A
:class:`RemoteJob` waits by long-polling: the server holds each
``GET /jobs/<id>?result=1&wait=<s>`` open until the job ends, the caller's
deadline passes or :data:`~repro.serve.fleet.MAX_LONG_POLL_SECONDS` elapse,
and a finished job's result arrives in that same response, decoded exactly
once.  Failures carry the server-side error *message*; the original
exception type does not cross the wire.

A simulate or sweep spec's trace crosses the wire once per server: the
client remembers the digests a server named as ``trace_digest`` in the
``201`` of an inline submission, and later submissions of an equal trace
carry only ``{"$schema": "trace_ref@1", "digest": ...}``.  A server that no
longer holds the trace (evicted, or restarted) answers 404 and the client
resends the trace inline once, so callers keep passing
``SweepJobSpec(trace=...)`` and never see a reference.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import random
import select
import socket
import threading
import time
from typing import Any, Callable, Iterable, Mapping
from urllib.parse import urlsplit

from ..core import codec
from ..core.execution import (
    PLANNED_KINDS,
    TERMINAL_STATUSES,
    Executor,
    JobFailedError,
    JobHandle,
    JobStatus,
    job_kind,
)
from ..core.report_cache import memoized_fingerprint_trace
from ..core.telemetry import get_registry

# Client-side transport telemetry, shared by every client in the process.
_REQUEST_SECONDS = get_registry().histogram(
    "repro_client_request_seconds",
    "HTTP request latency from the remote client, by method and outcome.",
    labels=("method", "outcome"),
)
_RETRIES = get_registry().counter(
    "repro_client_retries_total", "Request attempts retried after a transient failure."
)
_BACKOFF_SECONDS = get_registry().counter(
    "repro_client_backoff_seconds_total", "Cumulative time spent sleeping between retries."
)
from .fleet import MAX_LONG_POLL_SECONDS
from .specs import DigestLRU, SweepJobSpec, TraceRef

#: Upper bound honored for a server's ``Retry-After`` header, so a
#: misconfigured (or hostile) server cannot park clients for hours.
RETRY_AFTER_CAP = 30.0

#: Idle kept-alive connections a client holds on to; more are closed on return.
MAX_IDLE_CONNECTIONS = 4

#: How a request fails when the server closed its kept-alive connection
#: before the request reached it: the send breaks, or the response ends
#: before its first byte (``http.client.RemoteDisconnected`` is a reset).
_STALE_CONNECTION_ERRORS = (ConnectionResetError, ConnectionAbortedError, BrokenPipeError)

_HEADERS = {
    "Content-Type": "application/json",
    "Accept": "application/json",
    "X-Repro-Wire-Version": str(codec.WIRE_VERSION),
}
#: For a request that takes a result frame (errors still come back as JSON).
_FRAME_HEADERS = {**_HEADERS, "Accept": f"{codec.FRAME_MEDIA_TYPE}, application/json"}


def _parse_retry_after(value: str | None) -> float | None:
    """Seconds from a ``Retry-After`` header (delta form only), capped."""
    if value is None:
        return None
    try:
        seconds = float(value.strip())
    except ValueError:
        return None  # HTTP-date form: fall back to our own backoff
    if seconds < 0:
        return None
    return min(seconds, RETRY_AFTER_CAP)


class RemoteServiceError(RuntimeError):
    """The server rejected a request or could not be reached."""


def _closed_by_peer(sock: socket.socket) -> bool:
    """Whether an idle kept-alive socket polls readable: between requests
    that means the server closed it (or sent bytes nobody asked for), so it
    cannot carry another request."""
    poller = select.poll()
    poller.register(sock, select.POLLIN)
    return bool(poller.poll(0))


class _ConnectionPool:
    """Kept-alive connections to one server, shared by a client's threads.

    A request checks a connection out and returns it after a complete
    response.  The pool is not thread-local: ``add_done_callback`` starts
    one watcher thread per job, and each takes its own connection.
    """

    def __init__(self, endpoint: str) -> None:
        parts = urlsplit(endpoint)
        host = parts.hostname
        if parts.scheme not in ("http", "https") or not host:
            raise ValueError(f"endpoint must be an http:// or https:// URL, got {endpoint!r}")
        self._https = parts.scheme == "https"
        self._host = host
        self._port = parts.port
        #: Path prefix of the endpoint, prepended to every request path.
        self.prefix = parts.path
        self._idle: list[http.client.HTTPConnection] = []  #: guarded by _lock
        self._closed = False  #: guarded by _lock
        self._lock = threading.Lock()

    def connect(self, timeout: float) -> http.client.HTTPConnection:
        """A new connection (it opens its socket on the first request)."""
        if self._https:
            return http.client.HTTPSConnection(self._host, self._port, timeout=timeout)
        return http.client.HTTPConnection(self._host, self._port, timeout=timeout)

    def checkout(self, timeout: float) -> tuple[http.client.HTTPConnection, bool]:
        """A connection for one request, and whether it carried one before.

        An idle connection the server closed is dropped here, before reuse.
        """
        while True:
            with self._lock:
                connection = self._idle.pop() if self._idle else None
            if connection is None:
                return self.connect(timeout), False
            sock = connection.sock
            if sock is None or _closed_by_peer(sock):
                connection.close()
                continue
            connection.timeout = timeout
            sock.settimeout(timeout)
            return connection, True

    def checkin(self, connection: http.client.HTTPConnection) -> None:
        """Keep a connection whose response was read completely for reuse."""
        with self._lock:
            if not self._closed and len(self._idle) < MAX_IDLE_CONNECTIONS:
                self._idle.append(connection)
                return
        connection.close()

    def close(self) -> None:
        """Close the idle connections; later requests use unpooled ones."""
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()


class _UnknownTraceError(RemoteServiceError):
    """A ``trace_ref`` named a digest the server does not hold (HTTP 404)."""


class RemoteJob(JobHandle):
    """Handle to one job living on a remote evaluation server.

    The client's :class:`~repro.core.execution.JobHandle`, with the contract
    of the service's :class:`~repro.serve.jobs.Job`.  It holds the job
    summary the server last returned: ``done``, :meth:`wait` and
    :meth:`result` long-poll only until that summary is terminal, while
    reading ``status`` of a job not yet terminal fetches a fresh one.
    ``result_value`` and ``error`` are populated once the job reaches a
    terminal state.  Failures carry the server-side error message; the
    original exception type does not cross the wire.
    """

    def __init__(self, client: "RemoteEvaluationClient", summary: Mapping[str, Any]) -> None:
        self._client = client
        self._summary = dict(summary)
        self.id: str = self._summary["id"]
        self.kind: str = self._summary.get("kind", "")
        self.label: str = self._summary.get("label", "")
        self.result_value: Any = None
        self.error: BaseException | None = None
        self._result_fetched = False
        self._callback_lock = threading.Lock()
        #: Callbacks for the watcher thread; None once it fired them.
        self._callbacks: list[Callable[[JobHandle], None]] | None = []  #: guarded by _callback_lock

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RemoteJob(id={self.id!r}, status={self._last_status().value!r})"

    # -- state ------------------------------------------------------------------

    def _last_status(self) -> JobStatus:
        """The status in the last summary read (no request)."""
        return JobStatus(self._summary["status"])

    def _refresh(self, wait: float | None = None) -> None:
        """Re-read the summary; with ``wait``, a long-poll of up to ``wait``
        seconds whose response also carries a done job's result."""
        path = f"/jobs/{self.id}"
        timeout: float | None = None
        if wait is not None:
            path += f"?result=1&wait={wait:.3f}"
            # The server may hold the request open for the whole wait.
            timeout = self._client.timeout + wait
        buffers: list[bytes] = []
        self._summary = self._client._request("GET", path, timeout=timeout, buffers=buffers)
        if self.done and not self._result_fetched:
            self._finalize(buffers)

    def _finalize(self, buffers: list[bytes] | None = None) -> None:
        """Decode a done job's result (``buffers``: the sidecars of the frame
        that carried the summary) or record a failed job's error."""
        if self._last_status() is JobStatus.DONE:
            if "result" not in self._summary:
                buffers = []
                self._summary = self._client._request(
                    "GET", f"/jobs/{self.id}?result=1", buffers=buffers
                )
            self.result_value = codec.decode(self._summary["result"], buffers=buffers)
        else:
            self.error = JobFailedError(
                f"job {self.id} ({self.label or self.kind}) {self._last_status().value}: "
                f"{self._summary.get('error')}"
            )
        self._result_fetched = True

    @property
    def status(self) -> JobStatus:
        """The job's current state: a job not yet terminal is re-read from the server."""
        if not self.done:
            self._refresh()
        return self._last_status()

    @property
    def done(self) -> bool:
        return self._last_status() in TERMINAL_STATUSES

    def summary(self) -> dict[str, Any]:
        return {k: v for k, v in self._summary.items() if k != "result"}

    # -- blocking ---------------------------------------------------------------

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job completes; False if the timeout expired first.

        Each request is a long-poll held for the time left before the
        deadline, at most :data:`~repro.serve.fleet.MAX_LONG_POLL_SECONDS`,
        so the response that sees the job finish also brings its result.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self.done:
            hold = MAX_LONG_POLL_SECONDS
            if deadline is not None:
                hold = min(hold, max(0.0, deadline - time.monotonic()))
            self._refresh(wait=hold)
            if not self.done and deadline is not None and time.monotonic() >= deadline:
                return False
        if not self._result_fetched:
            self._finalize()
        return True

    def result(self, timeout: float | None = None) -> Any:
        """The job's result, blocking until completion (parity with ``Job.result``)."""
        if not self.wait(timeout):
            raise TimeoutError(f"job {self.id} ({self.label or self.kind}) still running")
        if self._last_status() is not JobStatus.DONE:
            assert self.error is not None
            raise self.error
        return self.result_value

    def cancel(self) -> bool:
        """Ask the server to cancel this job; True when the cancellation won.

        False, too, for a job the server has already retired from its history.
        """
        try:
            return self._client.cancel(self.id)
        except KeyError:
            return False

    def add_done_callback(self, fn: Callable[[JobHandle], None]) -> None:
        """Run ``fn(job)`` once the job is terminal (immediately if it already is).

        Remote completion is observed by long-polling: the first callback of
        a running job starts one daemon watcher thread, which waits for the
        job and then fires every callback registered by then.
        """
        start_watcher = False
        with self._callback_lock:
            callbacks = None if self.done else self._callbacks
            if callbacks is not None:
                callbacks.append(fn)
                start_watcher = len(callbacks) == 1
        if callbacks is None:
            self._run_callback(fn)
        elif start_watcher:
            threading.Thread(target=self._watch, name=f"repro-job-{self.id}", daemon=True).start()

    def _watch(self) -> None:
        self.wait()
        with self._callback_lock:
            callbacks, self._callbacks = self._callbacks or [], None
        for fn in callbacks:
            self._run_callback(fn)


class RemoteEvaluationClient(Executor):
    """Submit evaluation jobs to a ``repro serve`` HTTP endpoint.

    Parameters
    ----------
    endpoint:
        Base URL of the server, e.g. ``"http://127.0.0.1:8035"``.
    timeout:
        Per-request socket timeout in seconds.  A long-poll (a job wait or a
        task claim) adds the time the server may hold the request.
    retries / backoff / max_backoff / jitter:
        Retry budget for transport failures and HTTP 503: attempt ``i``
        sleeps ``min(backoff * 2**i, max_backoff)`` stretched by a random
        factor in ``[1, 1 + jitter]`` — bounded jitter, so many clients
        retrying against one recovering server fan out instead of arriving
        in lockstep.  A ``Retry-After`` header on a 503 raises the floor of
        that delay (capped at :data:`RETRY_AFTER_CAP` seconds).
    """

    name = "remote"

    def __init__(
        self,
        endpoint: str,
        timeout: float = 30.0,
        retries: int = 5,
        backoff: float = 0.1,
        max_backoff: float = 5.0,
        jitter: float = 0.5,
    ) -> None:
        self.endpoint = endpoint.rstrip("/")
        self.timeout = timeout
        self.retries = max(1, retries)
        self.backoff = backoff
        self.max_backoff = max_backoff
        self.jitter = max(0.0, jitter)
        self._rng = random.Random()
        self._pool = _ConnectionPool(self.endpoint)
        #: Trace digests the server named in the 201 of this client's inline
        #: submissions: later submissions of those traces send a reference.
        self._server_traces = DigestLRU()

    def close(self) -> None:
        """Close the client's kept-alive connections."""
        self._pool.close()

    # -- transport --------------------------------------------------------------

    def _retry_delay(self, attempt: int, retry_after: float | None = None) -> float:
        """Jittered exponential backoff, floored by the server's Retry-After."""
        delay = min(self.backoff * 2**attempt, self.max_backoff)
        delay *= 1.0 + self._rng.random() * self.jitter
        if retry_after is not None:
            delay = max(delay, retry_after)
        return delay

    def _exchange(
        self,
        method: str,
        path: str,
        body: bytes | None,
        timeout: float,
        headers: Mapping[str, str] = _HEADERS,
    ) -> tuple[http.client.HTTPResponse, bytes]:
        """One request and its complete response on a pooled connection.

        A request that fails on a reused connection before any response
        byte arrived is resent once on a new connection, whatever its
        method: the server closes a kept-alive connection only between
        requests, so the first send never reached a handler.
        """
        connection, reused = self._pool.checkout(timeout)
        try:
            while True:
                try:
                    connection.request(method, self._pool.prefix + path, body, headers)
                    response = connection.getresponse()
                    break
                except _STALE_CONNECTION_ERRORS:
                    if not reused:
                        raise
                    connection.close()
                    connection, reused = self._pool.connect(timeout), False
            data = response.read()
        except BaseException:
            connection.close()
            raise
        if response.will_close:
            connection.close()
        else:
            self._pool.checkin(connection)
        return response, data

    def _request(
        self,
        method: str,
        path: str,
        payload: dict[str, Any] | None = None,
        timeout: float | None = None,
        *,
        retry: bool = True,
        buffers: list[bytes] | None = None,
    ) -> Any:
        """One API call, retried under the client's rules unless ``retry`` is
        False: then it makes exactly one attempt, for callers that retry on
        their own schedule and must stop when told to.

        With a ``buffers`` list the request also accepts a binary frame
        (:func:`~repro.core.codec.unpack_frame`): its document is returned
        like a JSON body, and its sidecar buffers land in ``buffers``.
        """
        request_timeout = self.timeout if timeout is None else timeout
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        headers = _HEADERS if buffers is None else _FRAME_HEADERS
        last_error: Exception | None = None
        attempts = self.retries if retry else 1
        for attempt in range(attempts):
            began = time.monotonic()
            try:
                response, data = self._exchange(method, path, body, request_timeout, headers)
            except (OSError, http.client.HTTPException) as exc:
                _REQUEST_SECONDS.observe(
                    time.monotonic() - began, method=method, outcome="transport"
                )
                last_error = exc
                # POST /jobs is not idempotent: a submission whose response
                # was lost may already be enqueued, so blindly retrying would
                # run the job twice.  Retry POSTs only when the connection was
                # refused outright (nothing reached the server — e.g. it is
                # still starting up); reads and cancels always retry.  The
                # last attempt fails at once: a backoff only ever precedes
                # another attempt.
                if attempt + 1 == attempts or (
                    method == "POST" and not isinstance(exc, ConnectionRefusedError)
                ):
                    break
                self._sleep_before_retry(self._retry_delay(attempt))
                continue
            if response.status < 400:
                _REQUEST_SECONDS.observe(time.monotonic() - began, method=method, outcome="ok")
                content_type = response.getheader("Content-Type") or ""
                if buffers is None or content_type != codec.FRAME_MEDIA_TYPE:
                    return json.loads(data.decode("utf-8"))
                doc, frame_buffers = codec.unpack_frame(data)
                buffers.extend(frame_buffers)
                return doc
            _REQUEST_SECONDS.observe(
                time.monotonic() - began, method=method, outcome=f"http_{response.status}"
            )
            # 503 is the one HTTP rejection that happens *before* the server
            # does any work (overloaded, or a load balancer with no healthy
            # backend), so even POSTs retry safely.  The server's Retry-After
            # sets the floor of the jittered delay.
            if response.status == 503 and attempt + 1 < attempts:
                retry_after = _parse_retry_after(response.getheader("Retry-After"))
                self._sleep_before_retry(self._retry_delay(attempt, retry_after))
                continue
            raise self._http_error(method, path, response.status, data)
        raise RemoteServiceError(
            f"cannot reach {self.endpoint}{path} ({method}, {attempt + 1} attempt(s)): "
            f"{last_error}"
        ) from last_error

    @staticmethod
    def _sleep_before_retry(delay: float) -> None:
        _RETRIES.inc()
        _BACKOFF_SECONDS.inc(delay)
        time.sleep(delay)

    @staticmethod
    def _http_error(method: str, path: str, status: int, data: bytes) -> Exception:
        try:
            body = json.loads(data.decode("utf-8"))
        # repro: allow[REP009] error body is best-effort; the HTTP code below is the signal
        except Exception:  # noqa: BLE001 - error body is best-effort
            body = {}
        if not isinstance(body, dict):
            body = {}
        message = body.get("error") or f"HTTP {status}"
        if status == 404 and path.startswith(("/jobs/", "/workers/")):
            # Parity with EvaluationService.job / WorkerFleet lookups; for a
            # worker this is its cue to re-register (server restarted, or a
            # newer incarnation retired it).
            return KeyError(message)
        error = f"{method} {path} failed: {message} (HTTP {status})"
        if status == 404 and "trace_digest" in body:
            return _UnknownTraceError(error)
        return RemoteServiceError(error)

    # -- submission -------------------------------------------------------------

    def submit(self, spec: Any, label: str = "") -> RemoteJob:
        """Submit one job spec as a schema-tagged JSON envelope (the executor
        entry point).

        A simulate or sweep spec whose trace this server already accepted
        from this client carries a ``trace_ref`` instead of the trace (see
        the module docstring).
        """
        kind = job_kind(spec)  # rejects non-specs with the uniform TypeError
        label = label or spec.default_label()
        if kind not in PLANNED_KINDS:
            return RemoteJob(self, self._post_job(spec, label))
        digest = memoized_fingerprint_trace(spec.trace)
        if self._server_traces.get(digest):
            try:
                by_ref = dataclasses.replace(spec, trace=TraceRef(digest))
                return RemoteJob(self, self._post_job(by_ref, label))
            except _UnknownTraceError:
                self._server_traces.discard(digest)  # evicted, or the server restarted
        summary = self._post_job(spec, label)
        if summary.get("trace_digest") == digest:
            self._server_traces.setdefault(digest, True)
        return RemoteJob(self, summary)

    def _post_job(self, spec: Any, label: str) -> dict[str, Any]:
        return self._request("POST", "/jobs", {"spec": codec.encode(spec), "label": label})

    def submit_sweep(self, spec: SweepJobSpec, label: str = "") -> RemoteJob:
        """``submit(spec, label)`` for a sweep: the server plans, coalesces
        and batches its cases into a :class:`~repro.serve.specs.SweepJobResult`."""
        return self.submit(spec, label)

    def stats(self) -> dict[str, Any]:
        return {"executor": self.name, **self.health().get("service", {})}

    # -- inspection -------------------------------------------------------------

    def job(self, job_id: str) -> RemoteJob:
        return RemoteJob(self, self._request("GET", f"/jobs/{job_id}"))

    def list_jobs(
        self, status: JobStatus | str | None = None, limit: int | None = None
    ) -> list[RemoteJob]:
        """Jobs known to the server, optionally filtered by status and capped.

        Mirrors ``GET /jobs?status=&limit=`` (and
        :meth:`EvaluationService.jobs`): ``limit`` keeps the most recently
        submitted matches.
        """
        query = []
        if status is not None:
            query.append(f"status={JobStatus(status).value}")
        if limit is not None:
            query.append(f"limit={int(limit)}")
        path = "/jobs" + ("?" + "&".join(query) if query else "")
        listing = self._request("GET", path)
        return [RemoteJob(self, summary) for summary in listing["jobs"]]

    def jobs(self) -> list[RemoteJob]:
        return self.list_jobs()

    def status(self, job_id: str) -> JobStatus:
        return self.job(job_id).status

    def result(self, job_id: str, timeout: float | None = None) -> Any:
        return self.job(job_id).result(timeout)

    def cancel(self, job_id: str) -> bool:
        """Cancel a job that has not started; False if it already ran."""
        return bool(self._request("DELETE", f"/jobs/{job_id}")["cancelled"])

    def wait_all(
        self, jobs: Iterable[RemoteJob] | None = None, timeout: float | None = None
    ) -> bool:
        """Wait for the given jobs (default: all on the server); False on timeout."""
        deadline = None if timeout is None else time.monotonic() + timeout
        for job in list(jobs) if jobs is not None else self.jobs():
            remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
            if not job.wait(remaining):
                return False
        return True

    # -- server state -----------------------------------------------------------

    def health(self) -> dict[str, Any]:
        return self._request("GET", "/healthz")

    def schemas(self) -> dict[str, Any]:
        """The server's wire version and registered schema versions."""
        return self._request("GET", "/schemas")

    def cache_stats(self) -> dict[str, Any]:
        return self._request("GET", "/cache/stats")

    def evict(
        self, max_bytes: int | None = None, ttl_seconds: float | None = None
    ) -> dict[str, Any]:
        """Run the server's artifact-store eviction policy."""
        body: dict[str, Any] = {}
        if max_bytes is not None:
            body["max_bytes"] = max_bytes
        if ttl_seconds is not None:
            body["ttl_seconds"] = ttl_seconds
        return self._request("POST", "/cache/evict", body)

    # -- worker fleet protocol --------------------------------------------------
    #
    # The pull-worker side of `repro serve --dispatch workers`: register,
    # long-poll claims, heartbeat leases, post results.  404s raise KeyError —
    # the worker's cue to re-register (see repro.serve.worker).

    def register_worker(
        self, name: str, concurrency: int = 1, lease_seconds: float | None = None
    ) -> dict[str, Any]:
        """Register with the server's fleet; returns the lease contract
        (``worker_id``, ``lease_seconds``, ``heartbeat_seconds``)."""
        body: dict[str, Any] = {"name": name, "concurrency": concurrency}
        if lease_seconds is not None:
            body["lease_seconds"] = lease_seconds
        return self._request("POST", "/workers/register", body)

    def claim_tasks(
        self, worker_id: str, max_tasks: int = 1, wait_seconds: float = 0.0
    ) -> list[dict[str, Any]]:
        """Long-poll for up to ``max_tasks`` leased task payloads.

        One attempt, without the client's retries: the worker's pull loop
        retries a failed claim itself and stops waiting when the worker is
        told to stop, so a draining worker whose server is gone exits at
        once instead of after the client's backoff.
        """
        payload = self._request(
            "POST",
            f"/workers/{worker_id}/claim",
            {"max_tasks": max_tasks, "wait_seconds": wait_seconds},
            # The server may hold the request open for the whole long-poll.
            timeout=self.timeout + wait_seconds,
            retry=False,
        )
        return list(payload["tasks"])

    def worker_heartbeat(self, worker_id: str) -> dict[str, Any]:
        """Renew every lease this worker holds (one attempt: the worker's
        heartbeat loop retries on its own schedule)."""
        return self._request("POST", f"/workers/{worker_id}/heartbeat", {}, retry=False)

    def complete_task(
        self,
        worker_id: str,
        task_id: str,
        reports: list[dict[str, Any]] | None = None,
        error: str | None = None,
    ) -> bool:
        """Post a task result (codec-encoded report envelopes) or an error.

        False means the lease was lost first (expired and requeued, or a
        duplicate) — the server kept nothing; another worker owns the retry.
        """
        body: dict[str, Any] = {"task_id": task_id}
        if error is not None:
            body["error"] = error
        else:
            body["reports"] = reports or []
        return bool(
            self._request("POST", f"/workers/{worker_id}/complete", body)["accepted"]
        )

    def workers(self) -> dict[str, Any]:
        """The server's fleet summary (``GET /workers``)."""
        return self._request("GET", "/workers")

