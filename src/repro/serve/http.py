"""REST front end for the evaluation service, on the standard library only.

:class:`EvaluationHTTPServer` wraps an
:class:`~repro.serve.service.EvaluationService` in a
:class:`http.server.ThreadingHTTPServer`, turning the in-process job queue
into something remote workers submit to — the shape large acquisition
systems converge on: a batching scheduler behind a small network protocol,
with clients submitting jobs and long-polling for their results.

Endpoints (JSON, but for the result frame below and ``/metrics``):

========  ==================  ==================================================
Method    Path                Meaning
========  ==================  ==================================================
POST      ``/jobs``           Submit a typed job spec; returns its summary,
                              plus ``trace_digest`` for a spec with a trace.
                              A ``trace_ref`` naming a digest this server
                              does not hold is a 404 naming it.
GET       ``/jobs``           List known jobs (``?status=``, ``?limit=``).
GET       ``/jobs/<id>``      One job's status; ``?result=1`` attaches the
                              schema-encoded result once the job is done;
                              ``?wait=<s>`` holds the request until the job
                              ends or ``<s>`` seconds pass (capped at 30).
DELETE    ``/jobs/<id>``      Cancel a job that has not started.
GET       ``/schemas``        Wire version + registered schema versions.
GET       ``/cache/stats``    Report-cache, artifact-store and service stats.
POST      ``/cache/evict``    Run the artifact store's eviction policy.
GET       ``/healthz``        Liveness probe with traffic counters.
GET       ``/metrics``        Telemetry registry, Prometheus text format.
========  ==================  ==================================================

``GET /metrics`` is the one non-JSON endpoint: it serves the process-wide
telemetry registry (:mod:`repro.core.telemetry`) as Prometheus text
exposition format 0.0.4 and skips JSON content negotiation, since scrapers
advertise text Accept headers.  Access logging is structured and opt-in:
enable ``REPRO_LOG=info`` (or ``repro serve --log-level info``) to get one
JSON line per request (method, path, status, duration, request bytes); by
default the server stays quiet.

**Everything on the wire is versioned, schema-tagged JSON** — no pickles, in
either direction.  A job submission is a typed spec envelope
(:mod:`repro.serve.specs`)::

    {"spec": {"$schema": "sweep_spec@1",
              "base": {"$schema": "accelerator_config@1", ...},
              "grid": {"sparsity_threshold": [0.2, 0.4]},
              "trace": {"$schema": "workload_trace@1", "steps": [[...]]}},
     "label": "nightly-sweep"}

and results come back as self-describing envelopes
(``{"$schema": "simulation_report@1", ...}``), so any HTTP client — curl
included — can submit work and read results without running this codebase.
Unknown schema names or versions are rejected with 400 before any work is
queued; clients can probe compatibility via ``GET /schemas``.

**Traces by content address.**  The server fingerprints every trace it
decodes (the report cache's own trace key), keeps the last
:data:`~repro.serve.specs.MAX_STORED_TRACES` in a digest-keyed LRU and
names the digest as ``trace_digest`` in the ``201``.  A later simulate or
sweep spec may then carry ``{"$schema": "trace_ref@1", "digest": "<hex>"}``
as its trace: ``POST /jobs`` swaps in the stored object, so every job on
one trace shares one decoded trace, or answers 404 with the digest in
``trace_digest`` when it holds none — evicted, or the server restarted —
and the client resends the trace inline.  Only digests the server computed
itself are stored.

Negotiation and limits: requests with a body must be
``application/json`` (else 415); an ``Accept`` header that excludes JSON is
refused with 406, as is an ``X-Repro-Wire-Version`` header naming an
unsupported protocol version; bodies beyond the server's
``max_request_bytes`` are refused with 413 *before* being read, so an
oversized submission cannot exhaust server memory, and a ``Content-Length``
that is not a non-negative integer is refused with 400.  Each of these
refusals closes the connection, since the unread body would otherwise be
parsed as the next request.  Any other answer first reads and discards a
declared body its handler did not read (a 404, a 409, a heartbeat's
``{}``), so a kept-alive connection always carries the next request intact.

Connections are kept alive.  :meth:`EvaluationHTTPServer.close` returns at
once, closes the idle ones and shuts the busy ones for reading only, so an
in-flight request (a long-poll included) still gets its whole response and
no client keeps talking to a closed server's handlers.

A finished sweep answers ``GET /jobs/<id>?result=1`` with one
``sweep_result@3``: its cases and baseline as one
``columnar_report_batch@1``, concatenated when it is encoded.

**Result frames.**  When the ``Accept`` of a ``?result=1`` request names
:data:`~repro.core.codec.FRAME_MEDIA_TYPE` (``application/vnd.repro.frame``)
besides JSON, the 200 is one binary frame in the artifact files' layout
(:func:`~repro.core.codec.pack_frame`): an 8-byte little-endian header
length, the JSON header ``{"doc": <the job summary>, "buffers": [len, ...]}``
whose result envelope references its arrays as ``{"$ndarray": {...,
"buffer": i}}``, then the raw buffers.  That saves base64's third and the
JSON text of every array.  :class:`~repro.serve.client.RemoteEvaluationClient`
asks for it; curl's ``*/*``, every other endpoint and every error answer
JSON, with arrays inline as base64.

Simulation and sweep jobs submitted by any number of clients coalesce
through the service's single-flight scheduler and share one artifact store.
Because every simulation is served through the shared
:class:`~repro.core.report_cache.ReportCache`, a server restarted over the
same artifact directory serves warm traffic entirely from disk — zero
re-simulation — which is exactly what the CI smoke stage asserts.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.parse import parse_qs, urlparse

from ..accelerator.simulator import WorkloadTrace
from ..core import codec, telemetry
from ..core.artifacts import ArtifactStore
from ..core.execution import JobStatus
from ..core.report_cache import memoized_fingerprint_trace
from .fleet import MAX_LONG_POLL_SECONDS, duration_seconds
from .service import EvaluationService
from .specs import DigestLRU, QualityJobSpec, SimulateJobSpec, SweepJobSpec, TraceRef

#: Upper bound on accepted request bodies (satellite guard against a single
#: oversized POST exhausting server memory).  Generous enough for real
#: traces; override per server via ``max_request_bytes``.
DEFAULT_MAX_REQUEST_BYTES = 64 * 1024 * 1024

#: How often a background server's accept loop checks for shutdown, i.e. the
#: most :meth:`EvaluationHTTPServer.close` waits for it (the stdlib default
#: is 0.5 s).  An idle wakeup is one ``poll`` call.
SHUTDOWN_POLL_SECONDS = 0.05

_HTTP_REQUESTS = telemetry.get_registry().counter(
    "repro_http_requests_total",
    "HTTP requests served, by method and response status.",
    labels=("method", "status"),
)

# Read at scrape time.  A gc.callbacks hook that took the registry lock would
# deadlock when a collection starts in a thread already holding that lock.
telemetry.get_registry().gauge(
    "repro_gc_full_collections",
    "Full (generation 2) garbage collections run by this interpreter.",
).set_function(lambda: gc.get_stats()[2]["collections"])


class _HTTPError(Exception):
    """Internal: maps a handler failure to an HTTP status + JSON error body
    (``{"error": message, **fields}``)."""

    def __init__(self, status: int, message: str, **fields: Any) -> None:
        super().__init__(message)
        self.status = status
        self.fields = fields


class EvaluationHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server bound to one evaluation service (and its store).

    Connections are kept alive between requests, and the server tracks each
    one it accepted as idle (waiting for a request line) or busy (reading,
    running or answering a request), so :meth:`close` can end them without
    cutting a response short.
    """

    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        service: EvaluationService,
        store: ArtifactStore | None = None,
        max_request_bytes: int = DEFAULT_MAX_REQUEST_BYTES,
    ) -> None:
        if max_request_bytes <= 0:
            raise ValueError("max_request_bytes must be positive")
        super().__init__(address, _EvaluationRequestHandler)
        self.service = service
        self.store = store if store is not None else service.cache.store
        self.max_request_bytes = max_request_bytes
        self._thread: threading.Thread | None = None
        #: Traces decoded from inline submissions, by digest.
        self._traces = DigestLRU()
        #: Accepted connections, True while one carries a request.
        self._connections: dict[socket.socket, bool] = {}  #: guarded by _connections_lock
        self._closing = False  #: guarded by _connections_lock
        self._connections_lock = threading.Lock()

    def resolve_trace(self, trace: "WorkloadTrace | TraceRef") -> tuple[WorkloadTrace, str]:
        """The stored trace a submission names, and its digest.

        An inline trace is fingerprinted here and stored unless an equal one
        already is, whose object then stands in for it; a
        :class:`~repro.serve.specs.TraceRef` must name a stored digest, else
        :class:`KeyError`.
        """
        if isinstance(trace, TraceRef):
            stored = self._traces.get(trace.digest)
            if stored is None:
                raise KeyError(trace.digest)
            return stored, trace.digest
        digest = memoized_fingerprint_trace(trace)
        return self._traces.setdefault(digest, trace), digest

    @property
    def endpoint(self) -> str:
        """The base URL clients should use (resolves ``port=0`` to the real port)."""
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def start_background(self) -> "EvaluationHTTPServer":
        """Serve from a daemon thread (tests and embedded use); returns self."""
        self._thread = threading.Thread(
            target=self.serve_forever,
            args=(SHUTDOWN_POLL_SECONDS,),
            name="repro-serve-http",
            daemon=True,
        )
        self._thread.start()
        return self

    # -- connection tracking (called from the serving and handler threads) ------

    def process_request(self, request: Any, client_address: Any) -> None:
        # Registered before its handler thread starts, in the serving thread,
        # so a connection accepted before close() stopped serving is tracked.
        with self._connections_lock:
            self._connections[request] = False
        super().process_request(request, client_address)

    def shutdown_request(self, request: Any) -> None:
        with self._connections_lock:
            self._connections.pop(request, None)
        super().shutdown_request(request)

    def begin_request(self, connection: socket.socket) -> bool:
        """Mark a connection busy with the request line just read; False once
        :meth:`close` began, and the request is then dropped unanswered."""
        with self._connections_lock:
            if self._closing:
                return False
            self._connections[connection] = True
            return True

    def end_request(self, connection: socket.socket) -> None:
        """Mark a connection idle again: its response is written."""
        with self._connections_lock:
            if connection in self._connections:
                self._connections[connection] = False

    def close(self) -> None:
        """Stop serving and release the socket (the service is left running).

        Kept-alive connections end here too, so a client cannot keep talking
        to this server's handlers after it closed: idle ones are shut at
        once, busy ones only for reading, so an in-flight request (a
        long-poll included) still gets its whole response before its
        connection ends.  A request line that arrives after this point is
        dropped unanswered, which a client may safely resend.
        """
        self.shutdown()
        self.server_close()
        with self._connections_lock:
            self._closing = True
            connections = list(self._connections.items())
        for connection, busy in connections:
            try:
                connection.shutdown(socket.SHUT_RD if busy else socket.SHUT_RDWR)
            except OSError:
                pass  # already closed by its peer
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def __enter__(self) -> "EvaluationHTTPServer":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def start_http_server(
    service: EvaluationService,
    host: str = "127.0.0.1",
    port: int = 0,
    store: ArtifactStore | None = None,
    max_request_bytes: int = DEFAULT_MAX_REQUEST_BYTES,
) -> EvaluationHTTPServer:
    """Start an :class:`EvaluationHTTPServer` on a background thread."""
    return EvaluationHTTPServer(
        (host, port), service, store=store, max_request_bytes=max_request_bytes
    ).start_background()


class _EvaluationRequestHandler(BaseHTTPRequestHandler):
    server: EvaluationHTTPServer
    protocol_version = "HTTP/1.1"
    # Headers and body go out as separate writes: without TCP_NODELAY the
    # body waits for the client's delayed ACK on every keep-alive request
    # after the first (~40 ms each).
    disable_nagle_algorithm = True
    #: The request's ``Content-Length``, parsed once by :meth:`parse_request`.
    _body_length = 0
    #: Bytes of that body still unread (see :meth:`_discard_unread_body`).
    _body_unread = 0

    # -- plumbing ---------------------------------------------------------------

    def handle_one_request(self) -> None:
        try:
            super().handle_one_request()
        finally:
            self.server.end_request(self.connection)

    def parse_request(self) -> bool:
        self._request_began = time.monotonic()
        self._body_length = self._body_unread = 0
        if not self.server.begin_request(self.connection):
            self.close_connection = True
            return False
        if not super().parse_request():
            return False
        raw = self.headers.get("Content-Length")
        if raw is None:
            return True
        value = raw.strip()
        if not (value.isascii() and value.isdigit()):
            # The body's extent is unknown, so the connection cannot carry
            # another request: answer and close, as for 413/415.
            self.close_connection = True
            self._send_json(
                400, {"error": f"Content-Length must be a non-negative integer, not {raw!r}"}
            )
            return False
        self._body_length = self._body_unread = int(value)
        return True

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002 - stdlib signature
        pass  # replaced by the structured access log in log_request

    def log_request(self, code: "int | str" = "-", size: "int | str" = "-") -> None:
        """Structured, opt-in access logging (one JSON line per request).

        Off by default — the job server stays quiet — and enabled with
        ``REPRO_LOG=info`` / ``repro serve --log-level info``.  The request
        counter is always recorded.
        """
        status = str(code)
        _HTTP_REQUESTS.inc(method=self.command or "-", status=status)
        log = telemetry.event_log()
        if not log.enabled("info"):
            return
        began = getattr(self, "_request_began", None)
        log.emit(
            "http.access",
            method=self.command or "-",
            # Absent when the stdlib refuses the request line itself (414).
            path=getattr(self, "path", None),
            status=int(status) if status.isdigit() else status,
            duration_s=None if began is None else time.monotonic() - began,
            request_bytes=self._body_length,
        )

    def _discard_unread_body(self) -> None:
        """Keep a kept-alive stream in step before answering: a declared body
        no handler read (a 404, a 409, a bodiless heartbeat) is read and
        dropped, up to ``max_request_bytes``; a larger one closes the
        connection instead, as 406/413/415 do."""
        if self.close_connection or not self._body_unread:
            return
        if self._body_unread > self.server.max_request_bytes:
            self.close_connection = True
            return
        while self._body_unread:
            chunk = self.rfile.read(min(self._body_unread, 1 << 16))
            if not chunk:
                self.close_connection = True
                return
            self._body_unread -= len(chunk)

    def _send_json(self, status: int, payload: dict[str, Any]) -> None:
        self._send_body(status, json.dumps(payload).encode("utf-8"), "application/json")

    def _send_body(self, status: int, body: bytes, content_type: str) -> None:
        self._discard_unread_body()
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("X-Repro-Wire-Version", str(codec.WIRE_VERSION))
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _accepted_media_types(self) -> set[str]:
        """The media types ``Accept`` names (parameters dropped); absent is ``*/*``."""
        accept = self.headers.get("Accept")
        if accept is None:
            return {"*/*"}
        return {part.split(";", 1)[0].strip().lower() for part in accept.split(",")}

    def _negotiate(self) -> None:
        """Refuse clients this server cannot talk to, before any work happens.

        * ``Accept`` must allow ``application/json`` (absent counts as
          ``*/*``) — a client demanding e.g. a pickle media type gets 406.
        * ``X-Repro-Wire-Version``, when sent, must match this server's
          :data:`~repro.core.codec.WIRE_VERSION` — envelope markers are not
          stable across wire versions, so a mismatch is an error, not a
          guess.
        """
        if not self._accepted_media_types() & {"application/json", "application/*", "*/*"}:
            accept = self.headers.get("Accept")
            raise _HTTPError(406, f"this server only produces application/json, not {accept!r}")
        wire_version = self.headers.get("X-Repro-Wire-Version")
        if wire_version is not None and wire_version.strip() != str(codec.WIRE_VERSION):
            raise _HTTPError(
                406,
                f"unsupported wire version {wire_version.strip()!r}; "
                f"this server speaks version {codec.WIRE_VERSION}",
            )

    def _read_json(self) -> dict[str, Any]:
        content_type = (self.headers.get("Content-Type") or "").split(";", 1)[0].strip().lower()
        length = self._body_length
        if length > self.server.max_request_bytes:
            # Refused before reading a byte: Content-Length is the guard.
            raise _HTTPError(
                413,
                f"request body of {length} bytes exceeds this server's limit of "
                f"{self.server.max_request_bytes} bytes",
            )
        if length == 0:
            return {}
        if content_type and content_type != "application/json":
            raise _HTTPError(
                415, f"request bodies must be application/json, not {content_type!r}"
            )
        raw = self.rfile.read(length)
        self._body_unread = 0
        try:
            parsed = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise _HTTPError(400, f"request body is not valid JSON: {exc}") from None
        if not isinstance(parsed, dict):
            raise _HTTPError(400, "request body must be a JSON object")
        return parsed

    def _dispatch(self, handler: Any, *args: Any) -> None:
        try:
            self._negotiate()
            status, payload = handler(*args)
            if isinstance(payload, bytes):
                self._send_body(status, payload, codec.FRAME_MEDIA_TYPE)
            else:
                self._send_json(status, payload)
        except _HTTPError as exc:
            if exc.status in (406, 413, 415):
                # These refusals happen before the request body is read, so
                # the only way to keep a keep-alive byte stream coherent is
                # to close the connection after responding — otherwise the
                # unread body would be parsed as the next request line.
                self.close_connection = True
            self._send_json(exc.status, {"error": str(exc), **exc.fields})
        except KeyError as exc:
            self._send_json(404, {"error": str(exc.args[0]) if exc.args else "not found"})
        # repro: allow[REP009] error is returned to the client as the HTTP 500 body
        except Exception as exc:  # noqa: BLE001 - one bad request must not kill the server
            self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})

    # -- routing ----------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib handler naming
        parsed = urlparse(self.path)
        parts = [p for p in parsed.path.split("/") if p]
        if parts == ["metrics"]:
            # Prometheus scrapers send text Accept headers, so this endpoint
            # bypasses the JSON negotiation entirely.
            self._get_metrics()
        elif parts == ["healthz"]:
            self._dispatch(self._get_healthz)
        elif parts == ["schemas"]:
            self._dispatch(self._get_schemas)
        elif parts == ["jobs"]:
            self._dispatch(self._get_jobs, parse_qs(parsed.query))
        elif len(parts) == 2 and parts[0] == "jobs":
            self._dispatch(self._get_job, parts[1], parse_qs(parsed.query))
        elif parts == ["cache", "stats"]:
            self._dispatch(self._get_cache_stats)
        elif parts == ["workers"]:
            self._dispatch(self._get_workers)
        else:
            self._send_json(404, {"error": f"unknown path {parsed.path!r}"})

    def do_POST(self) -> None:  # noqa: N802 - stdlib handler naming
        parts = [p for p in urlparse(self.path).path.split("/") if p]
        if parts == ["jobs"]:
            self._dispatch(self._post_job)
        elif parts == ["cache", "evict"]:
            self._dispatch(self._post_cache_evict)
        elif parts == ["workers", "register"]:
            self._dispatch(self._post_worker_register)
        elif len(parts) == 3 and parts[0] == "workers" and parts[2] == "claim":
            self._dispatch(self._post_worker_claim, parts[1])
        elif len(parts) == 3 and parts[0] == "workers" and parts[2] == "heartbeat":
            self._dispatch(self._post_worker_heartbeat, parts[1])
        elif len(parts) == 3 and parts[0] == "workers" and parts[2] == "complete":
            self._dispatch(self._post_worker_complete, parts[1])
        else:
            self._send_json(404, {"error": f"unknown path {self.path!r}"})

    def do_DELETE(self) -> None:  # noqa: N802 - stdlib handler naming
        parts = [p for p in urlparse(self.path).path.split("/") if p]
        if len(parts) == 2 and parts[0] == "jobs":
            self._dispatch(self._delete_job, parts[1])
        else:
            self._send_json(404, {"error": f"unknown path {self.path!r}"})

    # -- handlers ---------------------------------------------------------------

    def _get_metrics(self) -> None:
        """The telemetry registry in Prometheus text exposition format 0.0.4."""
        body = telemetry.render_prometheus().encode("utf-8")
        self._send_body(200, body, "text/plain; version=0.0.4; charset=utf-8")

    def _get_healthz(self) -> tuple[int, dict[str, Any]]:
        return 200, {
            "status": "ok",
            "wire_version": codec.WIRE_VERSION,
            "service": self.server.service.service_stats(),
            "store": str(self.server.store.root) if self.server.store is not None else None,
        }

    def _get_schemas(self) -> tuple[int, dict[str, Any]]:
        return 200, {
            "wire_version": codec.WIRE_VERSION,
            "schemas": codec.registered_schemas(),
        }

    def _get_jobs(self, query: dict[str, list[str]]) -> tuple[int, dict[str, Any]]:
        status = query.get("status", [None])[-1]
        if status is not None:
            try:
                status = JobStatus(status)
            except ValueError:
                known = [s.value for s in JobStatus]
                raise _HTTPError(400, f"unknown status {status!r}; one of {known}") from None
        limit = query.get("limit", [None])[-1]
        if limit is not None:
            try:
                limit = int(limit)
            except ValueError:
                raise _HTTPError(400, f"limit must be an integer, got {limit!r}") from None
            if limit < 0:
                raise _HTTPError(400, "limit must be >= 0")
        jobs = self.server.service.jobs(status=status, limit=limit)
        return 200, {"jobs": [job.summary() for job in jobs]}

    def _get_job(
        self, job_id: str, query: dict[str, list[str]]
    ) -> tuple[int, dict[str, Any] | bytes]:
        with_result = query.get("result", ["0"])[-1] not in ("0", "", "false")
        wait = _wait_seconds(query)
        job = self.server.service.job(job_id)
        job.wait(wait)  # the long-poll: blocks on the job's completion event, no lock held
        # One read of the status decides both fields, so a job finishing
        # after this summary cannot ship its result under a "running" status.
        payload = job.summary()
        # A client that names the frame gets the result's arrays as raw
        # sidecars; everyone else gets them inline as base64.
        framed = with_result and codec.FRAME_MEDIA_TYPE in self._accepted_media_types()
        buffers: list[bytes] | None = [] if framed else None
        if with_result and payload["status"] == JobStatus.DONE.value:
            payload["result"] = codec.encode(job.result_value, arrays=buffers)
        if buffers is None:
            return 200, payload
        return 200, codec.pack_frame(payload, buffers)

    def _post_job(self) -> tuple[int, dict[str, Any]]:
        body = self._read_json()
        if "spec" not in body:
            raise _HTTPError(
                400,
                "job submission needs a 'spec' field holding a typed job-spec "
                "envelope (simulate_spec, sweep_spec or quality_spec)",
            )
        label = str(body.get("label") or "")
        try:
            spec = codec.decode(body["spec"])
        except codec.SchemaError as exc:
            # Covers unknown schema names/versions and malformed payloads.
            raise _HTTPError(400, str(exc)) from None
        trace_digest: str | None = None
        if isinstance(spec, (SimulateJobSpec, SweepJobSpec)):
            try:
                trace, trace_digest = self.server.resolve_trace(spec.trace)
            except KeyError:
                digest = spec.trace.digest
                raise _HTTPError(
                    404,
                    f"unknown trace digest {digest!r}: this server holds no such "
                    "trace; resend it inline",
                    trace_digest=digest,
                ) from None
            spec = dataclasses.replace(spec, trace=trace)
        elif isinstance(spec, QualityJobSpec):
            # Remote clients do not get to name server-side filesystem paths:
            # quality jobs always run against THIS server's artifact store
            # (which is also what makes their FID statistics shareable).
            store = self.server.store
            spec = dataclasses.replace(
                spec, artifact_dir=str(store.root) if store is not None else None
            )
        try:
            job = self.server.service.submit(spec, label=label)
        except (TypeError, ValueError, KeyError) as exc:
            # e.g. an envelope that is no job spec or a config the spec's own
            # validation only catches at planning time: the client's error.
            raise _HTTPError(400, f"cannot submit {type(spec).__name__}: {exc}") from None
        summary = job.summary()
        if trace_digest is not None:
            summary["trace_digest"] = trace_digest
        return 201, summary

    def _delete_job(self, job_id: str) -> tuple[int, dict[str, Any]]:
        cancelled = self.server.service.cancel(job_id)
        payload = self.server.service.job(job_id).summary()
        payload["cancelled"] = cancelled
        return 200, payload

    def _get_cache_stats(self) -> tuple[int, dict[str, Any]]:
        cache = self.server.service.cache
        payload: dict[str, Any] = {
            "cache": {
                "memory_hits": cache.stats.hits,
                "disk_hits": cache.stats.disk_hits,
                "misses": cache.stats.misses,
                "hit_rate": cache.stats.hit_rate,
                "entries": len(cache),
            },
            "service": self.server.service.service_stats(),
            "store": self.server.store.summary() if self.server.store is not None else None,
        }
        return 200, payload

    # -- worker fleet -----------------------------------------------------------

    def _fleet(self) -> Any:
        fleet = getattr(self.server.service, "fleet", None)
        if fleet is None:
            raise _HTTPError(
                409,
                "this server dispatches to its in-process pool, not to pull "
                "workers; restart it with `repro serve --dispatch workers`",
            )
        return fleet

    def _post_worker_register(self) -> tuple[int, dict[str, Any]]:
        fleet = self._fleet()
        body = self._read_json()
        name = str(body.get("name") or "")
        if not name:
            raise _HTTPError(400, "worker registration needs a non-empty 'name'")
        try:
            worker = fleet.register(
                name,
                concurrency=body.get("concurrency", 1),
                lease_seconds=body.get("lease_seconds"),
            )
        except (TypeError, ValueError) as exc:
            raise _HTTPError(400, f"cannot register worker: {exc}") from None
        return 201, {
            "worker_id": worker.id,
            "name": worker.name,
            "lease_seconds": worker.lease_seconds,
            # The contract, not a suggestion: heartbeat at least this often.
            "heartbeat_seconds": worker.lease_seconds / 3.0,
            "wire_version": codec.WIRE_VERSION,
        }

    def _post_worker_claim(self, worker_id: str) -> tuple[int, dict[str, Any]]:
        fleet = self._fleet()
        body = self._read_json()
        wait = body.get("wait_seconds")
        try:
            tasks = fleet.claim(
                worker_id,
                max_tasks=body.get("max_tasks", 1),
                wait_seconds=0.0 if wait is None else wait,
            )
        except (TypeError, ValueError) as exc:
            raise _HTTPError(400, f"bad claim request: {exc}") from None
        return 200, {"tasks": tasks}

    def _post_worker_heartbeat(self, worker_id: str) -> tuple[int, dict[str, Any]]:
        return 200, self._fleet().heartbeat(worker_id)

    def _post_worker_complete(self, worker_id: str) -> tuple[int, dict[str, Any]]:
        fleet = self._fleet()
        body = self._read_json()
        task_id = str(body.get("task_id") or "")
        if not task_id:
            raise _HTTPError(400, "completion needs a 'task_id'")
        error = body.get("error")
        reports = None
        if error is None:
            encoded = body.get("reports")
            if not isinstance(encoded, list):
                raise _HTTPError(400, "completion needs 'reports' (a list) or 'error'")
            try:
                reports = [codec.decode(item) for item in encoded]
            except codec.SchemaError as exc:
                raise _HTTPError(400, f"malformed report envelope: {exc}") from None
        try:
            accepted = fleet.complete(
                worker_id, task_id, reports=reports, error=None if error is None else str(error)
            )
        except ValueError as exc:
            raise _HTTPError(400, str(exc)) from None
        return 200, {"task_id": task_id, "accepted": accepted}

    def _get_workers(self) -> tuple[int, dict[str, Any]]:
        return 200, self._fleet().summary()

    def _post_cache_evict(self) -> tuple[int, dict[str, Any]]:
        store = self.server.store
        if store is None:
            raise _HTTPError(409, "no artifact store configured on this server")
        body = self._read_json()
        # Both bounds are checked before the store is touched.
        max_bytes = _optional_bound(body, "max_bytes", (int,), "integer")
        ttl_seconds = _optional_bound(body, "ttl_seconds", (int, float), "number")
        result = store.evict(max_bytes=max_bytes, ttl_seconds=ttl_seconds)
        return 200, result.summary()


def _wait_seconds(query: dict[str, list[str]]) -> float:
    """The ``?wait=`` hold in seconds, clamped to ``[0, MAX_LONG_POLL_SECONDS]``;
    a value that is not a number (NaN included) is a 400 naming the field."""
    raw = query.get("wait", [None])[-1]
    if raw is None:
        return 0.0
    try:
        seconds = duration_seconds(float(raw), "wait")
    except ValueError:
        raise _HTTPError(400, f"wait must be a number of seconds, got {raw!r}") from None
    return min(max(seconds, 0.0), MAX_LONG_POLL_SECONDS)


def _optional_bound(
    body: dict[str, Any], field: str, types: tuple[type, ...], kind: str
) -> int | float | None:
    """``body[field]`` when it is null or a non-negative ``types`` value, else a 400.

    Booleans are ints to Python but never a byte count or a duration, and
    NaN fails the ``>= 0`` test like a negative value does.
    """
    value = body.get(field)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, types) or not value >= 0:
        raise _HTTPError(400, f"{field} must be null or a non-negative {kind}, got {value!r}")
    return value
