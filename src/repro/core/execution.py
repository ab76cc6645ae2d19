"""Unified execution API: one ``Executor`` protocol over every backend.

The fleet layer has four ways to run an evaluation — inline in the calling
thread, fanned out over :mod:`concurrent.futures` pools, queued on an
in-process :class:`~repro.serve.service.EvaluationService`, or POSTed to a
remote ``repro serve`` endpoint — each with its own result type (``Job``,
``RemoteJob``, raw reports).  Large acquisition systems solve the same
problem by exposing *one* submission front end over heterogeneous readout
backends; this module is that front end for the repository:

:class:`Executor`
    The protocol every backend implements: ``submit(spec) -> JobHandle``,
    ``map(specs)``, ``stats()``, ``capabilities()``, ``close()`` and
    context-manager lifecycle.  What is submitted are the typed job specs of
    :mod:`repro.serve.specs` (``simulate_spec`` / ``sweep_spec`` /
    ``quality_spec`` / ``callable_spec``) plus :class:`LocalCallSpec` for
    in-process callables that never cross a wire.
:class:`JobHandle`
    The uniform future every ``submit`` returns — ``result(timeout=)``,
    ``done()``, ``cancel()``, ``status``, ``add_done_callback`` — subsuming
    the previous ``Job`` / ``RemoteJob`` split.  ``result`` raises
    :class:`TimeoutError` when the timeout expires and
    :class:`JobFailedError` (chained to the underlying exception) when the
    job failed or was cancelled, on every backend.
:class:`InlineExecutor` / :class:`PoolExecutor` / :class:`ServiceExecutor` /
:class:`RemoteExecutor`
    The built-in backends.  ``InlineExecutor.map`` batches simulation work
    through one :func:`~repro.serve.scheduler.run_batched` pass (shared
    baselines coalesce exactly like the service's scheduler), so the
    pipeline's hardware evaluation keeps its batching behaviour when routed
    through the protocol.
:func:`register_executor` / :func:`resolve_executor`
    A name registry so new backends (pull-based workers, sharded servers)
    slot in behind the same surface, and command lines can pick one by
    name.

Everything serve-related is imported lazily: the core package stays
importable (and this module usable with :class:`InlineExecutor` /
:class:`PoolExecutor` on plain callables) without pulling the service stack
in at import time.
"""

from __future__ import annotations

import itertools
import pickle  # repro: allow[REP001] picklability *guard* only — nothing is ever deserialized
import threading
from abc import ABC, abstractmethod
from concurrent.futures import CancelledError, Future, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeout
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Sequence

from .telemetry import event_log

if TYPE_CHECKING:  # pragma: no cover - typing only; serve imports stay lazy
    from ..serve.client import RemoteEvaluationClient
    from ..serve.service import EvaluationService
    from .report_cache import ReportCache


class JobStatus(str, Enum):
    """Lifecycle states of a submitted job, shared by every backend."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


#: States in which a job will never produce further progress.
TERMINAL_STATUSES = (JobStatus.DONE, JobStatus.FAILED, JobStatus.CANCELLED)


class JobFailedError(RuntimeError):
    """Raised by :meth:`JobHandle.result` when the job failed or was cancelled."""


def ensure_picklable(obj: Any, error_message: str) -> None:
    """Fail fast (and intelligibly) on payloads that cannot cross processes.

    ``ProcessPoolExecutor`` pickles work per submission; for lambdas,
    locally-defined functions or closures over live models that fails deep
    inside the pool with a bare ``PicklingError`` traceback.  Checking at the
    submission boundary turns it into an actionable error before any worker
    spawns — the process-pool executor and the evaluation service's sampling
    jobs both route through this guard.
    """
    try:
        pickle.dumps(obj)
    except Exception as exc:
        raise ValueError(f"{error_message} ({exc})") from exc


# -- specs -------------------------------------------------------------------------

#: Spec kinds that cross the wire (their registered schema names).
WIRE_SPEC_KINDS = ("simulate_spec", "sweep_spec", "quality_spec", "callable_spec")

#: Kind name of :class:`LocalCallSpec` submissions (local backends only).
LOCAL_CALL_KIND = "local_call"

#: Everything a fully local backend accepts.
LOCAL_SPEC_KINDS = frozenset(WIRE_SPEC_KINDS) | {LOCAL_CALL_KIND}


@dataclass(frozen=True)
class LocalCallSpec:
    """An in-process callable with its arguments — the local-only job spec.

    ``fn`` may also be a wire-function *name* (a string), in which case every
    backend — including :class:`RemoteExecutor` — resolves it through the
    wire-function registry of :mod:`repro.serve.specs`.  A live callable is
    accepted by the local backends as-is; :class:`RemoteExecutor` accepts it
    only when it is wire-registered, since code never crosses the wire.
    """

    fn: Callable[..., Any] | str
    args: tuple = ()
    kwargs: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", tuple(self.args))
        object.__setattr__(self, "kwargs", dict(self.kwargs))

    def default_label(self) -> str:
        return f"call:{getattr(self.fn, '__name__', self.fn)}"


def spec_kind(spec: Any) -> str:
    """The kind name of one job spec (its wire-schema name, or ``local_call``).

    Raises :class:`TypeError` for anything that is not a job spec.
    """
    if isinstance(spec, LocalCallSpec):
        return LOCAL_CALL_KIND
    from ..serve.specs import CallableJobSpec, QualityJobSpec, SimulateJobSpec, SweepJobSpec

    for cls, kind in (
        (SimulateJobSpec, "simulate_spec"),
        (SweepJobSpec, "sweep_spec"),
        (QualityJobSpec, "quality_spec"),
        (CallableJobSpec, "callable_spec"),
    ):
        if isinstance(spec, cls):
            return kind
    raise TypeError(
        f"not a job spec: {type(spec).__name__} (expected SimulateJobSpec, "
        "SweepJobSpec, QualityJobSpec, CallableJobSpec or LocalCallSpec)"
    )


def _default_label(spec: Any) -> str:
    label = getattr(spec, "default_label", None)
    return label() if callable(label) else ""


def execute_spec(spec: Any, cache: "ReportCache | None" = None) -> Any:
    """Execute one job spec synchronously and return its result value.

    This is the single local interpretation of the typed specs, shared by
    :class:`InlineExecutor` and :class:`PoolExecutor` — and, being a
    module-level function over picklable specs, it is what process pools
    submit.  ``cache`` backs simulation and sweep specs (the process default
    when None).
    """
    kind = spec_kind(spec)
    if kind == LOCAL_CALL_KIND:
        fn = spec.fn
        if isinstance(fn, str):
            from ..serve.specs import resolve_wire_function

            fn = resolve_wire_function(fn)
        return fn(*spec.args, **dict(spec.kwargs))
    if kind == "simulate_spec":
        from ..serve.scheduler import run_batched

        return run_batched([_simulate_request(spec)], cache=cache)[0]
    if kind == "sweep_spec":
        from ..serve.scheduler import run_batched

        requests = spec.plan()
        # Keep results columnar: SweepJobResult materializes lazily, so a
        # sweep that only feeds aggregate queries never builds report objects.
        reports = run_batched(requests, cache=cache, materialize=False)
        return _sweep_result(spec, reports)
    if kind == "quality_spec":
        from ..serve.workers import evaluate_quality

        return evaluate_quality(**spec.worker_kwargs())
    # callable_spec: a named, registered server-side function.
    return spec.resolve()(*spec.args, **dict(spec.kwargs))


def _simulate_request(spec: Any) -> Any:
    """The one SimulateJobSpec -> SimulationRequest conversion, shared by the
    single-spec path (:func:`execute_spec`) and the inline batched path."""
    from ..serve.scheduler import SimulationRequest

    return SimulationRequest(
        config=spec.config,
        trace=spec.trace,
        energy_table=spec.energy_table,
        backend=spec.backend,
    )


def _sweep_result(spec: Any, reports: list) -> Any:
    from ..serve.specs import SweepJobResult

    num_cases = spec.num_cases
    return SweepJobResult(
        name=spec.name,
        params=spec.cases(),
        reports=reports[:num_cases],
        baseline=reports[num_cases] if spec.baseline is not None else None,
    )


# -- job handles -------------------------------------------------------------------


class JobHandle(ABC):
    """Uniform future for one submitted job, identical across backends.

    Every handle exposes ``id`` / ``label`` / ``kind`` attributes, the
    :attr:`status` property, and the blocking / completion API below.  The
    contract is the strict one the service's ``Job`` already kept:

    * :meth:`result` raises :class:`TimeoutError` when ``timeout`` expires
      first, and :class:`JobFailedError` — chained to the underlying
      exception via ``__cause__`` where one exists — when the job failed or
      was cancelled.
    * :meth:`cancel` returns True only when this call prevented the work
      from running; work that already started (or finished) is never
      interrupted.
    * :meth:`add_done_callback` fires exactly once per registered callback,
      immediately when the job is already terminal.
    """

    id: str
    label: str
    kind: str

    @property
    @abstractmethod
    def status(self) -> JobStatus:
        """The job's current lifecycle state."""

    @property
    @abstractmethod
    def error(self) -> BaseException | None:
        """The underlying failure, once the job is terminal (None if it succeeded)."""

    @abstractmethod
    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job is terminal; False if the timeout expired first."""

    @abstractmethod
    def result(self, timeout: float | None = None) -> Any:
        """The job's result value, blocking until completion."""

    @abstractmethod
    def cancel(self) -> bool:
        """Cancel the job if it has not started; True when this call won."""

    @abstractmethod
    def add_done_callback(self, fn: Callable[["JobHandle"], None]) -> None:
        """Run ``fn(handle)`` once the job is terminal (immediately if it already is)."""

    def done(self) -> bool:
        """True once the job reached a terminal state (done, failed or cancelled)."""
        return self.status in TERMINAL_STATUSES

    @property
    def ok(self) -> bool:
        return self.status is JobStatus.DONE

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(id={self.id!r}, status={self.status.value!r})"


class CompletedHandle(JobHandle):
    """A job that finished at submission time (the inline backend)."""

    def __init__(
        self,
        id: str,  # noqa: A002 - mirrors the handle attribute
        label: str,
        kind: str,
        value: Any = None,
        error: BaseException | None = None,
    ) -> None:
        self.id = id
        self.label = label
        self.kind = kind
        self._value = value
        self._error = error

    @property
    def status(self) -> JobStatus:
        return JobStatus.FAILED if self._error is not None else JobStatus.DONE

    @property
    def error(self) -> BaseException | None:
        return self._error

    def wait(self, timeout: float | None = None) -> bool:
        return True

    def result(self, timeout: float | None = None) -> Any:
        if self._error is not None:
            raise JobFailedError(
                f"job {self.id} ({self.label or self.kind}) failed: {self._error}"
            ) from self._error
        return self._value

    def cancel(self) -> bool:
        return False  # inline jobs run at submission; there is nothing to prevent

    def add_done_callback(self, fn: Callable[[JobHandle], None]) -> None:
        try:
            fn(self)
        except Exception as exc:  # noqa: BLE001 - same contract as every other backend
            event_log().emit(
                "executor.callback_error", level="warning", job=self.id, error=repr(exc)
            )


class FutureHandle(JobHandle):
    """A job running on a :mod:`concurrent.futures` pool."""

    def __init__(self, id: str, label: str, kind: str, future: Future) -> None:  # noqa: A002
        self.id = id
        self.label = label
        self.kind = kind
        self._future = future

    @property
    def status(self) -> JobStatus:
        future = self._future
        if future.cancelled():
            return JobStatus.CANCELLED
        if future.done():
            return JobStatus.FAILED if future.exception() is not None else JobStatus.DONE
        if future.running():
            return JobStatus.RUNNING
        return JobStatus.QUEUED

    @property
    def error(self) -> BaseException | None:
        future = self._future
        if future.cancelled():
            return JobFailedError(f"job {self.id} ({self.label or self.kind}) cancelled")
        if future.done():
            return future.exception()
        return None

    def wait(self, timeout: float | None = None) -> bool:
        try:
            self._future.exception(timeout)
        except CancelledError:
            return True
        except _FutureTimeout:
            return False
        return True

    def result(self, timeout: float | None = None) -> Any:
        if not self.wait(timeout):
            raise TimeoutError(f"job {self.id} ({self.label or self.kind}) still running")
        if self._future.cancelled():
            raise JobFailedError(f"job {self.id} ({self.label or self.kind}) cancelled")
        exc = self._future.exception()
        if exc is not None:
            raise JobFailedError(
                f"job {self.id} ({self.label or self.kind}) failed: {exc}"
            ) from exc
        return self._future.result()

    def cancel(self) -> bool:
        return self._future.cancel()

    def add_done_callback(self, fn: Callable[[JobHandle], None]) -> None:
        self._future.add_done_callback(lambda _future: fn(self))


class ServiceJobHandle(JobHandle):
    """A job queued on an in-process :class:`EvaluationService`."""

    def __init__(self, service: "EvaluationService", job: Any) -> None:
        self._service = service
        self._job = job
        self.id = job.id
        self.label = job.label
        self.kind = job.kind.value

    @property
    def status(self) -> JobStatus:
        return JobStatus(self._job.status.value)

    @property
    def error(self) -> BaseException | None:
        return self._job.error

    def wait(self, timeout: float | None = None) -> bool:
        return self._job.wait(timeout)

    def result(self, timeout: float | None = None) -> Any:
        return self._job.result(timeout)

    def cancel(self) -> bool:
        try:
            return self._service.cancel(self.id)
        except KeyError:
            # Retired from the service's history; terminal either way.
            return False

    def add_done_callback(self, fn: Callable[[JobHandle], None]) -> None:
        self._job.add_done_callback(lambda _job: fn(self))


class RemoteJobHandle(JobHandle):
    """A job living on a remote ``repro serve`` endpoint."""

    def __init__(self, client: "RemoteEvaluationClient", job: Any) -> None:
        self._client = client
        self._job = job
        self.id = job.id
        self.label = job.label
        self.kind = job.kind
        self._callbacks: list[Callable[[JobHandle], None]] = []
        self._callbacks_drained = False
        self._watcher: threading.Thread | None = None
        self._callback_lock = threading.Lock()

    @property
    def status(self) -> JobStatus:
        if not self._job.done:
            self._job._refresh()
        return JobStatus(self._job.status.value)

    @property
    def error(self) -> BaseException | None:
        return self._job.error

    def wait(self, timeout: float | None = None) -> bool:
        return self._job.wait(timeout)

    def result(self, timeout: float | None = None) -> Any:
        return self._job.result(timeout)

    def cancel(self) -> bool:
        return self._job.cancel()

    def add_done_callback(self, fn: Callable[[JobHandle], None]) -> None:
        run_now = False
        with self._callback_lock:
            if self._callbacks_drained:
                run_now = True
            else:
                self._callbacks.append(fn)
                if self._watcher is None:
                    # Remote completion is observed by polling; one daemon
                    # watcher per handle serves every registered callback.
                    self._watcher = threading.Thread(
                        target=self._watch, name=f"repro-handle-{self.id}", daemon=True
                    )
                    self._watcher.start()
        if run_now:
            fn(self)

    def _watch(self) -> None:
        self._job.wait()
        with self._callback_lock:
            self._callbacks_drained = True
            callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            try:
                fn(self)
            except Exception as exc:  # noqa: BLE001 - callbacks must not kill the watcher
                event_log().emit(
                    "executor.callback_error", level="warning", job=self.id, error=repr(exc)
                )


# -- the executor protocol ---------------------------------------------------------


class Executor(ABC):
    """One submission surface over heterogeneous execution backends.

    Implementations accept the typed job specs (plus :class:`LocalCallSpec`
    where code stays in-process) and return :class:`JobHandle` futures.  Use
    as a context manager — ``close()`` releases whatever the executor owns
    (pools, an owned service); handles returned earlier stay readable.
    """

    #: Short backend name, used in ``stats()`` and error messages.
    name: str = "executor"

    @abstractmethod
    def submit(self, spec: Any, label: str = "") -> JobHandle:
        """Submit one job spec; returns immediately with its handle."""

    def map(self, specs: Iterable[Any], labels: Sequence[str] | None = None) -> list[JobHandle]:
        """Submit many specs; one handle per spec, in submission order."""
        specs = list(specs)
        labels = list(labels or [])
        labels += [""] * (len(specs) - len(labels))
        return [self.submit(spec, label) for spec, label in zip(specs, labels)]

    def capabilities(self) -> frozenset[str]:
        """Spec kinds this backend accepts (wire-schema names + ``local_call``)."""
        return LOCAL_SPEC_KINDS

    def stats(self) -> dict[str, Any]:
        """Backend counters for health endpoints and tests."""
        return {"executor": self.name}

    def close(self) -> None:
        """Release owned resources; no-op by default."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class InlineExecutor(Executor):
    """Run every spec synchronously at submission, in the calling thread.

    ``submit`` returns an already-completed handle; exceptions raised by the
    *work* are captured on the handle (submission-time validation errors —
    an invalid sweep grid, an unknown wire function — still raise at
    ``submit``, matching the queueing backends).  :meth:`map` batches all
    simulation and sweep specs of one call through a single
    :func:`~repro.serve.scheduler.run_batched` pass, so shared baselines and
    duplicate design points coalesce exactly as they do on the service.
    """

    name = "inline"

    def __init__(self, cache: "ReportCache | None" = None) -> None:
        self.cache = cache
        self._ids = itertools.count(1)
        self._submitted = 0
        self._failed = 0

    def submit(self, spec: Any, label: str = "") -> JobHandle:
        return self.map([spec], [label])[0]

    def map(self, specs: Iterable[Any], labels: Sequence[str] | None = None) -> list[JobHandle]:
        specs = list(specs)
        labels = list(labels or [])
        labels += [""] * (len(specs) - len(labels))

        # Plan phase: expand simulation-shaped specs into requests so one
        # batched pass covers them all.  plan() failures (invalid grids,
        # unknown backends) raise here — submission-time, like the service.
        prepared: list[tuple[Any, str, str, list | None]] = []
        requests: list[Any] = []
        for spec, label in zip(specs, labels):
            kind = spec_kind(spec)
            if kind == "simulate_spec":
                spec_requests = [_simulate_request(spec)]
            elif kind == "sweep_spec":
                spec_requests = spec.plan()
            else:
                spec_requests = None
                # Unknown wire-function names raise here, at submission —
                # the same contract as the queueing backends.
                if kind == LOCAL_CALL_KIND and isinstance(spec.fn, str):
                    from ..serve.specs import resolve_wire_function

                    resolve_wire_function(spec.fn)
                elif kind == "callable_spec":
                    spec.resolve()
            prepared.append((spec, label or _default_label(spec), kind, spec_requests))
            if spec_requests:
                requests.extend(spec_requests)

        simulation_error: BaseException | None = None
        reports: list = []
        if requests:
            from ..serve.scheduler import run_batched

            try:
                # Raw (possibly columnar) entries: sweep results stay lazy,
                # simulate handles materialize their one report below.
                reports = run_batched(requests, cache=self.cache, materialize=False)
            # repro: allow[REP009] error is recorded on every affected handle below
            except Exception as exc:  # noqa: BLE001 - recorded per handle below
                simulation_error = exc

        handles: list[JobHandle] = []
        cursor = 0
        for spec, label, kind, spec_requests in prepared:
            self._submitted += 1
            job_id = f"inline-{next(self._ids):04d}"
            if spec_requests is not None:
                chunk = reports[cursor : cursor + len(spec_requests)]
                cursor += len(spec_requests)
                if simulation_error is not None:
                    value, error = None, simulation_error
                elif kind == "simulate_spec":
                    from .columnar import ensure_report

                    value, error = ensure_report(chunk[0]), None
                else:
                    value, error = _sweep_result(spec, chunk), None
            else:
                try:
                    value, error = execute_spec(spec, cache=self.cache), None
                # repro: allow[REP009] exception is captured as the handle's error sentinel
                except Exception as exc:  # noqa: BLE001 - captured on the handle
                    value, error = None, exc
            if error is not None:
                self._failed += 1
            handles.append(CompletedHandle(job_id, label, kind, value=value, error=error))
        return handles

    def stats(self) -> dict[str, Any]:
        return {"executor": self.name, "submitted": self._submitted, "failed": self._failed}


class PoolExecutor(Executor):
    """Fan specs out over a :mod:`concurrent.futures` thread or process pool.

    ``kind="thread"`` suits the NumPy-heavy evaluation paths (the array work
    releases the GIL) and shares ``cache`` across workers; ``kind="process"``
    suits GIL-bound sampling work and requires picklable specs — verified at
    submission, so mistakes fail fast with an actionable message instead of
    a pool traceback.  Handles support :meth:`JobHandle.cancel` while the
    work is still queued behind busy workers.
    """

    def __init__(
        self,
        kind: str = "thread",
        max_workers: int | None = None,
        cache: "ReportCache | None" = None,
    ) -> None:
        if kind not in ("thread", "process"):
            raise ValueError(f"kind must be 'thread' or 'process', got {kind!r}")
        self.kind = kind
        self.name = kind
        self.cache = cache
        pool_cls = ThreadPoolExecutor if kind == "thread" else ProcessPoolExecutor
        self._pool = pool_cls(max_workers=max_workers)
        self._ids = itertools.count(1)
        self._submitted = 0

    def submit(self, spec: Any, label: str = "") -> JobHandle:
        kind = spec_kind(spec)
        if self.kind == "process":
            ensure_picklable(
                spec,
                "the process pool executor requires a picklable case function and "
                "plain-data job specs: pass a module-level function taking plain-data "
                "arguments, or use a thread/inline executor for closures over live objects",
            )
            # Worker processes cannot share this process's report cache; they
            # fall back to their own (and the artifact store, when configured).
            future = self._pool.submit(execute_spec, spec)
        else:
            future = self._pool.submit(execute_spec, spec, self.cache)
        self._submitted += 1
        job_id = f"{self.kind}-{next(self._ids):04d}"
        return FutureHandle(job_id, label or _default_label(spec), kind, future)

    def stats(self) -> dict[str, Any]:
        return {"executor": f"pool:{self.kind}", "submitted": self._submitted}

    def close(self) -> None:
        self._pool.shutdown(wait=True)


class ServiceExecutor(Executor):
    """Submit specs to an in-process :class:`EvaluationService`.

    Wraps an existing ``service`` (left running at :meth:`close`), or owns a
    fresh one built from ``cache`` / ``max_workers`` / ``process_workers``
    (shut down at :meth:`close`).  Jobs share the service's coalescing
    scheduler, single-flight registry and worker pools with every other
    client of that service.
    """

    name = "service"

    def __init__(
        self,
        service: "EvaluationService | None" = None,
        *,
        cache: "ReportCache | None" = None,
        max_workers: int | None = None,
        process_workers: int | None = None,
    ) -> None:
        self._owned = service is None
        if service is None:
            from ..serve.service import EvaluationService

            service = EvaluationService(
                cache=cache, max_workers=max_workers, process_workers=process_workers
            )
        self.service = service

    def submit(self, spec: Any, label: str = "") -> JobHandle:
        if isinstance(spec, LocalCallSpec):
            fn = spec.fn
            if isinstance(fn, str):
                from ..serve.specs import resolve_wire_function

                fn = resolve_wire_function(fn)
            job = self.service.submit_callable(
                fn, args=spec.args, kwargs=spec.kwargs, label=label or spec.default_label()
            )
        else:
            spec_kind(spec)  # reject non-specs with the uniform message
            job = self.service.submit_spec(spec, label=label)
        return ServiceJobHandle(self.service, job)

    def stats(self) -> dict[str, Any]:
        return {"executor": self.name, **self.service.service_stats()}

    def close(self) -> None:
        if self._owned:
            self.service.close()


class RemoteExecutor(Executor):
    """Submit specs to a remote ``repro serve`` endpoint over the typed wire.

    Wraps an existing :class:`RemoteEvaluationClient` (borrowed: left open at
    :meth:`close`, mirroring :class:`ServiceExecutor`) or builds an owned one
    from ``endpoint``.  Only wire specs cross: a :class:`LocalCallSpec` is
    accepted when its function is a registered wire function (or its name),
    and rejected with the registration recipe otherwise.
    :meth:`capabilities` is discovered from the server's ``GET /schemas``,
    so callers can probe which spec kinds a given deployment accepts.
    """

    name = "remote"

    def __init__(
        self,
        endpoint: str | None = None,
        client: "RemoteEvaluationClient | None" = None,
        **client_options: Any,
    ) -> None:
        self._owned = client is None
        if client is None:
            if endpoint is None:
                raise ValueError(
                    "RemoteExecutor needs endpoint='http://host:port' (or client=...)"
                )
            from ..serve.client import RemoteEvaluationClient

            client = RemoteEvaluationClient(endpoint, **client_options)
        self.client = client

    def submit(self, spec: Any, label: str = "") -> JobHandle:
        if isinstance(spec, LocalCallSpec):
            from ..serve.specs import CallableJobSpec, require_wire_name

            label = label or spec.default_label()
            spec = CallableJobSpec(
                function=require_wire_name(spec.fn),
                args=spec.args,
                kwargs=dict(spec.kwargs),
                pool="thread",
            )
        else:
            spec_kind(spec)
        job = self.client.submit_spec(spec, label=label or _default_label(spec))
        return RemoteJobHandle(self.client, job)

    def capabilities(self) -> frozenset[str]:
        schemas = self.client.schemas().get("schemas", {})
        return frozenset(kind for kind in WIRE_SPEC_KINDS if kind in schemas)

    def stats(self) -> dict[str, Any]:
        health = self.client.health()
        return {"executor": self.name, **health.get("service", {})}

    def close(self) -> None:
        if self._owned:
            self.client.close()


# -- executor registry -------------------------------------------------------------

_EXECUTOR_FACTORIES: dict[str, Callable[..., Executor]] = {}


def register_executor(name: str, factory: Callable[..., Executor]) -> Callable[..., Executor]:
    """Register an executor backend under ``name`` for :func:`resolve_executor`.

    ``factory(**options)`` must return an :class:`Executor`; it receives the
    caller's keyword options (``max_workers``, ``cache``, ``service``,
    ``endpoint`` from the built-in call sites) and should ignore what it
    does not need.  Re-registering a name rebinds it, so third-party
    backends can override the built-ins in tests.
    """
    _EXECUTOR_FACTORIES[name] = factory
    return factory


def executor_names() -> tuple[str, ...]:
    """Registered executor names, sorted (for error messages and CLIs)."""
    return tuple(sorted(_EXECUTOR_FACTORIES))


def resolve_executor(name: str, **options: Any) -> Executor:
    """Build the executor registered under ``name`` with the given options."""
    try:
        factory = _EXECUTOR_FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown executor {name!r}; registered executors: {list(executor_names())} "
            "(see repro.core.execution.register_executor)"
        ) from None
    return factory(**options)


def _make_inline(cache: Any = None, **_: Any) -> Executor:
    return InlineExecutor(cache=cache)


def _make_thread(max_workers: Any = None, cache: Any = None, **_: Any) -> Executor:
    return PoolExecutor("thread", max_workers=max_workers, cache=cache)


def _make_process(max_workers: Any = None, cache: Any = None, **_: Any) -> Executor:
    return PoolExecutor("process", max_workers=max_workers, cache=cache)


def _make_service(
    service: Any = None, cache: Any = None, max_workers: Any = None, **_: Any
) -> Executor:
    return ServiceExecutor(service=service, cache=cache, max_workers=max_workers)


def _make_remote(endpoint: Any = None, **_: Any) -> Executor:
    return RemoteExecutor(endpoint=endpoint)


def _make_worker_pool(cache: Any = None, max_workers: Any = None, **_: Any) -> Executor:
    # A self-contained fleet: worker-dispatch service + loopback HTTP server
    # + N in-process workers pulling over the real lease/heartbeat protocol.
    from ..serve.worker import WorkerPoolExecutor

    return WorkerPoolExecutor(num_workers=max_workers or 2, cache=cache)


register_executor("inline", _make_inline)
register_executor("thread", _make_thread)
register_executor("process", _make_process)
register_executor("service", _make_service)
register_executor("remote", _make_remote)
register_executor("worker-pool", _make_worker_pool)
