"""Unified execution API: one ``Executor`` protocol over every backend.

An evaluation runs in one of three places, and each of them *is* an
:class:`Executor` — there is no wrapper layer in between:

:class:`InlineExecutor`
    In the calling thread, at submission.  ``map`` batches simulation work
    through one :func:`~repro.serve.scheduler.run_batched` pass (shared
    baselines coalesce exactly like the service's scheduler), so the
    pipeline's hardware evaluation keeps its batching behaviour.
:class:`~repro.serve.service.EvaluationService`
    Queued on the in-process service: coalescing scheduler, single-flight
    registry, a thread pool and a process pool for sampling jobs.
    :class:`~repro.serve.worker.WorkerPoolExecutor` is that service with a
    loopback pull-worker fleet attached.
:class:`~repro.serve.client.RemoteEvaluationClient`
    POSTed to a remote ``repro serve`` endpoint as typed JSON.

The shared vocabulary lives here:

:class:`Executor`
    The protocol every backend implements: ``submit(spec, label) ->
    JobHandle``, ``map(specs)``, ``stats()``, ``capabilities()``,
    ``close()`` and context-manager lifecycle.  What is submitted are the
    typed job specs of :mod:`repro.serve.specs` (``simulate_spec`` /
    ``sweep_spec`` / ``quality_spec`` / ``callable_spec``) plus
    :class:`LocalCallSpec` for in-process callables that never cross a wire.
:class:`JobHandle`
    The uniform future every ``submit`` returns — the service's ``Job``, the
    client's ``RemoteJob`` or an inline :class:`CompletedHandle`:
    ``result(timeout=)``, ``done``, ``cancel()``, ``status``,
    ``add_done_callback``.  ``result`` raises :class:`TimeoutError` when
    the timeout expires and :class:`JobFailedError` (chained to the
    underlying exception where it is local) when the job failed or was
    cancelled, on every backend.

Everything serve-related is imported lazily: the core package stays
importable (and :class:`InlineExecutor` usable on plain callables) without
pulling the service stack in at import time.
"""

from __future__ import annotations

import itertools
import pickle  # repro: allow[REP001] picklability *guard* only — nothing is ever deserialized
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Sequence, TypeVar

from .telemetry import event_log

if TYPE_CHECKING:  # pragma: no cover - typing only; serve imports stay lazy
    from ..serve.jobs import JobKind
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
    spawns — the evaluation service's sampling jobs route through this guard.
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
    backend — the remote client included — resolves it through the
    wire-function registry of :mod:`repro.serve.specs`.  A live callable is
    accepted by the local backends as-is; the remote client accepts it only
    when it is wire-registered, since code never crosses the wire.
    """

    fn: Callable[..., Any] | str
    args: tuple = ()
    kwargs: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", tuple(self.args))
        object.__setattr__(self, "kwargs", dict(self.kwargs))

    def default_label(self) -> str:
        return f"call:{getattr(self.fn, '__name__', self.fn)}"

    def resolve(self) -> Callable[..., Any]:
        """The callable to run: ``fn`` itself, or the wire function it names
        (:class:`ValueError` for an unregistered name)."""
        if isinstance(self.fn, str):
            from ..serve.specs import resolve_wire_function

            return resolve_wire_function(self.fn)
        return self.fn


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


def _job_kind(spec: Any, kind: str) -> "JobKind":
    """The service job kind a spec of ``spec_kind`` ``kind`` runs as, which
    every backend reports as its handles' ``kind``: quality specs and
    process-pool callables are sampling jobs, local calls are callables."""
    from ..serve.jobs import JobKind

    if kind == "simulate_spec":
        return JobKind.SIMULATION
    if kind == "sweep_spec":
        return JobKind.SWEEP
    if kind == "quality_spec" or (kind == "callable_spec" and spec.pool == "process"):
        return JobKind.SAMPLING
    return JobKind.CALLABLE


def execute_spec(spec: Any, cache: "ReportCache | None" = None) -> Any:
    """Execute one job spec synchronously and return its result value.

    This is the single local interpretation of the typed specs; the inline
    backend runs every spec that is not simulation work through it.
    ``cache`` backs simulation and sweep specs (the process default when
    None).
    """
    kind = spec_kind(spec)
    if kind == LOCAL_CALL_KIND:
        return spec.resolve()(*spec.args, **dict(spec.kwargs))
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

    Implemented by the service's :class:`~repro.serve.jobs.Job`, the remote
    client's :class:`~repro.serve.client.RemoteJob` and the inline
    :class:`CompletedHandle`.  Every handle exposes ``id`` / ``label`` /
    ``kind`` / ``error`` attributes — ``kind`` is the service's job kind
    (``simulation``, ``sweep``, ``sampling`` or ``callable``) on every
    backend, ``error`` the failure once the job is terminal — the
    :attr:`status` and :attr:`done` properties, and the blocking /
    completion API below:

    * :meth:`result` raises :class:`TimeoutError` when ``timeout`` expires
      first, and :class:`JobFailedError` — chained to the underlying
      exception via ``__cause__`` where one exists locally — when the job
      failed or was cancelled.
    * :meth:`cancel` returns True only when this call prevented the work
      from running; work that already started (or finished) is never
      interrupted.
    * :meth:`add_done_callback` fires exactly once per registered callback,
      immediately when the job is already terminal; callback exceptions are
      logged and swallowed.
    """

    id: str
    label: str
    kind: str
    error: BaseException | None

    @property
    @abstractmethod
    def status(self) -> JobStatus:
        """The job's current lifecycle state."""

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

    @property
    def done(self) -> bool:
        """True once the job reached a terminal state (done, failed or cancelled)."""
        return self.status in TERMINAL_STATUSES

    @property
    def ok(self) -> bool:
        return self.status is JobStatus.DONE

    def _run_callback(self, fn: Callable[[Any], None]) -> None:
        try:
            fn(self)
        except Exception as exc:  # noqa: BLE001 - observers must not break completion
            event_log().emit("job.callback_error", level="warning", job=self.id, error=repr(exc))

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
        self.error = error

    @property
    def status(self) -> JobStatus:
        return JobStatus.FAILED if self.error is not None else JobStatus.DONE

    def wait(self, timeout: float | None = None) -> bool:
        return True

    def result(self, timeout: float | None = None) -> Any:
        if self.error is not None:
            raise JobFailedError(
                f"job {self.id} ({self.label or self.kind}) failed: {self.error}"
            ) from self.error
        return self._value

    def cancel(self) -> bool:
        return False  # inline jobs run at submission; there is nothing to prevent

    def add_done_callback(self, fn: Callable[[JobHandle], None]) -> None:
        self._run_callback(fn)


# -- the executor protocol ---------------------------------------------------------

_ExecutorT = TypeVar("_ExecutorT", bound="Executor")


class Executor(ABC):
    """One submission surface over heterogeneous execution backends.

    Implementations accept the typed job specs (plus :class:`LocalCallSpec`
    where code stays in-process) and return :class:`JobHandle` futures.  Use
    as a context manager — ``close()`` releases whatever the executor owns
    (pools, servers); handles returned earlier stay readable.  Whoever
    builds an executor closes it: code handed one (``run_sweep``,
    ``evaluate_hardware``) leaves it open.
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

    def __enter__(self: _ExecutorT) -> _ExecutorT:
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
                if kind in (LOCAL_CALL_KIND, "callable_spec"):
                    spec.resolve()
            prepared.append((spec, label or spec.default_label(), kind, spec_requests))
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
            handles.append(
                CompletedHandle(job_id, label, _job_kind(spec, kind), value=value, error=error)
            )
        return handles

    def stats(self) -> dict[str, Any]:
        return {"executor": self.name, "submitted": self._submitted, "failed": self._failed}
