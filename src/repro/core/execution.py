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
    JobHandle``, ``map(specs)``, ``stats()``, ``close()`` and
    context-manager lifecycle.  What is submitted are the typed job specs
    of :mod:`repro.serve.specs` (``simulate_spec`` / ``sweep_spec`` /
    ``quality_spec`` / ``callable_spec``) plus :class:`LocalCallSpec` for
    in-process callables that never cross a wire; ``submit`` is the only
    way in on every backend.
:class:`JobKind` and :func:`job_kind`
    The one mapping from a spec to the kind of job it runs as.  Simulate and
    sweep specs are *planned*: ``spec.plan()`` lists the simulate specs the
    scheduler runs and ``spec.result(reports)`` builds the job's value from
    their reports.  Every other spec is a call, ``fn(*args, **kwargs)``, as
    :func:`resolve_call` resolves it.
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

if TYPE_CHECKING:  # pragma: no cover - typing only
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


class JobKind(str, Enum):
    """What a job runs as, which every backend reports as its handles' ``kind``.

    ``SIMULATION`` and ``SWEEP`` jobs are planned into simulate specs that
    the coalescing scheduler batches; ``SAMPLING`` jobs (quality specs and
    ``pool="process"`` callables: GIL-bound sampling work) run on the
    service's process pool; ``CALLABLE`` jobs run a resolved function on its
    thread pool.
    """

    SIMULATION = "simulation"
    SWEEP = "sweep"
    SAMPLING = "sampling"
    CALLABLE = "callable"


#: The kinds whose specs are planned into simulate specs for the scheduler.
PLANNED_KINDS = (JobKind.SIMULATION, JobKind.SWEEP)


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


def job_kind(spec: Any) -> JobKind:
    """The kind of job one spec runs as; :class:`TypeError` for anything that
    is not a job spec."""
    from ..serve.specs import CallableJobSpec, QualityJobSpec, SimulateJobSpec, SweepJobSpec

    if isinstance(spec, SimulateJobSpec):
        return JobKind.SIMULATION
    if isinstance(spec, SweepJobSpec):
        return JobKind.SWEEP
    if isinstance(spec, QualityJobSpec) or (
        isinstance(spec, CallableJobSpec) and spec.pool == "process"
    ):
        return JobKind.SAMPLING
    if isinstance(spec, (CallableJobSpec, LocalCallSpec)):
        return JobKind.CALLABLE
    raise TypeError(
        f"not a job spec: {type(spec).__name__} (expected SimulateJobSpec, "
        "SweepJobSpec, QualityJobSpec, CallableJobSpec or LocalCallSpec)"
    )


def resolve_call(spec: Any) -> tuple[Callable[..., Any], tuple, dict[str, Any]]:
    """The ``(fn, args, kwargs)`` a quality, callable or local-call spec runs,
    inline and on the service's pools alike: a quality spec is
    :func:`repro.serve.workers.evaluate_quality` of its fields, the others
    resolve their function (:class:`ValueError` for an unregistered
    wire-function name)."""
    from ..serve.specs import QualityJobSpec

    if isinstance(spec, QualityJobSpec):
        from ..serve.workers import evaluate_quality

        return evaluate_quality, (), spec.worker_kwargs()
    return spec.resolve(), tuple(spec.args), dict(spec.kwargs)


# -- job handles -------------------------------------------------------------------


class JobHandle(ABC):
    """Uniform future for one submitted job, identical across backends.

    Implemented by the service's :class:`~repro.serve.jobs.Job`, the remote
    client's :class:`~repro.serve.client.RemoteJob` and the inline
    :class:`CompletedHandle`.  Every handle exposes ``id`` / ``label`` /
    ``kind`` / ``error`` attributes — ``kind`` is the spec's :class:`JobKind`
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
    ``submit``, matching the queueing backends).  :meth:`map` batches the
    plans of all simulation and sweep specs of one call through a single
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

        # Plan phase: a simulation or sweep spec lists its simulate specs, so
        # one batched pass covers them all; any other spec resolves its call.
        # Invalid grids, unknown backends and unknown wire-function names
        # raise here — submission-time, like the service.
        prepared: list[tuple[Any, str, JobKind, Any]] = []
        requests: list[Any] = []
        for spec, label in zip(specs, labels):
            kind = job_kind(spec)
            if kind in PLANNED_KINDS:
                work = spec.plan()
                requests.extend(work)
            else:
                work = resolve_call(spec)
            prepared.append((spec, label or spec.default_label(), kind, work))

        simulation_error: BaseException | None = None
        reports: list = []
        if requests:
            from ..serve.scheduler import run_batched

            try:
                # Sweep results stay columnar; simulate results materialize
                # their one report.
                reports = run_batched(requests, cache=self.cache)
            # repro: allow[REP009] error is recorded on every affected handle below
            except Exception as exc:  # noqa: BLE001 - recorded per handle below
                simulation_error = exc

        handles: list[JobHandle] = []
        cursor = 0
        for spec, label, kind, work in prepared:
            self._submitted += 1
            job_id = f"inline-{next(self._ids):04d}"
            value: Any = None
            error = simulation_error
            if kind in PLANNED_KINDS:
                chunk = reports[cursor : cursor + len(work)]
                cursor += len(work)
                if error is None:
                    value = spec.result(chunk)
            else:
                fn, args, kwargs = work
                try:
                    value, error = fn(*args, **kwargs), None
                # repro: allow[REP009] exception is captured as the handle's error sentinel
                except Exception as exc:  # noqa: BLE001 - captured on the handle
                    error = exc
            if error is not None:
                self._failed += 1
            handles.append(CompletedHandle(job_id, label, kind, value=value, error=error))
        return handles

    def stats(self) -> dict[str, Any]:
        return {"executor": self.name, "submitted": self._submitted, "failed": self._failed}
