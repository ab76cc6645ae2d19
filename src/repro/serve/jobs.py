"""Job model of the evaluation service: submit, watch, collect.

A :class:`Job` is one submitted job spec — a simulation, a sweep or a
sampling run (its :class:`~repro.core.execution.JobKind`) — owned by an
:class:`~repro.serve.service.EvaluationService`.  Jobs move through
``QUEUED -> RUNNING -> DONE | FAILED`` (or ``CANCELLED``, either at service
shutdown or through :meth:`EvaluationService.cancel`); a simulation or sweep
job turns RUNNING when its first planned request is claimed, a sampling job
when the scheduler hands it to the process pool.  Completion is signalled
through a :class:`threading.Event`, so any number of client threads can
block on :meth:`Job.wait` without polling.  ``Job`` is the service's
:class:`~repro.core.execution.JobHandle`: the same future the inline and
remote backends return.

State transitions are serialized by a per-job lock, so a cancellation racing
the dispatcher resolves deterministically: whichever of
:meth:`Job.mark_cancelled` and :meth:`Job.mark_running` runs first wins, and
the loser observes it.  A job cancelled in that window reports ``CANCELLED``
and its work is skipped instead of executed.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable

from ..core.execution import JobFailedError, JobHandle, JobKind, JobStatus
from ..core.telemetry import Trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .service import EvaluationService

__all__ = ["Job", "mark_per_job"]


def mark_per_job(sinks: Iterable[Any], phase: str, **fields: Any) -> None:
    """Mark ``phase`` once on the trace of every job among ``sinks`` (the
    completion targets of planned requests; None entries are skipped), with
    the number of that job's requests as ``requests``."""
    per_job = Counter(sink.trace for sink in sinks if sink is not None)
    for trace, requests in per_job.items():
        trace.mark(phase, requests=requests, **fields)


@dataclass
class Job(JobHandle):
    """One queued evaluation, with its eventual result or error."""

    id: str
    kind: JobKind
    label: str = ""
    status: JobStatus = JobStatus.QUEUED
    result_value: Any = None
    error: BaseException | None = None
    #: Wall-clock timestamps, for display only.  ``time.time()`` can jump
    #: (NTP slews, DST, manual adjustment), so all duration math uses the
    #: monotonic counterparts below.
    submitted_at: float = field(default_factory=time.time)  # repro: allow[REP002] display-only
    started_at: float | None = None
    finished_at: float | None = None
    #: Monotonic counterparts: the source of truth for queue-wait and
    #: run-duration math (``queued_seconds`` / ``running_seconds``).
    submitted_at_monotonic: float = field(default_factory=time.monotonic)
    started_at_monotonic: float | None = None
    finished_at_monotonic: float | None = None
    #: Lifecycle trace following this job across threads (``submitted`` ->
    #: ``coalesced``/``attached`` -> ``dispatched`` -> ``kernel`` or
    #: ``leased`` -> ``finished``); phases are marked by the state
    #: transitions below and by the owning service, once per job per
    #: scheduler drain, kernel group or fleet lease (:func:`mark_per_job`).
    trace: Trace = None  # type: ignore[assignment]  # filled by __post_init__
    _completed: threading.Event = field(default_factory=threading.Event, repr=False)
    _transitions: threading.Lock = field(default_factory=threading.Lock, repr=False)
    _callbacks: list = field(default_factory=list, repr=False)  #: guarded by _transitions
    #: The owning service, which :meth:`cancel` goes through (set at submission).
    _service: "EvaluationService" = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.trace is None:
            self.trace = Trace(self.id)

    @property
    def done(self) -> bool:
        """True once the job reached a terminal state (DONE, FAILED or CANCELLED)."""
        return self._completed.is_set()

    @property
    def queued_seconds(self) -> float:
        """Monotonic time spent waiting in the queue (still counting while queued).

        For a job that never started (cancelled while queued), this is the
        submit-to-finish distance — the whole life of the job was queue time.
        """
        if self.started_at_monotonic is not None:
            return self.started_at_monotonic - self.submitted_at_monotonic
        end = self.finished_at_monotonic
        if end is None:
            end = time.monotonic()
        return end - self.submitted_at_monotonic

    @property
    def running_seconds(self) -> float | None:
        """Monotonic run duration (still counting while running); None if never started."""
        if self.started_at_monotonic is None:
            return None
        end = self.finished_at_monotonic
        if end is None:
            end = time.monotonic()
        return end - self.started_at_monotonic

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job completes; False if the timeout expired first."""
        return self._completed.wait(timeout)

    def result(self, timeout: float | None = None) -> Any:
        """The job's result, blocking until completion.

        Raises :class:`TimeoutError` if the job is still running after
        ``timeout`` and :class:`JobFailedError` (chained to the original
        exception) if it failed or was cancelled.
        """
        if not self.wait(timeout):
            raise TimeoutError(f"job {self.id} ({self.label or self.kind.value}) still running")
        if self.status is not JobStatus.DONE:
            raise JobFailedError(
                f"job {self.id} ({self.label or self.kind.value}) {self.status.value}: {self.error}"
            ) from self.error
        return self.result_value

    def cancel(self) -> bool:
        """Cancel the job if it has not started; True when this call won.

        Goes through the owning service exactly like
        ``service.cancel(job.id)`` — queue entry, cancelled counter and
        metric — except that a job the service already retired from its
        history (always a terminal one) returns False instead of raising
        :class:`KeyError`.
        """
        return self._service._cancel_job(self)

    def add_done_callback(self, fn: Callable[["Job"], None]) -> None:
        """Run ``fn(job)`` once the job reaches a terminal state.

        Fires immediately when the job is already terminal; otherwise the
        state transition that completes the job invokes it (outside the
        transition lock, so callbacks may inspect the job freely).  Callback
        exceptions are swallowed — completion must never be blocked by an
        observer.
        """
        with self._transitions:
            if not self._completed.is_set():
                self._callbacks.append(fn)
                return
        self._run_callback(fn)

    def _finish_locked(self) -> list:
        """Seal a terminal transition (lock held): stamp the finish time,
        signal waiters, and hand back the callbacks to fire outside the lock."""
        self.finished_at = time.time()  # repro: allow[REP002] display-only stamp
        self.finished_at_monotonic = time.monotonic()
        self._completed.set()
        callbacks, self._callbacks = self._callbacks, []
        return callbacks

    def _fire_callbacks(self, callbacks: list) -> None:
        for fn in callbacks:
            self._run_callback(fn)

    # -- state transitions (service-internal) ----------------------------------

    def mark_running(self) -> bool:
        """Claim the job for execution: ``QUEUED -> RUNNING``.

        Returns False — and the caller must skip the work — when the job is no
        longer claimable, i.e. it was cancelled (or otherwise completed) after
        being drained from the queue but before dispatch reached it.
        """
        with self._transitions:
            if self.status is not JobStatus.QUEUED:
                return False
            self.status = JobStatus.RUNNING
            self.started_at = time.time()  # repro: allow[REP002] display-only stamp
            self.started_at_monotonic = time.monotonic()
        self.trace.mark("dispatched")
        return True

    def mark_done(self, value: Any) -> None:
        """Complete the job; a no-op if it already reached a terminal state
        (e.g. a coalesced follower cancelled while its shared batch ran)."""
        with self._transitions:
            if self._completed.is_set():
                return
            self.result_value = value
            self.status = JobStatus.DONE
            callbacks = self._finish_locked()
        self.trace.mark("finished", status=JobStatus.DONE.value)
        self._fire_callbacks(callbacks)

    def mark_failed(self, error: BaseException) -> None:
        with self._transitions:
            if self._completed.is_set():
                return
            self.error = error
            self.status = JobStatus.FAILED
            callbacks = self._finish_locked()
        self.trace.mark("finished", status=JobStatus.FAILED.value, error=str(error))
        self._fire_callbacks(callbacks)

    def mark_cancelled(self, reason: str = "service shut down") -> bool:
        """Cancel the job if it has not started; True when this call won.

        Only ``QUEUED`` jobs are cancellable — once a worker claimed the job
        via :meth:`mark_running` (or it completed) cancellation returns False.
        """
        with self._transitions:
            if self.status is not JobStatus.QUEUED:
                return False
            self.error = RuntimeError(reason)
            self.status = JobStatus.CANCELLED
            callbacks = self._finish_locked()
        self.trace.mark("finished", status=JobStatus.CANCELLED.value)
        self._fire_callbacks(callbacks)
        return True

    def summary(self) -> dict[str, Any]:
        """JSON-friendly status view (the CLI, HTTP API and tests use this)."""
        return {
            "id": self.id,
            "kind": self.kind.value,
            "label": self.label,
            "status": self.status.value,
            "error": str(self.error) if self.error is not None else None,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            # Duration fields are monotonic-derived, so they stay correct
            # across wall-clock adjustments (the *_at fields are display only).
            "queued_seconds": self.queued_seconds,
            "running_seconds": self.running_seconds,
        }
