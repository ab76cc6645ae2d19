"""Lease-tracking dispatch queue for the pull-based worker fleet.

:class:`WorkerFleet` sits beside the service's in-process thread pool and
turns coalesced simulation groups into *tasks* that remote workers pull over
HTTP instead of threads picking them up locally:

* **register** — a worker announces itself (``POST /workers/register``) and
  gets an id plus the lease/heartbeat contract.  Re-registering under the
  same name (a restarted worker) retires the previous incarnation and
  requeues whatever it was holding, immediately.
* **claim** — workers long-poll for tasks (``POST /workers/<id>/claim``),
  held at most :data:`MAX_LONG_POLL_SECONDS`, the cap a client's job wait
  (``GET /jobs/<id>?wait=``) shares.  A claimed task moves PENDING → LEASED
  under a compare-and-swap guarded by the fleet lock, with a deadline
  ``lease_seconds`` in the future.
* **heartbeat** — renews every lease the worker holds.  A worker that stops
  heartbeating (crashed, SIGKILLed, partitioned) misses its deadline; the
  expiry monitor flips the task LEASED → PENDING, bumps its attempt count
  and requeues it for the next claim.
* **complete** — results are accepted only while the task is LEASED *by the
  completing worker*.  A completion arriving after the lease expired (the
  worker was slow, not dead) is rejected, so a requeued task can never
  deliver twice.

Task state transitions are CAS-style: every observable move (claim, expire,
complete, retire) checks the current state and owner under one lock, so a
cancel racing a claim, or a zombie worker racing a requeue, resolves to
exactly one winner.  The fleet never touches job state directly — it calls
back into the service through two hooks (``prepare`` claims the underlying
sinks on first lease; ``deliver`` completes them), keeping the single-flight
registry and cache accounting where they already live.

Liveness telemetry (workers-alive gauge, lease-expiry and requeue counters,
claim-latency histogram) lands in the process registry and is served from
``GET /metrics`` like every other subsystem.
"""

from __future__ import annotations

import itertools
import math
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Sequence

from ..core import codec, telemetry
from ..core.report_cache import is_cache_entry
from .jobs import mark_per_job
from .specs import SimulateJobSpec

#: Upper bound on one long-poll, whatever the caller asks for.  Both
#: long-polls share it: a worker's task claim (``POST /workers/<id>/claim``)
#: and a client's job wait (``GET /jobs/<id>?wait=``).
MAX_LONG_POLL_SECONDS = 30.0

#: A worker counts as alive while its last heartbeat is this many leases old.
ALIVE_LEASE_FACTOR = 2.0

#: Bounds on the per-worker lease length (requested at registration).
MIN_LEASE_SECONDS = 0.05
MAX_LEASE_SECONDS = 3600.0


def duration_seconds(value: Any, field: str) -> float:
    """``value`` as seconds; :class:`ValueError` for NaN, booleans and non-numbers.

    Durations arrive from JSON bodies and query strings, and Python's
    ``json`` accepts ``NaN``.  A ``min(max(x, lo), hi)`` clamp passes NaN
    through, and a NaN deadline never passes, so NaN is refused here, before
    any clamp.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)) or math.isnan(value):
        raise ValueError(f"{field} must be a number of seconds, got {value!r}")
    return float(value)


def positive_count(value: Any, field: str) -> int:
    """``value`` as a count of at least 1; :class:`ValueError` for anything
    else — booleans, floats (``2.9``, or the infinity JSON's ``1e999``
    parses to) and strings included, rather than truncating them to an int.
    """
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"{field} must be an integer >= 1, got {value!r}")
    return value


class TaskState(str, Enum):
    PENDING = "pending"
    LEASED = "leased"
    DONE = "done"


@dataclass
class WorkerInfo:
    """One registered worker process (or a retired incarnation of one)."""

    id: str
    name: str
    concurrency: int = 1
    lease_seconds: float = 30.0
    registered_at: float = field(default_factory=time.time)  # repro: allow[REP002] display-only
    last_heartbeat: float = field(default_factory=time.monotonic)
    retired: bool = False
    tasks_completed: int = 0

    def alive(self, now: float) -> bool:
        if self.retired:
            return False
        return (now - self.last_heartbeat) <= self.lease_seconds * ALIVE_LEASE_FACTOR

    def summary(self, now: float) -> dict[str, Any]:
        return {
            "id": self.id,
            "name": self.name,
            "concurrency": self.concurrency,
            "lease_seconds": self.lease_seconds,
            "alive": self.alive(now),
            "retired": self.retired,
            "heartbeat_age_seconds": round(now - self.last_heartbeat, 3),
            "tasks_completed": self.tasks_completed,
        }


@dataclass
class FleetTask:
    """One dispatchable unit: a config partition of a coalesced batch."""

    id: str
    sinks: list[Any]
    requests: list[SimulateJobSpec]
    state: TaskState = TaskState.PENDING
    owner: str | None = None
    attempts: int = 0
    lease_deadline: float = 0.0
    enqueued_at: float = field(default_factory=time.monotonic)
    #: Sink claiming happens exactly once, on the first lease; a requeued
    #: task reuses the filtered sinks (``Job.mark_running`` is CAS itself
    #: and would reject a second claim of an already-RUNNING job).
    prepared: bool = False
    live_sinks: list[Any] = field(default_factory=list)
    live_requests: list[SimulateJobSpec] = field(default_factory=list)
    payload: dict[str, Any] | None = None

    def wire_payload(self) -> dict[str, Any]:
        assert self.payload is not None
        return {**self.payload, "attempts": self.attempts}


class WorkerFleet:
    """Register/claim/heartbeat/complete lease manager (see module docstring).

    Parameters
    ----------
    lease_seconds:
        Default lease length for workers that do not request their own.
    max_attempts:
        A task requeued this many times fails its jobs instead of cycling
        forever (a poisonous payload would otherwise starve the fleet).
    prepare:
        ``prepare(sinks, requests) -> (live_sinks, live_requests)`` — called
        once per task, on first claim, to CAS-claim the underlying job sinks
        (cancelled jobs drop out here).
    deliver:
        ``deliver(sinks, requests, reports=..., error=...)`` — called outside
        the fleet lock to complete a task's sinks and their coalesced
        followers.
    """

    def __init__(
        self,
        lease_seconds: float = 30.0,
        max_attempts: int = 5,
        prepare: Callable[[list[Any], list[SimulateJobSpec]], tuple] | None = None,
        deliver: Callable[..., None] | None = None,
    ) -> None:
        if lease_seconds <= 0:
            raise ValueError("lease_seconds must be > 0")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.lease_seconds = float(lease_seconds)
        self.max_attempts = max_attempts
        self._prepare = prepare
        self._deliver = deliver
        self._lock = threading.Condition()
        self._workers: dict[str, WorkerInfo] = {}  #: guarded by _lock
        self._tasks: dict[str, FleetTask] = {}  #: guarded by _lock
        self._pending: deque[str] = deque()  #: guarded by _lock
        self._worker_ids = itertools.count(1)
        self._task_ids = itertools.count(1)
        self._closed = False
        # Plain per-fleet counters (the registry aggregates process-wide).
        self.leases_expired = 0
        self.tasks_requeued = 0
        self.tasks_completed = 0
        self.completions_rejected = 0
        self.tasks_failed = 0
        registry = telemetry.get_registry()
        self._workers_gauge = registry.gauge(
            "repro_fleet_workers_alive", "Registered workers with a fresh heartbeat."
        )
        self._queue_gauge = registry.gauge(
            "repro_fleet_queue_depth", "Fleet tasks waiting to be claimed."
        )
        self._registered_metric = registry.counter(
            "repro_fleet_workers_registered_total", "Worker registrations accepted."
        )
        self._expired_metric = registry.counter(
            "repro_fleet_leases_expired_total", "Leases expired after missed heartbeats."
        )
        self._requeued_metric = registry.counter(
            "repro_fleet_jobs_requeued_total", "Tasks requeued after a lease expired."
        )
        self._completed_metric = registry.counter(
            "repro_fleet_tasks_completed_total",
            "Task completions by outcome (accepted / rejected / error / failed).",
            labels=("outcome",),
        )
        self._claim_latency_metric = registry.histogram(
            "repro_fleet_claim_latency_seconds",
            "Monotonic wait from task enqueue to a worker claiming it.",
        )
        self._workers_gauge_fn = self._count_alive
        self._queue_gauge_fn = lambda: float(len(self._pending))
        self._workers_gauge.set_function(self._workers_gauge_fn)
        self._queue_gauge.set_function(self._queue_gauge_fn)
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-fleet-monitor", daemon=True
        )
        self._monitor.start()

    def _count_alive(self) -> float:
        now = time.monotonic()
        with self._lock:
            return float(sum(1 for worker in self._workers.values() if worker.alive(now)))

    # -- worker lifecycle -------------------------------------------------------

    def register(
        self,
        name: str,
        concurrency: int = 1,
        lease_seconds: float | None = None,
    ) -> WorkerInfo:
        """Admit a worker; a same-named live worker is retired and its leases
        requeued immediately (restart semantics — no need to wait for its old
        leases to time out)."""
        if not name:
            raise ValueError("worker name must be non-empty")
        concurrency = positive_count(concurrency, "concurrency")
        lease = self.lease_seconds
        if lease_seconds is not None:
            lease = duration_seconds(lease_seconds, "lease_seconds")
        lease = min(max(lease, MIN_LEASE_SECONDS), MAX_LEASE_SECONDS)
        failures: list[FleetTask] = []
        with self._lock:
            if self._closed:
                raise RuntimeError("worker fleet is closed")
            requeued_before = self.tasks_requeued
            for previous in self._workers.values():
                if previous.name == name and not previous.retired:
                    previous.retired = True
                    failures.extend(self._release_owned_locked(previous.id))
            requeued = self.tasks_requeued - requeued_before
            worker = WorkerInfo(
                id=f"worker-{next(self._worker_ids):04d}",
                name=name,
                concurrency=concurrency,
                lease_seconds=lease,
            )
            self._workers[worker.id] = worker
            self._lock.notify_all()
        # Registry metrics only outside the fleet lock: the alive-workers
        # gauge callback runs *under* the registry lock and takes the fleet
        # lock, so a metric op under the fleet lock would close a
        # registry-lock/fleet-lock ordering cycle (a real deadlock under
        # concurrent /metrics scrapes — see lockwatch).
        self._registered_metric.inc()
        if requeued:
            self._requeued_metric.inc(requeued)
        self._fail_tasks(failures)
        return worker

    def _worker_locked(self, worker_id: str) -> WorkerInfo:
        worker = self._workers.get(worker_id)
        if worker is None or worker.retired:
            raise KeyError(f"unknown worker {worker_id!r} (register first)")
        return worker

    def _release_owned_locked(self, worker_id: str) -> list[FleetTask]:
        """Requeue every lease held by ``worker_id``; returns tasks that
        exhausted their attempts and must be failed (outside the lock)."""
        failures: list[FleetTask] = []
        for task in list(self._tasks.values()):
            if task.state is TaskState.LEASED and task.owner == worker_id:
                failures.extend(self._requeue_locked(task))
        return failures

    def _requeue_locked(self, task: FleetTask) -> list[FleetTask]:
        task.owner = None
        task.attempts += 1
        if task.attempts >= self.max_attempts:
            task.state = TaskState.DONE
            del self._tasks[task.id]
            return [task]
        task.state = TaskState.PENDING
        task.enqueued_at = time.monotonic()
        self._pending.append(task.id)
        # Plain counter only; the caller mirrors the delta into the registry
        # metric after releasing the lock (lock-ordering discipline above).
        self.tasks_requeued += 1
        self._lock.notify_all()
        return []

    def _fail_tasks(self, tasks: Sequence[FleetTask]) -> None:
        for task in tasks:
            self.tasks_failed += 1
            self._completed_metric.inc(outcome="failed")
            if self._deliver is not None and task.prepared:
                error = RuntimeError(
                    f"fleet task {task.id} abandoned after {task.attempts} expired leases"
                )
                self._deliver(task.live_sinks, task.live_requests, error=error)

    # -- dispatch ---------------------------------------------------------------

    def offer(self, sinks: list[Any], requests: list[SimulateJobSpec]) -> FleetTask:
        """Queue one task (a config partition of a coalesced batch)."""
        if len(sinks) != len(requests):
            raise ValueError("sinks and requests must align")
        if not requests:
            raise ValueError("cannot offer an empty task")
        with self._lock:
            if self._closed:
                raise RuntimeError("worker fleet is closed")
            task = FleetTask(
                id=f"task-{next(self._task_ids):04d}", sinks=sinks, requests=requests
            )
            self._tasks[task.id] = task
            self._pending.append(task.id)
            self._lock.notify_all()
        return task

    def claim(
        self, worker_id: str, max_tasks: int = 1, wait_seconds: float = 0.0
    ) -> list[dict[str, Any]]:
        """Lease up to ``max_tasks`` pending tasks to ``worker_id``.

        Blocks up to ``wait_seconds`` (capped at
        :data:`MAX_LONG_POLL_SECONDS`) when the queue is empty — the HTTP
        long-poll.  Returns wire payloads (typed ``simulate_spec`` envelopes);
        raises :class:`KeyError` for unknown or retired workers and
        :class:`ValueError` for a ``max_tasks`` that is not an integer >= 1
        or a ``wait_seconds`` that is not a number.
        """
        max_tasks = positive_count(max_tasks, "max_tasks")
        wait = duration_seconds(wait_seconds, "wait_seconds")
        deadline = time.monotonic() + min(max(wait, 0.0), MAX_LONG_POLL_SECONDS)
        with self._lock:
            while True:
                now = time.monotonic()
                worker = self._worker_locked(worker_id)
                worker.last_heartbeat = now  # claiming proves liveness
                granted = self._claim_locked(worker, max_tasks, now)
                if granted or self._closed:
                    claim_waits = [now - task.enqueued_at for task in granted]
                    payloads = [task.wire_payload() for task in granted]
                    break
                remaining = deadline - now
                if remaining <= 0:
                    return []
                self._lock.wait(min(remaining, 0.5))
        for wait in claim_waits:  # registry metrics outside the fleet lock
            self._claim_latency_metric.observe(wait)
        return payloads

    def _claim_locked(
        self, worker: WorkerInfo, max_tasks: int, now: float
    ) -> list[FleetTask]:
        granted: list[FleetTask] = []
        while self._pending and len(granted) < max_tasks:
            task = self._tasks.get(self._pending.popleft())
            if task is None or task.state is not TaskState.PENDING:
                continue  # completed/failed while queued; stale queue entry
            if not task.prepared:
                task.prepared = True
                if self._prepare is not None:
                    live_sinks, live_requests = self._prepare(task.sinks, task.requests)
                else:
                    # Without a service hook, mirror its semantics: CAS-claim
                    # each sink; whoever refuses (cancelled) drops out.
                    live_sinks, live_requests = [], []
                    for sink, request in zip(task.sinks, task.requests):
                        if sink.claim():
                            live_sinks.append(sink)
                            live_requests.append(request)
                task.live_sinks = list(live_sinks)
                task.live_requests = list(live_requests)
                if not task.live_requests:  # every job cancelled before any lease
                    task.state = TaskState.DONE
                    del self._tasks[task.id]
                    continue
                task.payload = {
                    "id": task.id,
                    "specs": [codec.encode(request) for request in task.live_requests],
                }
            task.state = TaskState.LEASED
            task.owner = worker.id
            task.lease_deadline = now + worker.lease_seconds
            mark_per_job(task.live_sinks, "leased", worker=worker.id, task=task.id)
            granted.append(task)
        return granted

    def heartbeat(self, worker_id: str) -> dict[str, Any]:
        """Renew every lease ``worker_id`` holds; raises KeyError when the
        worker is unknown or retired (its cue to re-register)."""
        now = time.monotonic()
        with self._lock:
            worker = self._worker_locked(worker_id)
            worker.last_heartbeat = now
            renewed = []
            for task in self._tasks.values():
                if task.state is TaskState.LEASED and task.owner == worker_id:
                    task.lease_deadline = now + worker.lease_seconds
                    renewed.append(task.id)
        return {
            "worker_id": worker_id,
            "lease_seconds": worker.lease_seconds,
            "tasks": renewed,
        }

    def complete(
        self,
        worker_id: str,
        task_id: str,
        reports: list[Any] | None = None,
        error: str | None = None,
    ) -> bool:
        """Accept a task result iff the completing worker still holds the lease.

        The CAS: accepted only when the task exists, is LEASED, and is owned
        by ``worker_id``.  A completion after expiry/requeue (or a duplicate)
        returns False and delivers nothing — the retry owns the result now.
        Simulation ``error`` strings fail the underlying jobs immediately;
        deterministic failures do not benefit from a requeue.  A result that
        is not one report-cache entry per request raises :class:`ValueError`
        before anything changes, so the worker keeps its lease.
        """
        with self._lock:
            self._worker_locked(worker_id)  # unknown workers may not complete
            task = self._tasks.get(task_id)
            if (
                task is None
                or task.state is not TaskState.LEASED
                or task.owner != worker_id
            ):
                self.completions_rejected += 1
                task = None  # the rejected-metric inc happens outside the lock
            else:
                if error is None:
                    if reports is None or len(reports) != len(task.live_requests):
                        raise ValueError(
                            f"task {task_id} completion carries "
                            f"{0 if reports is None else len(reports)} "
                            f"reports for {len(task.live_requests)} requests"
                        )
                    for report in reports:
                        if not is_cache_entry(report):
                            raise ValueError(
                                f"task {task_id} completion carries "
                                f"{type(report).__name__}, not a single-trace report batch"
                            )
                task.state = TaskState.DONE
                del self._tasks[task.id]
                worker = self._workers.get(worker_id)
                if worker is not None:
                    worker.tasks_completed += 1
        if task is None:
            self._completed_metric.inc(outcome="rejected")
            return False
        if error is not None:
            self._completed_metric.inc(outcome="error")
            if self._deliver is not None:
                self._deliver(
                    task.live_sinks,
                    task.live_requests,
                    error=RuntimeError(f"worker {worker_id} failed task {task_id}: {error}"),
                )
        else:
            self.tasks_completed += 1
            self._completed_metric.inc(outcome="accepted")
            if self._deliver is not None:
                self._deliver(task.live_sinks, task.live_requests, reports=reports)
        return True

    # -- expiry -----------------------------------------------------------------

    def _monitor_loop(self) -> None:
        tick = min(max(self.lease_seconds / 4.0, 0.02), 1.0)
        while True:
            self._expire_and_publish()
            with self._lock:
                if self._closed:
                    return
                self._lock.wait(tick)

    def _expire_and_publish(self) -> int:
        """One expiry sweep; metric deltas publish after the lock is released
        (the lock-ordering discipline documented in register())."""
        with self._lock:
            if self._closed:
                return 0
            expired_before = self.leases_expired
            requeued_before = self.tasks_requeued
            failures = self._expire_locked(time.monotonic())
            expired = self.leases_expired - expired_before
            requeued = self.tasks_requeued - requeued_before
        if expired:
            self._expired_metric.inc(expired)
        if requeued:
            self._requeued_metric.inc(requeued)
        self._fail_tasks(failures)
        return expired

    def _expire_locked(self, now: float) -> list[FleetTask]:
        failures: list[FleetTask] = []
        for task in list(self._tasks.values()):
            if task.state is TaskState.LEASED and now >= task.lease_deadline:
                self.leases_expired += 1
                failures.extend(self._requeue_locked(task))
        return failures

    def expire_now(self) -> int:
        """Force one expiry sweep (tests and diagnostics); returns how many
        leases expired."""
        return self._expire_and_publish()

    # -- inspection / lifecycle -------------------------------------------------

    def summary(self) -> dict[str, Any]:
        now = time.monotonic()
        with self._lock:
            owned: dict[str, int] = {}
            leased = 0
            pending = 0
            for task in self._tasks.values():
                if task.state is TaskState.LEASED:
                    leased += 1
                    if task.owner is not None:
                        owned[task.owner] = owned.get(task.owner, 0) + 1
                elif task.state is TaskState.PENDING:
                    pending += 1
            workers = [
                {**worker.summary(now), "leased": owned.get(worker.id, 0)}
                for worker in self._workers.values()
            ]
        return {
            "workers": workers,
            "workers_alive": sum(1 for worker in workers if worker["alive"]),
            "queue_depth": pending,
            "leased": leased,
            "tasks_completed": self.tasks_completed,
            "completions_rejected": self.completions_rejected,
            "leases_expired": self.leases_expired,
            "tasks_requeued": self.tasks_requeued,
            "tasks_failed": self.tasks_failed,
            "lease_seconds": self.lease_seconds,
            "closed": self._closed,
        }

    def close(self) -> None:
        """Stop the monitor and fail every task still outstanding."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            outstanding = [
                task for task in self._tasks.values() if task.state is not TaskState.DONE
            ]
            self._tasks.clear()
            self._pending.clear()
            self._lock.notify_all()
        self._monitor.join()
        for task in outstanding:
            if self._deliver is None:
                continue
            if task.prepared:
                sinks, requests = task.live_sinks, task.live_requests
            else:  # never claimed: fail its queued jobs and release their keys
                sinks, requests = task.sinks, task.requests
            self._deliver(
                sinks,
                requests,
                error=RuntimeError("worker fleet closed before this task completed"),
            )
        self._workers_gauge.clear_function(self._workers_gauge_fn)
        self._queue_gauge.clear_function(self._queue_gauge_fn)
