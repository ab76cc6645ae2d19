"""The evaluation service: a job queue over the batched simulation scheduler.

:class:`EvaluationService` is the in-process fleet front end and an
:class:`~repro.core.execution.Executor`.  Clients submit job specs through
``submit(spec)`` and get :class:`~repro.serve.jobs.Job` handles back
immediately; a scheduler thread drains the queue, *coalesces* the planned
requests of simulation and sweep jobs (``spec.plan()``, simulate specs) that
share an energy table and backend into single batched passes
(:func:`~repro.serve.scheduler.run_batched`), and routes work to the right
pool:

* **simulation, sweep and callable jobs → threads.**  The batched NumPy
  engine releases the GIL for its array work, so a thread pool scales and
  shares the in-process report cache.
* **sampling jobs → processes.**  FID generation runs the Python-level U-Net
  sampler and is GIL-bound; quality specs and ``pool="process"`` callables
  run registered module-level functions (e.g. from
  :mod:`repro.serve.workers`) in a ``ProcessPoolExecutor`` (created lazily on
  first use, its workers started with ``spawn``, never ``fork``: see
  :data:`PROCESS_START_METHOD`).  Payloads are pickle-checked at submit time
  so an unpicklable job fails fast with an actionable message instead of a
  pool traceback.

Because submission batches naturally (callers enqueue a sweep's worth of jobs
before blocking on results), coalescing needs no artificial delay: the
scheduler grabs everything queued at each wakeup.

Two properties matter once several *clients* (threads, or remote HTTP
clients via :mod:`repro.serve.http`) share one service:

* **Single-flight simulation.**  Identical simulation requests arriving in
  different scheduler drains attach to the in-flight batch for their cache
  key instead of re-simulating, so N clients submitting the same sweep cost
  one simulation per unique key — deterministically, not just when their
  submissions happen to land in one drain.
* **Cancellation.**  :meth:`Job.cancel` (or :meth:`EvaluationService.cancel`
  by id) cancels a job that has not started: a simulation or sweep job
  starts when a pool thread or a fleet lease claims its first request.  The
  race against dispatch is resolved by the per-job transition lock: a job
  cancelled after the scheduler drained it but before a worker claimed it
  reports ``CANCELLED`` and its work is skipped.
"""

from __future__ import annotations

import itertools
import multiprocessing
import threading
from collections import Counter
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Iterable

from ..core import telemetry
from ..core.columnar import ColumnarReportBatch
from ..core.execution import (
    PLANNED_KINDS,
    Executor,
    JobKind,
    JobStatus,
    ensure_picklable,
    job_kind,
    resolve_call,
)
from ..core.report_cache import CacheKey, DEFAULT_REPORT_CACHE, ReportCache
from .fleet import WorkerFleet
from .jobs import Job, mark_per_job
from .scheduler import BatchStats, _config_partitions, coalesce_requests, run_batched
from .specs import SimulateJobSpec, SweepJobResult

#: Result bytes the job history may pin: beyond them the oldest terminal jobs
#: are forgotten, as beyond ``history_limit`` jobs.  A 17-point sweep of a
#: paper trace holds 119-156 KiB of columnar results.
MAX_RETAINED_RESULT_BYTES = 64 * 1024 * 1024

#: How the sampling pool starts its workers.  Not ``fork``: the scheduler
#: thread starts the pool while another thread may be inside a multithreaded
#: OpenBLAS call (``repro evaluate`` runs the hardware evaluation while its
#: quality jobs start the pool), and OpenBLAS's at-fork handler then stops
#: the BLAS threads that call waits on, so the caller spins forever.
PROCESS_START_METHOD = "spawn"


def _result_nbytes(value: Any) -> int:
    """Array bytes a finished job's result pins: its columnar batches (a
    sweep's parts); any other result counts 0."""
    items = value.parts if isinstance(value, SweepJobResult) else [value]
    return sum(item.nbytes for item in items if isinstance(item, ColumnarReportBatch))


class _PlannedJob:
    """A simulation or sweep job's planned requests, collected into its result.

    The job turns RUNNING when a pool thread or a fleet lease claims its
    first request, and DONE once every request has delivered — whether its
    report came from its own batch, the cache, or another job's in-flight
    batch it attached to as a follower.
    """

    def __init__(self, job: Job, spec: Any, requests: list[SimulateJobSpec]) -> None:
        self.job = job
        self.spec = spec
        self.requests = requests
        self._reports: list[Any] = [None] * len(requests)
        self._remaining = len(requests)
        self._lock = threading.Lock()

    def claim(self) -> bool:
        """Claim one request; False once the job was cancelled or finished,
        so the request is dead work."""
        return self.job.mark_running() or self.job.status is JobStatus.RUNNING

    def deliver(self, index: int, report: Any) -> None:
        with self._lock:
            if self._reports[index] is not None:
                return
            self._reports[index] = report
            self._remaining -= 1
            if self._remaining:
                return
        self.job.mark_done(self.spec.result(self._reports))

    def fail(self, error: BaseException) -> None:
        self.job.mark_failed(error)  # first failure wins; later marks no-op


class _RequestSink:
    """Completion adapter: one planned request feeding its job."""

    __slots__ = ("planned", "index", "trace")

    def __init__(self, planned: _PlannedJob, index: int) -> None:
        self.planned = planned
        self.index = index
        self.trace = planned.job.trace

    def claim(self) -> bool:
        return self.planned.claim()

    def deliver(self, report: Any) -> None:
        self.planned.deliver(self.index, report)

    def fail(self, error: BaseException) -> None:
        self.planned.fail(error)


class EvaluationService(Executor):
    """Job-queue front end over the cached, batched evaluation pipeline.

    Parameters
    ----------
    cache:
        Report cache shared by all simulation jobs (process default if None);
        give it an :class:`~repro.core.artifacts.ArtifactStore` to persist
        results across processes.
    max_workers:
        Thread-pool size for simulation/callable jobs (library default if
        None).
    process_workers:
        Process-pool size for sampling jobs (library default if None).  The
        pool is only created when the first sampling job arrives.
    history_limit:
        How many *completed* jobs the service keeps addressable by id.  A
        long-lived service would otherwise pin every result (reports included)
        forever; beyond the limit — or while the retained results hold more
        than :data:`MAX_RETAINED_RESULT_BYTES` — the oldest terminal jobs are
        forgotten.  Job handles returned by ``submit`` keep working
        regardless — only id-based lookup of old jobs ages out.
    worker_fleet:
        ``True`` dispatches simulation work to pull-based remote workers (a
        :class:`~repro.serve.fleet.WorkerFleet` with lease/heartbeat
        liveness) instead of the in-process thread pool.  Cache hits are
        still served locally, so warm restarts and single-flight coalescing
        work fleet-wide; only misses ship to workers, one task per
        configuration partition so a sweep scales across the fleet.
    lease_seconds:
        Default worker lease length when ``worker_fleet`` is enabled.

    Use as a context manager, or call :meth:`close`; shutdown cancels jobs
    still queued and waits for running ones.
    """

    name = "service"

    def __init__(
        self,
        cache: ReportCache | None = None,
        max_workers: int | None = None,
        process_workers: int | None = None,
        history_limit: int = 1024,
        worker_fleet: bool = False,
        lease_seconds: float = 30.0,
    ) -> None:
        if history_limit < 0:
            raise ValueError("history_limit must be >= 0")
        self.history_limit = history_limit
        # Explicit None check: an empty ReportCache is falsy (it has __len__).
        self.cache = DEFAULT_REPORT_CACHE if cache is None else cache
        self._threads = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-serve"
        )
        self._process_workers = process_workers
        self._process_pool: ProcessPoolExecutor | None = None
        self._jobs: dict[str, Job] = {}  #: guarded by _condition
        #: Result bytes of retained jobs (see ``_result_nbytes``), by job id.
        self._result_bytes: dict[str, int] = {}  #: guarded by _condition
        self._retained_bytes = 0  #: guarded by _condition
        self._queue: list[tuple[Job, Any]] = []
        self._condition = threading.Condition()
        self._closed = False
        self._ids = itertools.count(1)
        self._submitted: Counter[str] = Counter()  #: guarded by _condition
        # Single-flight registry: cache key of every simulation batch currently
        # in flight -> follower sinks attached to it (completed with the batch).
        self._inflight: dict[CacheKey, list[Any]] = {}
        self._inflight_lock = threading.Lock()
        #: Pull-based dispatch: when set, simulation misses become fleet tasks
        #: that registered workers claim over HTTP (see repro.serve.fleet).
        self.fleet: WorkerFleet | None = (
            WorkerFleet(
                lease_seconds=lease_seconds,
                prepare=self._claim_group,
                deliver=self._complete_fleet_group,
            )
            if worker_fleet
            else None
        )
        self.coalesced_attached = 0
        self.cancelled_count = 0
        #: How the scheduler carved the simulation traffic into kernel calls
        #: (shared across worker threads; see ``service_stats()["scheduler"]``).
        #: A derived view over the process-wide telemetry registry.
        self.batch_stats = BatchStats()
        # Telemetry: counters/histograms are process-wide (they aggregate
        # across services, like any Prometheus exporter); the queue-depth and
        # inflight gauges read from THIS service at collection time: the most
        # recently built service still open owns them.
        registry = telemetry.get_registry()
        self._jobs_submitted_metric = registry.counter(
            "repro_service_jobs_submitted_total", "Jobs accepted, by kind.", labels=("kind",)
        )
        self._jobs_completed_metric = registry.counter(
            "repro_service_jobs_completed_total",
            "Jobs reaching a terminal state, by kind and status.",
            labels=("kind", "status"),
        )
        self._coalesced_metric = registry.counter(
            "repro_service_coalesced_attached_total",
            "Simulation requests attached to an in-flight identical batch.",
        )
        self._cancelled_metric = registry.counter(
            "repro_service_cancelled_total", "Jobs cancelled by client request."
        )
        self._queue_wait_metric = registry.histogram(
            "repro_service_queue_wait_seconds",
            "Monotonic queue wait (submitted -> dispatched), by job kind.",
            labels=("kind",),
        )
        self._run_duration_metric = registry.histogram(
            "repro_service_job_duration_seconds",
            "Monotonic run duration (dispatched -> finished), by job kind.",
            labels=("kind",),
        )
        self._queue_gauge = registry.gauge(
            "repro_service_queue_depth", "Jobs waiting in the service queue."
        )
        self._inflight_gauge = registry.gauge(
            "repro_service_inflight_keys", "Simulation cache keys with a batch in flight."
        )
        self._queue_gauge_fn = lambda: float(len(self._queue))
        self._inflight_gauge_fn = lambda: float(len(self._inflight))
        self._queue_gauge.set_function(self._queue_gauge_fn)
        self._inflight_gauge.set_function(self._inflight_gauge_fn)
        self._scheduler = threading.Thread(
            target=self._scheduler_loop, name="repro-serve-scheduler", daemon=True
        )
        self._scheduler.start()

    # -- submission -------------------------------------------------------------

    def _new_job(self, kind: JobKind, label: str) -> Job:
        job = Job(id=f"job-{next(self._ids):04d}", kind=kind, label=label)
        job._service = self
        return job

    def _retire_completed_locked(self) -> None:
        """Forget the oldest terminal jobs beyond ``history_limit``, and while
        the retained results pin more than MAX_RETAINED_RESULT_BYTES (lock held)."""
        terminal = [job_id for job_id, job in self._jobs.items() if job.done]
        excess = len(terminal) - self.history_limit
        for job_id in terminal:
            if excess <= 0 and self._retained_bytes <= MAX_RETAINED_RESULT_BYTES:
                break
            del self._jobs[job_id]
            self._retained_bytes -= self._result_bytes.pop(job_id, 0)
            excess -= 1

    def _enqueue(self, job: Job, payload: Any) -> Job:
        with self._condition:
            if self._closed:
                raise RuntimeError("evaluation service is closed")
            self._jobs[job.id] = job
            self._submitted[job.kind.value] += 1
            self._retire_completed_locked()
            self._queue.append((job, payload))
            self._condition.notify()
        self._jobs_submitted_metric.inc(kind=job.kind.value)
        job.trace.mark("submitted", kind=job.kind.value, label=job.label)
        job.add_done_callback(self._observe_completion)
        return job

    def _observe_completion(self, job: Job) -> None:
        """Size one finished job's result for the history bound, and feed its
        lifecycle timing into the registry."""
        nbytes = _result_nbytes(job.result_value)
        if nbytes:
            with self._condition:
                if self._jobs.get(job.id) is job:  # not retired already
                    self._result_bytes[job.id] = nbytes
                    self._retained_bytes += nbytes
                    if self._retained_bytes > MAX_RETAINED_RESULT_BYTES:
                        self._retire_completed_locked()
        self._jobs_completed_metric.inc(kind=job.kind.value, status=job.status.value)
        if job.started_at_monotonic is not None:
            self._queue_wait_metric.observe(job.queued_seconds, kind=job.kind.value)
        running = job.running_seconds
        if running is not None:
            self._run_duration_metric.observe(running, kind=job.kind.value)

    def submit(self, spec: Any, label: str = "") -> Job:
        """Queue one job spec and return its job — the only way in, for
        executor callers and the HTTP front end alike.

        Simulate and sweep specs are planned here (every planned request
        joins the coalescing/single-flight scheduler); quality specs and
        ``pool="process"`` callables go to the process pool, other callables
        and :class:`~repro.core.execution.LocalCallSpec` to the thread pool.
        Invalid grids, unknown backends, unregistered function names and
        unpicklable process-pool payloads raise :class:`ValueError`,
        anything that is not a job spec :class:`TypeError`, before anything
        is queued.
        """
        kind = job_kind(spec)
        if kind in PLANNED_KINDS:
            requests = spec.plan()
            job = self._new_job(kind, label or spec.default_label())
            return self._enqueue(job, _PlannedJob(job, spec, requests))
        call = resolve_call(spec)
        if kind is JobKind.SAMPLING:
            ensure_picklable(
                call,
                "sampling jobs execute in worker processes, so the function and its "
                "arguments must be picklable: register a module-level function (e.g. "
                "from repro.serve.workers) and pass plain-data arguments, not lambdas, "
                "bound methods or live model objects",
            )
        job = self._new_job(kind, label or spec.default_label())
        return self._enqueue(job, call)

    # -- inspection -------------------------------------------------------------

    def job(self, job_id: str) -> Job:
        with self._condition:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise KeyError(f"unknown job {job_id!r}") from None

    def jobs(self, status: "JobStatus | str | None" = None, limit: int | None = None) -> list[Job]:
        """Known jobs in submission order, optionally filtered and capped.

        ``status`` keeps only jobs in that state; ``limit`` keeps the most
        recently submitted matches (mirrored by ``GET /jobs?status=&limit=``
        and :meth:`RemoteEvaluationClient.list_jobs`).
        """
        if limit is not None and limit < 0:
            raise ValueError("limit must be >= 0")
        with self._condition:
            listing = list(self._jobs.values())
        if status is not None:
            wanted = JobStatus(status)
            listing = [job for job in listing if job.status is wanted]
        if limit is not None:
            listing = listing[len(listing) - min(limit, len(listing)) :]
        return listing

    def status(self, job_id: str) -> JobStatus:
        return self.job(job_id).status

    def result(self, job_id: str, timeout: float | None = None) -> Any:
        """Block for one job's result (raises on failure; see :meth:`Job.result`)."""
        return self.job(job_id).result(timeout)

    def cancel(self, job_id: str) -> bool:
        """Cancel a job that has not started running.

        Returns True when the job was cancelled (it will report
        ``CANCELLED`` and its work is skipped), False when it already
        started, completed, or was cancelled before.  Raises :class:`KeyError`
        for unknown ids.  The per-job transition lock makes the race against
        the dispatcher safe: a job cancelled after the scheduler drained it
        but before a worker claimed it still cancels cleanly.
        """
        return self._cancel_job(self.job(job_id))

    def _cancel_job(self, job: Job) -> bool:
        with self._condition:
            cancelled = job.mark_cancelled("cancelled by client request")
            if cancelled:
                self._queue = [(j, p) for j, p in self._queue if j is not job]
                self.cancelled_count += 1
        if cancelled:
            self._cancelled_metric.inc()
        return cancelled

    def stats(self) -> dict[str, Any]:
        return {"executor": self.name, **self.service_stats()}

    def service_stats(self) -> dict[str, Any]:
        """Counters for health endpoints: traffic by kind, queue and coalescing."""
        with self._condition:
            submitted = dict(self._submitted)
            queued = len(self._queue)
            status_counts = Counter(job.status.value for job in self._jobs.values())
            retained_bytes = self._retained_bytes
            closed = self._closed
        with self._inflight_lock:
            attached = self.coalesced_attached
            inflight = len(self._inflight)
        return {
            "submitted": submitted,
            "queued": queued,
            "jobs_by_status": dict(status_counts),
            "retained_result_bytes": retained_bytes,
            "coalesced_attached": attached,
            "inflight_keys": inflight,
            "cancelled": self.cancelled_count,
            "closed": closed,
            "scheduler": self.batch_stats.as_dict(),
            "cache": self.cache.summary(),
            "fleet": self.fleet.summary() if self.fleet is not None else None,
        }

    def wait_all(self, jobs: Iterable[Job] | None = None, timeout: float | None = None) -> bool:
        """Wait for the given jobs (default: all submitted); False on timeout."""
        import time as _time

        deadline = None if timeout is None else _time.monotonic() + timeout
        for job in list(jobs) if jobs is not None else self.jobs():
            remaining = None if deadline is None else max(0.0, deadline - _time.monotonic())
            if not job.wait(remaining):
                return False
        return True

    # -- scheduler --------------------------------------------------------------

    def _scheduler_loop(self) -> None:
        while True:
            with self._condition:
                while not self._queue and not self._closed:
                    self._condition.wait()
                if self._closed and not self._queue:
                    return
                drained, self._queue = self._queue, []
            try:
                self._dispatch(drained)
            except Exception as exc:  # pragma: no cover - defensive; _dispatch guards itself
                for job, _ in drained:
                    if not job.done:
                        job.mark_failed(exc)

    def _dispatch(self, drained: list[tuple[Job, Any]]) -> None:
        planned: list[_PlannedJob] = []
        for job, payload in drained:
            if job.kind in PLANNED_KINDS:
                planned.append(payload)
            elif job.kind is JobKind.SAMPLING:
                self._dispatch_process_job(job, payload)
            else:
                self._dispatch_thread_job(job, payload)
        if not planned:
            return

        # Single-flight: requests whose cache key already has a batch in
        # flight (from an earlier drain, e.g. another client submitting the
        # same sweep) attach as followers and are completed with that batch.
        # Everything else becomes a leader and registers its key.  A "sink"
        # is the completion target of one planned request.  The marks go in
        # under the lock, so no follower can finish its job before they do.
        # Every key was computed by ``plan()`` at submission, so nothing
        # here can raise between registering one key and the next.
        leaders: list[tuple[_RequestSink, SimulateJobSpec]] = []
        attached: list[_RequestSink] = []
        with self._inflight_lock:
            for job_plan in planned:
                for index, request in enumerate(job_plan.requests):
                    sink = _RequestSink(job_plan, index)
                    followers = self._inflight.get(request.key())
                    if followers is not None:
                        followers.append(sink)
                        attached.append(sink)
                    else:
                        self._inflight[request.key()] = []
                        leaders.append((sink, request))
            self.coalesced_attached += len(attached)
            mark_per_job((sink for sink, _ in leaders), "coalesced")
            mark_per_job(attached, "attached")
        if attached:
            self._coalesced_metric.inc(len(attached))

        # Coalesce the leaders drained together: each config/energy/backend
        # group becomes one batched thread-pool task, so groups run in
        # parallel while traces inside a group share a single NumPy pass.
        sinks_by_request = {id(request): sink for sink, request in leaders}
        for group in coalesce_requests([request for _, request in leaders]):
            group_sinks = [sinks_by_request[id(request)] for request in group]
            if self.fleet is not None:
                self._dispatch_fleet_group(group_sinks, group)
            else:
                self._threads.submit(self._run_simulation_group, group_sinks, group)

    def _claim_group(
        self, sinks: list[Any], requests: list[SimulateJobSpec]
    ) -> tuple[list[Any | None], list[SimulateJobSpec]]:
        """Claim each leader sink; a sink whose job was cancelled between
        coalescing and this point is skipped.  Its key stays registered only
        if followers already attached (they still need the result) —
        otherwise it is unregistered so later identical requests simulate
        freshly."""
        live_sinks: list[Any | None] = []
        live_requests: list[SimulateJobSpec] = []
        with self._inflight_lock:
            for sink, request in zip(sinks, requests):
                if sink.claim():
                    live_sinks.append(sink)
                    live_requests.append(request)
                elif self._inflight.get(request.key()):
                    live_sinks.append(None)
                    live_requests.append(request)
                else:
                    self._inflight.pop(request.key(), None)
        return live_sinks, live_requests

    def _dispatch_fleet_group(
        self, sinks: list[Any], requests: list[SimulateJobSpec]
    ) -> None:
        """Route one coalesced group to the pull-worker fleet.

        Cache hits complete immediately on the server — fleet dispatch must
        not cost a round trip for work a warm restart already has.  Misses
        are split per configuration partition so a sweep's grid spreads
        across however many workers are polling, not onto one.
        """
        assert self.fleet is not None
        miss_sinks: dict[int, Any] = {}
        misses: list[SimulateJobSpec] = []
        for sink, request in zip(sinks, requests):
            cached = self.cache.lookup_key(request.key())
            if cached is not None:
                live = sink.claim()
                self._finish_group([sink if live else None], [request], reports=[cached])
            else:
                miss_sinks[id(request)] = sink
                misses.append(request)
        for partition in _config_partitions(misses):
            self.fleet.offer([miss_sinks[id(r)] for r in partition], partition)

    def _complete_fleet_group(
        self,
        sinks: list[Any | None],
        requests: list[SimulateJobSpec],
        reports: list[Any] | None = None,
        error: BaseException | None = None,
    ) -> None:
        """Fleet completion hook: land worker results in the shared cache
        (artifact store included — warm restarts see fleet work), then
        complete the sinks and any coalesced followers."""
        if error is not None:
            self._finish_group(sinks, requests, error=error)
            return
        assert reports is not None
        canonical = [
            self.cache.insert_key(request.key(), report)
            for request, report in zip(requests, reports)
        ]
        self.batch_stats.record_group(
            num_configs=len({request.key()[0] for request in requests}),
            num_traces=len(requests),
        )
        self._finish_group(sinks, requests, reports=canonical)

    def _run_simulation_group(self, sinks: list[Any], requests: list[SimulateJobSpec]) -> None:
        live_sinks, live_requests = self._claim_group(sinks, requests)
        if not live_requests:
            return
        mark_per_job(live_sinks, "kernel", batch=len(live_requests))
        try:
            with telemetry.span("scheduler.batch", requests=len(live_requests)):
                reports = run_batched(live_requests, cache=self.cache, stats=self.batch_stats)
        except Exception as exc:  # noqa: BLE001 - a bad group fails its own jobs only
            self._finish_group(live_sinks, live_requests, error=exc)
            return
        self._finish_group(live_sinks, live_requests, reports=reports)

    def _finish_group(
        self,
        sinks: list[Any | None],
        requests: list[SimulateJobSpec],
        reports: list[Any] | None = None,
        error: BaseException | None = None,
    ) -> None:
        """Complete a batch's leader sinks and every follower attached to its keys."""
        with self._inflight_lock:
            followers = {
                key: self._inflight.pop(key, []) for key in {r.key() for r in requests}
            }
        if error is not None:
            for sink in sinks:
                if sink is not None:
                    sink.fail(error)
            for attached in followers.values():
                for sink in attached:
                    sink.fail(error)
            return
        assert reports is not None
        reports_by_key = {
            request.key(): report for request, report in zip(requests, reports)
        }
        for sink, report in zip(sinks, reports):
            if sink is not None:
                sink.deliver(report)
        for key, attached in followers.items():
            for sink in attached:
                sink.deliver(reports_by_key[key])

    def _dispatch_thread_job(self, job: Job, payload: Any) -> None:
        fn, args, kwargs = payload
        try:
            self._threads.submit(self._run_thread_job, job, fn, args, kwargs)
        except Exception as exc:  # noqa: BLE001 - e.g. submitting to a broken pool
            job.mark_failed(exc)

    def _run_thread_job(self, job: Job, fn: Callable[..., Any], args: tuple, kwargs: dict) -> None:
        if not job.mark_running():  # cancelled while waiting for a worker
            return
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - recorded on the job
            job.mark_failed(exc)
        else:
            job.mark_done(result)

    def _dispatch_process_job(self, job: Job, payload: Any) -> None:
        fn, args, kwargs = payload

        def complete(future: Future) -> None:
            error = future.exception()
            if error is not None:
                job.mark_failed(error)
            else:
                job.mark_done(future.result())

        # Process-pool payloads must be picklable, so the cancellation check
        # happens here (closures cannot cross the process boundary): sampling
        # jobs are cancellable only while still in the service queue.
        if not job.mark_running():
            return
        try:
            pool = self._processes()
            try:
                future = pool.submit(fn, *args, **kwargs)
            except BrokenProcessPool:
                # A worker died (e.g. OOM-killed) and took the pool with it.
                # Replace the pool and resubmit once: this job never started.
                # Only the scheduler thread touches the pool, so no lock.
                pool.shutdown(wait=False)
                self._process_pool = None
                future = self._processes().submit(fn, *args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - e.g. an unpicklable payload
            job.mark_failed(exc)
            return
        future.add_done_callback(complete)

    def _processes(self) -> ProcessPoolExecutor:
        if self._process_pool is None:
            self._process_pool = ProcessPoolExecutor(
                max_workers=self._process_workers,
                mp_context=multiprocessing.get_context(PROCESS_START_METHOD),
            )
        return self._process_pool

    # -- lifecycle --------------------------------------------------------------

    def close(self, cancel_queued: bool = False) -> None:
        """Shut the service down, waiting for in-flight work.

        ``cancel_queued=True`` marks still-queued jobs CANCELLED instead of
        running them.
        """
        with self._condition:
            if self._closed:
                return
            self._closed = True
            if cancel_queued:
                for job, _ in self._queue:
                    job.mark_cancelled("cancelled at service shutdown")
                self._queue = []
            self._condition.notify_all()
        self._scheduler.join()
        if self.fleet is not None:
            # After the scheduler drained, no new tasks can be offered; fail
            # whatever the fleet still holds so no job waits forever.
            self.fleet.close()
        self._threads.shutdown(wait=True)
        if self._process_pool is not None:
            self._process_pool.shutdown(wait=True)
        # Unregister the live gauges; an older service still open reclaims them.
        self._queue_gauge.clear_function(self._queue_gauge_fn)
        self._inflight_gauge.clear_function(self._inflight_gauge_fn)
