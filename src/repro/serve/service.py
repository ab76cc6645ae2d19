"""The evaluation service: a job queue over the batched simulation scheduler.

:class:`EvaluationService` is the in-process fleet front end and an
:class:`~repro.core.execution.Executor`.  Clients submit job specs (or use
the per-kind ``submit_*`` helpers) and get :class:`~repro.serve.jobs.Job`
handles back immediately; a scheduler thread drains the queue, *coalesces*
simulation jobs that share an accelerator configuration into single
cross-trace batched passes (:func:`~repro.serve.scheduler.run_batched`), and
routes work to the right pool:

* **simulation / callable jobs → threads.**  The batched NumPy engine
  releases the GIL for its array work, so a thread pool scales and shares the
  in-process report cache.
* **sampling jobs → processes.**  FID generation runs the Python-level U-Net
  sampler and is GIL-bound; those jobs execute module-level functions from
  :mod:`repro.serve.workers` in a ``ProcessPoolExecutor`` (created lazily on
  first use).  Payloads are pickle-checked at submit time so an unpicklable
  job fails fast with an actionable message instead of a pool traceback.

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
  by id) cancels a job that has not started.  The race against dispatch is
  resolved by the per-job transition lock: a job cancelled after the
  scheduler drained it but before a worker claimed it reports ``CANCELLED``
  and its work is skipped.
"""

from __future__ import annotations

import itertools
import threading
from collections import Counter
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Iterable, Mapping

from ..accelerator.config import AcceleratorConfig
from ..accelerator.energy import EnergyTable
from ..accelerator.simulator import WorkloadTrace
from ..core import telemetry
from ..core.columnar import ColumnarReportBatch, ensure_report
from ..core.execution import Executor, LocalCallSpec, ensure_picklable
from ..core.report_cache import CacheKey, DEFAULT_REPORT_CACHE, ReportCache
from .fleet import WorkerFleet
from .jobs import Job, JobKind, JobStatus
from .scheduler import (
    BatchStats,
    SimulationRequest,
    _config_partitions,
    coalesce_requests,
    run_batched,
)
from .specs import (
    CallableJobSpec,
    QualityJobSpec,
    SimulateJobSpec,
    SweepJobResult,
    SweepJobSpec,
)

#: Result bytes the job history may pin: beyond them the oldest terminal jobs
#: are forgotten, as beyond ``history_limit`` jobs.  A 17-point sweep of a
#: paper trace holds 119-156 KiB of columnar results.
MAX_RETAINED_RESULT_BYTES = 64 * 1024 * 1024


def _result_nbytes(value: Any) -> int:
    """Array bytes a finished job's result pins: its columnar batches (a
    sweep's cases and baseline); any other result counts 0."""
    if isinstance(value, SweepJobResult):
        items = [*value.case_results(), value.baseline_result()]
    else:
        items = [value]
    return sum(item.nbytes for item in items if isinstance(item, ColumnarReportBatch))


class _JobSink:
    """Completion adapter: one plain simulation job behind one request."""

    __slots__ = ("job",)

    def __init__(self, job: Job) -> None:
        self.job = job

    def claim(self) -> bool:
        return self.job.mark_running()

    def deliver(self, report: Any) -> None:
        # Batches stay columnar through the scheduler and cache; a plain
        # simulation job's caller asked for one report, so materialize here
        # (memoized on the batch — repeat deliveries of the same entry are
        # dict lookups).
        self.job.mark_done(ensure_report(report))

    def fail(self, error: BaseException) -> None:
        self.job.mark_failed(error)

    def trace_mark(self, phase: str, **fields: Any) -> None:
        self.job.trace.mark(phase, **fields)


class _SweepAggregate:
    """Collects a planned sweep's per-request reports into one result.

    The sweep job completes when every expanded request has delivered —
    whether its report came from this batch, the cache, or another client's
    in-flight batch it attached to as a follower.
    """

    def __init__(self, job: Job, spec: SweepJobSpec, num_requests: int) -> None:
        self.job = job
        self.spec = spec
        self._reports: list[Any] = [None] * num_requests
        self._remaining = num_requests
        self._lock = threading.Lock()

    def deliver(self, index: int, report: Any) -> None:
        with self._lock:
            if self._reports[index] is None:
                self._reports[index] = report
                self._remaining -= 1
            finished = self._remaining == 0
        if finished:
            num_cases = self.spec.num_cases
            self.job.mark_done(
                SweepJobResult(
                    name=self.spec.name,
                    params=self.spec.cases(),
                    reports=self._reports[:num_cases],
                    baseline=self._reports[num_cases] if self.spec.baseline is not None else None,
                )
            )

    def fail(self, error: BaseException) -> None:
        self.job.mark_failed(error)  # first failure wins; later marks no-op


class _SweepSink:
    """Completion adapter: one expanded sweep case feeding its aggregate."""

    __slots__ = ("aggregate", "index")

    def __init__(self, aggregate: _SweepAggregate, index: int) -> None:
        self.aggregate = aggregate
        self.index = index

    def claim(self) -> bool:
        # The sweep job is RUNNING as a whole; a case only becomes dead work
        # once the job reached a terminal state (e.g. another case failed it).
        return not self.aggregate.job.done

    def deliver(self, report: Any) -> None:
        self.aggregate.deliver(self.index, report)

    def fail(self, error: BaseException) -> None:
        self.aggregate.fail(error)

    def trace_mark(self, phase: str, **fields: Any) -> None:
        self.aggregate.job.trace.mark(phase, case=self.index, **fields)


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
        forgotten.  Job handles returned by ``submit_*`` keep working
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

    def submit_simulation(
        self,
        config: AcceleratorConfig,
        trace: WorkloadTrace,
        energy_table: EnergyTable | None = None,
        backend: str | None = None,
        label: str = "",
    ) -> Job:
        """Queue one trace simulation; requests sharing a config get batched."""
        request = SimulationRequest(
            config=config, trace=trace, energy_table=energy_table, backend=backend
        )
        job = self._new_job(JobKind.SIMULATION, label or f"simulate:{config.name}")
        return self._enqueue(job, request)

    def submit_sweep(self, spec: SweepJobSpec, label: str = "") -> Job:
        """Queue one server-planned sweep: the grid is expanded here, every
        case joins the coalescing/single-flight scheduler, and the job
        completes with a :class:`~repro.serve.specs.SweepJobResult`.

        Invalid grids (unknown fields, values the config rejects) raise
        :class:`ValueError` at submission, before anything is queued.
        """
        requests = spec.plan()
        job = self._new_job(JobKind.SWEEP, label or spec.default_label())
        return self._enqueue(job, (spec, requests))

    def submit_quality(self, spec: QualityJobSpec, label: str = "") -> Job:
        """Queue one declarative quality (FID) evaluation on the process pool.

        The spec is resolved server-side to
        :func:`repro.serve.workers.evaluate_quality`; nothing callable is
        taken from the client.
        """
        from .workers import evaluate_quality

        return self.submit_sampling(
            evaluate_quality, kwargs=spec.worker_kwargs(), label=label or spec.default_label()
        )

    def submit(self, spec: Any, label: str = "") -> Job:
        """Queue one job spec and return its job — the executor entry point,
        and the HTTP front end's.

        Takes the typed wire specs and :class:`LocalCallSpec`, which runs on
        the thread pool (a string ``fn`` names a wire function).  Invalid
        grids and unregistered function names raise :class:`ValueError`,
        anything else :class:`TypeError`, before anything is queued.
        """
        if isinstance(spec, SimulateJobSpec):
            return self.submit_simulation(
                spec.config,
                spec.trace,
                energy_table=spec.energy_table,
                backend=spec.backend,
                label=label or spec.default_label(),
            )
        if isinstance(spec, SweepJobSpec):
            return self.submit_sweep(spec, label)
        if isinstance(spec, QualityJobSpec):
            return self.submit_quality(spec, label)
        if isinstance(spec, (CallableJobSpec, LocalCallSpec)):
            fn = spec.resolve()  # raises ValueError for unregistered names
            sampling = isinstance(spec, CallableJobSpec) and spec.pool == "process"
            submit = self.submit_sampling if sampling else self.submit_callable
            return submit(
                fn, args=spec.args, kwargs=spec.kwargs, label=label or spec.default_label()
            )
        raise TypeError(
            f"not a job spec: {type(spec).__name__} (expected SimulateJobSpec, "
            "SweepJobSpec, QualityJobSpec, CallableJobSpec or LocalCallSpec)"
        )

    def submit_sampling(
        self,
        fn: Callable[..., Any],
        args: Iterable[Any] = (),
        kwargs: Mapping[str, Any] | None = None,
        label: str = "",
    ) -> Job:
        """Queue a sampling-bound job for the process pool.

        ``fn`` must be a module-level function and the arguments plain data
        (see :mod:`repro.serve.workers`); both are verified here so mistakes
        fail at submission, not deep inside the executor.
        """
        payload = (fn, tuple(args), dict(kwargs or {}))
        ensure_picklable(
            payload,
            "sampling jobs execute in worker processes, so the function and its "
            "arguments must be picklable: pass a module-level function (e.g. from "
            "repro.serve.workers) and plain-data arguments, not lambdas, bound "
            "methods or live model objects",
        )
        job = self._new_job(JobKind.SAMPLING, label or f"sampling:{getattr(fn, '__name__', fn)}")
        return self._enqueue(job, payload)

    def submit_callable(
        self,
        fn: Callable[..., Any],
        args: Iterable[Any] = (),
        kwargs: Mapping[str, Any] | None = None,
        label: str = "",
    ) -> Job:
        """Queue an arbitrary callable on the thread pool."""
        payload = (fn, tuple(args), dict(kwargs or {}))
        job = self._new_job(JobKind.CALLABLE, label or f"call:{getattr(fn, '__name__', fn)}")
        return self._enqueue(job, payload)

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
        simulations: list[tuple[Any, SimulationRequest]] = []
        for job, payload in drained:
            if job.kind is JobKind.SIMULATION:
                simulations.append((_JobSink(job), payload))
            elif job.kind is JobKind.SWEEP:
                simulations.extend(self._expand_sweep(job, payload))
            elif job.kind is JobKind.SAMPLING:
                self._dispatch_process_job(job, payload)
            else:
                self._dispatch_thread_job(job, payload)
        if not simulations:
            return

        # Single-flight: requests whose cache key already has a batch in
        # flight (from an earlier drain, e.g. another client submitting the
        # same sweep) attach as followers and are completed with that batch.
        # Everything else becomes a leader and registers its key.  A "sink"
        # is the completion target of one request — a whole simulation job,
        # or one expanded case of a sweep job.
        leaders: list[tuple[Any, SimulationRequest]] = []
        with self._inflight_lock:
            for sink, request in simulations:
                followers = self._inflight.get(request.key())
                if followers is not None:
                    followers.append(sink)
                    self.coalesced_attached += 1
                    self._coalesced_metric.inc()
                    sink.trace_mark("attached")
                else:
                    self._inflight[request.key()] = []
                    leaders.append((sink, request))
                    sink.trace_mark("coalesced")

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

    def _expand_sweep(self, job: Job, payload: Any) -> list[tuple[Any, SimulationRequest]]:
        """Turn one queued sweep job into per-case sinks for the scheduler.

        The job is claimed here (server-side planning *is* its execution
        starting), so cancellation remains possible only while it sits in
        the service queue — the same contract as every other kind.
        """
        spec, requests = payload
        if not job.mark_running():  # cancelled while queued
            return []
        aggregate = _SweepAggregate(job, spec, len(requests))
        return [(_SweepSink(aggregate, index), request) for index, request in enumerate(requests)]

    def _claim_group(
        self, sinks: list[Any], requests: list[SimulationRequest]
    ) -> tuple[list[Any | None], list[SimulationRequest]]:
        """Claim each leader sink; a sink whose job was cancelled between
        coalescing and this point is skipped.  Its key stays registered only
        if followers already attached (they still need the result) —
        otherwise it is unregistered so later identical requests simulate
        freshly."""
        live_sinks: list[Any | None] = []
        live_requests: list[SimulationRequest] = []
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
        self, sinks: list[Any], requests: list[SimulationRequest]
    ) -> None:
        """Route one coalesced group to the pull-worker fleet.

        Cache hits complete immediately on the server — fleet dispatch must
        not cost a round trip for work a warm restart already has.  Misses
        are split per configuration partition so a sweep's grid spreads
        across however many workers are polling, not onto one.
        """
        assert self.fleet is not None
        miss_sinks: dict[int, Any] = {}
        misses: list[SimulationRequest] = []
        for sink, request in zip(sinks, requests):
            cached = self.cache.lookup_key(request.key(), materialize=False)
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
        requests: list[SimulationRequest],
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

    def _run_simulation_group(self, sinks: list[Any], requests: list[SimulationRequest]) -> None:
        live_sinks, live_requests = self._claim_group(sinks, requests)
        if not live_requests:
            return
        for sink in live_sinks:
            if sink is not None:
                sink.trace_mark("kernel", batch=len(live_requests))
        try:
            with telemetry.span("scheduler.batch", requests=len(live_requests)):
                reports = run_batched(
                    live_requests, cache=self.cache, stats=self.batch_stats, materialize=False
                )
        except Exception as exc:  # noqa: BLE001 - a bad group fails its own jobs only
            self._finish_group(live_sinks, live_requests, error=exc)
            return
        self._finish_group(live_sinks, live_requests, reports=reports)

    def _finish_group(
        self,
        sinks: list[Any | None],
        requests: list[SimulationRequest],
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
            self._process_pool = ProcessPoolExecutor(max_workers=self._process_workers)
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
