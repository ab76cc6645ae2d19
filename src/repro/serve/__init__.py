"""Fleet evaluation service: turn the pipeline into something you submit jobs to.

The paper's headline results are sweeps over many (workload, policy,
architecture) points; at fleet scale those sweeps arrive as *evaluation
traffic*, not as one script.  This package provides the service layer:

``repro.serve.jobs``
    The job model — submit / status / result with thread-safe completion
    events.
``repro.serve.scheduler``
    Request coalescing: queued simulation requests sharing an energy table
    and backend are fused into one
    :meth:`~repro.accelerator.simulator.AcceleratorSimulator.run` call over
    their whole (config x trace) grid, behind the two-tier report cache.
``repro.serve.service``
    :class:`EvaluationService` — the job queue itself: a coalescing scheduler
    thread, a thread pool for simulation-bound work (NumPy releases the GIL)
    and a ``ProcessPoolExecutor`` for sampling-bound work (FID generation,
    which is GIL-limited).  Jobs enter through ``submit(spec)`` only.
``repro.serve.specs``
    The typed wire job specs — ``simulate_spec`` / ``quality_spec`` /
    ``sweep_spec`` — plain data resolved server-side; no job carries code.
    Sweeps are *planned on the server*: clients submit one grid, the
    scheduler expands and coalesces it into :class:`SimulateJobSpec`
    requests, the one simulation request type.
``repro.serve.workers``
    :func:`~repro.serve.workers.evaluate_quality`, the module-level function
    a quality spec runs on the process pool.
``repro.serve.fleet``
    :class:`WorkerFleet` — the lease-tracking dispatch queue behind
    ``repro serve --dispatch workers``: pull-based workers register, claim
    tasks under heartbeat-renewed leases, and a missed heartbeat requeues
    the task for another worker.
``repro.serve.worker``
    :class:`WorkerRuntime` (the ``repro worker`` pull loop) and
    :class:`WorkerPoolExecutor` (the fleet as a self-contained
    ``--executor worker-pool`` backend).
``repro.serve.http``
    :class:`EvaluationHTTPServer` — the stdlib REST front end: remote
    clients POST typed job specs as plain, versioned JSON (no pickles on
    the wire), long-poll for results (``GET /jobs/<id>?wait=``), and share
    the server's single-flight scheduler and artifact store.
``repro.serve.client``
    :class:`RemoteEvaluationClient` — client mirroring the service
    surface over a pool of kept-alive connections, with jittered
    retry/backoff and long-polling job handles: a result arrives in the
    response that sees its job finish, a sweep's as one columnar batch.
``repro.serve.top``
    The ``repro top`` dashboard: polls ``GET /metrics`` (Prometheus text)
    and ``GET /jobs`` and renders queue depth, coalescing ratio, cache hit
    rates and p50/p95/p99 job latency.
``repro.serve.cli``
    The ``repro`` console script: ``repro sweep``, ``repro evaluate``,
    ``repro serve``, ``repro worker``, ``repro top``, ``repro cache``,
    ``repro bench`` and ``repro check``.

The service and the client *are* executors of the unified execution API in
:mod:`repro.core.execution` (re-exported here): pass either one wherever an
:class:`Executor` is expected, next to :class:`InlineExecutor`.  Their jobs
(:class:`Job`, :class:`RemoteJob`) are :class:`JobHandle` futures.
"""

from ..core.execution import (
    Executor,
    InlineExecutor,
    JobFailedError,
    JobHandle,
    JobKind,
    JobStatus,
)
from .client import RemoteEvaluationClient, RemoteJob, RemoteServiceError
from .fleet import FleetTask, WorkerFleet, WorkerInfo
from .http import EvaluationHTTPServer, start_http_server
from .jobs import Job
from .worker import WorkerPoolExecutor, WorkerRuntime, run_worker
from .scheduler import BatchStats, coalesce_requests, run_batched
from .service import EvaluationService
from .specs import QualityJobSpec, SimulateJobSpec, SweepJobResult, SweepJobSpec

__all__ = [
    "BatchStats",
    "EvaluationHTTPServer",
    "EvaluationService",
    "Executor",
    "FleetTask",
    "InlineExecutor",
    "Job",
    "JobFailedError",
    "JobHandle",
    "JobKind",
    "JobStatus",
    "QualityJobSpec",
    "RemoteEvaluationClient",
    "RemoteJob",
    "RemoteServiceError",
    "SimulateJobSpec",
    "SweepJobResult",
    "SweepJobSpec",
    "WorkerFleet",
    "WorkerInfo",
    "WorkerPoolExecutor",
    "WorkerRuntime",
    "coalesce_requests",
    "run_batched",
    "run_worker",
    "start_http_server",
]
