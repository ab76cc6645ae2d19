"""The pull-based fleet worker: claim → simulate → complete, under a lease.

:class:`WorkerRuntime` is the process that ``repro worker`` runs.  It
registers with a ``repro serve --dispatch workers`` endpoint, then each of
its puller threads long-polls ``POST /workers/<id>/claim`` for typed
``simulate_spec`` payloads, runs them through the batched kernel
(:func:`~repro.serve.scheduler.run_batched`, with a worker-local in-memory
report cache), and posts codec-encoded reports back via
``POST /workers/<id>/complete``.  A separate heartbeat thread renews the
worker's leases at a third of the lease interval; if the process dies, the
heartbeats stop, the lease expires server-side, and the task is requeued for
another worker — that is the entire crash-recovery story, which is why there
is no worker-side persistence.

Failure semantics, from the worker's point of view:

* **Server restart / retirement** — any verb may 404 (:class:`KeyError`);
  the worker re-registers under the same name and keeps pulling.  Tasks it
  held are gone (the new server, or the new incarnation's registration,
  requeued them) — completing them would be rejected anyway, so in-progress
  work is simply dropped on re-registration.
* **Transport errors** — back off and retry; the lease protects the work.
* **Simulation errors** — posted as ``error`` completions; deterministic
  failures do not benefit from a requeue, so the server fails the jobs.

:class:`WorkerPoolExecutor` packages the whole arrangement as one executor
(``--executor worker-pool``): a worker-dispatch service that also owns a
loopback HTTP server and N in-process worker runtimes speaking the real
protocol over real sockets — the same code path as a distributed fleet,
minus the network between machines.

``--chaos-hold-seconds`` is deliberate fault injection for the chaos CI
stage: the worker claims a task and then *holds* it (heartbeating all the
while), giving the harness a deterministic window to SIGKILL the process
mid-lease and prove the fleet recovers.
"""

from __future__ import annotations

import socket
import threading
from typing import Any

from ..core import codec
from ..core.report_cache import ReportCache
from .client import RemoteEvaluationClient, RemoteServiceError
from .http import start_http_server
from .scheduler import run_batched
from .service import EvaluationService
from .specs import SimulateJobSpec


def default_worker_name() -> str:
    import os

    return f"{socket.gethostname()}-{os.getpid()}"


class WorkerRuntime:
    """One fleet worker process (or an in-process stand-in for tests).

    Parameters
    ----------
    endpoint:
        The ``repro serve --dispatch workers`` base URL.
    name:
        Fleet-visible identity; re-registering this name after a restart
        retires the previous incarnation.  Defaults to ``hostname-pid``.
    concurrency:
        Puller threads — concurrent leases this worker will hold.
    lease_seconds:
        Requested lease length (server default when None).  The server's
        answer is authoritative.
    poll_seconds:
        Long-poll window per claim request.
    chaos_hold_seconds:
        Fault injection: hold each claimed task this long (heartbeating)
        before simulating.  A worker killed during the hold dies mid-lease.
    """

    def __init__(
        self,
        endpoint: str,
        name: str | None = None,
        concurrency: int = 1,
        lease_seconds: float | None = None,
        poll_seconds: float = 2.0,
        chaos_hold_seconds: float = 0.0,
        cache: ReportCache | None = None,
        client: RemoteEvaluationClient | None = None,
        verbose: bool = False,
    ) -> None:
        if concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        self.name = name or default_worker_name()
        self.concurrency = concurrency
        self.requested_lease_seconds = lease_seconds
        self.poll_seconds = max(float(poll_seconds), 0.05)
        self.chaos_hold_seconds = max(float(chaos_hold_seconds), 0.0)
        self.verbose = verbose
        # Worker-local memory cache only: the *server* owns the shared
        # artifact store; a worker cache just deduplicates within-process.
        self._cache = cache if cache is not None else ReportCache()
        self._client = client or RemoteEvaluationClient(endpoint)
        self._stop = threading.Event()
        self._abandon = False
        self._identity_lock = threading.Lock()
        self._reregister_lock = threading.Lock()
        self.worker_id: str | None = None
        self.lease_seconds = 30.0
        self.heartbeat_seconds = 10.0
        self.tasks_completed = 0
        self.tasks_failed = 0
        self.completions_rejected = 0
        self.registrations = 0
        self._threads: list[threading.Thread] = []

    # -- identity ---------------------------------------------------------------

    def register(self) -> str:
        """(Re-)register with the fleet; returns the new worker id."""
        with self._identity_lock:
            contract = self._client.register_worker(
                self.name,
                concurrency=self.concurrency,
                lease_seconds=self.requested_lease_seconds,
            )
            self.worker_id = contract["worker_id"]
            self.lease_seconds = float(contract["lease_seconds"])
            self.heartbeat_seconds = float(
                contract.get("heartbeat_seconds") or self.lease_seconds / 3.0
            )
            self.registrations += 1
            self._log(f"registered as {self.worker_id} (lease {self.lease_seconds:g}s)")
            return self.worker_id

    def _reregister(self, stale_id: str) -> None:
        """Recover from a 404: the server restarted or retired ``stale_id``."""
        with self._reregister_lock:
            if self.worker_id != stale_id or self._stop.is_set():
                return  # another thread already re-registered, or shutting down
            try:
                self.register()
            except (RemoteServiceError, KeyError, OSError) as exc:
                self._log(f"re-registration failed, will retry: {exc}")
                # Backing off *inside* the lock is the point: concurrent 404s
                # coalesce behind one retry instead of hammering the server,
                # and stop() interrupts the wait via the event.
                # repro: allow[REP008] intentional backoff; serializes re-registration attempts
                self._stop.wait(min(self.heartbeat_seconds, 1.0))

    # -- lifecycle --------------------------------------------------------------

    def start(self) -> None:
        """Register and launch the heartbeat + puller threads."""
        self.register()
        self._threads = [
            threading.Thread(
                target=self._heartbeat_loop, name=f"repro-worker-heartbeat-{self.name}",
                daemon=True,
            )
        ]
        for index in range(self.concurrency):
            self._threads.append(
                threading.Thread(
                    target=self._pull_loop,
                    name=f"repro-worker-pull-{self.name}-{index}",
                    daemon=True,
                )
            )
        for thread in self._threads:
            thread.start()

    def stop(self, abandon: bool = False, timeout: float | None = None) -> None:
        """Stop pulling; ``abandon=True`` also drops the task currently being
        processed without completing it (simulating a crash — the lease will
        expire server-side)."""
        self._abandon = abandon
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout)

    def run(self) -> int:
        """Blocking entry point for ``repro worker``: run until stopped."""
        self.start()
        while not self._stop.wait(0.2):
            pass
        for thread in self._threads:
            thread.join(self.poll_seconds + self._client.timeout + 1.0)
        return 0

    # -- loops ------------------------------------------------------------------

    def _heartbeat_loop(self) -> None:
        while not self._stop.wait(min(self.heartbeat_seconds, self.lease_seconds / 3.0)):
            worker_id = self.worker_id
            if worker_id is None:
                continue
            try:
                self._client.worker_heartbeat(worker_id)
            except KeyError:
                self._reregister(worker_id)
            except (RemoteServiceError, OSError) as exc:
                self._log(f"heartbeat failed (will retry): {exc}")

    def _pull_loop(self) -> None:
        while not self._stop.is_set():
            worker_id = self.worker_id
            if worker_id is None:
                self._stop.wait(0.1)
                continue
            try:
                tasks = self._client.claim_tasks(
                    worker_id, max_tasks=1, wait_seconds=self.poll_seconds
                )
            except KeyError:
                self._reregister(worker_id)
                continue
            except (RemoteServiceError, OSError) as exc:
                self._log(f"claim failed (will retry): {exc}")
                self._stop.wait(min(self.poll_seconds, 1.0))
                continue
            for task in tasks:
                self._process_task(worker_id, task)

    def _process_task(self, worker_id: str, task: dict[str, Any]) -> None:
        task_id = str(task.get("id"))
        if self.chaos_hold_seconds > 0.0:
            # Heartbeats keep the lease alive during the hold; only killing
            # the process (the chaos stage's SIGKILL) lets it expire.
            self._stop.wait(self.chaos_hold_seconds)
        if self._stop.is_set() and self._abandon:
            return  # simulated crash: never complete, let the lease expire
        try:
            requests = [codec.decode(payload) for payload in task["specs"]]
            for request in requests:
                if not isinstance(request, SimulateJobSpec):
                    raise TypeError(
                        f"fleet tasks carry simulate specs, got {type(request).__name__}"
                    )
            # A columnar slice crosses the wire as one columnar_report_batch
            # envelope instead of a report object tree.
            results = run_batched(requests, cache=self._cache)
            encoded = [codec.encode(result) for result in results]
        except Exception as exc:  # noqa: BLE001 - reported to the server, not fatal here
            self.tasks_failed += 1
            self._complete(worker_id, task_id, error=f"{type(exc).__name__}: {exc}")
            return
        if self._complete(worker_id, task_id, reports=encoded):
            self.tasks_completed += 1
            self._log(f"completed {task_id} ({len(requests)} trace(s))")

    def _complete(
        self,
        worker_id: str,
        task_id: str,
        reports: list[dict[str, Any]] | None = None,
        error: str | None = None,
    ) -> bool:
        try:
            accepted = self._client.complete_task(
                worker_id, task_id, reports=reports, error=error
            )
        except KeyError:
            self._reregister(worker_id)
            return False
        except (RemoteServiceError, OSError) as exc:
            # The lease covers us: if this completion never lands, the task
            # is requeued and re-simulated elsewhere.
            self._log(f"completion of {task_id} failed: {exc}")
            return False
        if not accepted:
            self.completions_rejected += 1
            self._log(f"completion of {task_id} rejected (lease lost)")
        return accepted

    def _log(self, message: str) -> None:
        if self.verbose:
            print(f"repro worker [{self.name}]: {message}", flush=True)

    def summary(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "worker_id": self.worker_id,
            "tasks_completed": self.tasks_completed,
            "tasks_failed": self.tasks_failed,
            "completions_rejected": self.completions_rejected,
            "registrations": self.registrations,
        }


def run_worker(
    endpoint: str,
    name: str | None = None,
    concurrency: int = 1,
    lease_seconds: float | None = None,
    poll_seconds: float = 2.0,
    chaos_hold_seconds: float = 0.0,
    verbose: bool = True,
) -> int:
    """The ``repro worker`` command body: run one worker until SIGTERM/SIGINT."""
    import signal

    runtime = WorkerRuntime(
        endpoint,
        name=name,
        concurrency=concurrency,
        lease_seconds=lease_seconds,
        poll_seconds=poll_seconds,
        chaos_hold_seconds=chaos_hold_seconds,
        verbose=verbose,
    )

    def handle_signal(signum: int, frame: Any) -> None:
        runtime._log(f"signal {signum}: draining and stopping")
        runtime._stop.set()

    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, handle_signal)
    try:
        return runtime.run()
    except KeyboardInterrupt:
        runtime.stop()
        return 0


class WorkerPoolExecutor(EvaluationService):
    """The fleet as a self-contained executor (``--executor worker-pool``).

    A worker-dispatch :class:`~repro.serve.service.EvaluationService` that
    also owns a loopback HTTP server and ``num_workers`` in-process
    :class:`WorkerRuntime` threads, which speak the real register / claim /
    heartbeat / complete protocol over real sockets.  Results flow through
    the shared ``cache`` exactly as with a distributed fleet, so reports are
    bit-identical to every other executor's.  :meth:`close` stops the
    workers and the server, then the service.
    """

    name = "worker-pool"

    def __init__(
        self,
        num_workers: int = 2,
        cache: ReportCache | None = None,
        lease_seconds: float = 30.0,
        concurrency: int = 1,
        poll_seconds: float = 1.0,
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        super().__init__(cache=cache, worker_fleet=True, lease_seconds=lease_seconds)
        self._server = start_http_server(self, host="127.0.0.1", port=0)
        self.workers = [
            WorkerRuntime(
                self._server.endpoint,
                name=f"pool-worker-{index + 1}",
                concurrency=concurrency,
                poll_seconds=poll_seconds,
            )
            for index in range(num_workers)
        ]
        for worker in self.workers:
            worker.start()

    def stats(self) -> dict[str, Any]:
        return {**super().stats(), "pool_workers": [worker.summary() for worker in self.workers]}

    def close(self, cancel_queued: bool = False) -> None:
        for worker in self.workers:
            worker.stop(timeout=self.fleet.lease_seconds if self.fleet else 5.0)
        self._server.close()
        super().close(cancel_queued)
