"""Coalescing scheduler: fuse queued simulation requests into batched passes.

A fleet sweep plans into many
:class:`~repro.serve.specs.SimulateJobSpec`\\ s — typically a grid of
accelerator configurations evaluated on a shared trace set, plus repeated
FP16/dense baselines.  :func:`run_batched` is the functional core the
evaluation service, the fleet workers and the pipeline all use:

1. deduplicate requests by cache key and look each unique key up in the
   two-tier :class:`~repro.core.report_cache.ReportCache`;
2. group the misses into *compatibility groups* — requests sharing an energy
   table and backend, regardless of configuration — and simulate each group
   with one :meth:`~repro.accelerator.simulator.AcceleratorSimulator.run`
   call covering its whole (config x trace) grid;
3. slice the group's columnar batch into per-key single-trace batches,
   insert them into both cache tiers and return everything in request
   order.

Pass a :class:`BatchStats` to observe how the scheduler carved a workload
into kernel calls (the service exposes this as ``service_stats()`` ->
``"scheduler"``).
"""

from __future__ import annotations

from ..accelerator.simulator import AcceleratorSimulator
from ..core.columnar import ColumnarReportBatch
from ..core.report_cache import DEFAULT_REPORT_CACHE, CacheKey, ReportCache
from ..core.telemetry import MetricsRegistry, get_registry
from .specs import SimulateJobSpec


class BatchStats:
    """How the scheduler carved a request stream into simulation kernel calls.

    A *derived view* over the telemetry registry, not a parallel set of
    counters: :meth:`record_group` increments the process-wide
    ``repro_scheduler_*`` metrics (the same ones ``GET /metrics`` exposes),
    and every read subtracts the baseline captured at construction — so each
    instance still reports only the traffic it witnessed, while the registry
    stays the single source of truth.  Thread-safe: metric updates take the
    registry lock, and :meth:`as_dict` snapshots all counters under that one
    lock, so concurrent worker threads can never produce a torn snapshot.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self._registry = registry if registry is not None else get_registry()
        self._kernel_calls = self._registry.counter(
            "repro_scheduler_kernel_calls_total",
            "Batched simulator invocations, one per compatibility group with a cache miss.",
        )
        self._configs = self._registry.counter(
            "repro_scheduler_configs_simulated_total",
            "Distinct (config, group) pairs simulated, summed over kernel calls.",
        )
        self._traces = self._registry.counter(
            "repro_scheduler_traces_simulated_total",
            "Traces simulated (cache misses actually executed).",
        )
        with self._registry.locked():
            self._base = self._raw()

    def _raw(self) -> dict[str, float]:
        """Current registry totals (call under the registry lock for consistency)."""
        return {
            "kernel_calls": self._kernel_calls.value(),
            "configs_simulated": self._configs.value(),
            "traces_simulated": self._traces.value(),
        }

    def record_group(self, num_configs: int, num_traces: int) -> None:
        with self._registry.locked():
            self._kernel_calls.inc()
            self._configs.inc(num_configs)
            self._traces.inc(num_traces)

    # -- derived, per-instance counters -----------------------------------------

    @property
    def kernel_calls(self) -> int:
        """Batched simulator invocations: one per group with >= 1 cache miss."""
        return int(self._kernel_calls.value() - self._base["kernel_calls"])

    @property
    def configs_simulated(self) -> int:
        return int(self._configs.value() - self._base["configs_simulated"])

    @property
    def traces_simulated(self) -> int:
        return int(self._traces.value() - self._base["traces_simulated"])

    def as_dict(self) -> dict[str, int]:
        with self._registry.locked():  # one lock: a consistent snapshot
            raw = self._raw()
        return {name: int(value - self._base[name]) for name, value in raw.items()}


def coalesce_requests(
    requests: list[SimulateJobSpec],
) -> list[list[SimulateJobSpec]]:
    """Group requests that can share one batched simulation pass.

    Requests coalesce into a *compatibility group* when their energy-table
    and backend fingerprints match — configurations may differ, because the
    cross-config kernel stacks per-config scalars into arrays.  (Configs with
    different energy tables or backend overrides still land in separate
    groups, today's behavior.)  Within a group, duplicate traces are kept
    (the cache layer deduplicates them before simulation).  Groups come back
    in first-seen order, so dispatch stays deterministic.
    """
    groups: dict[tuple[str, str], list[SimulateJobSpec]] = {}
    for request in requests:
        _, energy_fp, _, backend_name = request.key()
        groups.setdefault((energy_fp, backend_name), []).append(request)
    return list(groups.values())


def _config_partitions(
    group: list[SimulateJobSpec],
) -> list[list[SimulateJobSpec]]:
    """Split a compatibility group by config fingerprint, first-seen order."""
    partitions: dict[str, list[SimulateJobSpec]] = {}
    for request in group:
        partitions.setdefault(request.key()[0], []).append(request)
    return list(partitions.values())


def run_batched(
    requests: list[SimulateJobSpec],
    cache: ReportCache | None = None,
    stats: BatchStats | None = None,
) -> list[ColumnarReportBatch]:
    """Serve simulation requests through the cache, batching the misses.

    Returns one single-trace :class:`~repro.core.columnar.ColumnarReportBatch`
    per request, in request order: the cache's own entry, shared rather than
    copied (:func:`~repro.core.columnar.ensure_report` turns one into its
    report).  Every unique key costs at most one cache lookup and (on a
    miss) exactly one simulated trace; misses sharing an energy table and
    backend run as a single :meth:`AcceleratorSimulator.run` call over
    their (config x trace) grid, whose batch is sliced (pure array copies,
    no objects) into the per-key entries.
    """
    # Explicit None check: an empty ReportCache is falsy (it has __len__).
    cache = DEFAULT_REPORT_CACHE if cache is None else cache
    results: dict[CacheKey, ColumnarReportBatch] = {}

    pending: list[SimulateJobSpec] = []
    seen_pending: set[CacheKey] = set()
    for request in requests:
        key = request.key()
        if key in results or key in seen_pending:
            continue
        cached = cache.lookup_key(key)
        if cached is not None:
            results[key] = cached
        else:
            seen_pending.add(key)
            pending.append(request)

    for group in coalesce_requests(pending):
        partitions = _config_partitions(group)
        first = group[0]
        entries = [
            (partition[0].config, [request.trace for request in partition])
            for partition in partitions
        ]
        if stats is not None:
            stats.record_group(num_configs=len(partitions), num_traces=len(group))
        simulator = AcceleratorSimulator(first.config, first.energy_table, backend=first.backend)
        batch = simulator.run(entries)
        # Flat trace order is entry order; _segment_sums keeps every slice
        # bit-identical to a solo run.
        ordered = [request for partition in partitions for request in partition]
        for flat, request in enumerate(ordered):
            results[request.key()] = cache.insert_key(request.key(), batch.slice_trace(flat))

    return [results[request.key()] for request in requests]
