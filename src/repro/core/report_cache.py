"""Two-tier simulation-report cache keyed by (config, energy table, trace) fingerprints.

Parameter sweeps — Tables I/II, Fig. 3, Fig. 11, threshold/update-period
studies — repeatedly simulate the *same* FP16 or dense-baseline trace while
varying an orthogonal knob.  This module fingerprints every ingredient that
determines a :class:`~repro.accelerator.simulator.SimulationReport` (the
frozen hardware config, the energy table constants, and the full workload
trace including per-channel sparsity arrays) and memoizes reports in two
tiers:

1. an in-process LRU (``OrderedDict``), shared by all sweep threads, and
2. optionally a persistent :class:`~repro.core.artifacts.ArtifactStore`, so a
   second process re-running the same sweep — another worker, a CI job, a
   fresh CLI invocation — loads reports from disk instead of re-simulating.

Every entry is a single-trace
:class:`~repro.core.columnar.ColumnarReportBatch` (one cache key is one
trace), in memory and on disk alike; a reader that wants the report object
calls :func:`~repro.core.columnar.ensure_report` on it.  Entries are shared
objects: treat them as read-only.  The cache never simulates:
:func:`~repro.serve.scheduler.run_batched` is the one path from a cache miss
to the simulator.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..accelerator.config import AcceleratorConfig
from ..accelerator.energy import DEFAULT_ENERGY_TABLE, EnergyTable
from ..accelerator.simulator import WorkloadTrace
from .artifacts import ArtifactStore, default_artifact_store
from .columnar import ColumnarReportBatch
from .telemetry import get_registry

# Process-wide tier counters (flat, not labeled, so the CI reconcile step and
# `repro top` can read them without label arithmetic).  Per-cache counts stay
# on each instance's ``CacheStats``; these aggregate across all caches.
_MEMORY_HITS = get_registry().counter(
    "repro_cache_memory_hits_total", "Report-cache lookups served from process memory."
)
_DISK_HITS = get_registry().counter(
    "repro_cache_disk_hits_total",
    "Report-cache lookups served from the artifact tier (then promoted to memory).",
)
_MISSES = get_registry().counter(
    "repro_cache_misses_total", "Report-cache lookups that required a simulation."
)

#: Artifact-store namespace used for persisted simulation reports.
REPORT_ARTIFACT_KIND = "report"

#: Cache keys are 4-tuples of fingerprints: (config, energy table, trace, backend).
CacheKey = tuple[str, str, str, str]


def fingerprint_config(config: AcceleratorConfig) -> str:
    """Stable digest of every field of an accelerator configuration."""
    payload = repr(
        (
            config.name,
            config.num_dpe,
            config.num_spe,
            config.pe,
            config.clock_ghz,
            config.technology_nm,
            config.global_buffer_kib,
            config.dram_bandwidth_gbps,
            config.noc_bandwidth_bytes_per_cycle,
            config.sparsity_threshold,
            config.sparsity_update_period,
        )
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def fingerprint_energy_table(table: EnergyTable) -> str:
    """Stable digest of the per-operation energy constants."""
    payload = repr(
        (
            sorted(table.mac_pj.items()),
            table.local_buffer_pj_per_byte,
            table.global_buffer_pj_per_byte,
            table.dram_pj_per_byte,
            table.noc_pj_per_byte_hop,
            table.detector_pj_per_channel,
            table.idle_pj_per_cycle_per_pe,
        )
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def fingerprint_trace(trace: WorkloadTrace) -> str:
    """Stable digest of a workload trace, including per-channel sparsity data."""
    digest = hashlib.sha256()
    for workloads in trace:
        digest.update(b"step")
        for w in workloads:
            digest.update(
                repr(
                    (
                        w.name,
                        w.in_channels,
                        w.out_channels,
                        w.kernel_size,
                        w.out_height,
                        w.out_width,
                        w.weight_bits,
                        w.act_bits,
                        w.block_type,
                    )
                ).encode()
            )
            digest.update(np.ascontiguousarray(w.channel_sparsity, dtype=np.float64).tobytes())
    return digest.hexdigest()


#: Identity-keyed memo of trace fingerprints: ``id(trace) -> (trace, digest)``.
#: Server-planned sweeps build one :class:`~repro.serve.specs.SimulateJobSpec`
#: per grid point, all sharing the *same* trace object — without the memo
#: each request re-hashes the identical trace (sha256 over every sparsity
#: array).  Traces are plain lists (not weakref-able), so the memo holds
#: strong references in a small LRU; the stored trace doubles as the id-reuse
#: guard (a hit only counts when the stored object *is* the argument).
_TRACE_FP_MEMO: OrderedDict[int, tuple[WorkloadTrace, str]] = OrderedDict()
_TRACE_FP_MEMO_MAX = 64
_TRACE_FP_MEMO_LOCK = threading.Lock()


def memoized_fingerprint_trace(trace: WorkloadTrace) -> str:
    """``fingerprint_trace`` with an identity-keyed memo for repeated objects.

    Correct only under the simulator's existing contract that traces are not
    mutated after submission (the report cache already relies on this).
    """
    memo_key = id(trace)
    with _TRACE_FP_MEMO_LOCK:
        entry = _TRACE_FP_MEMO.get(memo_key)
        if entry is not None and entry[0] is trace:
            _TRACE_FP_MEMO.move_to_end(memo_key)
            return entry[1]
    digest = fingerprint_trace(trace)
    with _TRACE_FP_MEMO_LOCK:
        _TRACE_FP_MEMO[memo_key] = (trace, digest)
        _TRACE_FP_MEMO.move_to_end(memo_key)
        while len(_TRACE_FP_MEMO) > _TRACE_FP_MEMO_MAX:
            _TRACE_FP_MEMO.popitem(last=False)
    return digest


def is_cache_entry(obj: object) -> bool:
    """Whether ``obj`` can be a report-cache entry: a single-trace
    :class:`~repro.core.columnar.ColumnarReportBatch`, the form every
    simulation path produces.  A persisted artifact that is anything else
    reads as a miss."""
    return isinstance(obj, ColumnarReportBatch) and obj.num_traces == 1


def artifact_key_for(key: CacheKey) -> str:
    """Content-address of one cache key in the persistent artifact store."""
    return ArtifactStore.key_for(*key)


@dataclass
class CacheStats:
    """Hit/miss counters of one report cache.

    ``hits`` are served from process memory, ``disk_hits`` from the
    persistent artifact tier (then promoted to memory); ``misses`` required a
    simulation.
    """

    hits: int = 0
    disk_hits: int = 0
    misses: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.disk_hits + self.misses

    @property
    def hit_rate(self) -> float:
        return (self.hits + self.disk_hits) / self.requests if self.requests else 0.0


class ReportCache:
    """Two-tier LRU cache of single-trace report batches keyed by input fingerprints.

    Parameters
    ----------
    max_entries:
        Capacity of the in-memory tier.
    store:
        The persistent tier: an :class:`ArtifactStore`, None (memory only,
        the default for explicitly constructed caches), or the string
        ``"auto"`` to resolve the store named by ``REPRO_ARTIFACT_DIR`` on
        each access (used by the process-wide default cache, so setting the
        environment variable enables persistence without code changes).
    """

    def __init__(self, max_entries: int = 128, store: "ArtifactStore | None | str" = None):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        if isinstance(store, str) and store != "auto":
            raise ValueError(f"store must be an ArtifactStore, None or 'auto', got {store!r}")
        self.max_entries = max_entries
        self.stats = CacheStats()
        self._store_spec = store
        self._entries: "OrderedDict[CacheKey, ColumnarReportBatch]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def store(self) -> ArtifactStore | None:
        """The active persistent tier, if any."""
        if self._store_spec == "auto":
            return default_artifact_store()
        return self._store_spec

    def clear(self) -> None:
        """Drop the in-memory tier and reset counters (the disk tier survives;
        wipe it explicitly via ``cache.store.wipe()`` / ``repro cache wipe``)."""
        with self._lock:
            self._entries.clear()
            self.stats = CacheStats()

    @staticmethod
    def key(
        config: AcceleratorConfig,
        trace: WorkloadTrace,
        energy_table: EnergyTable | None = None,
        backend: str | None = None,
    ) -> CacheKey:
        from ..accelerator.backends import resolve_backend_name

        return (
            fingerprint_config(config),
            fingerprint_energy_table(energy_table or DEFAULT_ENERGY_TABLE),
            memoized_fingerprint_trace(trace),
            resolve_backend_name(backend),
        )

    # -- tier plumbing ---------------------------------------------------------

    def lookup_key(self, key: CacheKey) -> ColumnarReportBatch | None:
        """Two-tier lookup by precomputed key; None (and a counted miss) if absent.

        Returns the single-trace batch stored under ``key``.  A disk hit is
        promoted into the in-memory tier so subsequent lookups in this
        process stay off the filesystem; an artifact that is not a
        single-trace batch is a miss, which the next :meth:`insert_key`
        overwrites.
        """
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                _MEMORY_HITS.inc()
                return cached
        store = self.store
        if store is not None:
            batch = store.get(REPORT_ARTIFACT_KIND, artifact_key_for(key))
            if is_cache_entry(batch):
                with self._lock:
                    self.stats.disk_hits += 1
                    _DISK_HITS.inc()
                    return self._insert_memory(key, batch)
        with self._lock:
            self.stats.misses += 1
            _MISSES.inc()
        return None

    def insert_key(self, key: CacheKey, batch: ColumnarReportBatch) -> ColumnarReportBatch:
        """Insert a single-trace batch into both tiers; first writer wins in memory.

        The artifact is written even when a file is already there: a key
        reaches :meth:`insert_key` only after a lookup missed, so that file
        is one the lookup could not use.
        """
        if not is_cache_entry(batch):
            raise TypeError(
                "cache entries must be single-trace ColumnarReportBatch, "
                f"got {type(batch).__name__}"
            )
        store = self.store
        if store is not None:
            store.put(REPORT_ARTIFACT_KIND, artifact_key_for(key), batch)
        with self._lock:
            return self._insert_memory(key, batch)

    def _insert_memory(self, key: CacheKey, batch: ColumnarReportBatch) -> ColumnarReportBatch:
        """Insert under the held lock, evicting LRU entries beyond capacity."""
        self._entries.setdefault(key, batch)
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
        return self._entries[key]

    def summary(self) -> dict:
        """JSON-friendly two-tier snapshot (``service_stats()["cache"]``)."""
        with self._lock:
            stats = self.stats
            memory = {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "hits": stats.hits,
                "disk_hits": stats.disk_hits,
                "misses": stats.misses,
                "requests": stats.requests,
                "hit_rate": stats.hit_rate,
            }
        store = self.store
        if store is None:
            return {"memory": memory, "artifacts": None}
        # Counter snapshot only — store.summary() walks the whole directory
        # tree, too heavy for a stats endpoint polled by `repro top`.
        artifact_stats = store.stats
        return {
            "memory": memory,
            "artifacts": {
                "root": str(store.root),
                "hits": artifact_stats.hits,
                "misses": artifact_stats.misses,
                "writes": artifact_stats.writes,
                "corrupt_discarded": artifact_stats.corrupt_discarded,
                "evicted": artifact_stats.evicted,
                "hit_rate": artifact_stats.hit_rate,
            },
        }


#: Process-wide cache used by the pipeline and sweep helpers.  Its persistent
#: tier follows the ``REPRO_ARTIFACT_DIR`` environment variable.
DEFAULT_REPORT_CACHE = ReportCache(store="auto")

