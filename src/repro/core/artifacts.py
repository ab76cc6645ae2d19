"""Disk-backed, content-addressed artifact store for evaluation results.

The in-memory :class:`~repro.core.report_cache.ReportCache` dies with the
process, so every new worker, CI job or CLI invocation re-simulates sweeps it
has already paid for.  This module adds the persistent tier: artifacts
(simulation reports, FID reference statistics, sparsity traces) are written
under a root directory, addressed by the SHA-256 of their input fingerprints,
and shared by every process pointing at the same directory.

Layout::

    <root>/<kind>/<key[:2]>/<key>.art

where ``kind`` namespaces artifact types (``"report"``, ``"fid_stats"``,
``"trace"``) and ``key`` is a hex digest produced by :meth:`ArtifactStore.key_for`
from the same fingerprints the report cache uses.

Robustness contract:

* **Atomic writes** — payloads land in a temporary file in the destination
  directory and are published with :func:`os.replace`, so concurrent writers
  and readers (threads *or* processes) never observe a half-written artifact;
  the last writer wins with identical content.
* **Corruption-tolerant reads** — every file carries a magic header and a
  SHA-256 checksum of its payload.  A truncated, garbled or foreign file
  fails verification, is quarantined (deleted) and reported as a miss, so the
  caller recomputes instead of crashing.

* **Bounded disk usage** — a store may carry an eviction policy: a
  ``max_bytes`` size cap (LRU by last use) and/or a ``ttl_seconds`` age
  limit.  Last-use timestamps live in the store's *own metadata* (a tiny
  ``<key>.art.used`` stamp next to each artifact, refreshed on every hit),
  not in filesystem access times — ``relatime``/``noatime`` mounts freeze
  atime, which silently degraded LRU into FIFO.  Both policies run
  automatically after every write and on demand via
  :meth:`ArtifactStore.evict` (``repro cache evict`` from the command line),
  so a long-running evaluation server does not grow its artifact directory
  without bound.  Evicting an entry is always safe: the caches treat the
  missing artifact as a miss and recompute.

**Payload format** (version 2): after the magic and the checksum, a file
holds one frame (:func:`repro.core.codec.pack_frame`): a schema-tagged JSON
header, then the NumPy arrays and bytes it references as raw sidecar
buffers, so no base64 bloat and no pickles on disk.  The HTTP server sends
a finished job's result in the same frame layout.  Only types with a
registered wire schema (plus plain JSON values, bytes and arrays) can be
stored.  Any other file format — the
pickled version 1 included — has an unrecognised magic, so it is
quarantined and recomputed like any foreign file.  A version-2 file whose
schema *version* this process does not know is a miss but not corruption:
newer writers never crash older readers.

Set the ``REPRO_ARTIFACT_DIR`` environment variable to give the process-wide
report cache (and :class:`~repro.core.pipeline.SQDMPipeline`) a default
store; see :func:`default_artifact_store`.  ``REPRO_ARTIFACT_MAX_BYTES`` and
``REPRO_ARTIFACT_TTL`` (seconds) provide default eviction caps the same way.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

from . import codec
from .telemetry import get_registry

# Process-wide disk-tier telemetry, aggregated across every store instance
# (per-store counts stay on each instance's ``ArtifactStoreStats``).
_READ_SECONDS = get_registry().histogram(
    "repro_artifact_read_seconds", "Artifact read latency (file read + decode + verify)."
)
_WRITE_SECONDS = get_registry().histogram(
    "repro_artifact_write_seconds", "Artifact write latency (encode + atomic publish)."
)
_HITS = get_registry().counter(
    "repro_artifact_hits_total", "Artifact reads that verified and decoded."
)
_MISSES = get_registry().counter(
    "repro_artifact_misses_total",
    "Artifact reads served as misses (absent, corrupt, unknown schema).",
)
_WRITES = get_registry().counter("repro_artifact_writes_total", "Artifacts persisted.")

#: File-format magic.  The trailing version is bumped when the layout
#: changes; readers reject versions they do not understand instead of
#: misparsing them.
_MAGIC = b"RPRO-ART2\n"
_DIGEST_BYTES = 32
_SUFFIX = ".art"
_STAMP_SUFFIX = ".art.used"

#: Environment variable naming the default artifact directory.
ARTIFACT_DIR_ENV_VAR = "REPRO_ARTIFACT_DIR"

#: Environment variables providing default eviction caps for new stores.
MAX_BYTES_ENV_VAR = "REPRO_ARTIFACT_MAX_BYTES"
TTL_ENV_VAR = "REPRO_ARTIFACT_TTL"


def _env_number(name: str, convert: type) -> float | int | None:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return None
    try:
        return convert(raw)
    except ValueError:
        raise ValueError(
            f"environment variable {name} must be a {convert.__name__}, got {raw!r}"
        ) from None


@dataclass
class ArtifactStoreStats:
    """Per-store counters, for hit-rate reporting and tests."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    corrupt_discarded: int = 0
    evicted: int = 0
    evicted_bytes: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0


@dataclass
class EvictionResult:
    """Outcome of one :meth:`ArtifactStore.evict` pass."""

    removed: int = 0
    reclaimed_bytes: int = 0
    remaining_artifacts: int = 0
    remaining_bytes: int = 0

    def summary(self) -> dict[str, Any]:
        return {
            "removed": self.removed,
            "reclaimed_bytes": self.reclaimed_bytes,
            "remaining_artifacts": self.remaining_artifacts,
            "remaining_bytes": self.remaining_bytes,
        }


class ArtifactStore:
    """Content-addressed persistent artifact storage under one root directory.

    Parameters
    ----------
    max_bytes:
        Size cap for the whole store.  When set, every write triggers an
        eviction pass that removes least-recently-used artifacts until the
        store fits (defaults to ``REPRO_ARTIFACT_MAX_BYTES`` when unset).
    ttl_seconds:
        Age limit: artifacts not read or written for this long are evicted on
        the next pass (defaults to ``REPRO_ARTIFACT_TTL`` when unset).
    """

    def __init__(
        self,
        root: str | os.PathLike[str],
        max_bytes: int | None = None,
        ttl_seconds: float | None = None,
    ):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        if max_bytes is None:
            max_bytes = _env_number(MAX_BYTES_ENV_VAR, int)
        if ttl_seconds is None:
            ttl_seconds = _env_number(TTL_ENV_VAR, float)
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError("max_bytes must be positive (or None for no size cap)")
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ValueError("ttl_seconds must be positive (or None for no TTL)")
        self.max_bytes = max_bytes
        self.ttl_seconds = ttl_seconds
        self.stats = ArtifactStoreStats()
        self._lock = threading.Lock()
        # Write-path eviction bookkeeping: a running byte total (exact for
        # this process, refreshed by every full evict() scan) gates the size
        # cap, and a timestamp throttles TTL passes — so writes stay O(1)
        # instead of re-scanning the whole store each time.
        self._approx_bytes: int | None = None  #: guarded by _lock
        self._last_ttl_evict = 0.0  #: guarded by _lock (monotonic seconds)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ArtifactStore(root={str(self.root)!r})"

    # -- keys -----------------------------------------------------------------

    @staticmethod
    def key_for(*parts: str) -> str:
        """Derive a content-address from fingerprint strings.

        Parts are joined with an unambiguous separator before hashing, so
        ``("ab", "c")`` and ``("a", "bc")`` produce distinct keys.
        """
        if not parts:
            raise ValueError("key_for needs at least one fingerprint part")
        digest = hashlib.sha256()
        for part in parts:
            encoded = str(part).encode()
            digest.update(len(encoded).to_bytes(8, "little"))
            digest.update(encoded)
        return digest.hexdigest()

    def path_for(self, kind: str, key: str) -> Path:
        """On-disk location of one artifact (which may not exist yet)."""
        if not kind or any(sep in kind for sep in ("/", "\\", "..")):
            raise ValueError(f"invalid artifact kind {kind!r}")
        if not key or any(sep in key for sep in ("/", "\\", "..")):
            raise ValueError(f"invalid artifact key {key!r}")
        return self.root / kind / key[:2] / f"{key}{_SUFFIX}"

    # -- read / write ---------------------------------------------------------

    def put(self, kind: str, key: str, obj: Any) -> Path:
        """Atomically persist one artifact; concurrent writers are safe.

        The object must carry a registered wire schema (or be plain JSON
        data / bytes / arrays); :class:`~repro.core.codec.SchemaError`
        propagates otherwise so callers never silently store something no
        other process can read.
        """
        began = time.monotonic()
        path = self.path_for(kind, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        buffers: list[bytes] = []
        payload = codec.pack_frame(codec.encode(obj, arrays=buffers), buffers)
        blob = _MAGIC + hashlib.sha256(payload).digest() + payload
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{key[:8]}-", suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self._write_stamp(path)
        with self._lock:
            self.stats.writes += 1
        _WRITES.inc()
        _WRITE_SECONDS.observe(time.monotonic() - began)
        if self._should_evict_after_write(len(blob)):
            self.evict()
        return path

    def _should_evict_after_write(self, written_bytes: int) -> bool:
        """Cheap gate for the automatic post-write eviction pass.

        The size cap triggers only once the running total crosses
        ``max_bytes`` (another process's writes are invisible to this total,
        but every :meth:`evict` re-measures exactly), and TTL passes run at
        most every ``ttl/4`` seconds (capped at a minute) so a write burst
        does not rescan the store each time.
        """
        if self.max_bytes is None and self.ttl_seconds is None:
            return False
        # Rate-limiter arithmetic must not jump with NTP steps: an hour-long
        # wall-clock step would stall (or double-fire) the TTL pass for an
        # hour.  Only the on-disk stamp comparisons in evict() use wall time.
        now = time.monotonic()
        with self._lock:
            if self._approx_bytes is None:
                self._approx_bytes = self.total_bytes()
            else:
                self._approx_bytes += written_bytes
            over_cap = self.max_bytes is not None and self._approx_bytes > self.max_bytes
            ttl_due = self.ttl_seconds is not None and (
                now - self._last_ttl_evict >= min(self.ttl_seconds / 4, 60.0)
            )
            if ttl_due:
                self._last_ttl_evict = now
        return over_cap or ttl_due

    def get(self, kind: str, key: str, default: Any = None) -> Any:
        """Load one artifact, returning ``default`` on absence *or* corruption.

        Any failure mode of the file — missing, truncated, bad magic, payload
        checksum mismatch, undecodable bytes — counts as a miss; corrupt
        files are additionally deleted so they stop costing a read each
        lookup.  One failure mode is a miss but *not* corruption (the file
        is left in place): a valid file whose schema version this process
        does not know (written by newer code).
        """
        began = time.monotonic()
        path = self.path_for(kind, key)
        try:
            blob = path.read_bytes()
        except OSError:
            with self._lock:
                self.stats.misses += 1
            _MISSES.inc()
            _READ_SECONDS.observe(time.monotonic() - began)
            return default

        obj, status = self._decode(blob)
        with self._lock:
            if status == "ok":
                self.stats.hits += 1
            else:
                self.stats.misses += 1
                if status == "corrupt":
                    self.stats.corrupt_discarded += 1
        (_HITS if status == "ok" else _MISSES).inc()
        _READ_SECONDS.observe(time.monotonic() - began)
        if status == "corrupt":
            try:
                path.unlink()
            except OSError:
                pass
        if status != "ok":
            return default
        # Record the hit in the store's own last-use metadata so LRU eviction
        # keeps working on relatime/noatime mounts where atime never moves.
        self._write_stamp(path)
        return obj

    def _decode(self, blob: bytes) -> tuple[Any, str]:
        """Decode one artifact file; returns ``(obj, status)``.

        ``status`` is ``"ok"``, ``"corrupt"`` (checksum/format failure, an
        unrecognised magic included — quarantine) or ``"unknown-schema"``
        (valid file, unregistered schema version) — everything but ``"ok"``
        is served as a miss.
        """
        header_len = len(_MAGIC) + _DIGEST_BYTES
        if len(blob) < header_len or not blob.startswith(_MAGIC):
            return None, "corrupt"
        digest = blob[len(_MAGIC) : header_len]
        payload = blob[header_len:]
        if hashlib.sha256(payload).digest() != digest:
            return None, "corrupt"
        try:
            doc, buffers = codec.unpack_frame(payload)
            return codec.decode(doc, buffers=buffers), "ok"
        except codec.UnknownSchemaError:
            return None, "unknown-schema"
        except Exception:  # noqa: BLE001 - any undecodable payload is corruption
            return None, "corrupt"

    # -- last-use metadata ------------------------------------------------------

    @staticmethod
    def _stamp_path(path: Path) -> Path:
        return path.with_name(path.stem + _STAMP_SUFFIX)

    def _write_stamp(self, path: Path, when: float | None = None) -> None:
        """Record an artifact's last use in its stamp file's mtime.

        The stamp is an empty marker file; its *modification* time carries
        the timestamp.  Explicit :func:`os.utime` calls work on any mount —
        ``relatime``/``noatime`` only suppress implicit read-driven atime
        updates — so the hot refresh path is one syscall on an existing
        stamp, with the atomic create reserved for the first use.
        Best-effort: eviction falls back to the artifact's own mtime.
        """
        stamp = self._stamp_path(path)
        times = None if when is None else (when, when)
        try:
            os.utime(stamp, times)
            return
        except OSError:
            pass
        try:
            fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=".used-", suffix=".tmp")
            os.close(fd)
            if times is not None:
                os.utime(tmp_name, times)
            os.replace(tmp_name, stamp)
        except OSError:
            pass

    @staticmethod
    def _remove_stamp(path: Path) -> None:
        try:
            ArtifactStore._stamp_path(path).unlink()
        except OSError:
            pass

    def _last_used(self, path: Path, stat: os.stat_result) -> float:
        try:
            return self._stamp_path(path).stat().st_mtime
        except OSError:
            # No stamp: fall back to the write time, which is correct for
            # artifacts never read since this metadata landed.
            return max(stat.st_atime, stat.st_mtime)

    def touch(self, kind: str, key: str, when: float | None = None) -> None:
        """Mark one artifact as used now (or at ``when``), for LRU eviction."""
        self._write_stamp(self.path_for(kind, key), when)

    # -- enumeration / maintenance --------------------------------------------

    def _artifact_paths(self, kind: str | None = None) -> Iterator[Path]:
        roots = [self.root / kind] if kind else [p for p in self.root.iterdir() if p.is_dir()]
        for kind_dir in roots:
            if kind_dir.is_dir():
                yield from sorted(kind_dir.glob(f"*/*{_SUFFIX}"))

    def kinds(self) -> list[str]:
        return sorted(p.name for p in self.root.iterdir() if p.is_dir())

    def keys(self, kind: str) -> list[str]:
        return [p.name[: -len(_SUFFIX)] for p in self._artifact_paths(kind)]

    def count(self, kind: str | None = None) -> int:
        return sum(1 for _ in self._artifact_paths(kind))

    def total_bytes(self, kind: str | None = None) -> int:
        total = 0
        for path in self._artifact_paths(kind):
            try:
                total += path.stat().st_size
            except OSError:
                # Concurrently quarantined/wiped by another process: skip it,
                # same as wipe() tolerates a vanished file.
                pass
        return total

    def wipe(self, kind: str | None = None) -> int:
        """Delete stored artifacts (all kinds, or one), returning the count removed."""
        removed = 0
        for path in list(self._artifact_paths(kind)):
            self._remove_stamp(path)
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def evict(
        self,
        max_bytes: int | None = None,
        ttl_seconds: float | None = None,
    ) -> EvictionResult:
        """Apply the eviction policy now, returning what was removed.

        TTL expiry runs first (artifacts unused for longer than
        ``ttl_seconds``), then the size cap: least-recently-used artifacts are
        removed until the store holds at most ``max_bytes``.  Arguments
        default to the store's configured policy; passing explicit values
        evicts to tighter (or looser) bounds for one pass only.

        Safe under concurrent readers and writers, in this process or
        another: a file deleted under us is skipped, and evicting an artifact
        another worker still wants only costs that worker a recompute.
        """
        if max_bytes is None:
            max_bytes = self.max_bytes
        if ttl_seconds is None:
            ttl_seconds = self.ttl_seconds

        entries: list[tuple[float, int, Path]] = []
        for path in self._artifact_paths():
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((self._last_used(path, stat), stat.st_size, path))

        result = EvictionResult()
        # Stamp mtimes are wall-clock by nature (written by any process that
        # touches the store), so the TTL comparison must be wall-clock too.
        now = time.time()  # repro: allow[REP002] cross-process stamp mtimes are wall-clock

        def remove(entry: tuple[float, int, Path]) -> bool:
            _, size, path = entry
            try:
                path.unlink()
            except OSError:
                return False  # already evicted by a concurrent pass
            self._remove_stamp(path)
            result.removed += 1
            result.reclaimed_bytes += size
            return True

        if ttl_seconds is not None:
            survivors = []
            for entry in entries:
                if now - entry[0] > ttl_seconds:
                    remove(entry)
                else:
                    survivors.append(entry)
            entries = survivors

        if max_bytes is not None:
            total = sum(size for _, size, _ in entries)
            for entry in sorted(entries):  # oldest last-use first
                if total <= max_bytes:
                    break
                if remove(entry):
                    total -= entry[1]
                    entries.remove(entry)

        result.remaining_artifacts = len(entries)
        result.remaining_bytes = sum(size for _, size, _ in entries)
        with self._lock:
            self.stats.evicted += result.removed
            self.stats.evicted_bytes += result.reclaimed_bytes
            self._approx_bytes = result.remaining_bytes
        return result

    def summary(self) -> dict[str, Any]:
        """Per-kind counts and sizes, for ``repro cache stats`` and JSON reports."""
        return {
            "root": str(self.root),
            "max_bytes": self.max_bytes,
            "ttl_seconds": self.ttl_seconds,
            "evicted": self.stats.evicted,
            "kinds": {
                kind: {
                    "artifacts": self.count(kind),
                    "bytes": self.total_bytes(kind),
                }
                for kind in self.kinds()
            },
            "total_artifacts": self.count(),
            "total_bytes": self.total_bytes(),
        }


#: One store instance per resolved root, so every consumer of the same
#: directory in a process shares hit/miss statistics.
_STORES_BY_ROOT: dict[str, ArtifactStore] = {}
_STORES_LOCK = threading.Lock()


def artifact_store_at(
    root: str | os.PathLike[str],
    max_bytes: int | None = None,
    ttl_seconds: float | None = None,
) -> ArtifactStore:
    """The process-wide :class:`ArtifactStore` for a directory (created once).

    Explicit eviction caps apply when the store is first created for the
    directory and reconfigure the shared instance on later calls.
    """
    resolved = str(Path(root).expanduser().resolve())
    with _STORES_LOCK:
        store = _STORES_BY_ROOT.get(resolved)
        if store is None:
            store = _STORES_BY_ROOT[resolved] = ArtifactStore(
                resolved, max_bytes=max_bytes, ttl_seconds=ttl_seconds
            )
        else:
            if max_bytes is not None:
                store.max_bytes = max_bytes
            if ttl_seconds is not None:
                store.ttl_seconds = ttl_seconds
        return store


def default_artifact_store() -> ArtifactStore | None:
    """The store named by ``REPRO_ARTIFACT_DIR``, or None when persistence is off.

    Resolved on every call, so tests and CLI entry points may set the
    environment variable after import time.
    """
    root = os.environ.get(ARTIFACT_DIR_ENV_VAR, "").strip()
    if not root:
        return None
    return artifact_store_at(root)
