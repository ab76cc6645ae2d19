"""Tests for the persistent artifact store and the two-tier report cache."""

from __future__ import annotations

import hashlib
import os
import pickle
import threading
import time

import numpy as np
import pytest

from repro.accelerator import (
    AcceleratorSimulator,
    dense_baseline_config,
    random_workload,
    sqdm_config,
)
from repro.core import codec
from repro.core.artifacts import (
    ArtifactStore,
    artifact_store_at,
    default_artifact_store,
)
from repro.core.columnar import ensure_report
from repro.core.report_cache import ReportCache
from repro.serve.scheduler import run_batched
from repro.serve.specs import SimulateJobSpec


def write_legacy_artifact(store: ArtifactStore, kind: str, key: str, obj) -> None:
    """Plant a version-1 (pickled) artifact, as written by older releases."""
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    blob = b"RPRO-ART1\n" + hashlib.sha256(payload).digest() + payload
    path = store.path_for(kind, key)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(blob)


def cached_run(cache: ReportCache, config, trace):
    """One simulation through the cache: the scheduler is the only path to the
    simulator."""
    return ensure_report(run_batched([SimulateJobSpec(config, trace)], cache=cache)[0])


@pytest.fixture()
def store(tmp_path) -> ArtifactStore:
    return ArtifactStore(tmp_path / "artifacts")


@pytest.fixture()
def small_trace():
    return [
        [
            random_workload(in_channels=16, spatial=4, seed=s * 3 + n, name=f"l{n}")
            for n in range(2)
        ]
        for s in range(2)
    ]


class TestArtifactStore:
    def test_roundtrip(self, store):
        key = ArtifactStore.key_for("some", "fingerprints")
        payload = {"cycles": 1.5, "array": np.arange(4.0)}
        store.put("report", key, payload)
        loaded = store.get("report", key)
        assert loaded["cycles"] == 1.5
        assert np.array_equal(loaded["array"], np.arange(4.0))
        assert store.stats.hits == 1 and store.stats.writes == 1

    def test_missing_is_default(self, store):
        assert store.get("report", "0" * 64) is None
        assert store.get("report", "0" * 64, default="fallback") == "fallback"
        assert store.stats.misses == 2 and store.stats.corrupt_discarded == 0

    def test_key_for_is_stable_and_unambiguous(self):
        assert ArtifactStore.key_for("a", "b") == ArtifactStore.key_for("a", "b")
        assert ArtifactStore.key_for("ab", "c") != ArtifactStore.key_for("a", "bc")
        with pytest.raises(ValueError):
            ArtifactStore.key_for()

    def test_rejects_path_escaping_names(self, store):
        with pytest.raises(ValueError):
            store.path_for("../evil", "a" * 64)
        with pytest.raises(ValueError):
            store.path_for("report", "../../etc/passwd")

    def test_overwrite_is_atomic_replace(self, store):
        key = ArtifactStore.key_for("x")
        store.put("report", key, "first")
        store.put("report", key, "second")
        assert store.get("report", key) == "second"
        assert store.count("report") == 1

    @pytest.mark.parametrize(
        "corruption",
        ["truncate", "garbage", "bad_magic", "bit_flip", "v1_pickle"],
    )
    def test_corrupt_file_recovers_as_miss(self, store, corruption):
        """A damaged or foreign artifact is a miss (recompute), never a crash."""
        key = ArtifactStore.key_for("doomed")
        store.put("report", key, {"value": 42})
        path = store.path_for("report", key)
        blob = path.read_bytes()
        if corruption == "v1_pickle":  # the pickled version-1 format is foreign
            write_legacy_artifact(store, "report", key, {"value": 42})
        elif corruption == "truncate":
            path.write_bytes(blob[: len(blob) // 2])
        elif corruption == "garbage":
            path.write_bytes(b"not an artifact at all")
        elif corruption == "bad_magic":
            path.write_bytes(b"XXXX" + blob[4:])
        else:  # bit_flip in the payload
            mutated = bytearray(blob)
            mutated[-1] ^= 0xFF
            path.write_bytes(bytes(mutated))
        assert store.get("report", key) is None
        assert store.stats.corrupt_discarded == 1
        assert not path.exists()  # quarantined, so the next read is a clean miss

    def test_enumeration_and_wipe(self, store):
        for i in range(3):
            store.put("report", ArtifactStore.key_for(f"r{i}"), i)
        store.put("trace", ArtifactStore.key_for("t0"), "trace")
        assert store.kinds() == ["report", "trace"]
        assert store.count("report") == 3 and store.count() == 4
        assert len(store.keys("report")) == 3
        summary = store.summary()
        assert summary["total_artifacts"] == 4 and summary["total_bytes"] > 0
        assert store.wipe("report") == 3
        assert store.count() == 1
        assert store.wipe() == 1
        assert store.count() == 0

    def test_store_registry_shares_instances(self, tmp_path):
        a = artifact_store_at(tmp_path / "shared")
        b = artifact_store_at(tmp_path / "shared")
        assert a is b

    def test_default_store_follows_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_ARTIFACT_DIR", raising=False)
        assert default_artifact_store() is None
        monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path / "env-store"))
        store = default_artifact_store()
        assert store is not None
        assert store.root == (tmp_path / "env-store").resolve()


class TestTypedFormatAndLegacy:
    def test_artifacts_are_schema_tagged_json_not_pickles(self, store):
        """The on-disk payload is a JSON header + binary sidecars."""
        key = ArtifactStore.key_for("typed")
        store.put("report", key, {"cycles": 2.0, "array": np.arange(3.0)})
        blob = store.path_for("report", key).read_bytes()
        assert blob.startswith(b"RPRO-ART2\n")
        assert b"$schema" in blob and b"value@1" in blob
        # the array's 24 raw bytes ride as a sidecar, not inline base64
        assert np.arange(3.0).tobytes() in blob

    def test_file_bytes_are_pinned(self, store):
        """One small object's file, byte for byte: magic, payload checksum,
        header length, sorted JSON header, then the int32 array and the bytes
        value as raw sidecars.  Any change to the frame layout shows here."""
        key = ArtifactStore.key_for("pinned")
        obj = {"cycles": np.arange(3, dtype="<i4"), "name": "sqdm", "raw": b"\x00\xff"}
        store.put("report", key, obj)
        header = (
            b'{"buffers": [12, 2], "doc": {"$schema": "value@1", "value": '
            b'{"cycles": {"$ndarray": {"buffer": 0, "dtype": "<i4", "shape": [3]}}, '
            b'"name": "sqdm", "raw": {"$bytes": {"buffer": 1}}}}}'
        )
        payload = (
            len(header).to_bytes(8, "little")
            + header
            + b"\x00\x00\x00\x00\x01\x00\x00\x00\x02\x00\x00\x00"
            + b"\x00\xff"
        )
        assert hashlib.sha256(payload).hexdigest() == (
            "7842853965dea38f95ea59025832a00ca20405aa02a176ce0e5afc70ef26e9ab"
        )
        path = store.path_for("report", key)
        assert path.read_bytes() == b"RPRO-ART2\n" + hashlib.sha256(payload).digest() + payload
        loaded = store.get("report", key)
        assert loaded["cycles"].tobytes() == obj["cycles"].tobytes()
        assert (loaded["name"], loaded["raw"]) == ("sqdm", b"\x00\xff")

    def test_put_rejects_schema_less_objects(self, store):
        class NotWireSafe:
            pass

        with pytest.raises(codec.SchemaError, match="register"):
            store.put("report", ArtifactStore.key_for("bad"), NotWireSafe())
        assert store.count() == 0

    def test_unknown_schema_version_is_miss_not_corruption(self, store):
        """Files written by newer code are refused, not deleted."""
        key = ArtifactStore.key_for("future")
        store.put("report", key, {"v": 1})
        path = store.path_for("report", key)
        blob = path.read_bytes()
        future = blob.replace(b"value@1", b"value@9")
        payload = future[len(b"RPRO-ART2\n") + 32 :]
        path.write_bytes(b"RPRO-ART2\n" + hashlib.sha256(payload).digest() + payload)
        assert store.get("report", key) is None
        assert store.stats.corrupt_discarded == 0
        assert path.exists()


class TestMetadataLRU:
    def test_last_use_tracked_in_store_metadata_not_atime(self, store):
        """Eviction order must survive relatime/noatime mounts: frozen file
        atimes (even ones pointing far into the future) are ignored once a
        stamp exists."""
        old_key = ArtifactStore.key_for("old")
        new_key = ArtifactStore.key_for("new")
        store.put("report", old_key, os.urandom(2048))
        store.put("report", new_key, os.urandom(2048))
        store.touch("report", old_key, when=time.time() - 5000)
        store.touch("report", new_key, when=time.time())
        # simulate a filesystem whose atime says the opposite of the truth
        os.utime(store.path_for("report", old_key))
        far_past = time.time() - 9999
        os.utime(store.path_for("report", new_key), (far_past, far_past))

        per_artifact = store.total_bytes() // 2
        store.evict(max_bytes=per_artifact + per_artifact // 2)
        assert not store.path_for("report", old_key).exists()
        assert store.path_for("report", new_key).exists()

    def test_get_refreshes_metadata_stamp(self, store):
        key = ArtifactStore.key_for("refreshed")
        store.put("report", key, b"payload")
        store.touch("report", key, when=time.time() - 5000)
        stamp = store._stamp_path(store.path_for("report", key))
        before = stamp.stat().st_mtime
        assert store.get("report", key) == b"payload"
        assert stamp.stat().st_mtime > before

    def test_eviction_removes_stamp_files(self, store):
        key = ArtifactStore.key_for("stamped")
        store.put("report", key, b"x")
        stamp = store._stamp_path(store.path_for("report", key))
        assert stamp.exists()
        store.evict(max_bytes=1)
        assert not stamp.exists()
        # wipe() cleans stamps too
        key2 = ArtifactStore.key_for("stamped2")
        store.put("report", key2, b"y")
        store.wipe()
        assert not store._stamp_path(store.path_for("report", key2)).exists()

    def test_missing_stamp_falls_back_to_mtime(self, store):
        key = ArtifactStore.key_for("no-stamp")
        store.put("report", key, b"x")
        path = store.path_for("report", key)
        store._remove_stamp(path)
        stamp_time = store._last_used(path, path.stat())
        assert abs(stamp_time - path.stat().st_mtime) < 1e-6


class TestEviction:
    @staticmethod
    def _fill(store: ArtifactStore, count: int, payload_bytes: int = 2048) -> list[str]:
        keys = [ArtifactStore.key_for(f"artifact-{i}") for i in range(count)]
        for i, key in enumerate(keys):
            store.put("report", key, os.urandom(payload_bytes))
            # Distinct, strictly increasing last-use stamps (in the store's
            # own metadata, not filesystem atime) so LRU order is
            # deterministic regardless of filesystem timestamp granularity.
            store.touch("report", key, when=time.time() - 1000 + i)
        return keys

    def test_size_cap_evicts_least_recently_used_first(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        keys = self._fill(store, 6)
        cap = store.total_bytes() // 2
        result = store.evict(max_bytes=cap)
        assert result.removed > 0
        assert store.total_bytes() <= cap
        assert result.remaining_bytes == store.total_bytes()
        # the oldest artifacts went first; the newest are still here
        assert not store.path_for("report", keys[0]).exists()
        assert store.path_for("report", keys[-1]).exists()
        assert store.stats.evicted == result.removed
        assert store.stats.evicted_bytes == result.reclaimed_bytes

    def test_hit_refreshes_lru_position(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        keys = self._fill(store, 4)
        assert store.get("report", keys[0]) is not None  # touch the oldest
        per_artifact = store.total_bytes() // 4
        store.evict(max_bytes=2 * per_artifact + per_artifact // 2)
        assert store.path_for("report", keys[0]).exists(), "touched artifact was evicted"
        assert not store.path_for("report", keys[1]).exists()

    def test_ttl_expires_stale_artifacts(self, tmp_path):
        store = ArtifactStore(tmp_path / "s", ttl_seconds=60)
        keys = self._fill(store, 3)  # stamped ~1000s in the past
        fresh_key = ArtifactStore.key_for("fresh")
        store.put("report", fresh_key, b"fresh")
        result = store.evict()
        assert result.removed == 3
        assert store.path_for("report", fresh_key).exists()
        for key in keys:
            assert not store.path_for("report", key).exists()
        assert store.stats.evicted >= 3

    def test_put_triggers_ttl_eviction_after_throttle_window(self, tmp_path):
        """The write path runs TTL passes on its own (throttled to ttl/4)."""
        store = ArtifactStore(tmp_path / "s", ttl_seconds=0.05)
        old_key = ArtifactStore.key_for("old")
        store.put("report", old_key, b"old")
        time.sleep(0.2)  # > ttl and > the ttl/4 throttle window
        new_key = ArtifactStore.key_for("new")
        store.put("report", new_key, b"new")
        assert not store.path_for("report", old_key).exists()
        assert store.path_for("report", new_key).exists()

    def test_put_auto_evicts_to_size_cap(self, tmp_path):
        cap = 16 * 1024
        store = ArtifactStore(tmp_path / "s", max_bytes=cap)
        for i in range(20):
            store.put("report", ArtifactStore.key_for(f"auto-{i}"), os.urandom(2048))
        assert store.total_bytes() <= cap
        assert 0 < store.count() < 20

    def test_size_cap_under_concurrent_writers(self, tmp_path):
        """Acceptance: the store never exceeds its cap once eviction runs,
        even with many threads writing at once."""
        cap = 32 * 1024
        store = ArtifactStore(tmp_path / "s", max_bytes=cap)
        errors: list[Exception] = []

        def writer(worker: int) -> None:
            try:
                for i in range(10):
                    key = ArtifactStore.key_for(f"w{worker}", f"a{i}")
                    store.put("report", key, os.urandom(4096))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(w,)) for w in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        store.evict()
        assert store.total_bytes() <= cap
        assert store.count() > 0

    def test_evicted_report_falls_back_to_resimulation(self, tmp_path, small_trace):
        """An evicted artifact is a miss, not an error: callers recompute."""
        store = ArtifactStore(tmp_path / "s")
        cache = ReportCache(store=store)
        before = cached_run(cache, sqdm_config(), small_trace)
        assert store.count("report") == 1
        result = store.evict(max_bytes=1)  # evict everything
        assert result.removed == 1 and store.count("report") == 0

        fresh = ReportCache(store=store)  # fresh memory tier, post-eviction disk
        after = cached_run(fresh, sqdm_config(), small_trace)
        assert fresh.stats.misses == 1 and fresh.stats.disk_hits == 0
        assert after.total_cycles == before.total_cycles
        assert store.count("report") == 1  # re-persisted for the next process

    def test_env_var_defaults(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_ARTIFACT_MAX_BYTES", "4096")
        monkeypatch.setenv("REPRO_ARTIFACT_TTL", "60.5")
        store = ArtifactStore(tmp_path / "env")
        assert store.max_bytes == 4096
        assert store.ttl_seconds == 60.5
        monkeypatch.setenv("REPRO_ARTIFACT_MAX_BYTES", "a-lot")
        with pytest.raises(ValueError, match="REPRO_ARTIFACT_MAX_BYTES"):
            ArtifactStore(tmp_path / "env2")

    def test_invalid_caps_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="max_bytes"):
            ArtifactStore(tmp_path / "bad", max_bytes=0)
        with pytest.raises(ValueError, match="ttl_seconds"):
            ArtifactStore(tmp_path / "bad", ttl_seconds=-1)

    def test_evict_without_policy_is_a_no_op(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        self._fill(store, 2)
        result = store.evict()
        assert result.removed == 0
        assert result.remaining_artifacts == 2


class TestTwoTierReportCache:
    def test_disk_tier_survives_new_cache_instance(self, store, small_trace):
        first = ReportCache(store=store)
        report = cached_run(first, sqdm_config(), small_trace)
        assert first.stats.misses == 1

        second = ReportCache(store=store)  # fresh memory tier, same disk
        loaded = cached_run(second, sqdm_config(), small_trace)
        assert second.stats.disk_hits == 1 and second.stats.misses == 0
        assert loaded.total_cycles == report.total_cycles
        # promoted to memory: the next lookup does not touch the disk tier
        cached_run(second, sqdm_config(), small_trace)
        assert second.stats.hits == 1

    def test_corrupt_report_artifact_recomputes(self, store, small_trace):
        cache = ReportCache(store=store)
        cached_run(cache, sqdm_config(), small_trace)
        (artifact_path,) = [store.path_for("report", k) for k in store.keys("report")]
        artifact_path.write_bytes(b"garbage" * 100)

        fresh = ReportCache(store=store)
        report = cached_run(fresh, sqdm_config(), small_trace)
        assert fresh.stats.misses == 1 and fresh.stats.disk_hits == 0
        assert store.stats.corrupt_discarded == 1
        direct = AcceleratorSimulator(sqdm_config()).run_trace(small_trace)
        assert report.total_cycles == direct.total_cycles

    def test_run_batched_respects_explicit_empty_cache(self, store, small_trace):
        """Regression: an empty ReportCache is falsy, but must still be used."""
        cache = ReportCache(store=store)
        cached_run(cache, sqdm_config(), small_trace)
        assert cache.stats.misses == 1

    def test_invalid_store_spec_rejected(self):
        with pytest.raises(ValueError, match="'auto'"):
            ReportCache(store="yes-please")


class TestCrossProcessReuse:
    def test_second_process_rerun_hits_store_without_resimulating(self, store, small_trace):
        """Acceptance: a re-run from a fresh process gets >=90% artifact-store
        hits and performs zero simulations."""
        configs = [sqdm_config(sparsity_threshold=t) for t in (0.1, 0.2, 0.3, 0.4, 0.5)]
        requests = [SimulateJobSpec(c, small_trace) for c in configs] + [
            SimulateJobSpec(dense_baseline_config(), small_trace)
        ]

        first_process = ReportCache(store=store)
        first_reports = run_batched(requests, cache=first_process)
        assert first_process.stats.misses == len(requests)

        # A "second process": fresh memory cache, fresh store instance over
        # the same directory, and any attempt to simulate is an error.
        second_store = ArtifactStore(store.root)
        second_process = ReportCache(store=second_store)

        def forbidden(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("re-run should not simulate anything")

        original_run = AcceleratorSimulator.run
        AcceleratorSimulator.run = forbidden
        try:
            second_reports = run_batched(
                [SimulateJobSpec(c, small_trace) for c in configs]
                + [SimulateJobSpec(dense_baseline_config(), small_trace)],
                cache=second_process,
            )
        finally:
            AcceleratorSimulator.run = original_run

        stats = second_process.stats
        assert stats.misses == 0
        assert (stats.disk_hits + stats.hits) / stats.requests >= 0.9
        for before, after in zip(
            map(ensure_report, first_reports), map(ensure_report, second_reports)
        ):
            assert after.total_cycles == before.total_cycles
            assert after.total_energy.total_pj == before.total_energy.total_pj
