"""Runtime lock-order race/deadlock detector (``REPRO_LOCKWATCH=1``).

Static rules (REP007/REP008) catch what the AST can see; this module catches
what only a running scheduler exposes.  A :class:`LockWatch` hands out
wrapped ``threading.Lock``/``RLock`` objects that record, per thread, the
stack of locks currently held.  Every successful acquisition while another
lock is held adds an edge ``outer -> inner`` to a global lock-ordering
graph, together with the acquisition stack that created it.  Two violation
classes are reported:

* **ordering cycle** — thread A acquires ``L1`` then ``L2`` while thread B
  acquires ``L2`` then ``L1``.  Each run alone is fine; together they are a
  deadlock waiting for the right interleaving.  Detected the moment the
  second edge closes the cycle, without needing the deadlock to fire.
* **blocking call under a lock** — ``time.sleep`` (the canonical stand-in
  for "this thread parks while pinning a lock") invoked with locks held.
  ``time.sleep(0)`` — the cooperative-yield idiom — is exempt.

Enable it for a test run with::

    REPRO_LOCKWATCH=1 PYTHONPATH=src python -m pytest tests/test_service.py

``tests/conftest.py`` installs the watcher before any repro module creates a
lock and fails the session on recorded violations.  Tests can also build a
private instance (``LockWatch()`` + ``wrap_lock``/``wrap_rlock``) without
touching global state.

The wrappers delegate everything else to the real primitive and implement
the private ``_release_save``/``_acquire_restore``/``_is_owned`` hooks so a
wrapped ``RLock`` still works as the backing lock of a
``threading.Condition``, ``_at_fork_reinit`` so stdlib modules that
import after installation can register their locks' at-fork hooks, and
``_recursion_count`` so multiprocessing's resource tracker can start.
"""

from __future__ import annotations

import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

__all__ = ["LockWatch", "LockWatchError", "TrackedLock", "Violation", "install_from_env"]

#: Frames kept per recorded acquisition stack (innermost last).
_STACK_LIMIT = 12

#: Real primitives, captured before install() can patch the factories —
#: wrap_lock() must never recurse through a patched threading.Lock.
_REAL_LOCK = threading.Lock
_REAL_RLOCK = threading.RLock
_REAL_SLEEP = time.sleep


class LockWatchError(AssertionError):
    """Raised by :meth:`LockWatch.check` when violations were recorded."""


@dataclass(slots=True)
class Violation:
    """One recorded lock-discipline violation."""

    kind: str  # "lock-order-cycle" | "blocking-under-lock"
    message: str
    stacks: list[str] = field(default_factory=list)

    def render(self) -> str:
        parts = [f"[{self.kind}] {self.message}"]
        for stack in self.stacks:
            parts.append(stack.rstrip())
        return "\n".join(parts)


def _capture_stack() -> str:
    frames = traceback.extract_stack(limit=_STACK_LIMIT + 2)[:-2]
    return "".join(traceback.format_list(frames))


class TrackedLock:
    """A ``threading.Lock``/``RLock`` wrapper that reports to a LockWatch."""

    def __init__(self, watch: "LockWatch", inner: Any, name: str):
        self._watch = watch
        self._inner = inner
        self.name = name

    # -- the Lock protocol --------------------------------------------------

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            self._watch._on_acquired(self)
        return acquired

    def release(self) -> None:
        self._watch._on_release(self)
        self._inner.release()

    def locked(self) -> bool:
        return self._inner.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc: object) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<TrackedLock {self.name} wrapping {self._inner!r}>"

    # -- Condition integration ----------------------------------------------
    # threading.Condition uses these private hooks when its backing lock is
    # not a plain Lock.  Waiting releases the lock, so the held-stack must be
    # popped for the duration of the wait and re-pushed on wakeup.

    def _release_save(self) -> Any:
        self._watch._on_release(self)
        if hasattr(self._inner, "_release_save"):
            return self._inner._release_save()
        self._inner.release()
        return None

    def _acquire_restore(self, state: Any) -> None:
        if hasattr(self._inner, "_acquire_restore"):
            self._inner._acquire_restore(state)
        else:
            self._inner.acquire()
        self._watch._on_acquired(self)

    def _is_owned(self) -> bool:
        if hasattr(self._inner, "_is_owned"):
            return self._inner._is_owned()
        # Plain Lock heuristic, mirroring threading.Condition's own fallback.
        if self._inner.acquire(False):
            self._inner.release()
            return False
        return True

    # -- fork integration ---------------------------------------------------
    # Stdlib modules register this hook with os.register_at_fork for their
    # module-level locks (concurrent.futures.thread does at import), so a
    # forked child starts with the lock free and off its held stack.

    def _at_fork_reinit(self) -> None:
        self._watch._on_release(self)
        self._inner._at_fork_reinit()

    # -- multiprocessing integration ----------------------------------------
    # The resource tracker that ``spawn`` and ``forkserver`` pools start
    # reads its RLock's recursion count to refuse a reentrant start.

    def _recursion_count(self) -> int:
        return self._inner._recursion_count()


class LockWatch:
    """Collects per-thread held-lock stacks and the global ordering graph."""

    def __init__(self) -> None:
        self._state_lock = _REAL_LOCK()  # guards graph/violations, never wrapped
        self._held = threading.local()
        #: edge (outer name, inner name) -> acquisition stack that created it
        self._edges: dict[tuple[str, str], str] = {}
        self._violations: list[Violation] = []
        self._reported_cycles: set[tuple[str, ...]] = set()
        self._names: dict[str, int] = {}
        self._installed = False
        self._orig_lock: Callable[..., Any] | None = None
        self._orig_rlock: Callable[..., Any] | None = None
        self._orig_sleep: Callable[..., Any] | None = None

    # -- lock construction --------------------------------------------------

    def _unique_name(self, base: str) -> str:
        with self._state_lock:
            count = self._names.get(base, 0)
            self._names[base] = count + 1
        return base if count == 0 else f"{base}#{count}"

    def _site_name(self, kind: str) -> str:
        # Name locks by their creation site: "serve/fleet.py:121 (Lock)".
        for frame in reversed(traceback.extract_stack(limit=16)[:-2]):
            filename = frame.filename.replace("\\", "/")
            if "/devtools/" in filename or "/threading.py" in filename:
                continue
            short = filename.split("/src/", 1)[-1] if "/src/" in filename else filename
            return self._unique_name(f"{short}:{frame.lineno} ({kind})")
        return self._unique_name(f"<unknown> ({kind})")

    def wrap_lock(self, name: str | None = None) -> TrackedLock:
        return TrackedLock(self, _REAL_LOCK(), name or self._site_name("Lock"))

    def wrap_rlock(self, name: str | None = None) -> TrackedLock:
        return TrackedLock(self, _REAL_RLOCK(), name or self._site_name("RLock"))

    # -- held-stack bookkeeping ---------------------------------------------

    def _stack(self) -> list[TrackedLock]:
        stack = getattr(self._held, "stack", None)
        if stack is None:
            stack = []
            self._held.stack = stack
        return stack

    def held_locks(self) -> list[str]:
        """Names of locks the calling thread currently holds (outer first)."""
        return [lock.name for lock in self._stack()]

    def _on_acquired(self, lock: TrackedLock) -> None:
        stack = self._stack()
        if stack and stack[-1] is lock:
            # RLock re-entry: no new edge, just track the extra depth.
            stack.append(lock)
            return
        outer = next((held for held in reversed(stack) if held is not lock), None)
        stack.append(lock)
        if outer is None or outer.name == lock.name:
            return
        edge = (outer.name, lock.name)
        acquisition = _capture_stack()
        with self._state_lock:
            if edge in self._edges:
                return
            self._edges[edge] = acquisition
            cycle = self._find_cycle(lock.name, outer.name)
        if cycle is not None:
            self._report_cycle(cycle)

    def _on_release(self, lock: TrackedLock) -> None:
        stack = self._stack()
        for index in range(len(stack) - 1, -1, -1):
            if stack[index] is lock:
                del stack[index]
                return
        # Releasing a lock this thread never acquired through the wrapper
        # (e.g. handed across threads) — nothing to unwind.

    # -- cycle detection ----------------------------------------------------

    def _find_cycle(self, start: str, goal: str) -> list[str] | None:
        """A path start -> ... -> goal in the edge graph (caller holds edge
        goal->start already, so such a path closes a cycle)."""
        path = [start]
        seen = {start}

        def dfs(node: str) -> bool:
            if node == goal:
                return True
            for outer, inner in self._edges:
                if outer == node and inner not in seen:
                    seen.add(inner)
                    path.append(inner)
                    if dfs(inner):
                        return True
                    path.pop()
            return False

        return path if dfs(start) else None

    def _report_cycle(self, path: list[str]) -> None:
        # path is start -> ... -> goal; the closing edge goal -> start exists.
        cycle = path + [path[0]]
        key = tuple(sorted(set(path)))
        with self._state_lock:
            if key in self._reported_cycles:
                return
            self._reported_cycles.add(key)
            stacks = []
            for outer, inner in zip(cycle, cycle[1:]):
                acquisition = self._edges.get((outer, inner), "")
                stacks.append(f"edge {outer} -> {inner} acquired at:\n{acquisition}")
            self._violations.append(
                Violation(
                    kind="lock-order-cycle",
                    message=" -> ".join(cycle),
                    stacks=stacks,
                )
            )

    # -- blocking-call detection --------------------------------------------

    def _watched_sleep(self, seconds: float) -> None:
        # sleep(0) is the cooperative-yield idiom, not a park.
        if seconds > 0:
            held = self.held_locks()
            if held:
                with self._state_lock:
                    self._violations.append(
                        Violation(
                            kind="blocking-under-lock",
                            message=(
                                f"time.sleep({seconds!r}) while holding "
                                f"{', '.join(held)}"
                            ),
                            stacks=[_capture_stack()],
                        )
                    )
        (self._orig_sleep or _REAL_SLEEP)(seconds)

    # -- reporting ----------------------------------------------------------

    def violations(self) -> list[Violation]:
        with self._state_lock:
            return list(self._violations)

    def edges(self) -> dict[tuple[str, str], str]:
        with self._state_lock:
            return dict(self._edges)

    def reset(self) -> None:
        with self._state_lock:
            self._edges.clear()
            self._violations.clear()
            self._reported_cycles.clear()

    def report(self) -> str:
        violations = self.violations()
        if not violations:
            return "lockwatch: no violations recorded"
        parts = [f"lockwatch: {len(violations)} violation(s)"]
        parts.extend(violation.render() for violation in violations)
        return "\n\n".join(parts)

    def check(self) -> None:
        """Raise :class:`LockWatchError` if any violation was recorded."""
        if self.violations():
            raise LockWatchError(self.report())

    # -- global installation -------------------------------------------------

    def install(self) -> None:
        """Patch ``threading.Lock``/``RLock`` factories and ``time.sleep``.

        Locks created *after* this point are tracked; existing locks are
        not.  Install before importing the modules under test (conftest
        does this at collection time when ``REPRO_LOCKWATCH`` is set).
        """
        if self._installed:
            return
        self._orig_lock = threading.Lock
        self._orig_rlock = threading.RLock
        self._orig_sleep = time.sleep
        threading.Lock = lambda: self.wrap_lock()  # type: ignore[assignment]
        threading.RLock = lambda: self.wrap_rlock()  # type: ignore[assignment]
        time.sleep = self._watched_sleep  # type: ignore[assignment]
        self._installed = True

    def uninstall(self) -> None:
        if not self._installed:
            return
        assert self._orig_lock and self._orig_rlock and self._orig_sleep
        threading.Lock = self._orig_lock  # type: ignore[assignment]
        threading.RLock = self._orig_rlock  # type: ignore[assignment]
        time.sleep = self._orig_sleep  # type: ignore[assignment]
        self._installed = False


#: Process-global instance used by ``install_from_env`` / conftest.
_GLOBAL: LockWatch | None = None


def global_watch() -> LockWatch:
    global _GLOBAL
    if _GLOBAL is None:
        _GLOBAL = LockWatch()
    return _GLOBAL


def install_from_env() -> LockWatch | None:
    """Install the global watcher when ``REPRO_LOCKWATCH`` is truthy."""
    import os

    if os.environ.get("REPRO_LOCKWATCH", "").strip().lower() in ("", "0", "false", "no"):
        return None
    watch = global_watch()
    watch.install()
    return watch
