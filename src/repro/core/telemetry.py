"""Unified telemetry: metrics registry, trace spans, and a structured event log.

A fleet service is only operable when its hot paths report what they are
doing — queue depth, coalescing ratio, cache hit rates, kernel-call and
request latencies.  Large distributed acquisition systems bake run monitoring
into the architecture rather than bolting it on, and remotely operated
instruments need telemetry precisely because nobody watches the process
directly.  This module is that layer for the whole codebase, on the standard
library only:

:class:`MetricsRegistry`
    A process-wide, thread-safe registry of :class:`Counter`,
    :class:`Gauge` and :class:`Histogram` metrics.  Every metric op
    (increment, set, observe) takes one shared lock, so multi-metric reads
    — :meth:`MetricsRegistry.collect`, the Prometheus renderer, the
    scheduler's derived :class:`~repro.serve.scheduler.BatchStats` view —
    see a *consistent* snapshot.  Histograms use fixed cumulative buckets
    (no per-sample storage), so a histogram's cost is O(1) per observation
    and p50/p95/p99 estimates come from bucket interpolation.
:func:`render_prometheus`
    The registry in Prometheus text exposition format (version 0.0.4), the
    payload behind ``GET /metrics`` on the evaluation server.
:class:`Span` / :func:`span` / :class:`Trace`
    Lightweight timing spans.  :func:`span` is a context manager with
    thread-local nesting for code-shaped regions (a kernel call, a disk
    read); :class:`Trace` is an explicit phase recorder that *follows a
    job across threads* through its lifecycle (``submitted`` →
    ``coalesced``/``attached`` → ``dispatched`` → ``kernel`` →
    ``finished``).  All timing uses :func:`time.monotonic`.
:class:`EventLog`
    Structured JSON-lines logging, **off by default** so servers stay
    quiet.  Opt in with the ``REPRO_LOG`` environment variable
    (``error`` / ``info`` / ``debug``) or ``repro serve --log-level``;
    spans, job transitions and HTTP access records all flow through it.

Everything here is intentionally dependency-free and cheap: the overhead
test in ``tests/test_telemetry.py`` bounds the per-operation cost so
instrumenting the hot paths keeps tier-1 runtime flat.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Mapping, Sequence

__all__ = [
    "Counter",
    "EventLog",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS",
    "MetricsRegistry",
    "REGISTRY",
    "Span",
    "Trace",
    "configure_event_log",
    "event_log",
    "get_registry",
    "quantile_from_buckets",
    "render_prometheus",
    "span",
]

#: Environment variable enabling the structured event log (level name).
LOG_ENV_VAR = "REPRO_LOG"

#: Default latency buckets (seconds): 100 µs .. 2 minutes, roughly log-spaced.
LATENCY_BUCKETS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0,
)

#: Default size/shape buckets (counts): 1 .. 1M, log-spaced.
COUNT_BUCKETS: tuple[float, ...] = (
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000,
    10_000, 50_000, 100_000, 500_000, 1_000_000,
)

LabelValues = tuple[str, ...]


def _label_key(
    label_names: tuple[str, ...], labels: Mapping[str, Any]
) -> LabelValues:
    if set(labels) != set(label_names):
        raise ValueError(
            f"metric expects labels {label_names}, got {tuple(sorted(labels))}"
        )
    return tuple(str(labels[name]) for name in label_names)


class _Metric:
    """Shared plumbing: name, help text, label names, the registry lock."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labels: Sequence[str], lock: threading.RLock) -> None:
        self.name = name
        self.help = help
        self.label_names = tuple(labels)
        self._lock = lock

    def _check_compatible(self, kind: str, labels: Sequence[str]) -> None:
        if self.kind != kind or self.label_names != tuple(labels):
            raise ValueError(
                f"metric {self.name!r} already registered as {self.kind} with "
                f"labels {self.label_names}; cannot re-register as {kind} with "
                f"labels {tuple(labels)}"
            )


class Counter(_Metric):
    """Monotonically increasing count, optionally labeled."""

    kind = "counter"

    def __init__(self, name: str, help: str, labels: Sequence[str], lock: threading.RLock) -> None:
        super().__init__(name, help, labels, lock)
        self._values: dict[LabelValues, float] = {}

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge for deltas")
        key = _label_key(self.label_names, labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        key = _label_key(self.label_names, labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def total(self) -> float:
        """Sum across every label combination."""
        with self._lock:
            return sum(self._values.values())

    def _samples(self) -> list[tuple[str, dict[str, str], float]]:
        return [
            (self.name, dict(zip(self.label_names, key)), value)
            for key, value in self._values.items()
        ]


class Gauge(_Metric):
    """A value that can go up and down, set directly or read via callback."""

    kind = "gauge"

    def __init__(self, name: str, help: str, labels: Sequence[str], lock: threading.RLock) -> None:
        super().__init__(name, help, labels, lock)
        self._values: dict[LabelValues, float] = {}
        #: Registered callbacks, oldest first; the last one is active.
        self._fns: list[Callable[[], float]] = []

    def set(self, value: float, **labels: Any) -> None:
        key = _label_key(self.label_names, labels)
        with self._lock:
            self._values[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        key = _label_key(self.label_names, labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: Any) -> None:
        self.inc(-amount, **labels)

    def set_function(self, fn: Callable[[], float] | None) -> None:
        """Read the gauge from ``fn()`` at collection time (unlabeled only).

        The most recently registered callback wins; pass None to unregister
        every callback.  A callback that raises reports the last directly-set
        value instead of breaking collection.
        """
        if self.label_names:
            raise ValueError("callback gauges cannot be labeled")
        with self._lock:
            if fn is None:
                self._fns.clear()
            else:
                self._fns.append(fn)

    def clear_function(self, fn: Callable[[], float]) -> None:
        """Unregister ``fn``; the gauge falls back to the most recent callback
        still registered, so a closing component neither clobbers a newer
        owner's callback nor blanks an older owner that is still alive."""
        with self._lock:
            self._fns = [registered for registered in self._fns if registered is not fn]

    def value(self, **labels: Any) -> float:
        key = _label_key(self.label_names, labels)
        with self._lock:
            fn = self._fns[-1] if self._fns else None
            stored = self._values.get(key, 0.0)
        if fn is not None:
            try:
                return float(fn())
            except Exception:  # noqa: BLE001 - observers must not break collection
                return stored
        return stored

    def _samples(self) -> list[tuple[str, dict[str, str], float]]:
        if self._fns:
            return [(self.name, {}, self.value())]
        return [
            (self.name, dict(zip(self.label_names, key)), value)
            for key, value in self._values.items()
        ]


class Histogram(_Metric):
    """Fixed-bucket cumulative histogram (Prometheus semantics).

    ``buckets`` are upper bounds in increasing order; an implicit ``+Inf``
    bucket catches everything beyond the last bound.  Observations update
    O(1) state per label set: the per-bucket counts, the running sum and the
    total count — no samples are stored, so a histogram never grows.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labels: Sequence[str],
        lock: threading.RLock,
        buckets: Sequence[float] = LATENCY_BUCKETS,
    ) -> None:
        super().__init__(name, help, labels, lock)
        uppers = tuple(float(b) for b in buckets)
        if not uppers or list(uppers) != sorted(set(uppers)):
            raise ValueError("buckets must be a non-empty, strictly increasing sequence")
        self.buckets = uppers
        #: per label set: ([per-bucket counts..., +Inf count], sum, count)
        self._state: dict[LabelValues, tuple[list[int], float, int]] = {}

    def _check_compatible(self, kind: str, labels: Sequence[str]) -> None:
        super()._check_compatible(kind, labels)

    def observe(self, value: float, **labels: Any) -> None:
        key = _label_key(self.label_names, labels)
        value = float(value)
        with self._lock:
            state = self._state.get(key)
            if state is None:
                state = ([0] * (len(self.buckets) + 1), 0.0, 0)
            counts, total, count = state
            index = len(self.buckets)
            for i, upper in enumerate(self.buckets):
                if value <= upper:
                    index = i
                    break
            counts[index] += 1
            self._state[key] = (counts, total + value, count + 1)

    def snapshot(self, **labels: Any) -> tuple[list[int], float, int]:
        """(cumulative bucket counts incl. +Inf, sum, count) for one label set."""
        key = _label_key(self.label_names, labels)
        with self._lock:
            counts, total, count = self._state.get(key, ([0] * (len(self.buckets) + 1), 0.0, 0))
            cumulative: list[int] = []
            running = 0
            for c in counts:
                running += c
                cumulative.append(running)
            return cumulative, total, count

    def count(self, **labels: Any) -> int:
        return self.snapshot(**labels)[2]

    def sum(self, **labels: Any) -> float:
        return self.snapshot(**labels)[1]

    def quantile(self, q: float, **labels: Any) -> float | None:
        """Estimated q-quantile from the cumulative buckets; None when empty."""
        cumulative, _, count = self.snapshot(**labels)
        if count == 0:
            return None
        return quantile_from_buckets(self.buckets, cumulative, q)

    def _samples(self) -> list[tuple[str, dict[str, str], float]]:
        samples: list[tuple[str, dict[str, str], float]] = []
        for key in self._state:
            base = dict(zip(self.label_names, key))
            counts, total, count = self._state[key]
            running = 0
            for upper, bucket_count in zip(self.buckets, counts):
                running += bucket_count
                samples.append(
                    (f"{self.name}_bucket", {**base, "le": _format_le(upper)}, running)
                )
            running += counts[-1]
            samples.append((f"{self.name}_bucket", {**base, "le": "+Inf"}, running))
            samples.append((f"{self.name}_sum", base, total))
            samples.append((f"{self.name}_count", base, count))
        return samples


def quantile_from_buckets(
    uppers: Sequence[float], cumulative: Sequence[float], q: float
) -> float:
    """Estimate a quantile from cumulative bucket counts (Prometheus-style).

    ``uppers`` are the finite bucket upper bounds, ``cumulative`` the
    cumulative counts aligned with them plus a trailing ``+Inf`` entry.
    Linear interpolation inside the winning bucket; the +Inf bucket clamps
    to the last finite bound (the histogram cannot say more).
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must be in [0, 1]")
    total = cumulative[-1]
    if total <= 0:
        return 0.0
    rank = q * total
    previous_cum = 0.0
    lower = 0.0
    for upper, cum in zip(uppers, cumulative):
        if rank <= cum:
            if cum == previous_cum:
                return float(upper)
            fraction = (rank - previous_cum) / (cum - previous_cum)
            return float(lower + (upper - lower) * fraction)
        previous_cum = cum
        lower = upper
    return float(uppers[-1])


def _format_le(upper: float) -> str:
    """Prometheus renders integral bounds without a trailing .0."""
    if upper == int(upper):
        return str(int(upper)) + ".0"
    return repr(upper)


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


class MetricsRegistry:
    """Thread-safe, process-wide home of every metric.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: the first call
    registers the metric, later calls return the same object (a kind or
    label mismatch raises, catching typos early).  All metric operations in
    one registry share a single re-entrant lock, so multi-metric snapshots
    (:meth:`collect`, :meth:`locked`) are consistent.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._metrics: dict[str, _Metric] = {}

    # -- registration ----------------------------------------------------------

    def counter(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = LATENCY_BUCKETS,
    ) -> Histogram:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                existing._check_compatible("histogram", labels)
                assert isinstance(existing, Histogram)
                return existing
            metric = Histogram(name, help, labels, self._lock, buckets=buckets)
            self._metrics[name] = metric
            return metric

    def _get_or_create(
        self, cls: type, name: str, help: str, labels: Sequence[str]
    ) -> Any:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                existing._check_compatible(cls.kind, labels)
                return existing
            metric = cls(name, help, labels, self._lock)
            self._metrics[name] = metric
            return metric

    def get(self, name: str) -> _Metric | None:
        with self._lock:
            return self._metrics.get(name)

    def unregister(self, name: str) -> bool:
        """Drop one metric (tests and short-lived instrumentation)."""
        with self._lock:
            return self._metrics.pop(name, None) is not None

    @contextmanager
    def locked(self) -> Iterator[None]:
        """Hold the registry lock: reads inside see one consistent snapshot."""
        with self._lock:
            yield

    # -- collection ------------------------------------------------------------

    def collect(self) -> dict[str, Any]:
        """Every metric's current samples as a JSON-friendly dict."""
        with self._lock:
            out: dict[str, Any] = {}
            for name, metric in sorted(self._metrics.items()):
                out[name] = {
                    "kind": metric.kind,
                    "help": metric.help,
                    "samples": [
                        {"name": s_name, "labels": labels, "value": value}
                        for s_name, labels, value in metric._samples()
                    ],
                }
            return out

    def render_prometheus(self) -> str:
        """The registry in Prometheus text exposition format 0.0.4."""
        lines: list[str] = []
        with self._lock:
            for name, metric in sorted(self._metrics.items()):
                lines.append(f"# HELP {name} {_escape_help(metric.help)}")
                lines.append(f"# TYPE {name} {metric.kind}")
                for sample_name, labels, value in metric._samples():
                    if labels:
                        rendered = ",".join(
                            f'{key}="{_escape_label_value(str(val))}"'
                            for key, val in labels.items()
                        )
                        lines.append(f"{sample_name}{{{rendered}}} {_format_value(value)}")
                    else:
                        lines.append(f"{sample_name} {_format_value(value)}")
        return "\n".join(lines) + "\n"


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


#: The process-wide registry every instrumented layer records into.
REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry (one object for the whole process)."""
    return REGISTRY


def render_prometheus(registry: MetricsRegistry | None = None) -> str:
    """Prometheus text for ``registry`` (default: the process-wide one)."""
    return (registry or REGISTRY).render_prometheus()


# -- structured event log ---------------------------------------------------------

_LOG_LEVELS = {"off": 0, "error": 1, "info": 2, "debug": 3}


class EventLog:
    """JSON-lines event sink, off by default.

    Each event is one line — ``{"ts": ..., "event": ..., **fields}`` — on the
    configured stream (stderr by default), so a server's telemetry can be
    shipped with any log collector without a parser.  The level gate is a
    plain integer comparison, so a disabled log costs one attribute read per
    call site.
    """

    def __init__(self, level: str | None = None, stream: Any = None) -> None:
        if level is None:
            level = os.environ.get(LOG_ENV_VAR, "").strip().lower() or "off"
        self.configure(level=level, stream=stream)
        self._lock = threading.Lock()

    def configure(self, level: str | None = None, stream: Any = None) -> None:
        """Change the level and/or output stream at runtime."""
        if level is not None:
            if level not in _LOG_LEVELS:
                raise ValueError(
                    f"unknown log level {level!r}; one of {sorted(_LOG_LEVELS)}"
                )
            self.level = level
            self._threshold = _LOG_LEVELS[level]
        if stream is not None:
            self._stream = stream
        elif not hasattr(self, "_stream"):
            self._stream = None  # resolved to sys.stderr at emit time

    def enabled(self, level: str = "info") -> bool:
        return self._threshold >= _LOG_LEVELS.get(level, _LOG_LEVELS["info"])

    def emit(self, event: str, level: str = "info", **fields: Any) -> None:
        """Write one structured event if the log is enabled for ``level``."""
        if not self.enabled(level):
            return
        # repro: allow[REP002] log-record timestamp is display-only wall time
        record = {"ts": round(time.time(), 6), "level": level, "event": event}
        for key, value in fields.items():
            if isinstance(value, float):
                value = round(value, 9)
            record[key] = value
        line = json.dumps(record, default=str)
        stream = self._stream if self._stream is not None else sys.stderr
        with self._lock:
            try:
                stream.write(line + "\n")
                stream.flush()
            except (ValueError, OSError):  # closed stream: telemetry never raises
                pass


#: The process-wide event log (level from ``REPRO_LOG``, off by default).
_EVENT_LOG = EventLog()


def event_log() -> EventLog:
    """The process-wide structured event log."""
    return _EVENT_LOG


def configure_event_log(level: str | None = None, stream: Any = None) -> EventLog:
    """Reconfigure the process-wide event log (``repro serve --log-level``)."""
    _EVENT_LOG.configure(level=level, stream=stream)
    return _EVENT_LOG


# -- trace spans ------------------------------------------------------------------


class Span:
    """One timed region: a name, monotonic start/end, attributes, children."""

    __slots__ = ("name", "attrs", "start", "end", "parent", "children")

    def __init__(
        self, name: str, attrs: dict[str, Any] | None = None, parent: "Span | None" = None
    ) -> None:
        self.name = name
        self.attrs = attrs or {}
        self.start = time.monotonic()
        self.end: float | None = None
        self.parent = parent
        self.children: list[Span] = []
        if parent is not None:
            parent.children.append(self)

    @property
    def duration(self) -> float | None:
        """Seconds between start and finish; None while the span is open."""
        if self.end is None:
            return None
        return self.end - self.start

    def finish(self) -> "Span":
        if self.end is None:
            self.end = time.monotonic()
        return self

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Span({self.name!r}, duration={self.duration})"


_SPAN_STACK = threading.local()


def current_span() -> Span | None:
    """The innermost open span on this thread, if any."""
    return getattr(_SPAN_STACK, "span", None)


@contextmanager
def span(
    name: str,
    histogram: Histogram | None = None,
    log_level: str = "debug",
    **attrs: Any,
) -> Iterator[Span]:
    """Time a code region as a span, nested under the thread's current span.

    On exit the span's duration is observed into ``histogram`` (when given)
    and emitted to the event log at ``log_level`` with the span's attributes.
    """
    parent = current_span()
    active = Span(name, attrs=dict(attrs), parent=parent)
    _SPAN_STACK.span = active
    try:
        yield active
    finally:
        active.finish()
        _SPAN_STACK.span = parent
        if histogram is not None:
            histogram.observe(active.duration or 0.0)
        _EVENT_LOG.emit(
            "span", level=log_level, name=name, duration_s=active.duration, **active.attrs
        )


class Trace:
    """Phase recorder that follows one unit of work *across threads*.

    Unlike :func:`span` (thread-local nesting), a Trace is owned by the thing
    being traced — a job — and every layer that touches it marks a phase:
    ``submitted`` → ``coalesced``/``attached`` → ``dispatched`` → ``kernel``
    → ``finished``.  Marks are (phase, monotonic time, fields) tuples;
    :meth:`elapsed` gives the distance between two phases.
    """

    __slots__ = ("trace_id", "marks", "_lock")

    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self.marks: list[tuple[str, float, dict[str, Any]]] = []
        self._lock = threading.Lock()

    def mark(self, phase: str, **fields: Any) -> float:
        """Record a lifecycle phase now; returns the monotonic timestamp."""
        now = time.monotonic()
        with self._lock:
            self.marks.append((phase, now, fields))
        _EVENT_LOG.emit(f"job.{phase}", level="debug", trace_id=self.trace_id, **fields)
        return now

    def when(self, phase: str) -> float | None:
        """Monotonic timestamp of the first mark of ``phase``, if any."""
        with self._lock:
            for name, ts, _ in self.marks:
                if name == phase:
                    return ts
        return None

    def elapsed(self, start_phase: str, end_phase: str) -> float | None:
        """Seconds between two phases; None unless both were marked."""
        start, end = self.when(start_phase), self.when(end_phase)
        if start is None or end is None:
            return None
        return end - start

    def phases(self) -> list[str]:
        with self._lock:
            return [name for name, _, _ in self.marks]
