"""In-memory span tracer over the public functions of each layer.

:func:`install` replaces each wrapped function wherever the ``repro``
package holds it: the defining module, every module that imported it by
name, and the class for methods.  Callers inside a module (``conv2d``
calling ``im2col``) therefore go through the wrappers too.  Each call
records one span (name, thread, start, end, parent); spans stay in memory
until the run ends.  :func:`uninstall` restores the originals.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass(eq=False)
class Span:
    name: str
    thread: int
    start: float
    parent: "Span | None"
    end: float = 0.0
    extra: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _kernel_entries(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    entries = args[0] if args else kwargs["entries"]
    rows = sum(len(step) for _, traces in entries for trace in traces for step in trace)
    return {"entries": float(rows)}


_TERMINAL = ("done", "failed", "cancelled")


def _request_kind(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    # args = (client, method, path, ...): a poll is a GET of one job.
    method, path = args[1], args[2]
    if method != "GET" or not path.startswith("/jobs/"):
        return {}
    terminal = isinstance(result, dict) and result.get("status") in _TERMINAL
    return {"polls": 1.0, "terminal_polls": float(terminal)}


def _response_body_bytes(args: tuple, kwargs: dict, result: Any) -> float:
    # args = (handler, keyword, value) of BaseHTTPRequestHandler.send_header.
    return float(args[2]) if str(args[1]).lower() == "content-length" else 0.0


def _request_body_bytes(args: tuple, kwargs: dict, result: Any) -> float:
    return float(args[0].headers.get("Content-Length") or 0)


#: (counter name, module, attribute, amount): wrapped without a span; each
#: call adds ``amount(args, kwargs, result)`` to the counter.  The wire bytes
#: of codec payloads are the HTTP bodies' declared lengths, both ways.
COUNTERS: tuple[tuple[str, str, str, Callable], ...] = (
    ("codec.bytes", "repro.serve.http", "_EvaluationRequestHandler.send_header", _response_body_bytes),
    ("codec.bytes", "repro.serve.http", "_EvaluationRequestHandler._read_json", _request_body_bytes),
)


#: (span name, module, attribute, annotator).  An attribute ``Cls.method``
#: wraps a method on its class.
LAYER_FUNCTIONS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("nn.conv2d", "repro.nn.functional", "conv2d", None),
    ("nn.im2col", "repro.nn.functional", "im2col", None),
    ("nn.group_norm", "repro.nn.functional", "group_norm", None),
    ("nn.silu", "repro.nn.functional", "silu", None),
    ("nn.silu", "repro.nn.functional", "sigmoid", None),
    ("nn.relu", "repro.nn.functional", "relu", None),
    ("nn.attention", "repro.nn.functional", "scaled_dot_product_attention", None),
    ("quant.weight", "repro.quant.dispatch", "apply_weight_format", None),
    ("quant.act", "repro.quant.dispatch", "apply_activation_format", None),
    ("diffusion.denoise", "repro.diffusion.edm", "EDMDenoiser.denoise", None),
    ("diffusion.fid", "repro.diffusion.fid", "FIDEvaluator.fid", None),
    ("diffusion.adapt_relu", "repro.diffusion.finetune", "adapt_to_relu", None),
    ("sparsity.collect_trace", "repro.core.sparsity", "collect_sparsity_trace", None),
    ("sparsity.trace_to_workloads", "repro.core.sparsity", "trace_to_workloads", None),
    ("scheduler.run_batched", "repro.serve.scheduler", "run_batched", None),
    (
        "kernel",
        "repro.accelerator.backends.vectorized",
        "run_config_traces_columnar",
        _kernel_entries,
    ),
    ("columnar.materialize", "repro.core.columnar", "ColumnarReportBatch.report", None),
    ("columnar.materialize", "repro.core.columnar", "ColumnarReportBatch.report_at", None),
    ("columnar.materialize", "repro.core.columnar", "ColumnarReportBatch.report_lists", None),
    ("codec.encode", "repro.core.codec", "encode", None),
    ("codec.decode", "repro.core.codec", "decode", None),
    ("client.submit", "repro.serve.client", "RemoteEvaluationClient.submit_sweep", None),
    ("client.wait", "repro.serve.client", "RemoteJob.wait", None),
    ("client.request", "repro.serve.client", "RemoteEvaluationClient._request", _request_kind),
)


class Tracer:
    """Collects spans from every thread; parents come from a per-thread stack."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._counter_lock = threading.Lock()
        self._local = threading.local()
        self._restore: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, annotate: Callable | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            span = Span(name, threading.get_ident(), 0.0, stack[-1] if stack else None)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if annotate is not None:
                span.extra = annotate(args, kwargs, result)
            return result

        return traced

    def counting(self, name: str, fn: Callable, amount: Callable) -> Callable:
        @functools.wraps(fn)
        def counted(*args: Any, **kwargs: Any) -> Any:
            result = fn(*args, **kwargs)
            value = amount(args, kwargs, result)
            with self._counter_lock:
                self.counters[name] = self.counters.get(name, 0.0) + value
            return result

        return counted

    def install(self) -> None:
        """Wrap every function in :data:`LAYER_FUNCTIONS`, everywhere it is bound."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        # Import every module that could hold a reference before scanning.
        for module_name in ("repro.core.pipeline", "repro.serve.service", "repro.serve.http"):
            importlib.import_module(module_name)
        try:
            for name, module_name, attribute, annotate in LAYER_FUNCTIONS:
                module = importlib.import_module(module_name)
                if "." in attribute:
                    owner, method = _class_attribute(module, attribute)
                    self._set(owner, method, self.wrap(name, getattr(owner, method), annotate))
                    continue
                original = getattr(module, attribute)
                wrapper = self.wrap(name, original, annotate)
                for loaded in list(sys.modules.values()):
                    if getattr(loaded, "__name__", "").startswith("repro"):
                        for key, value in list(vars(loaded).items()):
                            if value is original:
                                self._set(loaded, key, wrapper)
            for name, module_name, attribute, amount in COUNTERS:
                owner, method = _class_attribute(importlib.import_module(module_name), attribute)
                self._set(owner, method, self.counting(name, getattr(owner, method), amount))
        except BaseException:
            self.uninstall()
            raise

    def _set(self, owner: Any, key: str, value: Any) -> None:
        # An inherited method is shadowed on ``owner`` and later deleted again.
        self._restore.append((owner, key, vars(owner).get(key, _INHERITED)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            if original is _INHERITED:
                delattr(owner, key)
            else:
                setattr(owner, key, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.uninstall()

    # -- aggregation -----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self time, inclusive time and summed extras.

        Self time is a span's duration minus its children's.  Inclusive time
        counts only the outermost span of a name, so nested same-name spans
        (``report`` calling ``report_at``) are not counted twice.
        """
        child_time: dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                key = id(span.parent)
                child_time[key] = child_time.get(key, 0.0) + span.duration
        out: dict[str, dict[str, float]] = {}
        for span in self.spans:
            entry = out.setdefault(span.name, {"calls": 0.0, "self_s": 0.0, "s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += span.duration - child_time.get(id(span), 0.0)
            if not _has_ancestor_named(span):
                entry["s"] += span.duration
            for key, value in span.extra.items():
                entry[key] = entry.get(key, 0.0) + value
        return out

    def covered_seconds(self, thread: int, start: float, end: float) -> float:
        """Time of ``thread`` inside [start, end] covered by its root spans."""
        return sum(
            max(0.0, min(span.end, end) - max(span.start, start))
            for span in self.spans
            if span.thread == thread and span.parent is None
        )

    def dump(self, path: Any) -> None:
        """Write every span as JSON: index, name, thread, start, end, parent index."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        rows = [
            {
                "id": i,
                "name": span.name,
                "thread": span.thread,
                "start": span.start,
                "end": span.end,
                "parent": index.get(id(span.parent)) if span.parent is not None else None,
                **span.extra,
            }
            for i, span in enumerate(self.spans)
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(rows, handle)


_INHERITED = object()


def _class_attribute(module: Any, attribute: str) -> tuple[type, str]:
    cls_name, method = attribute.split(".")
    return getattr(module, cls_name), method


def _has_ancestor_named(span: Span) -> bool:
    parent = span.parent
    while parent is not None:
        if parent.name == span.name:
            return True
        parent = parent.parent
    return False
