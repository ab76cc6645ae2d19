"""Declarative, typed job specifications for the evaluation service.

Before the typed wire schema, remote jobs crossed the HTTP boundary as
base64-encoded pickles — including *callables*, which meant the server
executed whatever bytes a client sent and both ends had to run the same
codebase.  This module replaces that with declarative specs: a client
states *what* to evaluate, the server resolves *how* entirely on its side.

Four spec types cover the service surface:

:class:`SimulateJobSpec`
    One workload trace on one accelerator configuration — also the
    scheduler's simulation request: every simulate and sweep job is planned
    into these (:meth:`SimulateJobSpec.plan`, :meth:`SweepJobSpec.plan`),
    and fleet tasks carry them to workers.
:class:`QualityJobSpec`
    One Table I/II quantization scheme FID-evaluated on one workload,
    resolved server-side to :func:`repro.serve.workers.evaluate_quality` on
    the process pool.
:class:`SweepJobSpec`
    **Server-side sweep planning**: one Cartesian grid over
    :class:`~repro.accelerator.config.AcceleratorConfig` fields plus one
    trace.  The server expands the grid (:meth:`SweepJobSpec.plan`), routes
    every case through the single-flight coalescing scheduler, and answers
    with a :class:`SweepJobResult` — so N clients submitting the same grid
    cost one simulation per unique design point, and clients no longer
    pre-plan N jobs.
:class:`CallableJobSpec`
    A *named* function from the wire-function registry with plain-data
    arguments.  Only functions explicitly registered on the server
    (:func:`register_wire_function`) are callable — nothing arbitrary
    crosses the wire.

All specs (and :class:`SweepJobResult`) carry versioned wire schemas
registered with :mod:`repro.core.codec`, so they round-trip through plain
JSON and unknown names/versions are rejected before any work is queued.
On the wire, the trace of a simulate or sweep spec may be a
:class:`TraceRef` — the digest of a trace the server already holds — in
place of the trace itself.
"""

from __future__ import annotations

import dataclasses
import itertools
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from ..accelerator.backends import resolve_backend_name
from ..accelerator.config import AcceleratorConfig
from ..accelerator.energy import EnergyTable
from ..accelerator.simulator import SimulationReport, WorkloadTrace
from ..accelerator.workload import ConvLayerWorkload
from ..core import codec
from ..core.codec import Decoder, Encoder, register_schema
from ..core.columnar import ColumnarReportBatch, ensure_report
from ..core.report_cache import CacheKey, ReportCache
from ..core.schemas import WORKLOAD_TRACE_SCHEMA

#: AcceleratorConfig fields a sweep grid may vary (``name`` labels a config,
#: ``pe`` is a nested dataclass; neither is a sweepable scalar knob).
SWEEPABLE_CONFIG_FIELDS = frozenset(
    f.name for f in dataclasses.fields(AcceleratorConfig)
) - {"name", "pe"}


# -- wire-function registry --------------------------------------------------------

_WIRE_FUNCTIONS: dict[str, Callable[..., Any]] = {}
_WIRE_NAMES: dict[Callable[..., Any], str] = {}


def register_wire_function(name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    """Allow ``fn`` to be invoked by remote clients under ``name``.

    This is the server-side allowlist that replaces pickled callables: a
    :class:`CallableJobSpec` can only name functions registered here.
    Re-registering a name rebinds it (tests rely on that).
    """
    _WIRE_FUNCTIONS[name] = fn
    _WIRE_NAMES[fn] = name
    return fn


def resolve_wire_function(name: str) -> Callable[..., Any]:
    """The function registered under ``name``; raises with the known names."""
    try:
        return _WIRE_FUNCTIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown wire function {name!r}; this server registers "
            f"{sorted(_WIRE_FUNCTIONS)} (see repro.serve.specs.register_wire_function)"
        ) from None


def wire_function_name(fn: Callable[..., Any]) -> str | None:
    """The wire name ``fn`` is registered under, or None."""
    return _WIRE_NAMES.get(fn)


def require_wire_name(fn: Callable[..., Any] | str) -> str:
    """Resolve a callable (or name) to its wire-function name, or explain how.

    The one validation every remote submission path shares: remote jobs name
    server-side functions instead of shipping code, so anything not in the
    registry is rejected with the registration recipe.
    """
    if isinstance(fn, str):
        return fn
    name = wire_function_name(fn)
    if name is None:
        raise ValueError(
            f"{fn!r} is not a registered wire function: remote jobs name "
            "server-side functions instead of shipping code, so register it "
            "with repro.serve.specs.register_wire_function (on the server) "
            "or pass its registered name as a string"
        )
    return name


# -- trace helpers -----------------------------------------------------------------

#: How many decoded traces an HTTP server keeps for ``trace_ref`` submissions,
#: and how many accepted digests a client remembers (:class:`DigestLRU`).
MAX_STORED_TRACES = 64


class DigestLRU:
    """A thread-safe map keyed by trace digest, holding the
    :data:`MAX_STORED_TRACES` most recently used entries."""

    def __init__(self) -> None:
        self._entries: OrderedDict[str, Any] = OrderedDict()  #: guarded by _lock
        self._lock = threading.Lock()

    def get(self, digest: str) -> Any:
        """The entry under ``digest`` (now the most recent), or None."""
        with self._lock:
            value = self._entries.get(digest)
            if value is not None:
                self._entries.move_to_end(digest)
            return value

    def setdefault(self, digest: str, value: Any) -> Any:
        """The entry under ``digest``, storing ``value`` first if there is none."""
        with self._lock:
            stored = self._entries.setdefault(digest, value)
            self._entries.move_to_end(digest)
            if len(self._entries) > MAX_STORED_TRACES:
                self._entries.popitem(last=False)
            return stored

    def discard(self, digest: str) -> None:
        with self._lock:
            self._entries.pop(digest, None)


@dataclass(frozen=True)
class TraceRef:
    """A trace named by content: ``{"$schema": "trace_ref@1", "digest": "<hex>"}``.

    ``digest`` is the report cache's trace fingerprint
    (:func:`~repro.core.report_cache.fingerprint_trace`) of a trace the
    server has already decoded from an inline submission; the server's
    ``201`` names it as ``trace_digest``.  Wire-only: the HTTP front end
    swaps it for the stored trace before the service sees the spec, and
    answers 404 for a digest it does not hold.
    """

    digest: str

    def __post_init__(self) -> None:
        if not isinstance(self.digest, str) or not self.digest:
            raise ValueError(f"a trace digest is a non-empty string, got {self.digest!r}")


def _encode_trace_field(trace: "WorkloadTrace | TraceRef", ctx: Encoder) -> Any:
    if isinstance(trace, TraceRef):
        return ctx.encode(trace)
    return ctx.encode(trace, name=WORKLOAD_TRACE_SCHEMA)


def _decode_trace_field(value: Any, ctx: Decoder) -> "WorkloadTrace | TraceRef":
    """Accept a ``workload_trace`` or ``trace_ref`` envelope, or bare nested
    lists of workloads."""
    if isinstance(value, Mapping) and codec.SCHEMA_KEY in value:
        decoded = ctx.decode(value)
        if not isinstance(decoded, (list, TraceRef)):
            raise codec.SchemaError(
                "a trace must be a workload_trace or trace_ref envelope, "
                f"got {type(decoded).__name__}"
            )
        return decoded
    trace = ctx.value(value)
    if not isinstance(trace, list) or not all(isinstance(step, list) for step in trace):
        raise codec.SchemaError("a trace must be a list of per-step workload lists")
    for step in trace:
        for workload in step:
            if not isinstance(workload, ConvLayerWorkload):
                raise codec.SchemaError(
                    "trace steps must contain conv_layer_workload envelopes, "
                    f"got {type(workload).__name__}"
                )
    return trace


def _keyed(request: SimulateJobSpec) -> SimulateJobSpec:
    """``request`` with its cache key computed, so the scheduler only reads
    it; a trace that cannot be fingerprinted raises :class:`TypeError`."""
    try:
        request.key()
    except (AttributeError, TypeError, ValueError) as exc:
        raise TypeError(
            f"cannot fingerprint the trace ({type(exc).__name__}: {exc}); a trace "
            "is a list of steps, each a list of ConvLayerWorkload"
        ) from None
    return request


def _decode_optional(value: Any, ctx: Decoder, cls: type, what: str) -> Any:
    if value is None:
        return None
    decoded = ctx.value(value)
    if not isinstance(decoded, cls):
        raise codec.SchemaError(f"{what} must be a {cls.__name__} envelope or null")
    return decoded


# -- job specifications ------------------------------------------------------------


@dataclass(frozen=True)
class SimulateJobSpec:
    """One trace on one accelerator configuration: a job spec, and the
    request the scheduler simulates."""

    config: AcceleratorConfig
    trace: WorkloadTrace
    energy_table: EnergyTable | None = None
    backend: str | None = None
    #: Cache key, computed once on first use (fingerprinting a big trace is
    #: not free; the scheduler touches each request's key several times).
    _key: CacheKey | None = field(default=None, init=False, repr=False, compare=False)

    def default_label(self) -> str:
        return f"simulate:{self.config.name}"

    def key(self) -> CacheKey:
        key = self._key
        if key is None:
            key = ReportCache.key(self.config, self.trace, self.energy_table, self.backend)
            object.__setattr__(self, "_key", key)
        return key

    def plan(self) -> list[SimulateJobSpec]:
        """The simulate specs this job runs: itself, its cache key computed.

        Both checks run here, at submission, as for a sweep: an unknown
        backend name raises :class:`ValueError`, and a trace that cannot be
        fingerprinted (a step holding something that is not a
        :class:`~repro.accelerator.workload.ConvLayerWorkload`)
        :class:`TypeError`.
        """
        resolve_backend_name(self.backend)
        return [_keyed(self)]

    def result(self, reports: list[Any]) -> SimulationReport:
        """The job's value from its plan's one report."""
        return ensure_report(reports[0])


@dataclass(frozen=True)
class QualityJobSpec:
    """One quantization scheme FID-evaluated on one workload (process pool)."""

    workload: str
    scheme: str
    resolution: int | None = None
    pipeline_overrides: dict[str, Any] = field(default_factory=dict)
    artifact_dir: str | None = None

    def default_label(self) -> str:
        return f"quality:{self.scheme}"

    def worker_kwargs(self) -> dict[str, Any]:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class CallableJobSpec:
    """A named, server-registered function with plain-data arguments."""

    function: str
    args: tuple = ()
    kwargs: dict[str, Any] = field(default_factory=dict)
    #: ``"thread"`` for simulation-bound work (a ``callable`` job),
    #: ``"process"`` for GIL-bound sampling work (a ``sampling`` job).
    pool: str = "thread"

    def __post_init__(self) -> None:
        if self.pool not in ("thread", "process"):
            raise ValueError(f"pool must be 'thread' or 'process', got {self.pool!r}")
        object.__setattr__(self, "args", tuple(self.args))

    def default_label(self) -> str:
        return f"call:{self.function}"

    def resolve(self) -> Callable[..., Any]:
        return resolve_wire_function(self.function)


@dataclass(frozen=True)
class SweepJobSpec:
    """One Cartesian grid over accelerator knobs, planned server-side.

    ``grid`` maps :class:`AcceleratorConfig` field names to value lists; the
    cross product is enumerated in row-major order (last parameter fastest),
    matching :class:`repro.core.experiments.SweepSpec`.  ``baseline``, when
    given, is simulated on the same trace and returned alongside the cases
    (the dense-baseline comparison every sweep report needs).
    """

    base: AcceleratorConfig
    grid: dict[str, list[Any]]
    trace: WorkloadTrace
    baseline: AcceleratorConfig | None = None
    energy_table: EnergyTable | None = None
    backend: str | None = None
    name: str = "sweep"

    def __post_init__(self) -> None:
        if not self.grid:
            raise ValueError("sweep grid must name at least one parameter")
        unknown = set(self.grid) - SWEEPABLE_CONFIG_FIELDS
        if unknown:
            raise ValueError(
                f"unknown AcceleratorConfig field(s) {sorted(unknown)}; "
                f"sweepable fields: {sorted(SWEEPABLE_CONFIG_FIELDS)}"
            )
        for param, values in self.grid.items():
            if not isinstance(values, (list, tuple)) or len(values) == 0:
                raise ValueError(f"sweep parameter {param!r} needs a non-empty value list")

    def default_label(self) -> str:
        return f"sweep:{self.name}"

    @property
    def num_cases(self) -> int:
        size = 1
        for values in self.grid.values():
            size *= len(values)
        return size

    def cases(self) -> list[dict[str, Any]]:
        """All parameter assignments of the grid, in deterministic order."""
        names = list(self.grid)
        return [
            dict(zip(names, combo))
            for combo in itertools.product(*(self.grid[name] for name in names))
        ]

    def plan(self) -> list[SimulateJobSpec]:
        """Expand the grid into simulate specs (cases first, baseline last).

        Invalid parameter values surface here as :class:`ValueError` from the
        config's own validation, i.e. at submission time, before anything is
        queued — as does an unknown backend name.  Each spec's cache key is
        computed here too, so a trace that cannot be fingerprinted raises
        :class:`TypeError` before anything is queued, instead of failing
        the scheduler drain it would share with other jobs.
        """
        resolve_backend_name(self.backend)

        configs = [dataclasses.replace(self.base, **params) for params in self.cases()]
        if self.baseline is not None:
            configs.append(self.baseline)
        return [
            _keyed(
                SimulateJobSpec(
                    config=config,
                    trace=self.trace,
                    energy_table=self.energy_table,
                    backend=self.backend,
                )
            )
            for config in configs
        ]

    def result(self, reports: list[Any]) -> SweepJobResult:
        """The job's value from its plan's reports, in plan order."""
        return SweepJobResult(
            name=self.name,
            params=self.cases(),
            parts=reports,
            has_baseline=self.baseline is not None,
        )


class SweepJobResult:
    """A planned sweep's outcome: one report per case, then the baseline.

    Results stay columnar: ``parts`` is an ordered list of
    :class:`~repro.core.columnar.ColumnarReportBatch` whose traces, in
    order, are the cases in grid order and then the baseline (when
    ``has_baseline``).  On the server the parts are the one-trace slices the
    report cache holds, shared with it rather than copied; a result decoded
    from the wire holds the one batch it carried.  :attr:`reports` /
    :attr:`baseline` materialize every part's report headers in one pass
    on first access (then memoize); a report builds its steps and layers
    from the batch's columns only when its ``step_results`` is read.  So a
    consumer that reads totals (``repro sweep``) builds no step or layer,
    and one that only reads array aggregates or re-encodes the result for
    the wire builds no report at all.
    """

    __slots__ = ("name", "params", "parts", "has_baseline", "_reports", "_baseline")

    def __init__(
        self,
        name: str,
        params: list[dict[str, Any]],
        parts: list[ColumnarReportBatch],
        has_baseline: bool = False,
    ) -> None:
        self.name = name
        self.params = list(params)
        self.parts = list(parts)
        self.has_baseline = has_baseline
        traces = sum(part.num_traces for part in self.parts)
        if traces != len(self.params) + has_baseline:
            raise ValueError(
                f"{len(self.params)} case(s){' and a baseline' if has_baseline else ''} "
                f"need as many traces, the parts hold {traces}"
            )
        self._reports: list[SimulationReport] | None = None
        self._baseline: SimulationReport | None = None

    def _materialize(self) -> list[SimulationReport]:
        if self._reports is None:
            reports = [
                report
                for part in self.parts
                for config_reports in part.report_lists()
                for report in config_reports
            ]
            self._baseline = reports.pop() if self.has_baseline else None
            self._reports = reports
        return self._reports

    @property
    def reports(self) -> list[SimulationReport]:
        """Materialized per-case reports (headers built on first access, then
        cached; steps and layers on first read of ``step_results``)."""
        return self._materialize()

    @property
    def baseline(self) -> SimulationReport | None:
        """The materialized baseline report, if the sweep requested one."""
        self._materialize()
        return self._baseline

    def _one_trace_batches(self) -> list[ColumnarReportBatch]:
        return [
            one
            for part in self.parts
            for one in ([part] if part.num_traces == 1 else part.slices())
        ]

    def case_results(self) -> list[ColumnarReportBatch]:
        """Per-case results as one-trace batches, in grid order."""
        batches = self._one_trace_batches()
        return batches[:-1] if self.has_baseline else batches

    def baseline_result(self) -> ColumnarReportBatch | None:
        """The baseline as a one-trace batch, if the sweep requested one."""
        if not self.has_baseline:
            return None
        last = self.parts[-1]
        return last if last.num_traces == 1 else last.slice_trace(last.num_traces - 1)

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, SweepJobResult):
            return NotImplemented
        # Compare materialized values: one batch and the slices it was
        # concatenated from are the same result.
        return (
            self.name == other.name
            and self.params == other.params
            and self.reports == other.reports
            and self.baseline == other.baseline
        )

    def __repr__(self) -> str:
        return (
            f"SweepJobResult(name={self.name!r}, cases={len(self.params)}, "
            f"baseline={self.has_baseline})"
        )


# -- wire schemas ------------------------------------------------------------------


def _encode_simulate(spec: SimulateJobSpec, ctx: Encoder) -> dict:
    return {
        "config": ctx.encode(spec.config),
        "trace": _encode_trace_field(spec.trace, ctx),
        "energy_table": None if spec.energy_table is None else ctx.encode(spec.energy_table),
        "backend": spec.backend,
    }


def _decode_simulate(doc: Mapping[str, Any], ctx: Decoder) -> SimulateJobSpec:
    config = ctx.value(doc["config"])
    if not isinstance(config, AcceleratorConfig):
        raise codec.SchemaError("'config' must be an accelerator_config envelope")
    return SimulateJobSpec(
        config=config,
        trace=_decode_trace_field(doc["trace"], ctx),
        energy_table=_decode_optional(doc.get("energy_table"), ctx, EnergyTable, "'energy_table'"),
        backend=doc.get("backend"),
    )


register_schema("simulate_spec", 1, _encode_simulate, _decode_simulate, type=SimulateJobSpec)


def _encode_sweep(spec: SweepJobSpec, ctx: Encoder) -> dict:
    return {
        "base": ctx.encode(spec.base),
        "grid": {param: ctx.value(list(values)) for param, values in spec.grid.items()},
        "trace": _encode_trace_field(spec.trace, ctx),
        "baseline": None if spec.baseline is None else ctx.encode(spec.baseline),
        "energy_table": None if spec.energy_table is None else ctx.encode(spec.energy_table),
        "backend": spec.backend,
        "name": spec.name,
    }


def _decode_sweep(doc: Mapping[str, Any], ctx: Decoder) -> SweepJobSpec:
    base = ctx.value(doc["base"])
    if not isinstance(base, AcceleratorConfig):
        raise codec.SchemaError("'base' must be an accelerator_config envelope")
    grid = ctx.value(doc["grid"])
    if not isinstance(grid, dict):
        raise codec.SchemaError("'grid' must map config fields to value lists")
    return SweepJobSpec(
        base=base,
        grid=grid,
        trace=_decode_trace_field(doc["trace"], ctx),
        baseline=_decode_optional(doc.get("baseline"), ctx, AcceleratorConfig, "'baseline'"),
        energy_table=_decode_optional(doc.get("energy_table"), ctx, EnergyTable, "'energy_table'"),
        backend=doc.get("backend"),
        name=doc.get("name", "sweep"),
    )


register_schema("sweep_spec", 1, _encode_sweep, _decode_sweep, type=SweepJobSpec)

codec.register_dataclass(QualityJobSpec, "quality_spec")
codec.register_dataclass(CallableJobSpec, "callable_spec")
codec.register_dataclass(TraceRef, "trace_ref")


def _encode_sweep_result(result: SweepJobResult, ctx: Encoder) -> dict:
    # One columnar batch for the whole sweep, concatenated here rather than
    # when the job finishes: a retained result keeps sharing its one-trace
    # parts with the report cache.
    parts = result.parts
    batch = parts[0] if len(parts) == 1 else ColumnarReportBatch.concat(parts)
    return {
        "name": result.name,
        "params": ctx.value(result.params),
        "baseline": result.has_baseline,
        "batch": ctx.encode(batch),
    }


def _decode_sweep_result(doc: Mapping[str, Any], ctx: Decoder) -> SweepJobResult:
    batch = ctx.value(doc["batch"])
    if not isinstance(batch, ColumnarReportBatch):
        raise codec.SchemaError("sweep_result 'batch' must be a columnar_report_batch envelope")
    params = ctx.value(doc.get("params", []))
    if not isinstance(params, list):
        raise codec.SchemaError("sweep_result 'params' must be a list")
    has_baseline = doc.get("baseline", False)
    if not isinstance(has_baseline, bool):
        raise codec.SchemaError("sweep_result 'baseline' must be true or false")
    try:
        return SweepJobResult(
            name=ctx.value(doc.get("name")),
            params=params,
            parts=[batch],
            has_baseline=has_baseline,
        )
    except ValueError as exc:
        raise codec.SchemaError(f"inconsistent sweep_result: {exc}") from None


register_schema("sweep_result", 3, _encode_sweep_result, _decode_sweep_result, type=SweepJobResult)
