"""Columnar simulation results: the whole batch as arrays, objects on demand.

Profiling after the cross-config kernel landed showed the vectorized
backend's remaining hot path was not NumPy math but per-entry Python report
*assembly*: constructing a ``LayerExecutionResult`` / ``StepResult`` /
``SimulationReport`` object graph row by row, then paying the same object
tax again on every cache hit, artifact read and wire decode.  This module
applies the throughput-first discipline of high-rate acquisition pipelines
— keep data columnar until a human asks for a record — to simulation
reports:

:class:`ColumnarReportBatch`
    One ``(config x trace x step x layer)`` result grid held as a handful
    of contiguous NumPy arrays (per-layer cycles/MACs/channel counts, the 7
    :class:`~repro.accelerator.energy.EnergyBreakdown` components, per-step
    and per-trace totals, detector activity) plus offset tables.  The
    vectorized kernel produces it directly, with **zero** per-entry Python
    object construction; the reference backend packs its eager reports into
    one with :meth:`ColumnarReportBatch.from_reports`.

Lazy materialization
    :meth:`ColumnarReportBatch.report` builds one real
    :class:`~repro.accelerator.simulator.SimulationReport` on demand —
    bitwise identical to the eagerly assembled report, because both read
    the very same float64 cells (the per-step/per-trace totals are stored
    exactly as ``_segment_sums`` produced them, preserving the reference
    loop's sequential association).  It is built in two stages: the
    header (config name, totals, clock, detector activity) when the report
    is materialized, and its steps and layers from the batch's columns the
    first time ``step_results`` is read, so a reader of totals alone never
    pays for them.  Materialized reports are memoized on the batch, so the
    object tax is paid at most once per (config, trace) no matter how many
    cache hits or sweep indexings follow.

Sweep-level queries
    :attr:`total_cycles` / :attr:`total_energy_pj` /
    :attr:`mac_skip_fraction` answer "which design point wins?" questions
    straight from the arrays, materializing nothing.

Batches round-trip the wire as a single ``columnar_report_batch@1``
envelope (arrays as ``$ndarray`` sidecars — see :mod:`repro.core.schemas`)
instead of thousands of nested JSON objects.
"""

from __future__ import annotations

import threading
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from .telemetry import get_registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..accelerator.simulator import SimulationReport, StepResult

#: The 7 EnergyBreakdown components, in the dataclass's positional order —
#: column order of every ``*_totals`` / ``layer_energy`` array below.
ENERGY_COMPONENTS = (
    "mac_pj",
    "local_buffer_pj",
    "global_buffer_pj",
    "dram_pj",
    "noc_pj",
    "detector_pj",
    "idle_pj",
)

#: Columns of ``step_totals`` / ``trace_totals``: cycles, then the 7 energies.
TOTALS_WIDTH = 1 + len(ENERGY_COMPONENTS)

# How many report headers were materialized from columnar batches (a
# report's steps and layers are built later, on first read).  Sweeps that
# only read array aggregates keep this flat.
_MATERIALIZED = get_registry().counter(
    "repro_reports_materialized_total",
    "SimulationReport headers lazily materialized from columnar result batches.",
)


# Result classes resolved once on first materialization (import here would
# be circular: the accelerator modules import this one).
_RESULT_TYPES: tuple | None = None


def _result_types() -> tuple:
    global _RESULT_TYPES
    if _RESULT_TYPES is None:
        from ..accelerator.backends.base import DetectorStats
        from ..accelerator.controller import LayerExecutionResult
        from ..accelerator.energy import EnergyBreakdown
        from ..accelerator.simulator import SimulationReport, StepResult

        _RESULT_TYPES = (
            DetectorStats,
            LayerExecutionResult,
            EnergyBreakdown,
            SimulationReport,
            StepResult,
        )
    return _RESULT_TYPES


def _as_1d(array: np.ndarray, dtype: type, name: str, length: int) -> np.ndarray:
    array = np.asarray(array, dtype=dtype)
    if array.ndim != 1 or array.shape[0] != length:
        raise ValueError(f"{name} must have shape ({length},), got {array.shape}")
    return array


def _build_steps(columns: tuple, flat: int) -> "list[StepResult]":
    """The step and layer results of flat trace ``flat``, from its batch's columns.

    ``columns`` is the tuple :meth:`ColumnarReportBatch._build_headers`
    packs.  Bulk-converts the trace's slice to Python scalars once, then
    builds positionally: the same construction, and so the same bit
    patterns, as the eager assembly loop this module replaced.  Layer row
    layout: cycles, total/executed MACs, dense/sparse channel counts,
    dense/sparse cycles, then the 7 EnergyBreakdown components.
    """
    _, LayerExecutionResult, EnergyBreakdown, _, StepResult = _result_types()
    (
        layer_names,
        layer_cycles,
        total_macs,
        executed_macs,
        dense_channels,
        sparse_channels,
        dense_cycles,
        sparse_cycles,
        layer_energy,
        step_totals,
        trace_step_starts,
        step_entry_starts,
    ) = columns
    s0, s1 = int(trace_step_starts[flat]), int(trace_step_starts[flat + 1])
    e0, e1 = int(step_entry_starts[s0]), int(step_entry_starts[s1])
    per_layer = zip(
        layer_cycles[e0:e1].tolist(),
        total_macs[e0:e1].tolist(),
        executed_macs[e0:e1].tolist(),
        dense_channels[e0:e1].tolist(),
        sparse_channels[e0:e1].tolist(),
        dense_cycles[e0:e1].tolist(),
        sparse_cycles[e0:e1].tolist(),
        *layer_energy[e0:e1].T.tolist(),
    )
    layer_results = [
        LayerExecutionResult(
            name, row[0], EnergyBreakdown(*row[7:]), row[1], row[2],
            row[3], row[4], [], row[5], row[6],
        )
        for name, row in zip(layer_names[e0:e1], per_layer)
    ]
    starts = (step_entry_starts[s0 : s1 + 1] - e0).tolist()
    return [
        StepResult(
            time_step,
            row[0],
            EnergyBreakdown(*row[1:]),
            layer_results[starts[time_step] : starts[time_step + 1]],
        )
        for time_step, row in enumerate(step_totals[s0:s1].tolist())
    ]


#: Held only to publish a built step list (two assignments), never while
#: building one.
_PUBLISH_LOCK = threading.Lock()


class _LazySteps(Sequence):
    """A materialized report's ``step_results``, built on first read.

    It stands in for the list :func:`_build_steps` returns and behaves as
    that list: length, indexing and slicing, iteration, truth, ``==``
    against a list in either direction, ``repr``, and copying and pickling
    (both give the plain list).  It holds its batch's columns, not the
    batch, and drops them once built.  Threads that read it for the first
    time together may each build the list, but all of them get the one
    published first.
    """

    __slots__ = ("_columns", "_flat", "_steps")

    def __init__(self, columns: tuple, flat: int) -> None:
        self._columns: tuple | None = columns
        self._flat = flat
        self._steps: "list[StepResult] | None" = None

    def _list(self) -> "list[StepResult]":
        if self._steps is None:
            columns = self._columns
            # None only when another thread published between the two reads.
            built = None if columns is None else _build_steps(columns, self._flat)
            with _PUBLISH_LOCK:
                if self._steps is None:
                    self._steps, self._columns = built, None
        return self._steps

    def __len__(self) -> int:
        return len(self._list())

    def __getitem__(self, index: Any) -> Any:
        return self._list()[index]

    def __iter__(self) -> Iterator["StepResult"]:
        return iter(self._list())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _LazySteps):
            other = other._list()
        return self._list() == other if isinstance(other, list) else NotImplemented

    def __repr__(self) -> str:
        return repr(self._list())

    def __reduce__(self) -> tuple:
        return (list, (self._list(),))


@dataclass(eq=False, slots=True)
class ColumnarReportBatch:
    """A ``(config x trace x step x layer)`` result grid in columnar form.

    Shapes (``C`` configs, ``T`` traces, ``S`` steps, ``E`` layer entries,
    all flattened config-major then trace-major, exactly the vectorized
    kernel's entry order):

    * ``config_names`` (len C), ``clock_ghz`` (C,), ``traces_per_config`` (C,)
    * ``trace_steps`` (T,) — steps per trace; ``step_sizes`` (S,) — layers
      per step (the offset tables; starts are their exclusive cumsums)
    * per-layer columns, all (E,): ``layer_names`` (list), ``layer_cycles``,
      ``total_macs``, ``executed_macs``, ``dense_channels``,
      ``sparse_channels``, ``dense_cycles``, ``sparse_cycles`` and
      ``layer_energy`` (E, 7)
    * ``step_totals`` (S, 8) and ``trace_totals`` (T, 8): cycles plus the 7
      energy components, stored exactly as ``_segment_sums`` produced them
      so materialized totals keep the reference loop's float association
    * ``detector_updates`` / ``detector_channels`` (T,): per-(config, trace)
      temporal-sparsity-detector activity
    """

    config_names: list[str]
    clock_ghz: np.ndarray
    traces_per_config: np.ndarray
    trace_steps: np.ndarray
    step_sizes: np.ndarray
    layer_names: list[str]
    layer_cycles: np.ndarray
    layer_energy: np.ndarray
    total_macs: np.ndarray
    executed_macs: np.ndarray
    dense_channels: np.ndarray
    sparse_channels: np.ndarray
    dense_cycles: np.ndarray
    sparse_cycles: np.ndarray
    step_totals: np.ndarray
    trace_totals: np.ndarray
    detector_updates: np.ndarray
    detector_channels: np.ndarray

    #: Materialization memo (flat trace index -> report) and lazily built
    #: offset tables.  Never encoded; shared batches hand out one report
    #: object per (config, trace), mirroring the report cache's read-only
    #: sharing contract.
    _reports: dict = field(default_factory=dict, init=False, repr=False)
    _offsets: "tuple[np.ndarray, np.ndarray, np.ndarray] | None" = field(
        default=None, init=False, repr=False
    )

    def __post_init__(self) -> None:
        if not all(isinstance(name, str) for name in self.config_names):
            raise ValueError("config_names must be strings")
        num_configs = len(self.config_names)
        self.clock_ghz = _as_1d(self.clock_ghz, np.float64, "clock_ghz", num_configs)
        self.traces_per_config = _as_1d(
            self.traces_per_config, np.int64, "traces_per_config", num_configs
        )
        num_traces = int(self.traces_per_config.sum())
        self.trace_steps = _as_1d(self.trace_steps, np.int64, "trace_steps", num_traces)
        num_steps = int(self.trace_steps.sum())
        self.step_sizes = _as_1d(self.step_sizes, np.int64, "step_sizes", num_steps)
        num_entries = int(self.step_sizes.sum())
        if len(self.layer_names) != num_entries or not all(
            isinstance(name, str) for name in self.layer_names
        ):
            raise ValueError(f"layer_names must be {num_entries} strings")
        for name, dtype in (
            ("layer_cycles", np.float64),
            ("total_macs", np.float64),
            ("executed_macs", np.float64),
            ("dense_channels", np.int64),
            ("sparse_channels", np.int64),
            ("dense_cycles", np.float64),
            ("sparse_cycles", np.float64),
        ):
            setattr(self, name, _as_1d(getattr(self, name), dtype, name, num_entries))
        for name, rows, width in (
            ("layer_energy", num_entries, len(ENERGY_COMPONENTS)),
            ("step_totals", num_steps, TOTALS_WIDTH),
            ("trace_totals", num_traces, TOTALS_WIDTH),
        ):
            array = np.asarray(getattr(self, name), dtype=np.float64)
            if array.shape != (rows, width):
                raise ValueError(f"{name} must have shape ({rows}, {width}), got {array.shape}")
            setattr(self, name, array)
        self.detector_updates = _as_1d(
            self.detector_updates, np.int64, "detector_updates", num_traces
        )
        self.detector_channels = _as_1d(
            self.detector_channels, np.int64, "detector_channels", num_traces
        )

    @classmethod
    def from_reports(
        cls, entries: "list[tuple[Any, list[SimulationReport]]]"
    ) -> "ColumnarReportBatch":
        """Pack eager reports into a batch, one ``(config, reports)`` pair per config.

        ``config`` needs only ``name`` and ``clock_ghz``.  Every cell is the
        report's own value converted to float64 (or int64), so the batch
        materializes the same numbers back; only per-PE ``pe_results`` are
        dropped.  Reports must carry ``detector_stats``.
        """
        reports = [report for _, config_reports in entries for report in config_reports]
        steps = [step for report in reports for step in report.step_results]
        layers = [layer for step in steps for layer in step.layer_results]

        def energies(breakdown: Any) -> list[float]:
            return [getattr(breakdown, component) for component in ENERGY_COMPONENTS]

        def rows(values: list, width: int) -> np.ndarray:
            return np.array(values, dtype=np.float64).reshape(-1, width)

        return cls(
            config_names=[config.name for config, _ in entries],
            clock_ghz=[config.clock_ghz for config, _ in entries],
            traces_per_config=[len(config_reports) for _, config_reports in entries],
            trace_steps=[len(report.step_results) for report in reports],
            step_sizes=[len(step.layer_results) for step in steps],
            layer_names=[layer.layer_name for layer in layers],
            layer_cycles=[layer.cycles for layer in layers],
            layer_energy=rows([energies(layer.energy) for layer in layers], len(ENERGY_COMPONENTS)),
            total_macs=[layer.total_macs for layer in layers],
            executed_macs=[layer.executed_macs for layer in layers],
            dense_channels=[layer.dense_channels for layer in layers],
            sparse_channels=[layer.sparse_channels for layer in layers],
            dense_cycles=[layer.dense_cycles for layer in layers],
            sparse_cycles=[layer.sparse_cycles for layer in layers],
            step_totals=rows(
                [[step.cycles, *energies(step.energy)] for step in steps], TOTALS_WIDTH
            ),
            trace_totals=rows(
                [[report.total_cycles, *energies(report.total_energy)] for report in reports],
                TOTALS_WIDTH,
            ),
            detector_updates=[report.detector_stats.updates_performed for report in reports],
            detector_channels=[report.detector_stats.channels_evaluated for report in reports],
        )

    # -- shape -----------------------------------------------------------------

    @property
    def num_configs(self) -> int:
        return len(self.config_names)

    @property
    def num_traces(self) -> int:
        """Total (config, trace) pairs — one report each."""
        return len(self.trace_steps)

    @property
    def num_steps(self) -> int:
        return len(self.step_sizes)

    @property
    def num_entries(self) -> int:
        """Flattened (config, trace, step, layer) rows."""
        return len(self.layer_names)

    @property
    def nbytes(self) -> int:
        """Bytes held by the batch's arrays (the layer names not counted)."""
        return sum(getattr(self, name).nbytes for name in ARRAY_FIELDS)

    def offsets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(config->trace, trace->step, step->entry) exclusive-cumsum starts.

        Each array has one trailing end sentinel, so segment ``i`` spans
        ``[starts[i], starts[i + 1])``.  Built once, on first use.
        """
        if self._offsets is None:
            zero = np.zeros(1, dtype=np.int64)
            self._offsets = (
                np.concatenate([zero, np.cumsum(self.traces_per_config)]),
                np.concatenate([zero, np.cumsum(self.trace_steps)]),
                np.concatenate([zero, np.cumsum(self.step_sizes)]),
            )
        return self._offsets

    def _config_of(self, flat: int) -> int:
        config_starts = self.offsets()[0]
        return int(np.searchsorted(config_starts, flat, side="right")) - 1

    def trace_index(self, config: int, trace: int) -> int:
        """Flat trace index of (config, trace-within-config), range-checked."""
        if not 0 <= config < self.num_configs:
            raise IndexError(f"config index {config} out of range [0, {self.num_configs})")
        if not 0 <= trace < int(self.traces_per_config[config]):
            raise IndexError(
                f"trace index {trace} out of range [0, "
                f"{int(self.traces_per_config[config])}) for config {config}"
            )
        return int(self.offsets()[0][config]) + trace

    # -- sweep-level aggregates (no materialization) ---------------------------

    @property
    def total_cycles(self) -> np.ndarray:
        """Per-(config, trace) total cycles, shape (num_traces,)."""
        return self.trace_totals[:, 0]

    @property
    def total_energy_pj(self) -> np.ndarray:
        """Per-(config, trace) total energy in pJ, shape (num_traces,)."""
        return self.trace_totals[:, 1:].sum(axis=1)

    def _per_trace_entry_sums(self, column: np.ndarray) -> np.ndarray:
        """Per-trace sums of one per-layer column (float64 running order)."""
        _, trace_step_starts, step_entry_starts = self.offsets()
        entry_bounds = step_entry_starts[trace_step_starts]
        prefix = np.concatenate([[0.0], np.cumsum(column, dtype=np.float64)])
        return prefix[entry_bounds[1:]] - prefix[entry_bounds[:-1]]

    @property
    def trace_total_macs(self) -> np.ndarray:
        return self._per_trace_entry_sums(self.total_macs)

    @property
    def trace_executed_macs(self) -> np.ndarray:
        return self._per_trace_entry_sums(self.executed_macs)

    @property
    def mac_skip_fraction(self) -> np.ndarray:
        """Per-(config, trace) skipped-MAC fraction (0.0 where no MACs ran)."""
        totals = self.trace_total_macs
        executed = self.trace_executed_macs
        return np.divide(
            totals - executed, totals, out=np.zeros_like(totals), where=totals > 0
        )

    # -- lazy materialization --------------------------------------------------

    def report(self, config: int, trace: int) -> "SimulationReport":
        """The report of one (config, trace) pair, built on demand.

        Bitwise identical to the eagerly assembled report: every scalar is
        converted from the same float64 cell the eager loop read, and the
        step/trace totals were stored exactly as ``_segment_sums`` summed
        them.  The constructed object is memoized, so repeated indexing
        (cache hits, sweep views) costs one dict lookup.
        """
        return self.report_at(self.trace_index(config, trace))

    def report_at(self, flat: int) -> "SimulationReport":
        """Like :meth:`report`, addressed by flat trace index.

        Only the report's header is built here: config name, totals, clock
        and detector activity.  Its ``step_results`` stay columnar until
        first read (see :func:`_build_steps`).
        """
        if not 0 <= flat < self.num_traces:
            raise IndexError(f"flat trace index {flat} out of range [0, {self.num_traces})")
        report = self._reports.get(flat)
        if report is None:
            self._build_headers([flat])
            report = self._reports[flat]
        return report

    def report_lists(self) -> "list[list[SimulationReport]]":
        """Every report, grouped per config (kernel-entry order).

        Builds the headers of the reports not yet memoized in one bulk pass;
        steps and layers stay columnar until a report's ``step_results`` is
        read.
        """
        config_starts = self.offsets()[0].tolist()
        reports = self._reports
        if len(reports) < self.num_traces:
            self._build_headers([flat for flat in range(self.num_traces) if flat not in reports])
        return [
            [reports[flat] for flat in range(config_starts[c], config_starts[c + 1])]
            for c in range(self.num_configs)
        ]

    def _build_headers(self, flats: list[int]) -> None:
        """Memoize a report header for each flat trace index in ``flats``.

        Each needed row crosses the NumPy/Python boundary once for all of
        ``flats``.  ``setdefault`` keeps the first header a racing thread
        published, so every caller shares one report object.
        """
        DetectorStats, _, EnergyBreakdown, SimulationReport, _ = _result_types()
        config_starts, trace_step_starts, step_entry_starts = self.offsets()
        # The steps hold the batch's columns, never the batch: the batch
        # memoizes its reports, and a report that held the batch would make
        # a cycle only the garbage collector could free.
        columns = (
            self.layer_names,
            self.layer_cycles,
            self.total_macs,
            self.executed_macs,
            self.dense_channels,
            self.sparse_channels,
            self.dense_cycles,
            self.sparse_cycles,
            self.layer_energy,
            self.step_totals,
            trace_step_starts,
            step_entry_starts,
        )
        configs = (np.searchsorted(config_starts, flats, side="right") - 1).tolist()
        clocks = self.clock_ghz.tolist()
        for flat, config, totals, updates, channels in zip(
            flats,
            configs,
            self.trace_totals[flats].tolist(),
            self.detector_updates[flats].tolist(),
            self.detector_channels[flats].tolist(),
        ):
            self._reports.setdefault(
                flat,
                SimulationReport(
                    config_name=self.config_names[config],
                    total_cycles=totals[0],
                    total_energy=EnergyBreakdown(*totals[1:]),
                    step_results=_LazySteps(columns, flat),
                    clock_ghz=clocks[config],
                    detector_stats=DetectorStats(updates, channels),
                ),
            )
        _MATERIALIZED.inc(len(flats))

    # -- slicing ---------------------------------------------------------------

    def slice_trace(self, flat: int) -> "ColumnarReportBatch":
        """A standalone single-(config, trace) batch (arrays copied).

        This is how per-key cache entries and per-request wire payloads are
        carved out of a fused sweep batch without materializing anything:
        pure array slicing, values bit-identical to the parent's.
        """
        if not 0 <= flat < self.num_traces:
            raise IndexError(f"flat trace index {flat} out of range [0, {self.num_traces})")
        config = self._config_of(flat)
        _, trace_step_starts, step_entry_starts = self.offsets()
        s0, s1 = int(trace_step_starts[flat]), int(trace_step_starts[flat + 1])
        e0, e1 = int(step_entry_starts[s0]), int(step_entry_starts[s1])
        return ColumnarReportBatch(
            config_names=[self.config_names[config]],
            clock_ghz=self.clock_ghz[config : config + 1].copy(),
            traces_per_config=np.ones(1, dtype=np.int64),
            trace_steps=self.trace_steps[flat : flat + 1].copy(),
            step_sizes=self.step_sizes[s0:s1].copy(),
            layer_names=self.layer_names[e0:e1],
            layer_cycles=self.layer_cycles[e0:e1].copy(),
            layer_energy=self.layer_energy[e0:e1].copy(),
            total_macs=self.total_macs[e0:e1].copy(),
            executed_macs=self.executed_macs[e0:e1].copy(),
            dense_channels=self.dense_channels[e0:e1].copy(),
            sparse_channels=self.sparse_channels[e0:e1].copy(),
            dense_cycles=self.dense_cycles[e0:e1].copy(),
            sparse_cycles=self.sparse_cycles[e0:e1].copy(),
            step_totals=self.step_totals[s0:s1].copy(),
            trace_totals=self.trace_totals[flat : flat + 1].copy(),
            detector_updates=self.detector_updates[flat : flat + 1].copy(),
            detector_channels=self.detector_channels[flat : flat + 1].copy(),
        )

    def slices(self) -> "list[ColumnarReportBatch]":
        """One standalone single-trace batch per (config, trace) pair."""
        return [self.slice_trace(flat) for flat in range(self.num_traces)]

    @classmethod
    def concat(cls, batches: "list[ColumnarReportBatch]") -> "ColumnarReportBatch":
        """The batches end to end, configs in order (arrays copied).

        Every cell keeps its bits, so slicing a trace back out of the result
        (:meth:`slice_trace`) equals slicing it out of the batch it came from.
        """
        return cls(
            config_names=[name for batch in batches for name in batch.config_names],
            layer_names=[name for batch in batches for name in batch.layer_names],
            **{
                name: np.concatenate([getattr(batch, name) for batch in batches])
                for name in ARRAY_FIELDS
            },
        )

    # -- equality (tests, cache round-trips) -----------------------------------

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, ColumnarReportBatch):
            return NotImplemented
        if self.config_names != other.config_names or self.layer_names != other.layer_names:
            return False
        return all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ARRAY_FIELDS
        )

    __hash__ = None  # type: ignore[assignment] - mutable arrays


#: Array-valued fields of the batch, in declaration (and wire) order.
ARRAY_FIELDS = (
    "clock_ghz",
    "traces_per_config",
    "trace_steps",
    "step_sizes",
    "layer_cycles",
    "layer_energy",
    "total_macs",
    "executed_macs",
    "dense_channels",
    "sparse_channels",
    "dense_cycles",
    "sparse_cycles",
    "step_totals",
    "trace_totals",
    "detector_updates",
    "detector_channels",
)


def ensure_report(result: Any) -> Any:
    """Materialize a single-trace columnar batch; pass reports through.

    The one seam where a cache entry becomes a report object (a simulate
    job's result is one); the batch's memo guarantees the construction
    happens at most once per (config, trace).
    """
    if isinstance(result, ColumnarReportBatch):
        if result.num_traces != 1:
            raise ValueError(
                f"expected a single-trace batch, got {result.num_traces} traces; "
                "slice it first (ColumnarReportBatch.slice_trace)"
            )
        return result.report_at(0)
    return result
