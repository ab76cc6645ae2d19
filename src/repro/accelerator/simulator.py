"""End-to-end accelerator simulation over layers, time steps and full sampling runs.

The simulator consumes *workload traces*: for every diffusion time step, the
list of convolution-layer workloads (geometry, precision, per-channel input
sparsity) the accelerator must execute.  It reports latency (cycles and
milliseconds), energy breakdowns and MAC-skipping statistics, and provides
the comparisons the paper's Fig. 12 reports:

* heterogeneous DPE+SPE vs the dense two-DPE baseline (speed-up and energy
  saving from temporal sparsity), and
* quantized vs FP16 execution (speed-up from 4-bit quantization), which
  compound into the headline 6.91x total speed-up.

:class:`AcceleratorSimulator` is a thin facade over pluggable simulation
engines (:mod:`repro.accelerator.backends`): the stateful per-layer
``reference`` backend and the batched-NumPy ``vectorized`` backend, which
produces equivalent reports roughly an order of magnitude faster and is the
default.  Every simulation goes through one entry point,
:meth:`AcceleratorSimulator.run`, which executes a ``(config x trace)`` grid
and returns a :class:`~repro.core.columnar.ColumnarReportBatch`.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .config import AcceleratorConfig, dense_baseline_config, sqdm_config
from .controller import AcceleratorController, LayerExecutionResult
from .energy import DEFAULT_ENERGY_TABLE, EnergyBreakdown, EnergyTable
from .workload import ConvLayerWorkload

from .backends.base import DetectorStats

if TYPE_CHECKING:  # pragma: no cover - the backends package imports us lazily
    from ..core.columnar import ColumnarReportBatch
    from .backends import SimulationBackend

#: A workload trace: one list of layer workloads per diffusion time step.
WorkloadTrace = list[list[ConvLayerWorkload]]


def safe_speedup(baseline_cycles: float, candidate_cycles: float) -> float:
    """``baseline / candidate`` with degenerate denominators made well-defined.

    Two zero-cycle runs (e.g. empty or zero-MAC traces) are *identical*, not
    infinitely fast, so ``0 / 0`` is defined as ``1.0``.  A zero-cycle
    candidate against real baseline work is genuinely unbounded and reported
    as ``inf`` — deterministically, rather than as a platform-dependent
    division artifact.
    """
    if candidate_cycles == 0.0:
        return 1.0 if baseline_cycles == 0.0 else math.inf
    return baseline_cycles / candidate_cycles


def relative_saving(baseline: float, candidate: float) -> float:
    """``1 - candidate / baseline`` with a zero baseline made well-defined.

    When both quantities are zero there is nothing to save: ``0.0``.  A
    nonzero candidate against a zero baseline is an unbounded regression and
    reported as ``-inf``.
    """
    if baseline == 0.0:
        return 0.0 if candidate == 0.0 else -math.inf
    return 1.0 - candidate / baseline


@dataclass(slots=True)
class StepResult:
    """Aggregate execution result of one diffusion time step."""

    time_step: int
    cycles: float
    energy: EnergyBreakdown
    layer_results: list[LayerExecutionResult] = field(default_factory=list)

    @property
    def total_macs(self) -> float:
        return sum(r.total_macs for r in self.layer_results)

    @property
    def executed_macs(self) -> float:
        return sum(r.executed_macs for r in self.layer_results)


@dataclass(slots=True)
class SimulationReport:
    """Full simulation result across all time steps."""

    config_name: str
    total_cycles: float
    total_energy: EnergyBreakdown
    #: A list, except on a report materialized from a
    #: :class:`~repro.core.columnar.ColumnarReportBatch`: there it is a
    #: sequence that builds its steps and layers from the batch's columns on
    #: first read and then behaves as that list (``==``, ``repr``, pickling,
    #: the codec).  Readers of the totals above never pay for it.
    step_results: Sequence[StepResult] = field(default_factory=list)
    clock_ghz: float = 1.0
    #: Temporal-sparsity-detector activity attributed to *this* run; it
    #: survives caching and stays correct when the report came out of a
    #: multi-trace or cross-config batch.  ``None`` only on reports decoded
    #: from artifacts written before the field existed.
    detector_stats: DetectorStats | None = None

    @property
    def total_time_ms(self) -> float:
        return self.total_cycles / (self.clock_ghz * 1e9) * 1e3

    @property
    def total_macs(self) -> float:
        return sum(s.total_macs for s in self.step_results)

    @property
    def executed_macs(self) -> float:
        return sum(s.executed_macs for s in self.step_results)

    @property
    def mac_skip_fraction(self) -> float:
        total = self.total_macs
        if total == 0:
            return 0.0
        return 1.0 - self.executed_macs / total

    def average_load_imbalance(self) -> float:
        imbalances = [
            layer.load_imbalance
            for step in self.step_results
            for layer in step.layer_results
            if layer.total_macs > 0
        ]
        return sum(imbalances) / len(imbalances) if imbalances else 0.0


class AcceleratorSimulator:
    """Simulates a workload trace on a given accelerator configuration.

    Parameters
    ----------
    config / energy_table:
        Hardware configuration and 28 nm energy constants.
    backend:
        Simulation engine used by :meth:`run` — a registered backend name
        (``"vectorized"``, the default, or ``"reference"``) or an
        already-constructed :class:`SimulationBackend` instance.  The
        unit-level entry point :meth:`run_step` always executes on the
        stateful reference controller, which remains exposed as
        :attr:`controller` for per-PE and traffic introspection.

    Both the controller and the backend are constructed lazily: sweeps on
    the vectorized backend never pay for the controller's PE/NoC object
    graph, and vice versa.
    """

    def __init__(
        self,
        config: AcceleratorConfig,
        energy_table: EnergyTable | None = None,
        backend: "str | SimulationBackend | None" = None,
    ):
        from .backends import resolve_backend_name

        self.config = config
        self.energy_table = energy_table or DEFAULT_ENERGY_TABLE
        # Backend names (including the REPRO_SIM_BACKEND default) are
        # validated here, eagerly, with the full registry in the message.
        self._backend_spec: "str | SimulationBackend" = (
            backend if backend is not None and not isinstance(backend, str)
            else resolve_backend_name(backend)
        )
        self._backend: "SimulationBackend | None" = (
            None if isinstance(self._backend_spec, str) else self._backend_spec
        )
        self._controller: AcceleratorController | None = None
        self._reference_engine = None

    @property
    def controller(self) -> AcceleratorController:
        """The stateful reference controller (created on first use).

        Only :meth:`run_step` (and runs of this simulator's own
        configuration on the ``reference`` backend) drive this object; after
        a run on the vectorized backend its detector/traffic counters stay
        at their initial values — read the report's ``detector_stats`` for
        backend-agnostic detector activity.
        """
        if self._controller is None:
            self._controller = AcceleratorController(self.config, self.energy_table)
        return self._controller

    def _reference(self):
        """A reference engine over the shared controller, for unit-level runs."""
        if self._reference_engine is None:
            from .backends import ReferenceBackend

            self._reference_engine = ReferenceBackend(
                self.config, self.energy_table, controller=self.controller
            )
        return self._reference_engine

    @property
    def backend(self) -> "SimulationBackend":
        """The active simulation engine (created on first use)."""
        if self._backend is None:
            from .backends import ReferenceBackend, get_backend

            if self._backend_spec == ReferenceBackend.name:
                self._backend = self._reference()
            else:
                self._backend = get_backend(self._backend_spec, self.config, self.energy_table)
        return self._backend

    @property
    def backend_name(self) -> str:
        return self.backend.name

    def run_step(self, workloads: list[ConvLayerWorkload], time_step: int = 0) -> StepResult:
        """Execute all layers of one time step back to back (reference engine)."""
        return self._reference().run_step(workloads, time_step)

    def run(
        self, entries: "list[tuple[AcceleratorConfig, list[WorkloadTrace]]]"
    ) -> "ColumnarReportBatch":
        """Execute a ``(config x trace)`` grid on the active backend.

        The one simulation entry point: every entry pairs a configuration
        with the traces to run on it, and the whole grid comes back as one
        :class:`~repro.core.columnar.ColumnarReportBatch` in entry order.
        The simulator's own configuration does not constrain the grid (each
        entry carries its config), but all entries share this simulator's
        energy table.  On the vectorized backend the grid is one fused NumPy
        pass; reports are materialized only when indexed.
        """
        return self.backend.run(entries)

    def run_trace(self, trace: WorkloadTrace) -> SimulationReport:
        """Execute one trace on this simulator's configuration."""
        return self.run([(self.config, [trace])]).report_at(0)


@dataclass(slots=True)
class ComparisonResult:
    """Speed-up and energy saving of one configuration relative to a baseline."""

    baseline: SimulationReport
    candidate: SimulationReport

    @property
    def speedup(self) -> float:
        return safe_speedup(self.baseline.total_cycles, self.candidate.total_cycles)

    @property
    def energy_saving(self) -> float:
        return relative_saving(
            self.baseline.total_energy.total_pj, self.candidate.total_energy.total_pj
        )


def compare_to_dense_baseline(
    trace: WorkloadTrace,
    sqdm: AcceleratorConfig | None = None,
    baseline: AcceleratorConfig | None = None,
    energy_table: EnergyTable | None = None,
    backend: str | None = None,
) -> ComparisonResult:
    """Run a trace on both the SQ-DM accelerator and the dense 2-DPE baseline.

    This is the Fig. 12 (top) comparison: identical multiplier count, the
    only difference being that SQ-DM routes sparse channels through the
    SIGMA-like sparse datapath.
    """
    sqdm = sqdm or sqdm_config()
    baseline = baseline or dense_baseline_config()
    candidate_report = AcceleratorSimulator(sqdm, energy_table, backend=backend).run_trace(trace)
    baseline_report = AcceleratorSimulator(baseline, energy_table, backend=backend).run_trace(trace)
    return ComparisonResult(baseline=baseline_report, candidate=candidate_report)


def retime_trace_precision(trace: WorkloadTrace, weight_bits: int, act_bits: int) -> WorkloadTrace:
    """Copy a trace with every layer's precision replaced (for FP16-vs-4-bit studies)."""
    return [
        [w.replace(weight_bits=weight_bits, act_bits=act_bits) for w in workloads]
        for workloads in trace
    ]
