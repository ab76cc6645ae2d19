"""Reference simulation backend: the stateful per-layer controller loop.

This is the original execution model of the simulator: one
:class:`~repro.accelerator.controller.AcceleratorController` call per layer
per time step, each of which exercises the detector, PE, NoC and memory
models as distinct Python objects.  It is the semantic ground truth the
vectorized engine is validated against, and remains the right tool for
unit-level inspection (per-PE results, buffer traffic counters) through
:meth:`ReferenceBackend.run_trace` and :meth:`ReferenceBackend.run_step`.
"""

from __future__ import annotations

from ...core.columnar import ColumnarReportBatch
from ..config import AcceleratorConfig
from ..controller import AcceleratorController
from ..energy import DEFAULT_ENERGY_TABLE, EnergyBreakdown, EnergyTable
from ..workload import ConvLayerWorkload
from .base import DetectorStats


class ReferenceBackend:
    """Executes traces through the stateful controller, layer by layer."""

    name = "reference"

    def __init__(
        self,
        config: AcceleratorConfig,
        energy_table: EnergyTable | None = None,
        controller: AcceleratorController | None = None,
    ):
        self.config = config
        self.energy_table = energy_table or DEFAULT_ENERGY_TABLE
        self.controller = controller or AcceleratorController(config, self.energy_table)

    def run(
        self, entries: "list[tuple[AcceleratorConfig, list[list[list[ConvLayerWorkload]]]]]"
    ) -> ColumnarReportBatch:
        """Execute a ``(config x trace)`` grid, one controller per configuration.

        Each entry's configuration gets a fresh :class:`ReferenceBackend`
        sharing this backend's energy table (this backend's own controller
        serves its own configuration), and the eager reports are packed into
        one batch.  Per-PE ``pe_results`` do not survive the packing; call
        :meth:`run_trace` directly for those.
        """
        reports = []
        for config, traces in entries:
            backend = self if config is self.config else ReferenceBackend(config, self.energy_table)
            reports.append((config, [backend.run_trace(trace) for trace in traces]))
        return ColumnarReportBatch.from_reports(reports)

    def run_step(self, workloads: list[ConvLayerWorkload], time_step: int = 0):
        """Execute all layers of one time step back to back."""
        from ..simulator import StepResult

        cycles = 0.0
        energy = EnergyBreakdown()
        layer_results = []
        for workload in workloads:
            result = self.controller.execute_layer(workload, time_step)
            cycles += result.cycles
            energy = energy + result.energy
            layer_results.append(result)
        return StepResult(
            time_step=time_step, cycles=cycles, energy=energy, layer_results=layer_results
        )

    def run_trace(self, trace: "list[list[ConvLayerWorkload]]"):
        """Execute a full multi-time-step workload trace, per-PE results included."""
        from ..simulator import SimulationReport

        self.controller.reset()
        step_results = []
        total_cycles = 0.0
        total_energy = EnergyBreakdown()
        for time_step, workloads in enumerate(trace):
            step = self.run_step(workloads, time_step)
            step_results.append(step)
            total_cycles += step.cycles
            total_energy = total_energy + step.energy
        # The controller was reset at trace start, so the detector's counters
        # at this point are exactly this trace's activity.
        detector = self.controller.detector
        return SimulationReport(
            config_name=self.config.name,
            total_cycles=total_cycles,
            total_energy=total_energy,
            step_results=step_results,
            clock_ghz=self.config.clock_ghz,
            detector_stats=DetectorStats(
                updates_performed=detector.updates_performed,
                channels_evaluated=detector.channels_evaluated,
            ),
        )
