"""Simulation-backend protocol shared by the reference and vectorized engines.

A backend turns a ``(config x trace)`` grid of
:data:`~repro.accelerator.simulator.WorkloadTrace`\\ s into one
:class:`~repro.core.columnar.ColumnarReportBatch`.  Two implementations ship
with the package:

* :class:`~repro.accelerator.backends.reference.ReferenceBackend` drives the
  stateful controller / PE / NoC / memory objects layer by layer — the
  original, easily-inspectable model — and packs its eager reports into a
  batch;
* :class:`~repro.accelerator.backends.vectorized.VectorizedBackend` flattens
  the whole grid into NumPy arrays and evaluates every (config, trace, time
  step, layer, PE) cell with batched array operations, producing equivalent
  batches at a fraction of the cost.

Both expose the same single entry point so :class:`AcceleratorSimulator`
(and any sweep tooling) can switch between them via ``backend="reference"``
/ ``backend="vectorized"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ...core.columnar import ColumnarReportBatch
    from ..config import AcceleratorConfig
    from ..simulator import WorkloadTrace


@dataclass(slots=True)
class DetectorStats:
    """Temporal-sparsity-detector activity of one simulated trace."""

    updates_performed: int = 0
    channels_evaluated: int = 0


@runtime_checkable
class SimulationBackend(Protocol):
    """Protocol every simulation engine implements."""

    #: Registry name of the backend ("reference", "vectorized", ...).
    name: str

    def run(
        self, entries: "list[tuple[AcceleratorConfig, list[WorkloadTrace]]]"
    ) -> "ColumnarReportBatch":
        """Execute a ``(config x trace)`` grid as one columnar batch.

        Every entry pairs a configuration with the traces to run on it; the
        batch holds one report per (config, trace) pair in entry order, each
        carrying its own detector activity.  All entries share this
        backend's energy table, and every report must equal a solo run of
        its (config, trace) pair.
        """
        ...
