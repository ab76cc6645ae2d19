"""Pluggable simulation engines for the SQ-DM accelerator model.

The simulator facade (:class:`repro.accelerator.AcceleratorSimulator`)
delegates ``run(entries)`` to one of the backends registered here:

``reference``
    The stateful per-layer controller loop — semantic ground truth; its own
    ``run_trace`` exposes per-PE results and traffic counters.
``vectorized``
    Whole-grid batched NumPy evaluation — equivalent reports (to
    floating-point round-off), an order of magnitude faster; the default.

Select a backend by name (``AcceleratorSimulator(cfg, backend="reference")``)
or set the ``REPRO_SIM_BACKEND`` environment variable to change the process
default.
"""

from __future__ import annotations

import os

from ..config import AcceleratorConfig
from ..energy import EnergyTable
from .base import DetectorStats, SimulationBackend
from .reference import ReferenceBackend
from .vectorized import VectorizedBackend

_BACKENDS = {
    ReferenceBackend.name: ReferenceBackend,
    VectorizedBackend.name: VectorizedBackend,
}

#: Environment variable overriding the process-default backend.
BACKEND_ENV_VAR = "REPRO_SIM_BACKEND"

#: Backend used when no explicit choice is made (import-time snapshot; prefer
#: :func:`resolve_backend_name`, which re-reads the environment and validates).
DEFAULT_BACKEND = os.environ.get(BACKEND_ENV_VAR, VectorizedBackend.name)


def available_backends() -> list[str]:
    """Names of the registered simulation backends."""
    return sorted(_BACKENDS)


def resolve_backend_name(name: str | None = None) -> str:
    """Validate a backend choice eagerly, before any simulation work starts.

    ``name=None`` resolves the process default: the ``REPRO_SIM_BACKEND``
    environment variable if set, else ``"vectorized"``.  Unknown names fail
    here — at simulator/cache construction — with a message naming the origin
    of the bad value and listing the registered backends, instead of
    surfacing later as a lookup failure mid-sweep.
    """
    if name is None:
        requested = os.environ.get(BACKEND_ENV_VAR, "").strip() or VectorizedBackend.name
        origin = f"environment variable {BACKEND_ENV_VAR}"
    else:
        requested = name
        origin = "backend argument"
    if requested not in _BACKENDS:
        raise ValueError(
            f"unknown simulation backend {requested!r} (from {origin}); "
            f"registered backends: {available_backends()}"
        )
    return requested


def get_backend(
    name: str, config: AcceleratorConfig, energy_table: EnergyTable | None = None
) -> SimulationBackend:
    """Instantiate a registered backend by name."""
    try:
        backend_cls = _BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown simulation backend {name!r}; available: {available_backends()}"
        ) from None
    return backend_cls(config, energy_table)


__all__ = [
    "BACKEND_ENV_VAR",
    "DEFAULT_BACKEND",
    "DetectorStats",
    "ReferenceBackend",
    "SimulationBackend",
    "VectorizedBackend",
    "available_backends",
    "get_backend",
    "resolve_backend_name",
]
