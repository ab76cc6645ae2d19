"""Shared fixtures: tiny models, datasets and traces sized for fast unit tests.

With ``REPRO_LOCKWATCH=1`` the runtime lock-order detector is installed
*before* any repro module is imported (so every lock the code under test
creates is tracked) and the session fails if a lock-ordering cycle or a
blocking-call-under-lock was recorded anywhere in the run.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

# Must run before the repro imports below create any locks.
from repro.devtools import lockwatch as _lockwatch

_WATCH = _lockwatch.install_from_env()

from repro.accelerator import backends as simulation_backends  # noqa: E402
from repro.accelerator.backends import VectorizedBackend  # noqa: E402
from repro.accelerator.workload import random_workload  # noqa: E402
from repro.diffusion.datasets import load_dataset  # noqa: E402
from repro.diffusion.edm import EDMDenoiser  # noqa: E402
from repro.nn.unet import EDMUNet, UNetConfig  # noqa: E402
from repro.workloads.models import load_workload  # noqa: E402


@pytest.fixture()
def tiny_unet_config() -> UNetConfig:
    return UNetConfig(
        img_resolution=8,
        model_channels=8,
        channel_mult=(1, 2),
        num_blocks_per_res=1,
        attn_resolutions=(4,),
        seed=3,
    )


@pytest.fixture()
def tiny_unet(tiny_unet_config) -> EDMUNet:
    return EDMUNet(tiny_unet_config)


@pytest.fixture(scope="session")
def tiny_dataset():
    return load_dataset("cifar10", resolution=8)


@pytest.fixture()
def tiny_denoiser(tiny_unet, tiny_dataset) -> EDMDenoiser:
    return EDMDenoiser(tiny_unet, prior=tiny_dataset.prior)


@pytest.fixture(scope="session")
def cifar_workload():
    """The calibrated CIFAR-10 workload at reduced (8x8) resolution."""
    return load_workload("cifar10", resolution=8)


@pytest.fixture()
def synthetic_trace():
    """A small synthetic accelerator workload trace: 3 steps x 2 layers."""
    return [
        [
            random_workload(
                in_channels=32,
                out_channels=32,
                spatial=8,
                mean_sparsity=0.65,
                weight_bits=4,
                act_bits=4,
                seed=10 * step + layer,
                name=f"layer{layer}",
            )
            for layer in range(2)
        ]
        for step in range(3)
    ]


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(0)


@pytest.fixture(scope="session", autouse=True)
def _lockwatch_gate():
    """Fail the session on lock-discipline violations when lockwatch is on."""
    yield
    if _WATCH is not None:
        _WATCH.check()


class SimulationGate:
    """The rendezvous of the test-only ``gated`` simulation backend: each run
    sets ``started``, then waits for the test to set ``release``."""

    backend = "gated"

    def __init__(self) -> None:
        self.started = threading.Event()
        self.release = threading.Event()


@pytest.fixture()
def gated_backend(monkeypatch):
    """Register the ``gated`` simulation backend, which simulates like the
    default one once the test releases its gate, so a job can be held
    queued or running.  The service, an in-process HTTP server and
    ``WorkerPoolExecutor``'s worker threads resolve it by name.  Yields the
    gate, released at teardown."""
    gate = SimulationGate()

    class GatedBackend(VectorizedBackend):
        name = SimulationGate.backend

        def run(self, entries):
            gate.started.set()
            assert gate.release.wait(30), "the test never released the gated backend"
            return super().run(entries)

    monkeypatch.setitem(simulation_backends._BACKENDS, GatedBackend.name, GatedBackend)
    try:
        yield gate
    finally:
        gate.release.set()  # never leave a pool thread parked on a failed test


@pytest.fixture()
def failing_backend(monkeypatch) -> str:
    """Register the ``failing`` simulation backend, whose every run raises
    ``RuntimeError("kaboom")``; returns its name."""

    class FailingBackend(VectorizedBackend):
        name = "failing"

        def run(self, entries):
            raise RuntimeError("kaboom")

    monkeypatch.setitem(simulation_backends._BACKENDS, FailingBackend.name, FailingBackend)
    return FailingBackend.name
