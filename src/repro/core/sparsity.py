"""Temporal per-channel sparsity: measurement, traces and channel grouping.

Section III-C of the paper observes that ReLU-based diffusion models exhibit
*temporal per-channel sparsity*: each activation channel is either mostly
zero or mostly non-zero, and which channels are sparse changes across
diffusion time steps (Fig. 7).  This module extracts that structure from the
NumPy U-Net:

* :func:`collect_sparsity_trace` runs the sampler with activation recording
  enabled and captures, for every time step and every Conv+Act convolution,
  the per-input-channel zero fraction.
* :class:`TemporalSparsityTrace` stores the result together with the layer
  geometry, and converts into accelerator workload traces
  (:func:`trace_to_workloads`).
* :func:`sparsity_map` renders the channel x time-step binary map of Fig. 7.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..accelerator.workload import ConvLayerWorkload
from ..diffusion.edm import EDMDenoiser
from ..diffusion.sampler import SamplerConfig, sample
from ..nn.unet import BLOCK_CONV, EDMUNet
from .policy import QuantizationPolicy


@dataclass(frozen=True)
class TracedLayer:
    """Geometry of one traced convolution layer."""

    name: str
    block_name: str
    in_channels: int
    out_channels: int
    kernel_size: int
    height: int
    width: int


@dataclass
class TemporalSparsityTrace:
    """Per-time-step, per-layer, per-channel activation sparsity."""

    layers: list[TracedLayer]
    steps: list[dict[str, np.ndarray]] = field(default_factory=list)
    zero_tolerance_rel: float = 0.0

    @property
    def num_steps(self) -> int:
        return len(self.steps)

    def layer_names(self) -> list[str]:
        return [layer.name for layer in self.layers]

    def layer(self, name: str) -> TracedLayer:
        for layer in self.layers:
            if layer.name == name:
                return layer
        raise KeyError(f"unknown traced layer {name!r}; available: {self.layer_names()}")

    def sparsity_matrix(self, layer_name: str) -> np.ndarray:
        """(channels, time steps) matrix of zero fractions for one layer (Fig. 7 data)."""
        layer = self.layer(layer_name)
        matrix = np.zeros((layer.in_channels, self.num_steps))
        for t, step in enumerate(self.steps):
            matrix[:, t] = step[layer_name]
        return matrix

    def average_sparsity(self) -> float:
        """Average activation sparsity across all layers and time steps."""
        values = [float(np.mean(s)) for step in self.steps for s in step.values()]
        return float(np.mean(values)) if values else 0.0

    def channel_switch_rate(self, layer_name: str, threshold: float = 0.30) -> float:
        """Fraction of channels whose dense/sparse classification changes per step.

        Quantifies the *temporal* aspect of the sparsity pattern: a nonzero
        switch rate is what makes infrequent sparsity updates lose speed-up
        (Fig. 11, right).
        """
        matrix = self.sparsity_matrix(layer_name) >= threshold
        if matrix.shape[1] < 2:
            return 0.0
        switches = np.mean(matrix[:, 1:] != matrix[:, :-1])
        return float(switches)


def _per_channel_zero_fraction(activation: np.ndarray, zero_tolerance_rel: float) -> np.ndarray:
    """Per-channel zero fraction of an NCHW activation with a relative tolerance.

    ``zero_tolerance_rel`` expresses the zero threshold as a fraction of the
    tensor's maximum magnitude; 1/(2*qmax) models values that a UINT4
    quantizer would round to the zero code.
    """
    tol = 0.0
    if zero_tolerance_rel > 0:
        tol = zero_tolerance_rel * float(np.max(np.abs(activation))) if activation.size else 0.0
    moved = np.moveaxis(activation, 1, 0)
    flat = moved.reshape(moved.shape[0], -1)
    return np.count_nonzero(np.abs(flat) <= tol, axis=1) / flat.shape[1]


def traced_layers_for_model(model: EDMUNet) -> list[TracedLayer]:
    """The Conv+Act convolutions of a U-Net, i.e. the layers SQ-DM accelerates."""
    return [
        TracedLayer(
            name=layer.name,
            block_name=layer.block,
            in_channels=layer.module.in_channels,
            out_channels=layer.module.out_channels,
            kernel_size=layer.module.kernel_size,
            height=layer.spatial[0],
            width=layer.spatial[1],
        )
        for layer in model.layers()
        if layer.category == BLOCK_CONV
    ]


def collect_sparsity_trace(
    denoiser: EDMDenoiser,
    image_shape: tuple[int, int, int],
    sampler_config: SamplerConfig | None = None,
    num_samples: int = 2,
    zero_tolerance_rel: float = 0.0,
    labels: np.ndarray | None = None,
) -> TemporalSparsityTrace:
    """Run a sampling trajectory and record per-channel conv-input sparsity.

    The recorded tensors are the outputs of the non-linearity feeding each
    Conv+Act convolution (:attr:`UNetLayer.activation
    <repro.nn.unet.UNetLayer.activation>`), which are exactly the
    convolution's inputs — the operands whose zeros the SPE skips.
    """
    model = denoiser.unet
    trace = TemporalSparsityTrace(
        layers=traced_layers_for_model(model), zero_tolerance_rel=zero_tolerance_rel
    )
    convs = [layer for layer in model.layers() if layer.category == BLOCK_CONV]

    def snapshot(step_index: int, sigma: float, x: np.ndarray) -> None:
        step_record: dict[str, np.ndarray] = {}
        for layer in convs:
            output = layer.activation.last_output
            if output is None:
                step_record[layer.name] = np.zeros(layer.module.in_channels)
            else:
                step_record[layer.name] = _per_channel_zero_fraction(output, zero_tolerance_rel)
        trace.steps.append(step_record)

    model.set_recording(True)
    try:
        sample(
            denoiser,
            num_samples,
            image_shape,
            sampler_config or SamplerConfig(),
            labels=labels,
            step_callback=snapshot,
        )
    finally:
        model.set_recording(False)
    return trace


def trace_to_workloads(
    trace: TemporalSparsityTrace, policy: QuantizationPolicy | None = None, default_bits: int = 16
) -> list[list[ConvLayerWorkload]]:
    """Convert a sparsity trace into an accelerator workload trace.

    Each traced conv layer becomes one :class:`ConvLayerWorkload` per time
    step, with the weight/activation precision taken from ``policy`` (or
    ``default_bits`` when no policy is given).  The per-layer geometry and
    precision are resolved once into a template workload which is then
    re-stamped with each step's sparsity via
    :meth:`ConvLayerWorkload.replace`.
    """
    templates: list[ConvLayerWorkload] = []
    for layer in trace.layers:
        if policy is not None:
            weight_bits, act_bits = policy.bits_for_layer(layer.name)
        else:
            weight_bits = act_bits = default_bits
        templates.append(
            ConvLayerWorkload(
                name=layer.name,
                in_channels=layer.in_channels,
                out_channels=layer.out_channels,
                kernel_size=layer.kernel_size,
                out_height=layer.height,
                out_width=layer.width,
                weight_bits=weight_bits,
                act_bits=act_bits,
                block_type=BLOCK_CONV,
            )
        )
    return [
        [
            template.replace(channel_sparsity=np.asarray(step[template.name], dtype=np.float64))
            for template in templates
        ]
        for step in trace.steps
    ]


def sparsity_map(
    trace: TemporalSparsityTrace, layer_name: str, threshold: float = 0.5
) -> np.ndarray:
    """Binary channel x time-step map: 1 where a channel is mostly zero (Fig. 7).

    The paper renders zero values in black and non-zero in white per pixel;
    aggregated per channel, a channel appears "black" at a time step when
    most of its values are zero, which is what this map encodes.
    """
    matrix = trace.sparsity_matrix(layer_name)
    return (matrix >= threshold).astype(np.int8)
