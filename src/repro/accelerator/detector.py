"""Temporal sparsity detector and channel classification (Sec. IV-C).

The detector lives in each PE's post-processing unit.  As output activations
stream out, it counts zeros per channel, compares the zero fraction against a
threshold (30% in the paper) and records each channel as *dense* or *sparse*
for the next layer's sparsity-aware address generator.  Because per-channel
sparsity evolves across diffusion time steps (Fig. 7), the classification is
refreshed on a configurable schedule; the paper chooses every time step since
the detection cost is negligible and hidden behind compute.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(slots=True)
class ChannelClassification:
    """Dense/sparse split of a layer's input channels at one time step."""

    dense_channels: np.ndarray
    sparse_channels: np.ndarray
    sparsity: np.ndarray
    threshold: float

    @property
    def num_channels(self) -> int:
        return int(self.sparsity.size)

    @property
    def sparse_fraction(self) -> float:
        """Fraction of channels routed to the sparse PE."""
        if self.num_channels == 0:
            return 0.0
        return self.sparse_channels.size / self.num_channels

    @property
    def sparse_group_sparsity(self) -> float:
        """Average sparsity inside the sparse group (the paper reports ~70%)."""
        if self.sparse_channels.size == 0:
            return 0.0
        return float(np.mean(self.sparsity[self.sparse_channels]))

    @property
    def dense_group_sparsity(self) -> float:
        if self.dense_channels.size == 0:
            return 0.0
        return float(np.mean(self.sparsity[self.dense_channels]))


def classify_channels(channel_sparsity: np.ndarray, threshold: float) -> ChannelClassification:
    """Split channels into dense (< threshold zeros) and sparse (>= threshold)."""
    sparsity = np.asarray(channel_sparsity, dtype=np.float64)
    if np.any((sparsity < 0) | (sparsity > 1)):
        raise ValueError("channel sparsities must lie in [0, 1]")
    sparse_mask = sparsity >= threshold
    return ChannelClassification(
        dense_channels=np.flatnonzero(~sparse_mask),
        sparse_channels=np.flatnonzero(sparse_mask),
        sparsity=sparsity,
        threshold=float(threshold),
    )


def measure_channel_sparsity(activation: np.ndarray, zero_tolerance: float = 0.0) -> np.ndarray:
    """Per-channel zero fraction of an activation tensor (C, H, W) or (B, C, H, W)."""
    activation = np.asarray(activation)
    if activation.ndim == 4:
        channel_axis = 1
    elif activation.ndim == 3:
        channel_axis = 0
    else:
        raise ValueError(f"expected a 3-D or 4-D activation tensor, got ndim={activation.ndim}")
    moved = np.moveaxis(activation, channel_axis, 0)
    flat = moved.reshape(moved.shape[0], -1)
    zeros = np.count_nonzero(np.abs(flat) <= zero_tolerance, axis=1)
    return zeros / flat.shape[1]


class TemporalSparsityDetector:
    """Stateful detector that tracks per-layer channel classifications over time.

    Parameters
    ----------
    threshold:
        Zero-fraction threshold above which a channel is classified sparse.
    update_period:
        Number of diffusion time steps between classification refreshes.
        Between updates, the *stale* classification from the last update is
        reused — channels that changed character are then mis-categorized,
        which is precisely the speed-up loss analysed in Fig. 11 (right).
    """

    def __init__(self, threshold: float = 0.30, update_period: int = 1):
        if not 0.0 <= threshold <= 1.0:
            raise ValueError("threshold must be in [0, 1]")
        if update_period < 1:
            raise ValueError("update_period must be >= 1")
        self.threshold = float(threshold)
        self.update_period = int(update_period)
        self._classifications: dict[str, ChannelClassification] = {}
        self._last_update_step: dict[str, int] = {}
        self.updates_performed = 0
        self.channels_evaluated = 0

    def reset(self) -> None:
        self._classifications.clear()
        self._last_update_step.clear()
        self.updates_performed = 0
        self.channels_evaluated = 0

    def should_update(self, layer_name: str, time_step: int) -> bool:
        """Whether the classification for ``layer_name`` is refreshed at this step."""
        if layer_name not in self._classifications:
            return True
        last = self._last_update_step[layer_name]
        return (time_step - last) >= self.update_period

    def observe(
        self, layer_name: str, time_step: int, channel_sparsity: np.ndarray
    ) -> ChannelClassification:
        """Feed the measured per-channel sparsity for a layer at a time step.

        Returns the classification the hardware will use for this layer at
        this time step: freshly computed if the update schedule says so,
        otherwise the stale one from the most recent update.
        """
        if self.should_update(layer_name, time_step):
            classification = classify_channels(channel_sparsity, self.threshold)
            self._classifications[layer_name] = classification
            self._last_update_step[layer_name] = time_step
            self.updates_performed += 1
            self.channels_evaluated += int(np.asarray(channel_sparsity).size)
            return classification
        stale = self._classifications[layer_name]
        # The hardware reuses the stale dense/sparse split but the actual data
        # has the *current* sparsity; reflect that in the returned object so the
        # datapath model charges the true nonzero work.
        return ChannelClassification(
            dense_channels=stale.dense_channels,
            sparse_channels=stale.sparse_channels,
            sparsity=np.asarray(channel_sparsity, dtype=np.float64),
            threshold=self.threshold,
        )
