"""Sparsity-aware address generation (Fig. 9 / Fig. 10).

The sparsity-aware address generator keeps, for each layer, the channel
classification produced by the temporal sparsity detector (dense vs sparse
plus the channel index), and emits the global-buffer addresses needed to
fetch each channel group: activation channel bursts in channel-last order and
the matching per-input-channel weight bursts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .detector import ChannelClassification
from .memory import ActivationMapping, WeightMapping


@dataclass(slots=True)
class FetchPlan:
    """Address ranges a PE must fetch to process one channel group."""

    channel_order: np.ndarray
    activation_ranges: list[tuple[int, int]]
    weight_ranges: list[tuple[int, int]]

    @property
    def num_channels(self) -> int:
        return int(self.channel_order.size)

    def activation_elements(self) -> int:
        return sum(end - start for start, end in self.activation_ranges)

    def weight_elements(self) -> int:
        return sum(end - start for start, end in self.weight_ranges)

    def is_contiguous_per_channel(self) -> bool:
        """Every per-channel fetch is one contiguous address burst."""
        return all(end > start for start, end in self.activation_ranges)


class SparsityAwareAddressGenerator:
    """Generates per-channel-group fetch plans from a channel classification.

    Parameters
    ----------
    activation_mapping / weight_mapping:
        Channel-last address mappings of the layer's input activations and
        weights.
    """

    def __init__(self, activation_mapping: ActivationMapping, weight_mapping: WeightMapping):
        if activation_mapping.channels != weight_mapping.in_channels:
            raise ValueError(
                "activation and weight mappings disagree on the number of input channels: "
                f"{activation_mapping.channels} vs {weight_mapping.in_channels}"
            )
        self.activation_mapping = activation_mapping
        self.weight_mapping = weight_mapping

    def _plan_for_channels(self, channels: np.ndarray) -> FetchPlan:
        activation_ranges = [self.activation_mapping.channel_slice(int(c)) for c in channels]
        weight_ranges = [self.weight_mapping.channel_slice(int(c)) for c in channels]
        return FetchPlan(
            channel_order=np.asarray(channels, dtype=np.int64),
            activation_ranges=activation_ranges,
            weight_ranges=weight_ranges,
        )

    def dense_plan(self, classification: ChannelClassification) -> FetchPlan:
        """Fetch plan for the dense channel group (processed by the DPE)."""
        return self._plan_for_channels(classification.dense_channels)

    def sparse_plan(self, classification: ChannelClassification) -> FetchPlan:
        """Fetch plan for the sparse channel group (processed by the SPE)."""
        return self._plan_for_channels(classification.sparse_channels)
