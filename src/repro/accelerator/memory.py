"""Global buffer model and channel-last address mapping (Fig. 10).

The sparsity-aware address generator fetches whole input channels in an
arbitrary (non-contiguous) channel order, because the dense and sparse
channel groups interleave arbitrary channel indices.  To make each such
fetch a contiguous burst, SQ-DM maps activations with the channel index as
the *slowest-varying* (last) address component:

* activations:  address = ((c * H + y) * W + x)      -- W fastest, then H, then C
* weights:      address = ((c * K + k) * R + r) * S + s  -- S fastest, then R, then K, then C

so that all data belonging to input channel ``c`` (for every output channel
``k``) is contiguous.  Sparse channels store only their nonzero values plus a
1-bit-per-element binary indicator, matching the SIGMA-style compressed
operand format.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, slots=True)
class ActivationMapping:
    """Channel-last address mapping for an activation tensor of shape (C, H, W)."""

    channels: int
    height: int
    width: int

    @property
    def size(self) -> int:
        return self.channels * self.height * self.width

    def address(self, c: int, y: int, x: int) -> int:
        """Linear element address of activation (c, y, x) under channel-last order."""
        self._check(c, y, x)
        return (c * self.height + y) * self.width + x

    def channel_slice(self, c: int) -> tuple[int, int]:
        """(start, end) element-address range occupied by channel ``c``."""
        if not 0 <= c < self.channels:
            raise IndexError(f"channel {c} out of range [0, {self.channels})")
        start = c * self.height * self.width
        return start, start + self.height * self.width

    def _check(self, c: int, y: int, x: int) -> None:
        if not (0 <= c < self.channels and 0 <= y < self.height and 0 <= x < self.width):
            raise IndexError(f"activation index ({c}, {y}, {x}) out of range")

    def linearize(self, tensor: np.ndarray) -> np.ndarray:
        """Flatten a (C, H, W) tensor into channel-last address order."""
        tensor = np.asarray(tensor)
        if tensor.shape != (self.channels, self.height, self.width):
            raise ValueError(
                f"expected shape {(self.channels, self.height, self.width)}, got {tensor.shape}"
            )
        return tensor.reshape(-1)


@dataclass(frozen=True, slots=True)
class WeightMapping:
    """Channel-last address mapping for a weight tensor of shape (K, C, R, S).

    ``K`` is the output channel, ``C`` the input channel, ``R``/``S`` the
    kernel height/width.  The input channel is the slowest-varying index so
    that all weights consuming a given input channel are contiguous and can
    be fetched together with that channel's activations.
    """

    out_channels: int
    in_channels: int
    kernel_h: int
    kernel_w: int

    @property
    def size(self) -> int:
        return self.out_channels * self.in_channels * self.kernel_h * self.kernel_w

    def address(self, k: int, c: int, r: int, s: int) -> int:
        """Linear element address of weight (k, c, r, s) under C-last ordering."""
        if not (
            0 <= k < self.out_channels
            and 0 <= c < self.in_channels
            and 0 <= r < self.kernel_h
            and 0 <= s < self.kernel_w
        ):
            raise IndexError(f"weight index ({k}, {c}, {r}, {s}) out of range")
        return ((c * self.out_channels + k) * self.kernel_h + r) * self.kernel_w + s

    def channel_slice(self, c: int) -> tuple[int, int]:
        """(start, end) element-address range of all weights for input channel ``c``."""
        if not 0 <= c < self.in_channels:
            raise IndexError(f"input channel {c} out of range [0, {self.in_channels})")
        per_channel = self.out_channels * self.kernel_h * self.kernel_w
        start = c * per_channel
        return start, start + per_channel

    def linearize(self, tensor: np.ndarray) -> np.ndarray:
        """Flatten a (K, C, R, S) tensor into channel-last address order."""
        tensor = np.asarray(tensor)
        expected = (self.out_channels, self.in_channels, self.kernel_h, self.kernel_w)
        if tensor.shape != expected:
            raise ValueError(f"expected shape {expected}, got {tensor.shape}")
        return np.transpose(tensor, (1, 0, 2, 3)).reshape(-1)


@dataclass(slots=True)
class SparseChannelRecord:
    """Compressed storage of one sparse activation channel (values + bitmap)."""

    channel: int
    values: np.ndarray
    bitmap: np.ndarray

    @property
    def nonzeros(self) -> int:
        return int(self.values.size)

    def storage_bits(self, value_bits: int) -> int:
        """Total storage of the compressed channel (values + 1-bit indicators)."""
        return self.nonzeros * value_bits + int(self.bitmap.size)

    def decompress(self) -> np.ndarray:
        """Reconstruct the dense channel from values and bitmap."""
        dense = np.zeros(self.bitmap.shape, dtype=np.float64)
        dense[self.bitmap.astype(bool)] = self.values
        return dense


def compress_channel(channel_data: np.ndarray, channel_index: int) -> SparseChannelRecord:
    """Compress one activation channel into (nonzero values, binary indicator)."""
    flat = np.asarray(channel_data, dtype=np.float64).reshape(-1)
    bitmap = (flat != 0.0).astype(np.uint8)
    return SparseChannelRecord(channel=channel_index, values=flat[flat != 0.0], bitmap=bitmap)


@dataclass(slots=True)
class GlobalBuffer:
    """Capacity/traffic model of the shared global buffer.

    Tracks read/write byte counts so the energy model can attribute SRAM
    access energy; raises when a working set exceeds capacity, in which case
    the simulator spills to DRAM.
    """

    capacity_kib: int = 512
    bytes_read: float = 0.0
    bytes_written: float = 0.0

    @property
    def capacity_bytes(self) -> int:
        return self.capacity_kib * 1024

    def fits(self, working_set_bytes: float) -> bool:
        return working_set_bytes <= self.capacity_bytes

    def read(self, num_bytes: float) -> None:
        if num_bytes < 0:
            raise ValueError("cannot read a negative number of bytes")
        self.bytes_read += num_bytes

    def write(self, num_bytes: float) -> None:
        if num_bytes < 0:
            raise ValueError("cannot write a negative number of bytes")
        self.bytes_written += num_bytes

    def reset(self) -> None:
        self.bytes_read = 0.0
        self.bytes_written = 0.0
