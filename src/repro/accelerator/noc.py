"""Interconnection network between the global buffer and the PEs (Fig. 9).

The accelerator connects the global buffer to the D/S PE array through a
chain of configurable routers, one per PE: the global buffer feeds router 0,
each router feeds the next, and PE *i* (DPEs first, then SPEs, the order the
controller dispatches them in) hangs off router *i*.  The only quantity the
model takes from that topology is the hop count, which is therefore a closed
form (:func:`pe_hops`); the network charges per-hop energy and a
bandwidth-limited transfer latency.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import AcceleratorConfig
from .energy import EnergyTable


def pe_hops(pe_index):
    """Router hops between the global buffer and PE ``pe_index``: *i* + 2.

    One hop from the global buffer to router 0, *i* hops along the router
    chain to router *i*, and one hop from that router to its PE.  Takes an
    integer or an integer array of PE indices.
    """
    return pe_index + 2


@dataclass(slots=True)
class TransferResult:
    """Latency and energy of moving one operand block over the NoC."""

    cycles: float
    energy_pj: float
    hops: int
    bytes_moved: float


class InterconnectNetwork:
    """Router network connecting the global buffer with every PE."""

    def __init__(self, config: AcceleratorConfig, energy_table: EnergyTable):
        self.config = config
        self.energy_table = energy_table
        pe_names = [f"dpe{i}" for i in range(config.num_dpe)] + [
            f"spe{i}" for i in range(config.num_spe)
        ]
        self._pe_index = {name: index for index, name in enumerate(pe_names)}

    def transfer(self, pe_name: str, num_bytes: float) -> TransferResult:
        """Move ``num_bytes`` between the global buffer and ``pe_name``."""
        if num_bytes < 0:
            raise ValueError("cannot transfer a negative number of bytes")
        if pe_name not in self._pe_index:
            raise KeyError(f"unknown PE {pe_name!r}; available: {list(self._pe_index)}")
        hops = pe_hops(self._pe_index[pe_name])
        cycles = num_bytes / self.config.noc_bandwidth_bytes_per_cycle
        energy = num_bytes * hops * self.energy_table.noc_pj_per_byte_hop
        return TransferResult(cycles=cycles, energy_pj=energy, hops=hops, bytes_moved=num_bytes)
