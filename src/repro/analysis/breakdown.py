"""Computation and memory breakdown by block type (Fig. 4).

The paper reports that Conv+SiLU blocks account for more than 90% of total
computation and 85% of total memory, which is what justifies focusing the
4-bit quantization (and the accelerator) on them.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..nn.unet import BLOCK_ATTENTION, BLOCK_CONV, BLOCK_EMBEDDING, BLOCK_SKIP, EDMUNet

BLOCK_TYPES = (BLOCK_CONV, BLOCK_SKIP, BLOCK_EMBEDDING, BLOCK_ATTENTION)


@dataclass
class BreakdownReport:
    """Per-block-type compute and memory shares of one model."""

    workload: str
    compute_share: dict[str, float]
    memory_share: dict[str, float]
    total_macs: float
    total_memory_elements: float

    def dominant_type(self) -> str:
        return max(self.compute_share, key=self.compute_share.get)

    def conv_compute_share(self) -> float:
        return self.compute_share.get(BLOCK_CONV, 0.0)

    def conv_memory_share(self) -> float:
        return self.memory_share.get(BLOCK_CONV, 0.0)


def cost_breakdown(model: EDMUNet, workload_name: str = "") -> BreakdownReport:
    """Compute the Fig. 4 breakdown for one U-Net.

    Compute is measured in MACs; memory as stored elements (weights plus
    input activations), both independent of precision so the shares reflect
    the architecture rather than the quantization scheme.
    """
    macs = {block_type: 0.0 for block_type in BLOCK_TYPES}
    memory = {block_type: 0.0 for block_type in BLOCK_TYPES}
    for layer in model.layers():
        macs[layer.category] += layer.macs
        memory[layer.category] += layer.weight_elements + layer.activation_elements
    total_macs = sum(macs.values())
    total_memory = sum(memory.values())
    compute_share = {k: (v / total_macs if total_macs else 0.0) for k, v in macs.items()}
    memory_share = {k: (v / total_memory if total_memory else 0.0) for k, v in memory.items()}
    return BreakdownReport(
        workload=workload_name,
        compute_share=compute_share,
        memory_share=memory_share,
        total_macs=total_macs,
        total_memory_elements=total_memory,
    )
