"""Block-wise quantization sensitivity analysis (Fig. 3).

The experiment keeps a single U-Net block at 4-bit while every other block
runs at MXINT8, and measures the resulting generation quality.  Blocks whose
4-bit quantization degrades quality the most are "sensitive" and are kept at
8-bit by the mixed-precision policy; the paper finds only the first and last
few blocks matter.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.pipeline import SQDMPipeline
from ..core.policy import single_block_4bit_policy


@dataclass
class BlockSensitivity:
    """FID impact of quantizing one block to 4-bit (rest at MXINT8)."""

    block_name: str
    order: int
    fid: float
    fid_delta: float  # relative to the all-MXINT8 reference


@dataclass
class SensitivityReport:
    """Full Fig. 3 sweep for one workload."""

    workload: str
    reference_fid: float
    blocks: list[BlockSensitivity]

    def most_sensitive(self, top_k: int = 2) -> list[BlockSensitivity]:
        return sorted(self.blocks, key=lambda b: b.fid_delta, reverse=True)[:top_k]

    def boundary_blocks_are_most_sensitive(self, top_k: int = 2) -> bool:
        """Check the paper's conclusion: the most sensitive blocks sit at the ends."""
        if not self.blocks:
            return True
        orders = sorted(b.order for b in self.blocks)
        boundary = set(orders[:1] + orders[-1:])
        top = self.most_sensitive(top_k)
        return any(b.order in boundary for b in top)


def block_sensitivity_sweep(pipeline: SQDMPipeline) -> SensitivityReport:
    """Run the Fig. 3 sweep: for each block, 4-bit that block only and measure FID.

    Blocks are evaluated one after another in :meth:`block_infos` order;
    each evaluation deep-copies its own model and reads the FID reference
    statistics that the MXINT8 reference evaluation materializes first.
    """
    model = pipeline.workload.unet
    reference = pipeline.evaluate_format("MXINT8")  # every block at MXINT8
    blocks = []
    for info in model.block_infos():
        policy = single_block_4bit_policy(model, info.name)
        evaluation = pipeline.evaluate_policy(policy, scheme_name=policy.name)
        blocks.append(
            BlockSensitivity(
                block_name=info.name,
                order=info.order,
                fid=evaluation.fid,
                fid_delta=evaluation.fid - reference.fid,
            )
        )
    return SensitivityReport(
        workload=pipeline.workload.name, reference_fid=reference.fid, blocks=blocks
    )
