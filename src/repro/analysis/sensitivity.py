"""Block-wise quantization sensitivity analysis (Fig. 3).

The experiment keeps a single U-Net block at 4-bit while every other block
runs at MXINT8, and measures the resulting generation quality.  Blocks whose
4-bit quantization degrades quality the most are "sensitive" and are kept at
8-bit by the mixed-precision policy; the paper finds only the first and last
few blocks matter.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.experiments import SweepSpec, run_sweep
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


def block_sensitivity_sweep(
    pipeline: SQDMPipeline, *, max_workers: int | None = None
) -> SensitivityReport:
    """Run the Fig. 3 sweep: for each block, 4-bit that block only and measure FID.

    The per-block evaluations are independent, so they fan out through the
    declarative sweep runner, on the thread pool (``max_workers`` threads)
    of an evaluation service it owns for the sweep; they stay on threads
    because the evaluation closes over the live pipeline and model, which
    cannot cross process boundaries.  Each grid point deep-copies its own
    model; the shared FID reference statistics are materialized up front so
    workers only read them.
    """
    model = pipeline.workload.unet
    infos = model.block_infos()

    # Reference: every block at MXINT8.  Also warms the cached FID evaluator
    # before the fan-out below.
    reference = pipeline.evaluate_format("MXINT8")

    def evaluate_block(block_name: str) -> BlockSensitivity:
        policy = single_block_4bit_policy(model, block_name)
        evaluation = pipeline.evaluate_policy(policy, scheme_name=policy.name)
        info = next(i for i in infos if i.name == block_name)
        return BlockSensitivity(
            block_name=block_name,
            order=info.order,
            fid=evaluation.fid,
            fid_delta=evaluation.fid - reference.fid,
        )

    sweep = run_sweep(
        evaluate_block,
        SweepSpec(name="fig3-block-sensitivity", grid={"block_name": [i.name for i in infos]}),
        max_workers=max_workers,
    )
    return SensitivityReport(
        workload=pipeline.workload.name, reference_fid=reference.fid, blocks=sweep.values()
    )
