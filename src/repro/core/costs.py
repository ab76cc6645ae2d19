"""Compute / memory cost accounting under a quantization policy.

Implements the paper's cost model (Sec. III-A): the relative cost of a MAC is
proportional to operand bit width (1 FP16 = 2 INT8 = 4 INT4 multiplies), and
memory cost is proportional to the stored bits per value including the
amortized fine-grained scale factors.  These are the numbers behind the
"Avg. Comp. Saving" / "Avg. Mem. Saving" columns of Table II and the ~5%
overhead figure quoted for keeping sensitive blocks at 8-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..nn.unet import BLOCK_ATTENTION, BLOCK_CONV, BLOCK_EMBEDDING, BLOCK_SKIP, EDMUNet
from ..quant.formats import QuantFormatSpec, fp16_spec
from .policy import QuantizationPolicy


@dataclass(frozen=True)
class LayerCost:
    """Static cost of one quantizable layer (per network evaluation, batch 1)."""

    layer_name: str
    block_name: str
    block_type: str
    macs: float
    weight_elements: float
    activation_elements: float


@dataclass
class CostSummary:
    """Aggregate relative costs of a model under a quantization policy."""

    compute_cost: float
    memory_cost: float
    baseline_compute_cost: float
    baseline_memory_cost: float

    @property
    def compute_saving(self) -> float:
        if self.baseline_compute_cost == 0:
            return 0.0
        return 1.0 - self.compute_cost / self.baseline_compute_cost

    @property
    def memory_saving(self) -> float:
        if self.baseline_memory_cost == 0:
            return 0.0
        return 1.0 - self.memory_cost / self.baseline_memory_cost


def layer_cost_table(model: EDMUNet) -> list[LayerCost]:
    """Per-layer MAC and element counts for every quantizable layer of the U-Net."""
    costs: list[LayerCost] = []
    for info in model.block_infos():
        spatial = info.spatial
        block = info.block
        height, width = spatial
        pixels = height * width
        for idx, conv in enumerate(block.conv_layers()):
            costs.append(
                LayerCost(
                    layer_name=f"unet.{info.name}.conv{idx}",
                    block_name=info.name,
                    block_type=BLOCK_CONV,
                    macs=float(conv.macs(spatial)),
                    weight_elements=float(conv.weight.size),
                    activation_elements=float(conv.in_channels * pixels),
                )
            )
        costs.append(
            LayerCost(
                layer_name=f"unet.{info.name}.emb_linear",
                block_name=info.name,
                block_type=BLOCK_EMBEDDING,
                macs=float(block.emb_linear.macs(1)),
                weight_elements=float(block.emb_linear.weight.size),
                activation_elements=float(block.emb_linear.in_features),
            )
        )
        if block.skip_conv is not None:
            costs.append(
                LayerCost(
                    layer_name=f"unet.{info.name}.skip_conv",
                    block_name=info.name,
                    block_type=BLOCK_SKIP,
                    macs=float(block.skip_conv.macs(spatial)),
                    weight_elements=float(block.skip_conv.weight.size),
                    activation_elements=float(block.skip_conv.in_channels * pixels),
                )
            )
        if block.attention is not None:
            attn = block.attention
            tokens = pixels
            attention_matmul_macs = 2.0 * tokens * tokens * attn.channels
            costs.append(
                LayerCost(
                    layer_name=f"unet.{info.name}.attention.qkv",
                    block_name=info.name,
                    block_type=BLOCK_ATTENTION,
                    macs=float(attn.qkv.macs(spatial)) + attention_matmul_macs,
                    weight_elements=float(attn.qkv.weight.size),
                    activation_elements=float(3 * attn.channels * pixels),
                )
            )
            costs.append(
                LayerCost(
                    layer_name=f"unet.{info.name}.attention.proj",
                    block_name=info.name,
                    block_type=BLOCK_ATTENTION,
                    macs=float(attn.proj.macs(spatial)),
                    weight_elements=float(attn.proj.weight.size),
                    activation_elements=float(attn.channels * pixels),
                )
            )

    res = model.config.img_resolution
    for name, conv in (("unet.conv_in", model.conv_in), ("unet.conv_out", model.conv_out)):
        costs.append(
            LayerCost(
                layer_name=name,
                block_name=name.split(".")[-1],
                block_type=BLOCK_SKIP,
                macs=float(conv.macs((res, res))),
                weight_elements=float(conv.weight.size),
                activation_elements=float(conv.in_channels * res * res),
            )
        )
    for name, layer in (
        ("unet.emb_linear0", model.emb_linear0),
        ("unet.emb_linear1", model.emb_linear1),
    ):
        costs.append(
            LayerCost(
                layer_name=name,
                block_name=name.split(".")[-1],
                block_type=BLOCK_EMBEDDING,
                macs=float(layer.macs(1)),
                weight_elements=float(layer.weight.size),
                activation_elements=float(layer.in_features),
            )
        )
    return costs


def _compute_weight(weight_spec: QuantFormatSpec, act_spec: QuantFormatSpec) -> float:
    """Relative MAC cost versus FP16: proportional to the wider operand's bits.

    The paper's equivalence, 1 FP16 = 2 INT8 = 4 INT4 multiplies.
    """
    bits = max(weight_spec.element_bits, act_spec.element_bits)
    return bits / 16.0


def _memory_weight(
    weight_spec: QuantFormatSpec, act_spec: QuantFormatSpec, weight_elems: float, act_elems: float
) -> float:
    """Stored bits of a layer's weights + activations, including scale overhead.

    :meth:`QuantFormatSpec.bits_per_value` is the only storage cost.  It
    charges INT4-VSQ its FP16 vector scales, although the arithmetic stores
    them as UINT8 codes (README, "Quantization formats").
    """
    return weight_elems * weight_spec.bits_per_value() + act_elems * act_spec.bits_per_value()


def cost_summary(
    model: EDMUNet,
    policy: QuantizationPolicy | None,
    baseline_spec: QuantFormatSpec | None = None,
) -> CostSummary:
    """Relative compute/memory cost of ``policy`` versus an FP16 baseline.

    Layers the policy does not mention (or a ``None`` policy) are costed at
    the baseline precision.
    """
    baseline_spec = baseline_spec or fp16_spec()
    table = layer_cost_table(model)

    compute = 0.0
    memory = 0.0
    baseline_compute = 0.0
    baseline_memory = 0.0
    for cost in table:
        if policy is not None and cost.layer_name in policy.assignments:
            assignment = policy.assignments[cost.layer_name]
            weight_spec, act_spec = assignment.weight_spec, assignment.act_spec
        else:
            weight_spec = act_spec = baseline_spec
        compute += cost.macs * _compute_weight(weight_spec, act_spec)
        memory += _memory_weight(
            weight_spec, act_spec, cost.weight_elements, cost.activation_elements
        )
        baseline_compute += cost.macs * _compute_weight(baseline_spec, baseline_spec)
        baseline_memory += _memory_weight(
            baseline_spec, baseline_spec, cost.weight_elements, cost.activation_elements
        )
    return CostSummary(
        compute_cost=compute,
        memory_cost=memory,
        baseline_compute_cost=baseline_compute,
        baseline_memory_cost=baseline_memory,
    )


def high_precision_cost_fraction(model: EDMUNet, policy: QuantizationPolicy) -> float:
    """Fraction of total (FP16-equivalent) compute spent in >4-bit layers.

    The paper states the high-precision blocks account for only about 5% of
    the total cost, which is what justifies keeping them at MXINT8.
    """
    table = layer_cost_table(model)
    total = sum(c.macs for c in table)
    if total == 0:
        return 0.0
    high = 0.0
    for cost in table:
        assignment = policy.assignments.get(cost.layer_name)
        bits = assignment.weight_bits if assignment is not None else 16
        if bits > 4:
            high += cost.macs
    return high / total
