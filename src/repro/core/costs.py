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

from ..nn.unet import EDMUNet
from ..quant.formats import QuantFormatSpec, fp16_spec
from .policy import QuantizationPolicy


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

    Sums over :meth:`EDMUNet.layers <repro.nn.unet.EDMUNet.layers>` in its
    order.  Layers the policy does not mention (or a ``None`` policy) are
    costed at the baseline precision.
    """
    baseline_spec = baseline_spec or fp16_spec()
    compute = 0.0
    memory = 0.0
    baseline_compute = 0.0
    baseline_memory = 0.0
    for layer in model.layers():
        if policy is not None and layer.name in policy.assignments:
            assignment = policy.assignments[layer.name]
            weight_spec, act_spec = assignment.weight_spec, assignment.act_spec
        else:
            weight_spec = act_spec = baseline_spec
        compute += layer.macs * _compute_weight(weight_spec, act_spec)
        memory += _memory_weight(
            weight_spec, act_spec, layer.weight_elements, layer.activation_elements
        )
        baseline_compute += layer.macs * _compute_weight(baseline_spec, baseline_spec)
        baseline_memory += _memory_weight(
            baseline_spec, baseline_spec, layer.weight_elements, layer.activation_elements
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
    layers = model.layers()
    total = sum(layer.macs for layer in layers)
    if total == 0:
        return 0.0
    high = 0.0
    for layer in layers:
        assignment = policy.assignments.get(layer.name)
        bits = assignment.weight_bits if assignment is not None else 16
        if bits > 4:
            high += layer.macs
    return high / total
