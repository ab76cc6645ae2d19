"""Mixed-precision quantization policy (Sec. III-A and III-B of the paper).

The SQ-DM quantization scheme:

* **Sensitive blocks stay at 8-bit.**  The block-wise sensitivity experiment
  (Fig. 3) shows only the first and last few U-Net blocks are materially
  sensitive to 4-bit quantization; keeping them at MXINT8 costs only ~5% of
  total compute/memory.
* **Everything else goes to 4-bit** using the paper's INT4 format with FP8
  (E4M3) per-vector scale factors for weights, and — once SiLU has been
  replaced with ReLU — UINT4 with FP8 scales for activations, so that all 16
  levels of the 4-bit code are used (Fig. 6).
* **Skip / Embedding / Attention blocks stay at 8-bit** because they account
  for well under 10% of compute and memory (Fig. 4).

``QuantizationPolicy`` assigns a weight/activation format pair to every
layer of :meth:`EDMUNet.layers <repro.nn.unet.EDMUNet.layers>`, keyed by
layer name, and can apply or strip those assignments in place.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..nn.unet import BLOCK_CONV, EDMUNet
from ..quant.formats import (
    TABLE1_FORMATS,
    QuantFormatSpec,
    int4_fp8_spec,
    mxint8_spec,
    uint4_fp8_spec,
)


@dataclass(frozen=True)
class LayerAssignment:
    """Weight and activation formats of one quantizable layer."""

    weight_spec: QuantFormatSpec
    act_spec: QuantFormatSpec

    @property
    def weight_bits(self) -> int:
        return self.weight_spec.element_bits

    @property
    def act_bits(self) -> int:
        return self.act_spec.element_bits


@dataclass
class QuantizationPolicy:
    """A complete per-layer format assignment for a U-Net.

    ``name`` identifies the scheme in tables ("INT4-VSQ", "Ours (MP-only)",
    "Ours (MP+ReLU)", ...).  ``assignments`` maps layer names to their
    format pair.
    """

    name: str
    assignments: dict[str, LayerAssignment] = field(default_factory=dict)
    requires_relu: bool = False

    def apply(self, model: EDMUNet) -> None:
        """Attach the weight/activation specs to the model's layers in place."""
        layer_index = {layer.name: layer.module for layer in model.layers()}
        for layer_name, assignment in self.assignments.items():
            layer = layer_index.get(layer_name)
            if layer is None:
                raise KeyError(f"policy refers to unknown layer {layer_name!r}")
            layer.weight_spec = (
                assignment.weight_spec if assignment.weight_spec.is_quantized else None
            )
            layer.act_spec = assignment.act_spec if assignment.act_spec.is_quantized else None

    def clear(self, model: EDMUNet) -> None:
        """Remove all quantization specs from the model."""
        for layer in model.layers():
            layer.module.weight_spec = None
            layer.module.act_spec = None

    def bits_for_layer(self, layer_name: str) -> tuple[int, int]:
        """(weight_bits, act_bits) a layer executes at under this policy."""
        assignment = self.assignments.get(layer_name)
        if assignment is None:
            return 16, 16
        return assignment.weight_bits, assignment.act_bits


def sensitive_block_names(model: EDMUNet, num_boundary_blocks: int = 1) -> set[str]:
    """Blocks kept at 8-bit: the first and last ``num_boundary_blocks`` blocks.

    Mirrors the conclusion of Fig. 3 ("only the first and last few blocks are
    generally more sensitive to quantization").
    """
    infos = model.block_infos()
    if not infos:
        return set()
    k = max(0, min(num_boundary_blocks, len(infos)))
    ordered = sorted(infos, key=lambda info: info.order)
    names = {info.name for info in ordered[:k]}
    names.update(info.name for info in ordered[-k:] if k > 0)
    return names


def uniform_policy(
    model: EDMUNet, spec: QuantFormatSpec, name: str | None = None
) -> QuantizationPolicy:
    """Quantize every layer's weights and activations with one format (Table I rows)."""
    assignment = LayerAssignment(weight_spec=spec, act_spec=spec)
    return QuantizationPolicy(
        name=name or spec.name,
        assignments={layer.name: assignment for layer in model.layers()},
    )


def mixed_precision_policy(
    model: EDMUNet,
    relu: bool = False,
    num_boundary_blocks: int = 1,
    low_precision_block: QuantFormatSpec | None = None,
    name: str | None = None,
) -> QuantizationPolicy:
    """The paper's mixed-precision policy: Ours (MP-only) or Ours (MP+ReLU).

    Conv+Act convolutions in non-sensitive blocks run at 4-bit (INT4+FP8
    scales for weights; UINT4+FP8 scales for activations when ``relu`` is
    true, signed INT4 otherwise).  Sensitive boundary blocks and all Skip /
    Embedding / Attention layers run at MXINT8.
    """
    mxint8 = mxint8_spec()
    eight_bit = LayerAssignment(weight_spec=mxint8, act_spec=mxint8)
    four_bit = LayerAssignment(
        weight_spec=low_precision_block or int4_fp8_spec(),
        act_spec=uint4_fp8_spec() if relu else int4_fp8_spec(),
    )
    sensitive = sensitive_block_names(model, num_boundary_blocks)

    default_name = "Ours (MP+ReLU)" if relu else "Ours (MP-only)"
    policy = QuantizationPolicy(name=name or default_name, requires_relu=relu)
    for layer in model.layers():
        use_4bit = layer.category == BLOCK_CONV and layer.block not in sensitive
        policy.assignments[layer.name] = four_bit if use_4bit else eight_bit
    return policy


def single_block_4bit_policy(
    model: EDMUNet, block_name: str, low_precision: QuantFormatSpec | None = None
) -> QuantizationPolicy:
    """Sensitivity-sweep policy (Fig. 3): one block at 4-bit, all others at MXINT8."""
    if block_name not in set(model.block_names()):
        raise KeyError(f"unknown block {block_name!r}; available: {model.block_names()}")
    mxint8 = mxint8_spec()
    four_bit_spec = low_precision or int4_fp8_spec()
    eight_bit = LayerAssignment(weight_spec=mxint8, act_spec=mxint8)
    four_bit = LayerAssignment(weight_spec=four_bit_spec, act_spec=four_bit_spec)
    policy = QuantizationPolicy(name=f"4bit@{block_name}")
    for layer in model.layers():
        use_4bit = layer.block == block_name and layer.category == BLOCK_CONV
        policy.assignments[layer.name] = four_bit if use_4bit else eight_bit
    return policy


def table1_policy(model: EDMUNet, format_name: str) -> QuantizationPolicy:
    """Uniform policy for one of the Table I format rows."""
    try:
        spec = TABLE1_FORMATS[format_name]
    except KeyError as exc:
        raise KeyError(
            f"unknown Table I format {format_name!r}; expected one of {sorted(TABLE1_FORMATS)}"
        ) from exc
    return uniform_policy(model, spec, name=format_name)
