"""Numeric data format descriptors used throughout SQ-DM.

The paper evaluates a family of integer and floating-point formats for
weights and activations of diffusion models (Table I / Table II):

* ``FP32`` / ``FP16`` -- the unquantized baselines.
* ``INT8`` / ``INT4`` -- signed integers with coarse (per-channel) scale factors.
* ``UINT4`` -- unsigned 4-bit integers, usable after ReLU because the
  activation range becomes non-negative (Fig. 6).
* ``MXINT8`` -- 8-bit integers with fine-grained per-block shared scales
  (microscaling, Rouhani et al. 2023).
* ``INT4-VSQ`` -- 4-bit integers with per-vector scale factors (VS-Quant,
  Dai et al. 2021).
* ``INT4 + FP8 scale`` -- the paper's own 4-bit format: per-vector scale
  factors stored in FP8 (E4M3) to improve dynamic range (Sec. III-A).

A :class:`QuantFormatSpec` is the only description of a format: the
arithmetic in :mod:`repro.quant.uniform` and the cost model in
:mod:`repro.core.costs` both read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class ScaleGranularity(Enum):
    """Granularity at which the quantization scale factor is computed.

    The paper's Section II-A: "The max operator can be taken at different
    granularity of X, such as over the entire tensor, across each channel,
    or for each vector."
    """

    PER_TENSOR = "per_tensor"
    PER_CHANNEL = "per_channel"
    PER_VECTOR = "per_vector"
    PER_BLOCK = "per_block"

    @property
    def blocked(self) -> bool:
        """Whether scales are shared by blocks of ``block_size`` along the last axis."""
        return self in (ScaleGranularity.PER_BLOCK, ScaleGranularity.PER_VECTOR)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class ScaleFormat(Enum):
    """Numeric format in which scale factors themselves are stored."""

    FP32 = "fp32"
    FP16 = "fp16"
    FP8_E4M3 = "fp8_e4m3"
    POW2 = "pow2"  # power-of-two (shared exponent), used by MX formats

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class IntegerFormat:
    """A signed or unsigned integer container format.

    Parameters
    ----------
    bits:
        Total bit width of each element.
    signed:
        Whether the representation is two's-complement signed.
    """

    bits: int
    signed: bool = True

    def __post_init__(self) -> None:
        if self.bits < 2 or self.bits > 32:
            raise ValueError(f"unsupported integer bit width: {self.bits}")

    @property
    def qmin(self) -> int:
        """Smallest representable quantized integer."""
        if self.signed:
            return -(2 ** (self.bits - 1)) + 1  # symmetric: drop the extra negative code
        return 0

    @property
    def qmax(self) -> int:
        """Largest representable quantized integer."""
        if self.signed:
            return 2 ** (self.bits - 1) - 1
        return 2**self.bits - 1

    @property
    def num_levels(self) -> int:
        """Number of representable quantization levels (symmetric signed)."""
        return self.qmax - self.qmin + 1

    @property
    def name(self) -> str:
        prefix = "INT" if self.signed else "UINT"
        return f"{prefix}{self.bits}"

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class FloatFormat:
    """A floating-point container format described by exponent/mantissa bits."""

    exponent_bits: int
    mantissa_bits: int
    name: str

    @property
    def bits(self) -> int:
        return 1 + self.exponent_bits + self.mantissa_bits

    @property
    def max_value(self) -> float:
        """Largest finite representable magnitude (IEEE-like, E4M3 style)."""
        bias = 2 ** (self.exponent_bits - 1) - 1
        max_exp = 2**self.exponent_bits - 2 - bias
        mantissa_max = 2.0 - 2.0 ** (-self.mantissa_bits)
        if self.name == "FP8_E4M3":
            # E4M3 (OCP variant) reclaims the NaN row: max is 448.
            return 448.0
        return mantissa_max * (2.0**max_exp)

    @property
    def min_normal(self) -> float:
        bias = 2 ** (self.exponent_bits - 1) - 1
        return 2.0 ** (1 - bias)

    def __str__(self) -> str:
        return self.name


# Canonical container formats -------------------------------------------------

INT8 = IntegerFormat(bits=8, signed=True)
INT4 = IntegerFormat(bits=4, signed=True)
UINT4 = IntegerFormat(bits=4, signed=False)
UINT8 = IntegerFormat(bits=8, signed=False)

FP32 = FloatFormat(exponent_bits=8, mantissa_bits=23, name="FP32")
FP16 = FloatFormat(exponent_bits=5, mantissa_bits=10, name="FP16")
FP8_E4M3 = FloatFormat(exponent_bits=4, mantissa_bits=3, name="FP8_E4M3")
FP8_E5M2 = FloatFormat(exponent_bits=5, mantissa_bits=2, name="FP8_E5M2")


@dataclass(frozen=True)
class QuantFormatSpec:
    """Complete specification of a quantization format for a tensor.

    Combines the element container, the scale granularity, the block size
    for fine-grained scaling, and the numeric format of the scale factors.
    A ``QuantFormatSpec`` with ``element=None`` denotes an unquantized
    (floating-point) tensor and is used for the FP32/FP16 baselines.
    """

    name: str
    element: IntegerFormat | None
    granularity: ScaleGranularity = ScaleGranularity.PER_CHANNEL
    block_size: int = 0
    scale_format: ScaleFormat = ScaleFormat.FP32
    storage_bits: float = 32.0

    def __post_init__(self) -> None:
        if self.granularity.blocked and self.block_size < 1:
            raise ValueError(f"{self.name}: {self.granularity} needs block_size >= 1")

    @property
    def is_quantized(self) -> bool:
        return self.element is not None

    @property
    def element_bits(self) -> int:
        if self.element is None:
            return int(self.storage_bits)
        return self.element.bits

    def bits_per_value(self) -> float:
        """Average storage bits per tensor element, including scale overhead.

        Fine-grained formats amortize the scale factor over ``block_size``
        elements; coarse-grained formats amortize it over an entire channel,
        which we approximate as negligible overhead.
        """
        if self.element is None:
            return float(self.storage_bits)
        bits = float(self.element.bits)
        if self.block_size > 0:
            scale_bits = {
                ScaleFormat.FP32: 32,
                ScaleFormat.FP16: 16,
                ScaleFormat.FP8_E4M3: 8,
                ScaleFormat.POW2: 8,
            }[self.scale_format]
            bits += scale_bits / float(self.block_size)
        return bits

    def __str__(self) -> str:
        return self.name


# Named format specifications matching the paper's Tables I and II ------------

def fp32_spec() -> QuantFormatSpec:
    """Unquantized 32-bit floating point (paper baseline)."""
    return QuantFormatSpec(name="FP32", element=None, storage_bits=32.0)


def fp16_spec() -> QuantFormatSpec:
    """Unquantized 16-bit floating point (paper baseline, speed-up reference)."""
    return QuantFormatSpec(name="FP16", element=None, storage_bits=16.0)


def int8_spec() -> QuantFormatSpec:
    """Coarse-grained (per-channel scale) signed INT8."""
    return QuantFormatSpec(
        name="INT8",
        element=INT8,
        granularity=ScaleGranularity.PER_CHANNEL,
        scale_format=ScaleFormat.FP32,
    )


def mxint8_spec(block_size: int = 32) -> QuantFormatSpec:
    """MXINT8 -- 8-bit elements with a shared power-of-two scale per block."""
    return QuantFormatSpec(
        name="MXINT8",
        element=INT8,
        granularity=ScaleGranularity.PER_BLOCK,
        block_size=block_size,
        scale_format=ScaleFormat.POW2,
    )


def int4_spec() -> QuantFormatSpec:
    """Coarse-grained (per-channel scale) signed INT4."""
    return QuantFormatSpec(
        name="INT4",
        element=INT4,
        granularity=ScaleGranularity.PER_CHANNEL,
        scale_format=ScaleFormat.FP32,
    )


def int4_vsq_spec(vector_size: int = 16) -> QuantFormatSpec:
    """INT4-VSQ -- 4-bit elements with per-vector FP16 scale factors."""
    return QuantFormatSpec(
        name="INT4-VSQ",
        element=INT4,
        granularity=ScaleGranularity.PER_VECTOR,
        block_size=vector_size,
        scale_format=ScaleFormat.FP16,
    )


def int4_fp8_spec(vector_size: int = 16) -> QuantFormatSpec:
    """The paper's INT4 format with FP8 (E4M3) per-vector scale factors."""
    return QuantFormatSpec(
        name="INT4-FP8S",
        element=INT4,
        granularity=ScaleGranularity.PER_VECTOR,
        block_size=vector_size,
        scale_format=ScaleFormat.FP8_E4M3,
    )


def uint4_fp8_spec(vector_size: int = 16) -> QuantFormatSpec:
    """Unsigned 4-bit with FP8 scales, used for ReLU activations (Fig. 6)."""
    return QuantFormatSpec(
        name="UINT4-FP8S",
        element=UINT4,
        granularity=ScaleGranularity.PER_VECTOR,
        block_size=vector_size,
        scale_format=ScaleFormat.FP8_E4M3,
    )


#: Registry of the formats reported in Table I, keyed by the table row label.
TABLE1_FORMATS: dict[str, QuantFormatSpec] = {
    "FP32": fp32_spec(),
    "FP16": fp16_spec(),
    "INT8": int8_spec(),
    "MXINT8": mxint8_spec(),
    "INT4": int4_spec(),
    "INT4-VSQ": int4_vsq_spec(),
}


#: Every named format: the Table I rows plus the paper's FP8-scale formats.
_NAMED_FORMATS: dict[str, QuantFormatSpec] = {
    **TABLE1_FORMATS,
    "INT4-FP8S": int4_fp8_spec(),
    "UINT4-FP8S": uint4_fp8_spec(),
}


def get_format(name: str) -> QuantFormatSpec:
    """Look up a format spec by its canonical name.

    Raises ``KeyError`` with the list of known names when the format is
    unknown, which makes configuration typos easy to diagnose.
    """
    try:
        return _NAMED_FORMATS[name]
    except KeyError as exc:
        raise KeyError(
            f"unknown quantization format {name!r}; known formats: {sorted(_NAMED_FORMATS)}"
        ) from exc
