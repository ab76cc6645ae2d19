"""Layer modules for the NumPy DNN substrate.

A small module system in the spirit of ``torch.nn`` but built on NumPy:
modules own their parameters as NumPy arrays, expose a ``forward`` method,
can be traversed via ``modules``/``named_modules``, and support two cross-cutting
concerns required by the SQ-DM study:

* **Quantization** -- ``Conv2d`` and ``Linear`` accept weight/activation
  :class:`~repro.quant.formats.QuantFormatSpec` objects and inject the
  corresponding fake-quantization error in their forward pass.
* **Instrumentation** -- when recording is enabled, layers capture their
  output activations so the analysis package can study distributions
  (Fig. 5/6) and temporal per-channel sparsity (Fig. 7).
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from ..quant.dispatch import apply_activation_format, apply_weight_format
from ..quant.formats import QuantFormatSpec
from . import functional as F


class Module:
    """Base class for all layers.

    Subclasses set parameters as attributes and implement ``forward``.
    Child modules registered as attributes are discovered automatically by
    ``modules``/``named_modules``/``children``.
    """

    def __init__(self, name: str = ""):
        self.name = name
        self.recording = False
        self.last_output: np.ndarray | None = None

    # -- traversal ----------------------------------------------------------

    def children(self) -> list["Module"]:
        """Direct child modules, in attribute definition order."""
        found: list[Module] = []
        for value in self.__dict__.values():
            if isinstance(value, Module):
                found.append(value)
            elif isinstance(value, (list, tuple)):
                found.extend(v for v in value if isinstance(v, Module))
        return found

    def modules(self) -> Iterator["Module"]:
        """All descendant modules, self first, in :meth:`named_modules` order.

        Builds no dotted names, so walks that only look at the modules
        themselves (quantization specs, recording flags) stay cheap.
        """
        yield self
        for child in self.children():
            yield from child.modules()

    def named_modules(self, prefix: str = "") -> list[tuple[str, "Module"]]:
        """All descendant modules as (dotted_name, module) pairs, self included."""
        own_name = prefix or self.name or type(self).__name__
        result = [(own_name, self)]
        for child in self.children():
            child_prefix = f"{own_name}.{child.name or type(child).__name__}"
            result.extend(child.named_modules(prefix=child_prefix))
        return result

    def parameters(self) -> dict[str, np.ndarray]:
        """Flat dict of all parameters keyed by dotted names."""
        params: dict[str, np.ndarray] = {}
        for mod_name, module in self.named_modules():
            for key, value in module.__dict__.items():
                if isinstance(value, np.ndarray) and key not in ("last_output",):
                    params[f"{mod_name}.{key}"] = value
        return params

    # -- instrumentation ----------------------------------------------------

    def set_recording(self, enabled: bool) -> None:
        """Enable or disable output capture for this module and all children."""
        for module in self.modules():
            module.recording = enabled
            if not enabled:
                module.last_output = None

    def _record(self, out: np.ndarray) -> np.ndarray:
        if self.recording:
            self.last_output = np.array(out, copy=True)
        return out

    # -- execution ----------------------------------------------------------

    def forward(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover - interface
        raise NotImplementedError

    def __call__(self, *args, **kwargs) -> np.ndarray:
        return self.forward(*args, **kwargs)


#: ``(weight, spec, apply_weight_format(weight, spec))`` memoised on a layer.
_FormattedWeight = tuple[np.ndarray, QuantFormatSpec, np.ndarray]


def _effective_weight(layer: Conv2d | Linear) -> np.ndarray:
    """The weight a forward pass multiplies by: fake-quantized under ``weight_spec``.

    Weights are constant during sampling and change only by reassignment, so
    the quantized weight is computed once per (weight object, spec) and
    reused by every later forward pass.  The memo holds the weight itself,
    so its identity cannot be reused by another array.
    """
    spec = layer.weight_spec
    if spec is None:
        return layer.weight
    memo = layer._formatted_weight
    if memo is None or memo[0] is not layer.weight or memo[1] != spec:
        quantized = apply_weight_format(layer.weight, spec, out_channel_axis=0)
        memo = layer._formatted_weight = (layer.weight, spec, quantized)
    return memo[2]


class Conv2d(Module):
    """2-D convolution with optional weight/activation fake quantization.

    The activation spec quantizes the *input* of the convolution along the
    input-channel axis (the matmul reduction dimension), matching how a
    vector-MAC accelerator consumes per-vector scaled operands.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int = 3,
        stride: int = 1,
        padding: int | None = None,
        bias: bool = True,
        name: str = "",
        rng: np.random.Generator | None = None,
    ):
        super().__init__(name=name)
        rng = rng or np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = kernel_size // 2 if padding is None else padding
        fan_in = in_channels * kernel_size * kernel_size
        self.weight = rng.normal(
            0.0, 1.0 / np.sqrt(fan_in), (out_channels, in_channels, kernel_size, kernel_size)
        )
        self.bias = np.zeros(out_channels) if bias else None
        self.weight_spec: QuantFormatSpec | None = None
        self.act_spec: QuantFormatSpec | None = None
        self._formatted_weight: _FormattedWeight | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        weight = _effective_weight(self)
        if self.act_spec is not None:
            x = apply_activation_format(x, self.act_spec, channel_axis=1)
        out = F.conv2d(x, weight, self.bias, stride=self.stride, padding=self.padding)
        return self._record(out)

    def macs(self, spatial: tuple[int, int]) -> int:
        """Multiply-accumulate count for one forward pass at the given output spatial size."""
        out_h, out_w = spatial
        return int(
            self.out_channels
            * self.in_channels
            * self.kernel_size
            * self.kernel_size
            * out_h
            * out_w
        )


class Linear(Module):
    """Affine layer with optional weight/activation fake quantization."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        name: str = "",
        rng: np.random.Generator | None = None,
    ):
        super().__init__(name=name)
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = rng.normal(0.0, 1.0 / np.sqrt(in_features), (out_features, in_features))
        self.bias = np.zeros(out_features) if bias else None
        self.weight_spec: QuantFormatSpec | None = None
        self.act_spec: QuantFormatSpec | None = None
        self._formatted_weight: _FormattedWeight | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        weight = _effective_weight(self)
        if self.act_spec is not None:
            x = apply_activation_format(x, self.act_spec, channel_axis=x.ndim - 1)
        out = F.linear(x, weight, self.bias)
        return self._record(out)

    def macs(self, batch_tokens: int = 1) -> int:
        """MAC count for ``batch_tokens`` input rows."""
        return int(batch_tokens * self.in_features * self.out_features)


class GroupNorm(Module):
    """Group normalization with learnable per-channel scale and shift."""

    def __init__(self, num_channels: int, num_groups: int = 8, name: str = ""):
        super().__init__(name=name)
        num_groups = min(num_groups, num_channels)
        while num_channels % num_groups != 0:
            num_groups -= 1
        self.num_groups = max(num_groups, 1)
        self.num_channels = num_channels
        self.gamma = np.ones(num_channels)
        self.beta = np.zeros(num_channels)

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = F.group_norm(x, self.num_groups, self.gamma, self.beta)
        return self._record(out)


class Activation(Module):
    """SiLU or ReLU non-linearity; the swap between them is the heart of SQ-DM."""

    def __init__(self, kind: str = "silu", name: str = ""):
        super().__init__(name=name)
        if kind not in ("silu", "relu", "none"):
            raise ValueError(f"unsupported activation kind: {kind!r}")
        self.kind = kind

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = F.activation_fn(self.kind)(x)
        return self._record(out)


class Downsample(Module):
    """2x average-pool downsampling used on the encoder path."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self._record(F.downsample2x(x))


class Upsample(Module):
    """2x nearest-neighbour upsampling used on the decoder path."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self._record(F.upsample2x(x))


class SelfAttention2d(Module):
    """Single-head image self-attention over spatial positions (EDM attention block)."""

    def __init__(
        self,
        channels: int,
        num_heads: int = 1,
        name: str = "",
        rng: np.random.Generator | None = None,
    ):
        super().__init__(name=name)
        rng = rng or np.random.default_rng(0)
        if channels % num_heads != 0:
            raise ValueError(f"{channels} channels not divisible by {num_heads} heads")
        self.channels = channels
        self.num_heads = num_heads
        self.norm = GroupNorm(channels, name="norm")
        self.qkv = Conv2d(channels, channels * 3, kernel_size=1, padding=0, name="qkv", rng=rng)
        self.proj = Conv2d(channels, channels, kernel_size=1, padding=0, name="proj", rng=rng)

    def forward(self, x: np.ndarray) -> np.ndarray:
        batch, channels, height, width = x.shape
        h = self.norm(x)
        qkv = self.qkv(h)
        tokens = height * width
        head_dim = channels // self.num_heads
        qkv = qkv.reshape(batch, 3, self.num_heads, head_dim, tokens)
        q = np.moveaxis(qkv[:, 0], -1, -2)
        k = np.moveaxis(qkv[:, 1], -1, -2)
        v = np.moveaxis(qkv[:, 2], -1, -2)
        attn = F.scaled_dot_product_attention(q, k, v)
        attn = np.moveaxis(attn, -2, -1).reshape(batch, channels, height, width)
        out = x + self.proj(attn)
        return self._record(out)


class Sequential(Module):
    """Run child modules in order."""

    def __init__(self, modules: list[Module], name: str = ""):
        super().__init__(name=name)
        self.modules_list = list(modules)

    def forward(self, x: np.ndarray) -> np.ndarray:
        for module in self.modules_list:
            x = module(x)
        return self._record(x)
