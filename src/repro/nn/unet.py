"""EDM-style U-Net denoiser built on the NumPy layer substrate.

The architecture follows Fig. 2 of the paper: an encoder/decoder U-Net whose
blocks fall into the four categories the paper analyses —

* ``Conv+SiLU`` (or ``Conv+ReLU`` after the SQ-DM swap): the residual
  convolution blocks that dominate compute (>90%) and memory (>85%).
* ``Skip``: the 1x1 convolutions that adapt channel counts on residual and
  encoder-to-decoder skip paths.
* ``Embedding``: the linear layers that inject the noise-level (and label)
  embedding into each block.
* ``Attention``: image self-attention at selected resolutions
  (e.g. ``enc.16x16_block1`` in EDM1 for CIFAR-10).

Blocks are named ``enc.{res}x{res}_block{i}`` / ``dec.{res}x{res}_block{i}``
so that block-wise sensitivity sweeps (Fig. 3) can address them exactly as
the paper does.  :meth:`EDMUNet.layers` lists every Conv2d/Linear with its
category and static cost; the stem convolutions ``conv_in``/``conv_out``
count as Skip and the noise-embedding MLP as Embedding.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import functional as F
from .layers import (
    Activation,
    Conv2d,
    Downsample,
    GroupNorm,
    Linear,
    Module,
    SelfAttention2d,
    Upsample,
)

#: Block-type labels used throughout the analysis package.
BLOCK_CONV = "Conv+Act"
BLOCK_SKIP = "Skip"
BLOCK_EMBEDDING = "Embedding"
BLOCK_ATTENTION = "Attention"


@dataclass
class UNetConfig:
    """Configuration of the EDM U-Net denoiser.

    The defaults produce a small model suitable for CPU simulation; the
    paper-scale workloads in :mod:`repro.workloads` scale ``model_channels``
    and ``img_resolution`` up per dataset.
    """

    img_resolution: int = 16
    in_channels: int = 3
    out_channels: int = 3
    model_channels: int = 16
    channel_mult: tuple[int, ...] = (1, 2)
    num_blocks_per_res: int = 1
    attn_resolutions: tuple[int, ...] = (8,)
    emb_dim_mult: int = 4
    activation: str = "silu"
    label_dim: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.img_resolution < 4:
            raise ValueError("img_resolution must be at least 4")
        if self.img_resolution % (2 ** (len(self.channel_mult) - 1)) != 0:
            raise ValueError(
                "img_resolution must be divisible by 2^(len(channel_mult)-1) "
                f"(got {self.img_resolution} with {len(self.channel_mult)} levels)"
            )
        if self.activation not in ("silu", "relu"):
            raise ValueError(f"activation must be 'silu' or 'relu', got {self.activation!r}")

    @property
    def emb_dim(self) -> int:
        return self.model_channels * self.emb_dim_mult

    @property
    def resolutions(self) -> list[int]:
        return [self.img_resolution // (2**level) for level in range(len(self.channel_mult))]


@dataclass(frozen=True)
class UNetLayer:
    """One Conv2d/Linear of the U-Net: its name, Fig. 2 category and static cost.

    Costs are per network evaluation at batch 1: ``macs`` multiply-accumulates
    at ``spatial``, the output (height, width) (``(1, 1)`` for a Linear),
    ``weight_elements`` stored weights and ``activation_elements`` input
    activations.  ``activation`` is the non-linearity feeding a Conv+Act
    convolution (``act0`` feeds ``conv0``, ``act1`` feeds ``conv1``): its
    zeros are the operands the SPE skips.
    """

    name: str
    block: str
    category: str
    module: Conv2d | Linear
    spatial: tuple[int, int]
    macs: float
    weight_elements: float
    activation_elements: float
    activation: Activation | None = None


def _layer(
    prefix: str,
    block: str,
    category: str,
    module: Conv2d | Linear,
    spatial: tuple[int, int] = (1, 1),
    activation: Activation | None = None,
) -> UNetLayer:
    height, width = spatial
    if isinstance(module, Conv2d):
        macs, inputs = module.macs(spatial), module.in_channels * height * width
    else:
        macs, inputs = module.macs(1), module.in_features
    return UNetLayer(
        name=f"{prefix}.{module.name}",
        block=block,
        category=category,
        module=module,
        spatial=spatial,
        macs=float(macs),
        weight_elements=float(module.weight.size),
        activation_elements=float(inputs),
        activation=activation,
    )


class UNetBlock(Module):
    """One residual block: GN → act → conv → (+emb) → GN → act → conv (+skip).

    Matches the structure of EDM's ``UNetBlock``: two 3x3 convolutions with a
    noise-embedding injection between them, a 1x1 skip convolution when the
    channel count changes, and optional image self-attention.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        emb_dim: int,
        activation: str,
        use_attention: bool,
        name: str,
        rng: np.random.Generator,
    ):
        super().__init__(name=name)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.use_attention = use_attention

        self.norm0 = GroupNorm(in_channels, name="norm0")
        self.act0 = Activation(activation, name="act0")
        self.conv0 = Conv2d(in_channels, out_channels, kernel_size=3, name="conv0", rng=rng)
        self.emb_linear = Linear(emb_dim, out_channels, name="emb_linear", rng=rng)
        self.norm1 = GroupNorm(out_channels, name="norm1")
        self.act1 = Activation(activation, name="act1")
        self.conv1 = Conv2d(out_channels, out_channels, kernel_size=3, name="conv1", rng=rng)
        self.skip_conv = (
            Conv2d(in_channels, out_channels, kernel_size=1, padding=0, name="skip_conv", rng=rng)
            if in_channels != out_channels
            else None
        )
        self.attention = (
            SelfAttention2d(out_channels, name="attention", rng=rng) if use_attention else None
        )

    def forward(self, x: np.ndarray, emb: np.ndarray) -> np.ndarray:
        h = self.conv0(self.act0(self.norm0(x)))
        emb_out = self.emb_linear(emb)
        h = h + emb_out[:, :, None, None]
        h = self.conv1(self.act1(self.norm1(h)))
        skip = x if self.skip_conv is None else self.skip_conv(x)
        out = (h + skip) / np.sqrt(2.0)
        if self.attention is not None:
            out = self.attention(out)
        return self._record(out)

    def set_activation(self, kind: str) -> None:
        """Swap the non-linearity of this block (SiLU → ReLU for SQ-DM)."""
        self.act0.kind = kind
        self.act1.kind = kind

    def layers(self, prefix: str, spatial: tuple[int, int]) -> list[UNetLayer]:
        """This block's Conv2d/Linear layers, in :meth:`EDMUNet.layers` order."""
        prefix = f"{prefix}.{self.name}"
        layers = [
            _layer(prefix, self.name, BLOCK_CONV, self.conv0, spatial, self.act0),
            _layer(prefix, self.name, BLOCK_CONV, self.conv1, spatial, self.act1),
            _layer(prefix, self.name, BLOCK_EMBEDDING, self.emb_linear),
        ]
        if self.skip_conv is not None:
            layers.append(_layer(prefix, self.name, BLOCK_SKIP, self.skip_conv, spatial))
        if self.attention is not None:
            attn = self.attention
            attn_prefix = f"{prefix}.{attn.name}"
            qkv = _layer(attn_prefix, self.name, BLOCK_ATTENTION, attn.qkv, spatial)
            tokens = spatial[0] * spatial[1]
            # qkv carries the two attention matmuls (Q K^T and A V) and counts
            # the q, k and v maps it produces as its activations.
            layers.append(
                replace(
                    qkv,
                    macs=qkv.macs + 2.0 * tokens * tokens * attn.channels,
                    activation_elements=float(3 * attn.channels * tokens),
                )
            )
            layers.append(_layer(attn_prefix, self.name, BLOCK_ATTENTION, attn.proj, spatial))
        return layers


@dataclass
class BlockInfo:
    """Description of one named U-Net block, used by analysis and policies."""

    name: str
    block: UNetBlock
    resolution: int
    stage: str  # "enc" or "dec"
    index: int
    order: int  # position in forward execution order

    @property
    def spatial(self) -> tuple[int, int]:
        return (self.resolution, self.resolution)


class EDMUNet(Module):
    """The full encoder/decoder U-Net used as the EDM denoiser backbone."""

    def __init__(self, config: UNetConfig):
        super().__init__(name="unet")
        self.config = config
        rng = np.random.default_rng(config.seed)
        cm = config.model_channels

        # Noise-level embedding MLP (the "Embedding" block category).
        self.emb_linear0 = Linear(cm, config.emb_dim, name="emb_linear0", rng=rng)
        self.emb_act = Activation(config.activation, name="emb_act")
        self.emb_linear1 = Linear(config.emb_dim, config.emb_dim, name="emb_linear1", rng=rng)
        self.label_linear = (
            Linear(config.label_dim, config.emb_dim, name="label_linear", rng=rng)
            if config.label_dim > 0
            else None
        )

        self.conv_in = Conv2d(config.in_channels, cm, kernel_size=3, name="conv_in", rng=rng)

        # Encoder.
        self.enc_blocks: list[UNetBlock] = []
        self.downsamples: list[Downsample] = []
        self._block_infos: list[BlockInfo] = []
        order = 0
        channels = cm
        skip_channels: list[int] = [cm]
        for level, mult in enumerate(config.channel_mult):
            resolution = config.resolutions[level]
            out_ch = cm * mult
            for i in range(config.num_blocks_per_res):
                name = f"enc.{resolution}x{resolution}_block{i}"
                block = UNetBlock(
                    channels,
                    out_ch,
                    config.emb_dim,
                    config.activation,
                    use_attention=resolution in config.attn_resolutions,
                    name=name,
                    rng=rng,
                )
                self.enc_blocks.append(block)
                self._block_infos.append(
                    BlockInfo(
                        name=name,
                        block=block,
                        resolution=resolution,
                        stage="enc",
                        index=i,
                        order=order,
                    )
                )
                order += 1
                channels = out_ch
                skip_channels.append(out_ch)
            if level < len(config.channel_mult) - 1:
                self.downsamples.append(Downsample(name=f"down_{resolution}"))

        # Decoder (mirrors the encoder, consuming skip connections).
        self.dec_blocks: list[UNetBlock] = []
        self.upsamples: list[Upsample] = []
        for level in reversed(range(len(config.channel_mult))):
            resolution = config.resolutions[level]
            out_ch = cm * config.channel_mult[level]
            for i in range(config.num_blocks_per_res):
                skip_ch = skip_channels.pop()
                name = f"dec.{resolution}x{resolution}_block{i}"
                block = UNetBlock(
                    channels + skip_ch,
                    out_ch,
                    config.emb_dim,
                    config.activation,
                    use_attention=resolution in config.attn_resolutions,
                    name=name,
                    rng=rng,
                )
                self.dec_blocks.append(block)
                self._block_infos.append(
                    BlockInfo(
                        name=name,
                        block=block,
                        resolution=resolution,
                        stage="dec",
                        index=i,
                        order=order,
                    )
                )
                order += 1
                channels = out_ch
            if level > 0:
                self.upsamples.append(Upsample(name=f"up_{resolution}"))

        self.norm_out = GroupNorm(channels, name="norm_out")
        self.act_out = Activation(config.activation, name="act_out")
        self.conv_out = Conv2d(
            channels, config.out_channels, kernel_size=3, name="conv_out", rng=rng
        )

    # -- structure ----------------------------------------------------------

    def block_infos(self) -> list[BlockInfo]:
        """All named U-Net blocks in execution order."""
        return list(self._block_infos)

    def block_names(self) -> list[str]:
        return [info.name for info in self._block_infos]

    def get_block(self, name: str) -> UNetBlock:
        for info in self._block_infos:
            if info.name == name:
                return info.block
        raise KeyError(f"unknown block {name!r}; available: {self.block_names()}")

    def set_activation(self, kind: str) -> None:
        """Swap every non-linearity in the model (SiLU ↔ ReLU)."""
        self.config.activation = kind
        self.emb_act.kind = kind
        self.act_out.kind = kind
        for info in self._block_infos:
            info.block.set_activation(kind)

    def layers(self) -> list[UNetLayer]:
        """Every Conv2d/Linear once, under the name :meth:`named_modules` gives it.

        The one layer inventory: quantization policies, cost summaries, the
        Fig. 4 breakdown, sparsity traces and the ReLU calibration all read
        it.  Built from the modules on each call.  Order: per block, in
        execution order, conv0, conv1, emb_linear, skip_conv, attention.qkv
        and attention.proj; then conv_in, conv_out, emb_linear0, emb_linear1
        and label_linear.  Cost sums run in this order.
        """
        layers = [
            layer
            for info in self._block_infos
            for layer in info.block.layers(self.name, info.spatial)
        ]
        res = self.config.img_resolution
        for conv in (self.conv_in, self.conv_out):
            layers.append(_layer(self.name, conv.name, BLOCK_SKIP, conv, (res, res)))
        for linear in (self.emb_linear0, self.emb_linear1, self.label_linear):
            if linear is not None:
                layers.append(_layer(self.name, linear.name, BLOCK_EMBEDDING, linear))
        return layers

    # -- execution ----------------------------------------------------------

    def compute_embedding(
        self, noise_cond: np.ndarray, labels: np.ndarray | None = None
    ) -> np.ndarray:
        """Noise-level (and optional class-label) embedding vector."""
        emb = F.positional_embedding(noise_cond, self.config.model_channels)
        emb = self.emb_linear0(emb)
        if self.label_linear is not None and labels is not None:
            emb = emb + self.label_linear(labels)
        emb = self.emb_act(emb)
        emb = self.emb_linear1(emb)
        return emb

    def forward(
        self, x: np.ndarray, noise_cond: np.ndarray, labels: np.ndarray | None = None
    ) -> np.ndarray:
        """Predict the denoised signal component F_theta(x; sigma).

        ``noise_cond`` is the (already preconditioned) noise-level input
        ``c_noise(sigma)`` with one entry per batch element.
        """
        emb = self.compute_embedding(noise_cond, labels)

        h = self.conv_in(x)
        skips = [h]
        enc_iter = iter(self.enc_blocks)
        down_iter = iter(self.downsamples)
        for level in range(len(self.config.channel_mult)):
            for _ in range(self.config.num_blocks_per_res):
                h = next(enc_iter)(h, emb)
                skips.append(h)
            if level < len(self.config.channel_mult) - 1:
                h = next(down_iter)(h)

        dec_iter = iter(self.dec_blocks)
        up_iter = iter(self.upsamples)
        for level in reversed(range(len(self.config.channel_mult))):
            for _ in range(self.config.num_blocks_per_res):
                skip = skips.pop()
                if skip.shape[2] != h.shape[2]:
                    skip = (
                        F.downsample2x(skip) if skip.shape[2] > h.shape[2] else F.upsample2x(skip)
                    )
                h = next(dec_iter)(np.concatenate([h, skip], axis=1), emb)
            if level > 0:
                h = next(up_iter)(h)

        out = self.conv_out(self.act_out(self.norm_out(h)))
        return self._record(out)
