"""NumPy DNN substrate: functional ops, layer modules and the EDM U-Net."""

from . import functional
from .layers import (
    Activation,
    Conv2d,
    Downsample,
    GroupNorm,
    Linear,
    Module,
    SelfAttention2d,
    Sequential,
    Upsample,
)
from .unet import (
    BLOCK_ATTENTION,
    BLOCK_CONV,
    BLOCK_EMBEDDING,
    BLOCK_SKIP,
    BlockInfo,
    EDMUNet,
    UNetBlock,
    UNetConfig,
    UNetLayer,
)

__all__ = [
    "BLOCK_ATTENTION",
    "BLOCK_CONV",
    "BLOCK_EMBEDDING",
    "BLOCK_SKIP",
    "Activation",
    "BlockInfo",
    "Conv2d",
    "Downsample",
    "EDMUNet",
    "GroupNorm",
    "Linear",
    "Module",
    "SelfAttention2d",
    "Sequential",
    "UNetBlock",
    "UNetConfig",
    "UNetLayer",
    "Upsample",
    "functional",
]
