"""Patch-based visual encoder for single images or batches of images.

Images are cut into non-overlapping patches, linearly embedded, tagged with
fixed 2-D sinusoidal position codes (half the width for the row, half for the
column) and passed through self-attention blocks.  Features are read from the
penultimate layer of a ``blocks``-deep encoder, so the last block is never
allocated (as BLIP-2 removes the last ViT layer): ``blocks - 1`` blocks run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError
from .nn import Linear, Mask, Module, TransformerBlock, sinusoidal_embedding
from .tensor import Tensor, as_tensor


@dataclass
class VisionConfig:
    channels: int = 3
    image_size: int = 32
    patch_size: int = 8
    dim: int = 64
    blocks: int = 3  # full encoder depth; features come from its penultimate layer
    heads: int = 4
    ff_mult: int = 4


def sinusoidal_grid_embedding(side: int, dim: int) -> Tensor:
    """Fixed 2-D position table: half the width encodes the row, half the column."""
    if dim % 2 != 0:
        raise ContractError(f"2-d positional table needs an even dim, got {dim}")
    axis = sinusoidal_embedding(side, dim // 2).data
    rows = np.repeat(axis, side, axis=0)
    cols = np.tile(axis, (side, 1))
    return Tensor(np.concatenate([rows, cols], axis=1))


class VisualEncoder(Module):
    def __init__(self, rng: np.random.Generator, config: VisionConfig):
        if config.blocks < 1:
            raise ContractError(f"vision encoder needs at least 1 block, got {config.blocks}")
        if config.image_size % config.patch_size != 0:
            raise ContractError(
                f"image size {config.image_size} not divisible by patch {config.patch_size}"
            )
        self.config = config
        side = config.image_size // config.patch_size
        patch_dim = config.channels * config.patch_size**2
        self.patch_embed = Linear(rng, patch_dim, config.dim)
        self.pos = sinusoidal_grid_embedding(side, config.dim)
        self.blocks = [
            TransformerBlock(rng, config.dim, config.heads, ff_mult=config.ff_mult)
            for _ in range(config.blocks - 1)
        ]

    def _patchify(self, image: Tensor) -> Tensor:
        """(..., c, H, W) -> (..., patches, c * p * p)."""
        if image.ndim < 3:
            raise DimensionError(f"expected (..., c, H, W) pixels, got {image.shape}")
        *lead, c, h, w = image.shape
        p = self.config.patch_size
        if c != self.config.channels:
            raise DimensionError(f"expected {self.config.channels} channels, got {c}")
        if h % p != 0 or w % p != 0:
            raise DimensionError(f"spatial extents {h}x{w} not divisible by patch {p}")
        gh, gw = h // p, w // p
        n = len(lead)
        return (
            image.reshape(*lead, c, gh, p, gw, p)
            .transpose(*range(n), n + 1, n + 3, n, n + 2, n + 4)
            .reshape(*lead, gh * gw, c * p * p)
        )

    def encode_image(self, image) -> Tensor:
        """Tokens (..., patches, dim) of an image or a batch of images (..., c, H, W)."""
        x = self.patch_embed(self._patchify(as_tensor(image))) + self.pos
        for block in self.blocks:
            x = block(x, Mask.full())
        return x
