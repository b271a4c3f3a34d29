"""Patch-based visual encoder for single images or batches of images.

Images are cut into non-overlapping patches, linearly embedded and tagged
with fixed 2-D sinusoidal position codes (half the width for the row, half
for the column).  Those tokens are the encoder's features: no attention
block runs here, and the bridge's attention is the first to mix patches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError
from .nn import Linear, Module, sinusoidal_embedding
from .tensor import Tensor, as_tensor


@dataclass
class VisionConfig:
    channels: int = 3
    image_size: int = 32
    patch_size: int = 8
    dim: int = 64


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
        if config.patch_size < 1:
            raise ContractError(f"patch_size must be at least 1, got {config.patch_size}")
        if config.image_size % config.patch_size != 0:
            raise ContractError(
                f"image size {config.image_size} not divisible by patch {config.patch_size}"
            )
        self.config = config
        side = config.image_size // config.patch_size
        patch_dim = config.channels * config.patch_size**2
        self.patch_embed = Linear(rng, patch_dim, config.dim)
        self.pos = sinusoidal_grid_embedding(side, config.dim)

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
        return self.patch_embed(self._patchify(as_tensor(image))) + self.pos
