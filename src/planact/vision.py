"""Cell encoder for square grid observations.

Each cell's channel vector is linearly embedded and tagged with a fixed 2-D
sinusoidal position code (half the width for the row, half for the column),
so token ``r * side + c`` is cell ``(r, c)``.  Those tokens are the encoder's
features: no attention block runs here, and the bridge's attention is the
first to mix cells.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, DimensionError, require_int
from .nn import Linear, Module, sinusoidal_embedding
from .tensor import Tensor


def sinusoidal_grid_embedding(side: int, dim: int) -> Tensor:
    """Fixed 2-D position table: half the width encodes the row, half the column."""
    if dim % 2 != 0:
        raise ContractError(f"2-d positional table needs an even dim, got {dim}")
    axis = sinusoidal_embedding(side, dim // 2).data
    rows = np.repeat(axis, side, axis=0)
    cols = np.tile(axis, (side, 1))
    return Tensor(np.concatenate([rows, cols], axis=1))


class VisualEncoder(Module):
    def __init__(self, rng: np.random.Generator, channels: int, side: int, dim: int):
        for name, value in (("channels", channels), ("side", side), ("dim", dim)):
            require_int(name, value, least=1)
        self.grid_shape = (channels, side, side)
        self.patch_embed = Linear(rng, channels, dim)
        self.pos = sinusoidal_grid_embedding(side, dim)

    def encode_image(self, grid: np.ndarray) -> Tensor:
        """Tokens (..., side * side, dim) of a grid or a batch of grids (..., c, side, side)."""
        if isinstance(grid, Tensor):
            raise ContractError("encode_image takes the observation array, not a Tensor")
        grid = np.asarray(grid, dtype=np.float64)
        if grid.shape[-3:] != self.grid_shape:
            raise DimensionError(
                f"grid of shape {grid.shape} does not match "
                f"(..., {', '.join(map(str, self.grid_shape))})"
            )
        *lead, c, h, w = grid.shape
        n = len(lead)
        cells = grid.transpose(*range(n), n + 1, n + 2, n).reshape(*lead, h * w, c)
        return self.patch_embed(Tensor(cells)) + self.pos
