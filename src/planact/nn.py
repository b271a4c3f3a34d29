"""Attention, transformer blocks and embeddings shared by the vision encoder, bridge and LM.

An attention mask is None (every key visible) or a boolean (queries, keys)
array; ``causal_mask`` builds the language model's causal pattern with an
optional always-visible prefix.  ``MultiHeadAttention`` projects queries,
keys and values here; its heads run in ``tensor.attention``, one autodiff
node per call.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractError, DimensionError
from .tensor import (
    Tensor,
    attention,
    check_attention_mask,
    concat,
    gelu,
    layer_norm,
    parameter,
    zero_parameter,
)


class Module:
    """Minimal parameter container: attributes that are param tensors or Modules register themselves."""

    def named_parameters(self, prefix: str = "") -> dict[str, Tensor]:
        params: dict[str, Tensor] = {}
        for name, value in vars(self).items():
            full = f"{prefix}{name}"
            if isinstance(value, Tensor) and value.is_param:
                params[full] = value
            elif isinstance(value, Module):
                params.update(value.named_parameters(prefix=f"{full}."))
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        params.update(item.named_parameters(prefix=f"{full}.{i}."))
                    elif isinstance(item, Tensor) and item.is_param:
                        params[f"{full}.{i}"] = item
        return params

    def parameters(self) -> list[Tensor]:
        return list(self.named_parameters().values())


def set_trainable(params: dict[str, Tensor], trainable: bool) -> None:
    for p in params.values():
        p.requires_grad = trainable
        if not trainable:
            p.grad = None


def causal_mask(n: int, prefix: int = 0) -> np.ndarray:
    """(n, n) visibility: row i sees columns up to i and the first ``prefix`` columns."""
    if prefix < 0:
        raise ContractError(f"prefix length must be non-negative, got {prefix}")
    cols = np.arange(n)
    return (cols[None, :] <= cols[:, None]) | (cols < prefix)


class Linear(Module):
    def __init__(self, rng: np.random.Generator, d_in: int, d_out: int):
        self.w = parameter(rng, (d_in, d_out), scale=math.sqrt(1.0 / d_in))
        self.b = zero_parameter((d_out,))

    def __call__(self, x: Tensor) -> Tensor:
        return x @ self.w + self.b


class KVCache:
    """Projected self-attention keys and values that every later query sees.

    The cache is seeded at construction with zero or more rows (a language
    model's prefix adapter rows); the rows run so far follow them.  ``extend``
    appends new rows and returns every cached row followed by the new ones.
    Seeded rows keep their autodiff graph through the first ``extend``; the
    stored copies carry none, so nothing links one call to the next.
    ``extend`` rebinds rather than mutates the stored tensors, so a copy
    shares them safely.
    """

    def __init__(self, k: Tensor, v: Tensor):
        self.k = k
        self.v = v

    def __len__(self) -> int:
        return self.k.shape[-2]

    def extend(self, k: Tensor, v: Tensor) -> tuple[Tensor, Tensor]:
        k = concat([self.k, k], axis=-2)
        v = concat([self.v, v], axis=-2)
        self.k, self.v = Tensor(k.data), Tensor(v.data)
        return k, v

    def copy(self) -> "KVCache":
        return KVCache(self.k, self.v)


class MultiHeadAttention(Module):
    """Multi-head attention over (..., n, dim) inputs.

    ``mask`` is None (every key visible) or a boolean (n_q, new rows) array.
    With a ``cache``, keys and values are laid out as [cached rows][new rows];
    cached rows are visible to every query, and ``mask`` covers the new rows
    only; a mask that does not fit, or that leaves a query no key to see,
    raises before the cache grows.  The projections are ``Linear`` layers;
    every head runs inside one ``tensor.attention`` node between them.
    """

    def __init__(self, rng: np.random.Generator, dim: int, heads: int):
        if dim % heads != 0:
            raise ContractError(f"model dim {dim} not divisible by head count {heads}")
        self.dim = dim
        self.heads = heads
        self.w_q = Linear(rng, dim, dim)
        self.w_k = Linear(rng, dim, dim)
        self.w_v = Linear(rng, dim, dim)
        self.w_o = Linear(rng, dim, dim)

    def __call__(
        self,
        x_q: Tensor,
        x_kv: Tensor,
        mask: np.ndarray | None = None,
        cache: KVCache | None = None,
    ) -> Tensor:
        if x_q.shape[-1] != self.dim or x_kv.shape[-1] != self.dim:
            raise DimensionError(
                f"inputs {x_q.shape}/{x_kv.shape} do not match model dim {self.dim}"
            )
        n_q = x_q.shape[-2]
        visible = 0 if cache is None else len(cache)
        check_attention_mask(mask, n_q, x_kv.shape[-2], seen=visible)
        q = self.w_q(x_q)
        k = self.w_k(x_kv)
        v = self.w_v(x_kv)
        if cache is not None:
            k, v = cache.extend(k, v)
            if mask is not None and visible:
                mask = np.concatenate([np.ones((n_q, visible), dtype=bool), mask], axis=1)
        return self.w_o(attention(q, k, v, self.heads, mask))


class FeedForward(Module):
    def __init__(self, rng: np.random.Generator, dim: int, hidden: int):
        self.lin1 = Linear(rng, dim, hidden)
        self.lin2 = Linear(rng, hidden, dim)

    def __call__(self, x: Tensor) -> Tensor:
        return self.lin2(gelu(self.lin1(x)))


class LayerNorm(Module):
    def __init__(self, dim: int):
        self.gamma = zero_parameter((dim,))
        self.gamma.data[...] = 1.0
        self.beta = zero_parameter((dim,))

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.gamma, self.beta)


class TransformerBlock(Module):
    """Pre-norm residual block: self-attention, optional cross-attention, feed-forward.

    Each sublayer is a method that returns its residual update, and
    ``__call__`` composes self-attention and feed-forward on one path.  A block
    with cross-attention has no single composition: its caller decides which
    rows cross-attend and runs the sublayers itself (see ``QueryBridge``).
    """

    def __init__(
        self,
        rng: np.random.Generator,
        dim: int,
        heads: int,
        ff_mult: int = 4,
        cross_attention: bool = False,
    ):
        self.has_cross = cross_attention
        self.ln_self = LayerNorm(dim)
        self.self_attn = MultiHeadAttention(rng, dim, heads)
        if cross_attention:
            self.ln_cross = LayerNorm(dim)
            self.cross_attn = MultiHeadAttention(rng, dim, heads)
        self.ln_ffn = LayerNorm(dim)
        self.ffn = FeedForward(rng, dim, dim * ff_mult)

    def self_attention(
        self,
        x: Tensor,
        mask: np.ndarray | None = None,
        cache: KVCache | None = None,
        rows: int | None = None,
    ) -> Tensor:
        """Self-attention update of the leading ``rows`` rows of ``x`` (all when None).

        Every row of ``x`` is a key and value; only the updated rows are
        returned, so ``mask`` is None or a boolean (rows, n) array.  ``cache``
        holds the keys and values of rows every query sees (seeded rows, then
        earlier rows); ``x`` then carries only the new rows, and their keys and
        values are appended to it.
        """
        normed = self.ln_self(x)
        if rows is None:
            return x + self.self_attn(normed, normed, mask, cache=cache)
        return x[..., :rows, :] + self.self_attn(normed[..., :rows, :], normed, mask, cache=cache)

    def cross_attention(self, x: Tensor, kv: Tensor) -> Tensor:
        """Cross-attention update of every row of ``x`` over the rows of ``kv``."""
        if not self.has_cross:
            raise ContractError("block was built without cross-attention")
        return x + self.cross_attn(self.ln_cross(x), kv)

    def feed_forward(self, x: Tensor) -> Tensor:
        return x + self.ffn(self.ln_ffn(x))

    def __call__(
        self,
        x: Tensor,
        self_mask: np.ndarray | None = None,
        self_cache: KVCache | None = None,
    ) -> Tensor:
        """Self-attention then feed-forward over (..., n, dim); see ``self_attention``."""
        if self.has_cross:
            raise ContractError("a block with cross-attention is run through its sublayers")
        return self.feed_forward(self.self_attention(x, self_mask, self_cache))


def sinusoidal_embedding(n: int, d: int) -> Tensor:
    """Deterministic sine/cosine position table; position 0 is [0, 1, 0, 1, ...]."""
    if n <= 0 or d <= 0:
        raise ContractError(f"positional table needs positive extents, got {n}x{d}")
    pos = np.arange(n, dtype=np.float64)[:, None]
    idx = np.arange(d, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * np.floor(idx / 2.0) / d)
    table = np.where(idx % 2 == 0, np.sin(angle), np.cos(angle))
    return Tensor(table)
