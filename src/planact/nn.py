"""Attention, transformer blocks and embeddings shared by the bridge and the LM.

An attention mask is None (every key visible) or a boolean (queries, keys)
array over every key a call attends to, cached keys included;
``causal_mask`` builds the language model's causal pattern with an
always-visible prefix.  ``MultiHeadAttention`` projects queries, keys and
values here; its heads run in ``tensor.attention``, one autodiff node per
call, which is also the one place a mask is checked.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractError, DimensionError, require_int
from .tensor import (
    Tensor,
    attention,
    gelu,
    layer_norm,
    linear,
    parameter,
    write_rows,
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


def causal_mask(n: int, keys: int | None = None, prefix: int = 0) -> np.ndarray:
    """(n, keys) visibility of ``n`` queries over ``keys`` key columns (default ``n``).

    Query i sits at column ``keys - n + i``: it sees every column up to its
    own and the first ``prefix`` columns.
    """
    keys = n if keys is None else keys
    if keys < n:
        raise ContractError(f"{n} queries need at least {n} key columns, got {keys}")
    require_int("prefix", prefix, least=0)
    cols = np.arange(keys)
    return (cols[None, :] <= np.arange(keys - n, keys)[:, None]) | (cols < prefix)


class Linear(Module):
    def __init__(self, rng: np.random.Generator, d_in: int, d_out: int):
        require_int("Linear d_in", d_in, least=1)
        require_int("Linear d_out", d_out, least=1)
        self.w = parameter(rng.standard_normal((d_in, d_out)) * math.sqrt(1.0 / d_in))
        self.b = parameter(np.zeros(d_out))

    def __call__(self, x: Tensor) -> Tensor:
        return linear(x, self.w, self.b)


class KVCache:
    """Projected self-attention keys and values of the rows run so far.

    The cache is seeded at construction with zero or more rows (a language
    model's prefix adapter rows); the rows run so far follow them.  Key and
    value storage holds ``rows`` rows, sized once: a call that needs more
    raises ``DimensionError`` (a language model rejects such a call before
    it reaches the cache).  ``append`` writes a call's new keys and values
    after the filled rows and returns views of the filled and new rows; once
    ``tensor.attention`` has run on them, ``MultiHeadAttention`` rebinds ``k``
    and ``v`` to those views, which is what counts the new rows as filled.  A
    rejected call only writes past the filled rows, so the cache is as it
    was.  Seeded rows keep their autodiff graph through the first call; the
    stored rows are constants, so nothing links one call to the next.  Filled
    rows are never written again, so views of them stay valid; ``copy`` gives
    the copy its own storage, so the two decode independently.
    """

    def __init__(self, k: Tensor, v: Tensor, rows: int):
        n = k.shape[-2]
        if rows < n:
            raise ContractError(f"storage of {rows} rows cannot hold {n} seeded rows")
        self.k = k
        self.v = v
        self._k = np.empty((*k.shape[:-2], rows, k.shape[-1]))
        self._v = np.empty((*v.shape[:-2], rows, v.shape[-1]))
        self._k[..., :n, :] = k.data
        self._v[..., :n, :] = v.data

    def __len__(self) -> int:
        return self.k.shape[-2]

    def append(self, k: Tensor, v: Tensor) -> tuple[Tensor, Tensor]:
        """Filled rows followed by those of ``k`` and ``v``, written into storage."""
        return write_rows(self._k, self.k, k), write_rows(self._v, self.v, v)

    def copy(self) -> "KVCache":
        return KVCache(self.k, self.v, self._k.shape[-2])


class MultiHeadAttention(Module):
    """Multi-head attention over (..., n, dim) inputs.

    With a ``cache``, keys and values are laid out as [cached rows][new
    rows] in the cache's storage, and the cache counts them all once
    ``tensor.attention`` returns; a mask that does not fit, or that leaves a
    query no key to see, raises there and leaves the cache as it was.
    ``mask`` is None (every key visible) or a boolean (n_q, n_cached + n_new)
    array over every key.  The query, value and output projections are
    ``Linear`` layers; every head runs inside one ``tensor.attention`` node
    between them.  ``attend`` runs the heads and the output projection alone,
    for a caller that projects some rows itself (see ``QueryBridge``).

    Keys take no bias: ``w_k`` is a bare (dim, dim) weight, drawn as
    ``Linear`` draws its weight, and keys are ``linear(x_kv, w_k)``.  A key
    bias ``b`` would add ``q . b`` to every key's logit for a given query,
    and softmax cancels a shift shared by all of a query's keys, so ``b``
    would change no output and receive a zero gradient (Namazifar et al.,
    "Role of Bias Terms in Dot-Product Attention", ICASSP 2023).
    """

    def __init__(self, rng: np.random.Generator, dim: int, heads: int):
        require_int("heads", heads, least=1)
        if dim % heads != 0:
            raise ContractError(f"model dim {dim} not divisible by head count {heads}")
        self.dim = dim
        self.heads = heads
        self.w_q = Linear(rng, dim, dim)
        self.w_k = parameter(rng.standard_normal((dim, dim)) * math.sqrt(1.0 / dim))
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
        q = self.w_q(x_q)
        k = linear(x_kv, self.w_k)
        v = self.w_v(x_kv)
        if cache is not None:
            k, v = cache.append(k, v)
        out = self.attend(q, k, v, mask)
        if cache is not None:
            cache.k, cache.v = Tensor(k.data), Tensor(v.data)
        return out

    def attend(
        self, q: Tensor, k: Tensor, v: Tensor, mask: np.ndarray | None = None
    ) -> Tensor:
        """Every head over projected queries, keys and values, then the output projection."""
        return self.w_o(attention(q, k, v, self.heads, mask))


class FeedForward(Module):
    def __init__(self, rng: np.random.Generator, dim: int, hidden: int):
        self.lin1 = Linear(rng, dim, hidden)
        self.lin2 = Linear(rng, hidden, dim)

    def __call__(self, x: Tensor) -> Tensor:
        return self.lin2(gelu(self.lin1(x)))


class LayerNorm(Module):
    def __init__(self, dim: int):
        self.gamma = parameter(np.ones(dim))
        self.beta = parameter(np.zeros(dim))

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.gamma, self.beta)


class TransformerBlock(Module):
    """Pre-norm residual block: self-attention, optional cross-attention, feed-forward.

    ``self_attention`` and ``feed_forward`` return their residual updates, and
    ``__call__`` composes them.  A block with cross-attention only allocates
    ``ln_cross`` and ``cross_attn`` between the two; its caller runs them,
    since it decides which rows cross-attend (see ``QueryBridge``).
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
    ) -> Tensor:
        """Self-attention update of every row of ``x``.

        ``cache`` holds the keys and values of earlier rows (seeded rows, then
        the rows run so far); ``x`` then carries only the new rows, and their
        keys and values are appended to it.  ``mask`` is None or a boolean
        (n, n_cached + n) array over every key.
        """
        normed = self.ln_self(x)
        return x + self.self_attn(normed, normed, mask, cache=cache)

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
    require_int("positional table rows", n, least=1)
    require_int("positional table width", d, least=1)
    pos = np.arange(n, dtype=np.float64)[:, None]
    idx = np.arange(d, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * np.floor(idx / 2.0) / d)
    table = np.where(idx % 2 == 0, np.sin(angle), np.cos(angle))
    return Tensor(table)
