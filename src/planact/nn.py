"""Attention, transformer blocks, masks and embeddings shared by the bridge and the LM."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError
from .tensor import (
    Tensor,
    concat,
    gelu,
    layer_norm,
    masked_fill,
    parameter,
    softmax,
    zero_parameter,
)

# Additive bias magnitude for masked-out attention scores.  Large enough that
# exp underflows to exactly zero in float64, keeping masked positions bitwise
# inert, while every stored value stays finite.
MASK_BIAS = -1e30


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


@dataclass(frozen=True)
class Mask:
    """Attention visibility pattern: full, causal, or causal with an always-visible prefix."""

    kind: str
    prefix: int = 0

    @staticmethod
    def full() -> "Mask":
        return Mask("full")

    @staticmethod
    def causal() -> "Mask":
        return Mask("causal")

    @staticmethod
    def prefix_mask(p: int) -> "Mask":
        if p < 0:
            raise ContractError(f"prefix length must be non-negative, got {p}")
        return Mask("prefix", p)

    def allowed(self, n_q: int, n_k: int) -> np.ndarray:
        if self.kind == "full":
            return np.ones((n_q, n_k), dtype=bool)
        if n_q != n_k:
            raise DimensionError(
                f"{self.kind} mask requires square attention, got {n_q} queries and {n_k} keys"
            )
        rows = np.arange(n_q)[:, None]
        cols = np.arange(n_k)[None, :]
        causal = cols <= rows
        if self.kind == "causal":
            return causal
        if self.kind == "prefix":
            return causal | (cols < self.prefix)
        raise ContractError(f"unknown mask kind {self.kind!r}")


def _allowed_matrix(mask, n_q: int, n_k: int) -> np.ndarray:
    allowed = mask.allowed(n_q, n_k) if isinstance(mask, Mask) else np.asarray(mask, dtype=bool)
    if allowed.shape != (n_q, n_k):
        raise DimensionError(
            f"mask shape {allowed.shape} does not fit {n_q} queries and {n_k} keys"
        )
    return allowed


def _swapaxes(x: Tensor, a: int, b: int) -> Tensor:
    axes = list(range(x.ndim))
    axes[a], axes[b] = axes[b], axes[a]
    return x.transpose(axes)


def attention_probs(q: Tensor, k: Tensor, mask) -> Tensor:
    """Row-stochastic attention weights softmax(q k^T / sqrt(d)) under the mask.

    ``q`` is (..., n_q, d) and ``k`` is (..., n_k, d); the (n_q, n_k) mask is
    shared by every leading index.
    """
    if q.ndim < 2 or k.ndim < 2 or q.shape[-1] != k.shape[-1]:
        raise DimensionError(f"attention operands disagree: q {q.shape}, k {k.shape}")
    allowed = _allowed_matrix(mask, q.shape[-2], k.shape[-2])
    if not allowed.any(axis=1).all():
        raise ContractError("attention row has no attendable key (fully masked)")
    scores = (q * (1.0 / math.sqrt(q.shape[-1]))) @ _swapaxes(k, -1, -2)
    if not allowed.all():
        scores = masked_fill(scores, allowed, MASK_BIAS)
    return softmax(scores, axis=-1)


def scaled_dot_attention(q: Tensor, k: Tensor, v: Tensor, mask) -> Tensor:
    if k.shape[-2] != v.shape[-2]:
        raise DimensionError(f"key/value row counts disagree: {k.shape} vs {v.shape}")
    return attention_probs(q, k, mask) @ v


class Linear(Module):
    def __init__(self, rng: np.random.Generator, d_in: int, d_out: int):
        self.w = parameter(rng, (d_in, d_out), scale=math.sqrt(1.0 / d_in))
        self.b = zero_parameter((d_out,))

    def __call__(self, x: Tensor) -> Tensor:
        return x @ self.w + self.b


class KVCache:
    """Projected self-attention keys and values of the rows run so far, held as constants.

    ``extend`` appends new rows and returns every cached row followed by the
    new ones.  The stored copies carry no autodiff graph, so nothing links one
    call to the next.  ``extend`` rebinds rather than mutates the stored
    tensors, so a copy shares them safely.
    """

    def __init__(self, k: Tensor | None = None, v: Tensor | None = None):
        self.k = k
        self.v = v

    def __len__(self) -> int:
        return 0 if self.k is None else self.k.shape[-2]

    def extend(self, k: Tensor, v: Tensor) -> tuple[Tensor, Tensor]:
        if self.k is not None:
            k = concat([self.k, k], axis=-2)
            v = concat([self.v, v], axis=-2)
        self.k, self.v = Tensor(k.data), Tensor(v.data)
        return k, v

    def copy(self) -> "KVCache":
        return KVCache(self.k, self.v)


class MultiHeadAttention(Module):
    """Multi-head attention over (..., n, dim) inputs, heads split by reshape.

    Keys and values are laid out as [prefix_kv rows][cached rows][new rows];
    prefix and cached rows are visible to every query, and ``mask`` covers
    the new rows only.  Every head runs in one product of queries and keys,
    one softmax and one product with the values.
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

    def _split_heads(self, x: Tensor) -> Tensor:
        """(..., n, dim) -> (..., heads, n, dim / heads)."""
        x = x.reshape(*x.shape[:-1], self.heads, self.dim // self.heads)
        return _swapaxes(x, -3, -2)

    def __call__(
        self,
        x_q: Tensor,
        x_kv: Tensor,
        mask,
        prefix_kv: tuple[Tensor, Tensor] | None = None,
        cache: KVCache | None = None,
    ) -> Tensor:
        if x_q.shape[-1] != self.dim or x_kv.shape[-1] != self.dim:
            raise DimensionError(
                f"inputs {x_q.shape}/{x_kv.shape} do not match model dim {self.dim}"
            )
        q = self.w_q(x_q)
        k = self.w_k(x_kv)
        v = self.w_v(x_kv)
        n_q, n_k = x_q.shape[-2], x_kv.shape[-2]
        allowed = _allowed_matrix(mask, n_q, n_k)
        visible = 0
        if cache is not None:
            visible = len(cache)
            k, v = cache.extend(k, v)
        if prefix_kv is not None:
            kp, vp = prefix_kv
            k = concat([kp, k], axis=-2)
            v = concat([vp, v], axis=-2)
            visible += kp.shape[-2]
        if visible:
            allowed = np.concatenate([np.ones((n_q, visible), dtype=bool), allowed], axis=1)
        heads = scaled_dot_attention(
            self._split_heads(q), self._split_heads(k), self._split_heads(v), allowed
        )
        return self.w_o(_swapaxes(heads, -3, -2).reshape(q.shape))


class FeedForward(Module):
    def __init__(self, rng: np.random.Generator, dim: int, hidden: int):
        self.lin1 = Linear(rng, dim, hidden)
        self.lin2 = Linear(rng, hidden, dim)

    def __call__(self, x: Tensor) -> Tensor:
        return self.lin2(gelu(self.lin1(x)))


class LayerNorm(Module):
    def __init__(self, dim: int, eps: float = 1e-5):
        self.gamma = zero_parameter((dim,))
        self.gamma.data[...] = 1.0
        self.beta = zero_parameter((dim,))
        self.eps = eps

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.gamma, self.beta, eps=self.eps)


class TransformerBlock(Module):
    """Pre-norm residual block: self-attention, optional cross-attention, feed-forward.

    ``x`` is (..., n, dim).  ``cross_rows`` limits cross-attention (and its
    residual update) to the leading rows of the sequence; remaining rows pass
    through unchanged.
    ``self_cache`` holds the self-attention keys and values of earlier rows;
    ``x`` then carries only the new rows, and their keys and values are
    appended to it.
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

    def __call__(
        self,
        x: Tensor,
        self_mask,
        cross_kv: Tensor | None = None,
        cross_rows: int | None = None,
        self_prefix_kv: tuple[Tensor, Tensor] | None = None,
        self_cache: KVCache | None = None,
    ) -> Tensor:
        if (cross_kv is not None) != self.has_cross:
            raise ContractError(
                "cross_kv must be supplied exactly when the block has cross-attention "
                f"(has_cross={self.has_cross})"
            )
        normed = self.ln_self(x)
        h = x + self.self_attn(
            normed, normed, self_mask, prefix_kv=self_prefix_kv, cache=self_cache
        )
        if self.has_cross:
            if cross_rows is None or cross_rows >= h.shape[-2]:
                h = h + self.cross_attn(self.ln_cross(h), cross_kv, Mask.full())
            else:
                head_rows = h[..., :cross_rows, :]
                attended = self.cross_attn(
                    self.ln_cross(head_rows), cross_kv, Mask.full()
                )
                h = concat([head_rows + attended, h[..., cross_rows:, :]], axis=-2)
        return h + self.ffn(self.ln_ffn(h))


def sinusoidal_embedding(n: int, d: int) -> Tensor:
    """Deterministic sine/cosine position table; position 0 is [0, 1, 0, 1, ...]."""
    if n <= 0 or d <= 0:
        raise ContractError(f"positional table needs positive extents, got {n}x{d}")
    pos = np.arange(n, dtype=np.float64)[:, None]
    idx = np.arange(d, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * np.floor(idx / 2.0) / d)
    table = np.where(idx % 2 == 0, np.sin(angle), np.cos(angle))
    return Tensor(table)


def learned_embedding(rng: np.random.Generator, n: int, d: int, scale: float = 0.02) -> Tensor:
    if n <= 0 or d <= 0:
        raise ContractError(f"positional table needs positive extents, got {n}x{d}")
    return parameter(rng, (n, d), scale=scale)
