"""Decoder-only micro language model with soft prompt rows and per-block prefix adapters.

The input sequence is laid out as [soft prompt rows][text embeddings].  Text
positions attend causally among themselves and fully to the soft prompt rows.
Each block additionally owns ``prefix_len`` trainable key/value rows that
every position may attend to; these adapter rows are the only LM-interior
trainables when the base model is frozen.  They enter the cache as raw keys
and values, not through the block's projections.  Token keys are
``x @ w_k`` with no bias (see ``MultiHeadAttention``), so a query's logit on
an adapter key compares directly with its logits on token keys.
``LmConfig(prefix_len=0)`` is the model without adapters.  Logits are
emitted for text positions only, and text positions are numbered
independently of the soft prompt so prompt rows never shift positional
slots.

Every ``forward`` runs on an ``LmCache``: one ``KVCache`` per block that
``new_cache`` opens with storage for ``LmConfig.context`` key and value
rows, the block's adapter rows written first (prefix-tuning's layout),
followed by the keys and values of the rows run so far.  A call writes its
new rows into that storage after the filled ones and attends over a view of
both, so a decode step copies no history.  Without a ``cache`` argument a
fresh one is used, so the adapter rows keep their graph and receive
gradients.  With one, the first call runs the soft prompt and the first
tokens; each later call passes only the new tokens, whose positions continue
after the cached text.  One ``causal_mask`` per call covers every key,
[adapter rows][cached rows][new rows]: new rows attend to every cached row
and causally among themselves, so a prefill followed by one-token steps gives
the logits of the full forward up to float64 round-off.  Cached rows are
stored as constants; the cache serves inference and carries no gradient
across calls.  ``LmCache.copy`` copies the filled rows into new storage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import ContractError, DimensionError, require_int
from .nn import KVCache, LayerNorm, Linear, Module, TransformerBlock, causal_mask
from .tensor import Tensor, concat, parameter, take_rows


@dataclass
class LmConfig:
    vocab_size: int
    dim: int = 64
    blocks: int = 4
    heads: int = 4
    context: int = 256
    prefix_len: int = 4
    # the ClassVar is a constant, not a settable field
    ff_mult: ClassVar[int] = 4

    def __post_init__(self):
        for name in ("vocab_size", "dim", "blocks", "heads", "context"):
            require_int(name, getattr(self, name), least=1)
        require_int("prefix_len", self.prefix_len, least=0)
        if self.prefix_len >= self.context:
            raise ContractError(
                f"prefix_len must be below context {self.context}, got {self.prefix_len}"
            )


@dataclass
class LmCache:
    """One ``KVCache`` per block: its adapter rows, then soft prompt and text rows.

    ``len`` counts the soft prompt and text rows run, not the adapter rows.
    """

    blocks: list[KVCache]
    adapter_rows: int
    soft_rows: int = 0

    def __len__(self) -> int:
        return len(self.blocks[0]) - self.adapter_rows

    def copy(self) -> "LmCache":
        return LmCache([c.copy() for c in self.blocks], self.adapter_rows, self.soft_rows)


class MicroLm(Module):
    def __init__(self, rng: np.random.Generator, config: LmConfig):
        self.config = config
        self.embed = parameter(rng.standard_normal((config.vocab_size, config.dim)) * 0.1)
        self.pos = parameter(rng.standard_normal((config.context, config.dim)) * 0.02)
        self.blocks = [
            TransformerBlock(rng, config.dim, config.heads, ff_mult=config.ff_mult)
            for _ in range(config.blocks)
        ]
        # one (P, 2, dim) tensor of key/value prefix rows per block
        self.adapters = [
            parameter(rng.standard_normal((config.prefix_len, 2, config.dim)) * 0.02)
            for _ in range(config.blocks)
        ]
        self.ln_f = LayerNorm(config.dim)
        self.out = Linear(rng, config.dim, config.vocab_size)

    def new_cache(self) -> LmCache:
        """An empty cache: each block's ``KVCache`` holds only its adapter rows."""
        rows = self.config.context
        blocks = [KVCache(a[:, 0, :], a[:, 1, :], rows) for a in self.adapters]
        return LmCache(blocks, self.config.prefix_len)

    def forward(
        self,
        ids: list[int],
        soft_prompt: Tensor | None = None,
        cache: LmCache | None = None,
    ) -> Tensor:
        """Logits for the text rows of ``ids``; with ``cache``, only the new tokens' rows."""
        n = len(ids)
        if n == 0:
            raise ContractError("lm forward requires at least one token")
        cache = self.new_cache() if cache is None else cache
        past = len(cache)
        if past and soft_prompt is not None:
            raise ContractError("the soft prompt enters only on the first (empty-cache) call")
        n_soft = 0 if soft_prompt is None else soft_prompt.shape[0]
        if past + n + n_soft + cache.adapter_rows > self.config.context:
            raise ContractError(
                f"sequence of {past} cached rows + {n} tokens + {n_soft} prompt rows + "
                f"{cache.adapter_rows} adapter rows exceeds context {self.config.context}"
            )
        if soft_prompt is not None and soft_prompt.shape[1] != self.config.dim:
            raise DimensionError(
                f"soft prompt width {soft_prompt.shape[1]} does not match model dim "
                f"{self.config.dim}"
            )
        start = past - cache.soft_rows
        if not past:
            cache.soft_rows = n_soft
        x = take_rows(self.embed, ids) + self.pos[start : start + n, :]
        if soft_prompt is not None:
            x = concat([soft_prompt, x], axis=0)
        # adapter, cached and soft prompt rows are visible to every new row, so
        # a one-row step sees every cached row and itself: nothing to mask
        visible = cache.adapter_rows + past + n_soft
        mask = None if n_soft + n == 1 else causal_mask(n_soft + n, visible + n, prefix=visible)
        for block, block_cache in zip(self.blocks, cache.blocks):
            x = block(x, mask, self_cache=block_cache)
        h = self.ln_f(x)
        if n_soft:
            h = h[n_soft:, :]
        return self.out(h)
