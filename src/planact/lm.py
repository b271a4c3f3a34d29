"""Decoder-only micro language model with soft prompt rows and per-block prefix adapters.

The input sequence is laid out as [soft prompt rows][text embeddings].  Text
positions attend causally among themselves and fully to the soft prompt rows
(a prefix mask over the sequence).  Each block additionally owns P trainable
key/value rows that every position may attend to; these adapter rows are the
only LM-interior trainables when the base model is frozen.  Logits are emitted
for text positions only, and text positions are numbered independently of the
soft prompt so prompt rows never shift positional slots.

Every ``forward`` runs on an ``LmCache``: one ``KVCache`` per block whose
first rows are that block's adapter rows (prefix-tuning's layout), followed
by the keys and values of the rows run so far.  Without a ``cache`` argument
a fresh one is used, so the adapter rows keep their graph and receive
gradients.  With one, the first call seeds it and runs the soft prompt and
the first tokens; each later call passes only the new tokens, whose
positions continue after the cached text, and must use adapters as the first
call did.  New rows attend to every cached row and causally among
themselves, so a prefill followed by one-token steps gives the logits of the
full forward up to float64 round-off.  Cached rows are stored as constants;
the cache serves inference and carries no gradient across calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError
from .nn import KVCache, LayerNorm, Linear, Mask, Module, TransformerBlock
from .tensor import Tensor, concat, parameter, take_rows


@dataclass
class LmConfig:
    vocab_size: int
    dim: int = 64
    blocks: int = 4
    heads: int = 4
    context: int = 256
    prefix_len: int = 4
    ff_mult: int = 4


@dataclass
class LmCache:
    """One ``KVCache`` per block: its adapter rows, then soft prompt and text rows.

    ``adapter_rows`` is None until the first call seeds the blocks; ``len``
    counts the soft prompt and text rows run, not the adapter rows.
    """

    blocks: list[KVCache]
    soft_rows: int = 0
    adapter_rows: int | None = None

    def __len__(self) -> int:
        return len(self.blocks[0]) - (self.adapter_rows or 0)

    def copy(self) -> "LmCache":
        return LmCache([c.copy() for c in self.blocks], self.soft_rows, self.adapter_rows)


class MicroLm(Module):
    def __init__(self, rng: np.random.Generator, config: LmConfig):
        self.config = config
        self.embed = parameter(rng, (config.vocab_size, config.dim), scale=0.1)
        self.pos = parameter(rng, (config.context, config.dim), scale=0.02)
        self.blocks = [
            TransformerBlock(rng, config.dim, config.heads, ff_mult=config.ff_mult)
            for _ in range(config.blocks)
        ]
        # one (P, 2, dim) tensor of key/value prefix rows per block
        self.adapters = [
            parameter(rng, (config.prefix_len, 2, config.dim), scale=0.02)
            for _ in range(config.blocks)
        ]
        self.ln_f = LayerNorm(config.dim)
        self.out = Linear(rng, config.dim, config.vocab_size)

    def new_cache(self) -> LmCache:
        return LmCache([KVCache() for _ in self.blocks])

    def forward(
        self,
        ids: list[int],
        soft_prompt: Tensor | None = None,
        use_adapters: bool = True,
        cache: LmCache | None = None,
    ) -> Tensor:
        """Logits for the text rows of ``ids``; with ``cache``, only the new tokens' rows."""
        n = len(ids)
        if n == 0:
            raise ContractError("lm forward requires at least one token")
        cache = self.new_cache() if cache is None else cache
        first = cache.adapter_rows is None
        past = len(cache)
        if not first and soft_prompt is not None:
            raise ContractError("the soft prompt enters only on the first (empty-cache) call")
        n_soft = 0 if soft_prompt is None else soft_prompt.shape[0]
        prefix = self.config.prefix_len if use_adapters else 0
        if not first and prefix != cache.adapter_rows:
            raise ContractError(
                f"cache holds {cache.adapter_rows} adapter rows per block but this call "
                f"uses {prefix}: use_adapters must match the first call"
            )
        if past + n + n_soft + prefix > self.config.context:
            raise ContractError(
                f"sequence of {past} cached rows + {n} tokens + {n_soft} prompt rows + "
                f"{prefix} adapter rows exceeds context {self.config.context}"
            )
        if soft_prompt is not None and soft_prompt.shape[1] != self.config.dim:
            raise DimensionError(
                f"soft prompt width {soft_prompt.shape[1]} does not match model dim "
                f"{self.config.dim}"
            )
        start = past - cache.soft_rows
        if first:
            cache.adapter_rows, cache.soft_rows = prefix, n_soft
            if prefix:
                cache.blocks = [KVCache(a[:, 0, :], a[:, 1, :]) for a in self.adapters]
        x = take_rows(self.embed, ids) + self.pos[start : start + n, :]
        if soft_prompt is not None:
            x = concat([soft_prompt, x], axis=0)
        mask = Mask.prefix_mask(n_soft) if n_soft else Mask.causal()
        for block, block_cache in zip(self.blocks, cache.blocks):
            x = block(x, mask, self_cache=block_cache)
        h = self.ln_f(x)
        if n_soft:
            h = h[n_soft:, :]
        return self.out(h)
