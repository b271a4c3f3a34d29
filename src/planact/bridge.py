"""Query-token bridge between visual tokens and the language model.

A fixed set of learnable query vectors is concatenated with embedded text,
self-attends under a full mask, and cross-attends (query rows only, on every
``cross_freq``-th block) to the visual tokens.  Only the query rows are
returned, so the output is a fixed-size bottleneck regardless of how many
visual or text tokens went in.  A single affine map projects that summary into
the language model's embedding space as soft prompt rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError
from .nn import Linear, Mask, Module, TransformerBlock, LayerNorm, sinusoidal_embedding
from .tensor import Tensor, concat, parameter, take_rows
from .vision import VisualTokens
from .vocab import Vocabulary, tokenize


@dataclass
class BridgeConfig:
    query_count: int = 8       # N summary tokens
    dim: int = 64              # bridge width
    lm_dim: int = 64           # language model embedding width
    blocks: int = 2
    heads: int = 4
    cross_freq: int = 2        # cross-attention on every cross_freq-th block
    ff_mult: int = 4
    max_text_len: int = 256


class QueryBridge(Module):
    def __init__(self, rng: np.random.Generator, vocab_size: int, config: BridgeConfig):
        self.config = config
        self.queries = parameter(rng, (config.query_count, config.dim), scale=0.1)
        self.text_embed = parameter(rng, (vocab_size, config.dim), scale=0.1)
        self.text_pos = sinusoidal_embedding(config.max_text_len, config.dim)
        self.blocks = [
            TransformerBlock(
                rng,
                config.dim,
                config.heads,
                ff_mult=config.ff_mult,
                cross_attention=(i % config.cross_freq == 0),
            )
            for i in range(config.blocks)
        ]
        self.ln_out = LayerNorm(config.dim)
        self.proj = Linear(rng, config.dim, config.lm_dim)

    def extract(self, visual: VisualTokens, text_ids: list[int] | None = None) -> Tensor:
        """Summarise visual tokens (optionally conditioned on text) into N x D."""
        if visual.tokens.shape[0] == 0:
            raise ContractError("visual token set is empty")
        if visual.tokens.shape[1] != self.config.dim:
            raise DimensionError(
                f"visual token width {visual.tokens.shape[1]} does not match bridge dim "
                f"{self.config.dim}"
            )
        n = self.config.query_count
        if text_ids:
            text = take_rows(self.text_embed, text_ids) + self.text_pos[: len(text_ids), :]
            x = concat([self.queries, text], axis=0)
        else:
            x = self.queries
        for block in self.blocks:
            if block.has_cross:
                x = block(x, Mask.full(), cross_kv=visual.tokens, cross_rows=n)
            else:
                x = block(x, Mask.full())
        return self.ln_out(x)[:n, :]

    def project_to_lm(self, summary: Tensor) -> Tensor:
        """Affine map from the N x D summary to N x D' soft prompt rows; no nonlinearity."""
        if summary.ndim != 2 or summary.shape[1] != self.config.dim:
            raise DimensionError(
                f"summary shape {summary.shape} does not match bridge dim {self.config.dim}"
            )
        return self.proj(summary)

    def instance_features(
        self, visual: VisualTokens, plan_text: str, vocab: Vocabulary
    ) -> Tensor:
        """Re-query the visual tokens with a plan as the text input; feeds the policy."""
        if not plan_text.strip():
            raise ContractError("plan text must be non-empty")
        return self.extract(visual, tokenize(plan_text, vocab))
