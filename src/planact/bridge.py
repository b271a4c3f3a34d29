"""Query-token bridge between visual tokens and the language model.

A fixed set of learnable query vectors is concatenated with embedded text,
self-attends under a full mask, and cross-attends (query rows only, on every
``cross_freq``-th block) to the visual tokens, the ``(..., patches, dim)``
tensor that ``VisualEncoder.encode_image`` returns.  Only the query rows are
returned, so the output is a fixed-size bottleneck regardless of how many
visual or text tokens went in.  A single affine map projects that summary into
the language model's embedding space as soft prompt rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ContractError, DimensionError
from .nn import Linear, Mask, Module, TransformerBlock, LayerNorm, sinusoidal_embedding
from .tensor import Tensor, broadcast_to, concat, parameter, take_rows
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

    def extract(
        self,
        tokens: Tensor,
        text_ids: Sequence[int] | Sequence[Sequence[int]] | None = None,
    ) -> Tensor:
        """Summarise visual tokens (optionally conditioned on text) into (..., N, D).

        ``tokens`` is (..., P, D).  ``text_ids`` is one id sequence shared by
        every leading index, or one row of equally many ids per leading index.
        """
        if tokens.shape[-2] == 0:
            raise ContractError("visual token set is empty")
        if tokens.shape[-1] != self.config.dim:
            raise DimensionError(
                f"visual token width {tokens.shape[-1]} does not match bridge dim "
                f"{self.config.dim}"
            )
        n = self.config.query_count
        lead = tokens.shape[:-2]
        rows = [self.queries]
        ids = np.asarray([] if text_ids is None else text_ids, dtype=np.int64)
        if ids.size:
            rows.append(take_rows(self.text_embed, ids) + self.text_pos[: ids.shape[-1], :])
        rows = [broadcast_to(r, (*lead, *r.shape[-2:])) for r in rows]
        x = rows[0] if len(rows) == 1 else concat(rows, axis=-2)
        for block in self.blocks:
            if block.has_cross:
                x = block(x, Mask.full(), cross_kv=tokens, cross_rows=n)
            else:
                x = block(x, Mask.full())
        return self.ln_out(x)[..., :n, :]

    def project_to_lm(self, summary: Tensor) -> Tensor:
        """Affine map from the N x D summary to N x D' soft prompt rows; no nonlinearity."""
        if summary.ndim != 2 or summary.shape[1] != self.config.dim:
            raise DimensionError(
                f"summary shape {summary.shape} does not match bridge dim {self.config.dim}"
            )
        return self.proj(summary)

    def instance_features(
        self, tokens: Tensor, plan_texts: Sequence[str], vocab: Vocabulary
    ) -> Tensor:
        """Re-query each image's tokens (B, P, D) with its own plan as the text input.

        Feeds the policy.  Rows whose plans tokenise to the same length share
        one ``extract`` call; the result is (B, N, D) in the order of the rows.
        """
        if tokens.ndim != 3 or tokens.shape[0] != len(plan_texts):
            raise DimensionError(f"{len(plan_texts)} plans for visual tokens {tokens.shape}")
        ids: list[list[int]] = []
        by_length: dict[int, list[int]] = {}
        for i, plan_text in enumerate(plan_texts):
            if not plan_text.strip():
                raise ContractError("plan text must be non-empty")
            ids.append(tokenize(plan_text, vocab))
            by_length.setdefault(len(ids[-1]), []).append(i)
        if len(by_length) == 1:
            return self.extract(tokens, ids)
        parts, order = [], []
        for rows in by_length.values():
            parts.append(self.extract(tokens[rows], [ids[i] for i in rows]))
            order += rows
        return take_rows(concat(parts, axis=0), np.argsort(order))
