"""Query-token bridge between visual tokens and the language model.

A fixed set of learnable query vectors is concatenated with embedded text,
self-attends with every row visible, and cross-attends (query rows only, on
every even-numbered block) to the visual tokens, the ``(..., patches, dim)``
tensor that ``VisualEncoder.encode_image`` returns.  Text positions use a
fixed table of ``MAX_SEQUENCE_LENGTH`` rows, the length ``tokenize``
truncates to.  Only the query rows are returned, so the output is a
fixed-size bottleneck regardless of how many visual or text tokens went in.
A single affine map projects that summary into the language model's
embedding space as soft prompt rows.

``extract`` runs the plan side once per plan.  Nothing before the first
block's cross-attention sees the image: its self-attention over [queries;
text] is the same for every observation under one plan, and so is the
feed-forward of its text rows, which skip the cross-attention.  Text rows
meet the image only through a self-attention after that first
cross-attention.  So these rows are computed once, unbatched, and broadcast
to the image's leading shape where the query rows cross-attend; every later
operation sees the same values as when each observation carried its own
copy.  (With a single observation there is nothing to share, and the first
block's feed-forward runs over all rows at once.)  The last block's text
rows serve only as keys and values, so its query projection, feed-forward
and the final norm run on the query rows alone.  The result is
byte-identical to running every block over every row and slicing, except
with a single query row: numpy then takes a matrix-vector product, whose
summation order differs, and the two agree to round-off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ContractError, DimensionError
from .nn import Linear, Module, TransformerBlock, LayerNorm, sinusoidal_embedding
from .tensor import Tensor, broadcast_to, concat, parameter, take_rows
from .vocab import MAX_SEQUENCE_LENGTH, Vocabulary, tokenize


@dataclass
class BridgeConfig:
    query_count: int = 8       # N summary tokens
    dim: int = 64              # bridge width
    lm_dim: int = 64           # language model embedding width
    blocks: int = 2
    heads: int = 4
    ff_mult: int = 4


class QueryBridge(Module):
    def __init__(self, rng: np.random.Generator, vocab_size: int, config: BridgeConfig):
        if config.blocks < 1:
            raise ContractError("the bridge needs at least one block to see the image")
        self.config = config
        self.queries = parameter(rng, (config.query_count, config.dim), scale=0.1)
        self.text_embed = parameter(rng, (vocab_size, config.dim), scale=0.1)
        self.text_pos = sinusoidal_embedding(MAX_SEQUENCE_LENGTH, config.dim)
        self.blocks = [
            TransformerBlock(
                rng,
                config.dim,
                config.heads,
                ff_mult=config.ff_mult,
                cross_attention=(i % 2 == 0),
            )
            for i in range(config.blocks)
        ]
        self.ln_out = LayerNorm(config.dim)
        self.proj = Linear(rng, config.dim, config.lm_dim)

    def extract(self, tokens: Tensor, text_ids: Sequence[int] | None = None) -> Tensor:
        """Summarise visual tokens (optionally conditioned on text) into (..., N, D).

        ``tokens`` is (..., P, D); ``text_ids`` is one id sequence shared by
        every leading index.  The plan side runs once, unbatched, and is
        broadcast to the leading shape where the query rows meet the image.
        """
        if tokens.shape[-2] == 0:
            raise ContractError("visual token set is empty")
        if tokens.shape[-1] != self.config.dim:
            raise DimensionError(
                f"visual token width {tokens.shape[-1]} does not match bridge dim "
                f"{self.config.dim}"
            )
        x = self.queries
        ids = np.asarray([] if text_ids is None else text_ids, dtype=np.int64)
        if ids.size:
            text = take_rows(self.text_embed, ids) + self.text_pos[: ids.size, :]
            x = concat([x, text], axis=0)
        last = len(self.blocks) - 1
        for i, block in enumerate(self.blocks):
            # the last block's text rows are keys and values only
            x = block.self_attention(x, rows=self.config.query_count if i == last else None)
            x = self._cross_queries(block, x, tokens) if block.has_cross else block.feed_forward(x)
        return self.ln_out(x)

    def _cross_queries(self, block: TransformerBlock, x: Tensor, tokens: Tensor) -> Tensor:
        """Cross-attention and feed-forward of a block whose query rows see the image.

        Text rows skip the cross-attention.  When ``x`` is the plan side, not
        yet broadcast to the image's leading shape, and more than one
        observation shares it, the text rows' feed-forward runs once, before
        the broadcast.
        """
        n = self.config.query_count
        lead = tokens.shape[:-2]
        head = x if x.shape[-2] == n else x[..., :n, :]
        head = block.cross_attention(broadcast_to(head, (*lead, *head.shape[-2:])), tokens)
        if x.shape[-2] == n:
            return block.feed_forward(head)
        if x.ndim < tokens.ndim and math.prod(lead) > 1:
            # every row of x runs the feed-forward, so its matrix products keep the
            # row count, and with it the summation order, of the unsplit block
            text = block.feed_forward(x)[..., n:, :]
            head = block.feed_forward(head)
            return concat([head, broadcast_to(text, (*lead, *text.shape[-2:]))], axis=-2)
        tail = broadcast_to(x[..., n:, :], (*lead, x.shape[-2] - n, x.shape[-1]))
        return block.feed_forward(concat([head, tail], axis=-2))

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

        Feeds the policy.  Rows with the same plan text share one ``extract``
        call, so the plan side runs once per distinct plan; the result is
        (B, N, D) in the order of the rows.
        """
        if tokens.ndim != 3 or tokens.shape[0] != len(plan_texts):
            raise DimensionError(f"{len(plan_texts)} plans for visual tokens {tokens.shape}")
        by_plan: dict[str, list[int]] = {}
        for i, plan_text in enumerate(plan_texts):
            if not plan_text.strip():
                raise ContractError("plan text must be non-empty")
            by_plan.setdefault(plan_text, []).append(i)
        if len(by_plan) == 1:
            return self.extract(tokens, tokenize(plan_texts[0], vocab))
        parts, order = [], []
        for plan_text, rows in by_plan.items():
            parts.append(self.extract(tokens[rows], tokenize(plan_text, vocab)))
            order += rows
        return take_rows(concat(parts, axis=0), np.argsort(order))
