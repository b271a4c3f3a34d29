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

The bridge runs in two halves.  Nothing before the first block's
cross-attention sees the image, so that much is the *plan side*, a function
of the plan alone, and ``plan_side`` also runs every projection whose input
is plan-only.  It runs the first block's self-attention over [queries;
text] and the cross-attention query projection of its query rows.  Text rows
skip the cross-attention, so their feed-forward output enters the second
block unchanged by the image, and ``plan_side`` runs that block's key and
value projections (and, when a later block follows, its query projection)
on them.  Text rows first meet the image in the second block's attention
output.  ``extract`` runs the *image side*: the image tokens' keys and
values in the first block's cross-attention, the query rows' own
projections in the second block, whose keys and values precede the plan's
([queries; text], as in the unsplit block), and every later block.  A
caller that keeps a plan's side (a frozen bridge) pays for it once per
plan; each observation pays only for the image side.  A caller that trains
the bridge builds the plan side once per plan per batch, and its graph
carries the gradients of every image-side row back into it.

The split is exact because every later operation sees the same values as
when each observation carried its own copy of every row.  The plan side
runs the feed-forward and every text-row projection over all its rows
(query rows included) and keeps the text rows, so its matrix products keep
the row count, and with it the summation order, of the unsplit block; a
one-text-row plan would otherwise take numpy's matrix-vector product.  The
first block's cross-attention queries are projected from the query rows
alone, as in the unsplit block.  The last block's text rows serve only
as keys and values, so its query projection, feed-forward and the final
norm run on the query rows alone.  The result is byte-identical to running
every block over every row and slicing, except with a single query row:
numpy then takes a matrix-vector product, whose summation order differs,
and the two agree to round-off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ContractError, DimensionError
from .nn import Linear, Module, TransformerBlock, LayerNorm, sinusoidal_embedding
from .tensor import Tensor, broadcast_to, concat, parameter, take_rows
from .vocab import MAX_SEQUENCE_LENGTH, Vocabulary, tokenize


@dataclass(frozen=True)
class PlanSide:
    """The image-free half of ``QueryBridge`` for one plan, unbatched.

    ``queries`` (N, D) are the first block's self-attended query rows and
    ``cross_q`` (N, D) their cross-attention queries.  ``keys`` and
    ``values`` (T, D) are the second block's self-attention projections of
    the text rows, None when no text row reaches that block (no text, or a
    single block).  ``text`` (T, D), the text rows entering the second block,
    and ``text_q`` (T, D), their queries there, are None also when that block
    is the last, whose text rows are keys and values only.
    """

    queries: Tensor
    cross_q: Tensor
    keys: Tensor | None = None
    values: Tensor | None = None
    text: Tensor | None = None
    text_q: Tensor | None = None


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
        self.queries = parameter(rng.standard_normal((config.query_count, config.dim)) * 0.1)
        self.text_embed = parameter(rng.standard_normal((vocab_size, config.dim)) * 0.1)
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

    def plan_side(self, text_ids: Sequence[int] | None) -> PlanSide:
        """The image-free half of the bridge for one id sequence (see ``PlanSide``)."""
        n = self.config.query_count
        x = self.queries
        ids = np.asarray([] if text_ids is None else text_ids, dtype=np.int64)
        if ids.size > MAX_SEQUENCE_LENGTH:
            raise ContractError(
                f"plan of {ids.size} ids exceeds the bridge's {MAX_SEQUENCE_LENGTH} text positions"
            )
        if ids.size:
            text = take_rows(self.text_embed, ids) + self.text_pos[: ids.size, :]
            x = concat([x, text], axis=0)
        first = self.blocks[0]
        # a single block is also the last, whose text rows are keys and values only
        x = first.self_attention(x, rows=n if len(self.blocks) == 1 else None)
        queries = x[:n, :]
        cross_q = first.cross_attn.w_q(first.ln_cross(queries))
        if x.shape[-2] == n:
            return PlanSide(queries, cross_q)
        # every row runs through each projection, and only the text rows are kept
        x = first.feed_forward(x)
        second = self.blocks[1]
        attn = second.self_attn
        normed = second.ln_self(x)
        keys, values = attn.w_k(normed)[n:, :], attn.w_v(normed)[n:, :]
        if len(self.blocks) == 2:
            return PlanSide(queries, cross_q, keys, values)
        return PlanSide(queries, cross_q, keys, values, x[n:, :], attn.w_q(normed)[n:, :])

    def extract(self, tokens: Tensor, side: PlanSide) -> Tensor:
        """Summarise visual tokens (..., P, D) under a plan's ``side`` into (..., N, D).

        ``side`` comes from ``plan_side`` and is shared by every leading
        index of ``tokens``; only the image side runs here.
        """
        if tokens.shape[-2] == 0:
            raise ContractError("visual token set is empty")
        if tokens.shape[-1] != self.config.dim:
            raise DimensionError(
                f"visual token width {tokens.shape[-1]} does not match bridge dim "
                f"{self.config.dim}"
            )
        first = self.blocks[0]
        cross = first.cross_attn
        x = side.queries + cross.attend(side.cross_q, cross.w_k(tokens), cross.w_v(tokens))
        x = first.feed_forward(x)
        if len(self.blocks) > 1:
            x = self._second_block(x, side, tokens.shape[:-2])
        last = len(self.blocks) - 1
        for i, block in enumerate(self.blocks[2:], start=2):
            # the last block's text rows are keys and values only
            x = block.self_attention(x, rows=self.config.query_count if i == last else None)
            x = self._cross_queries(block, x, tokens) if block.has_cross else block.feed_forward(x)
        return self.ln_out(x)

    def _second_block(self, x: Tensor, side: PlanSide, lead: tuple[int, ...]) -> Tensor:
        """The second block over query rows ``x`` (..., N, D) and the plan's text rows.

        The query rows' projections join the plan side's, which every leading
        index shares; the text rows are updated only when a later block reads them.
        """
        block = self.blocks[1]
        attn = block.self_attn
        normed = block.ln_self(x)
        q, k, v = attn.w_q(normed), attn.w_k(normed), attn.w_v(normed)

        def joined(head: Tensor, plan: Tensor) -> Tensor:
            return concat([head, broadcast_to(plan, (*lead, *plan.shape))], axis=-2)

        if side.keys is not None:
            k, v = joined(k, side.keys), joined(v, side.values)
        if side.text is not None:
            q, x = joined(q, side.text_q), joined(x, side.text)
        return block.feed_forward(x + attn.attend(q, k, v))

    def _cross_queries(self, block: TransformerBlock, x: Tensor, tokens: Tensor) -> Tensor:
        """Cross-attention and feed-forward of a later block whose query rows see the image.

        Text rows skip the cross-attention.
        """
        n = self.config.query_count
        if x.shape[-2] == n:
            return block.feed_forward(block.cross_attention(x, tokens))
        head = block.cross_attention(x[..., :n, :], tokens)
        return block.feed_forward(concat([head, x[..., n:, :]], axis=-2))

    def project_to_lm(self, summary: Tensor) -> Tensor:
        """Affine map from the N x D summary to N x D' soft prompt rows; no nonlinearity."""
        if summary.ndim != 2 or summary.shape[1] != self.config.dim:
            raise DimensionError(
                f"summary shape {summary.shape} does not match bridge dim {self.config.dim}"
            )
        return self.proj(summary)

    def instance_features(
        self,
        tokens: Tensor,
        plan_texts: Sequence[str],
        vocab: Vocabulary,
        sides: dict[str, PlanSide] | None = None,
    ) -> Tensor:
        """Re-query each image's tokens (B, P, D) with its own plan as the text input.

        Feeds the policy.  Rows with the same plan text share one ``extract``
        call; the result is (B, N, D) in the order of the rows.  Each distinct
        plan's side is looked up in ``sides`` and misses are stored there, so
        a caller whose bridge weights do not change can keep it across calls;
        without it the plan side runs once per distinct plan in this call.
        """
        if tokens.ndim != 3 or tokens.shape[0] != len(plan_texts):
            raise DimensionError(f"{len(plan_texts)} plans for visual tokens {tokens.shape}")
        by_plan: dict[str, list[int]] = {}
        for i, plan_text in enumerate(plan_texts):
            if not plan_text.strip():
                raise ContractError("plan text must be non-empty")
            by_plan.setdefault(plan_text, []).append(i)
        sides = {} if sides is None else sides
        for plan_text in by_plan:
            if plan_text not in sides:
                sides[plan_text] = self.plan_side(tokenize(plan_text, vocab))
        if len(by_plan) == 1:
            return self.extract(tokens, sides[plan_texts[0]])
        parts, order = [], []
        for plan_text, rows in by_plan.items():
            parts.append(self.extract(tokens[rows], sides[plan_text]))
            order += rows
        return take_rows(concat(parts, axis=0), np.argsort(order))
