"""Query-token bridge between visual tokens and the language model.

A fixed set of learnable query vectors is concatenated with embedded text and
run through two pre-norm blocks.  Block 0 self-attends over [queries; text]
with every row visible, cross-attends (query rows only) to the visual tokens,
the ``(..., patches, dim)`` tensor that ``VisualEncoder.encode_image``
returns, and runs its feed-forward over every row.  Block 1 self-attends and
runs its feed-forward.  Text positions use a fixed table of
``MAX_SEQUENCE_LENGTH`` rows, the length ``tokenize`` truncates to.  Only
the query rows are returned, so the output is a fixed-size bottleneck
regardless of how many visual or text tokens went in.  A single affine map
projects that summary into the language model's embedding space as soft
prompt rows.

The bridge runs in two halves.  Nothing before block 0's cross-attention
sees the image, so that much is the *plan side*, a function of the plan
alone, and ``plan_side`` also runs every projection whose input is
plan-only: block 0's self-attention, the cross-attention query projection of
its query rows and, since text rows skip the cross-attention, their
feed-forward and block 1's key and value projections of them.  ``extract``
runs the *image side*: the image tokens' keys and values in block 0's
cross-attention, then block 1 over the query rows, whose keys and values
precede the plan's ([queries; text], as in the unsplit block).  Block 1's
text rows serve only as keys and values, so its query projection,
feed-forward and the final norm run on the query rows alone.  A caller that
keeps a plan's side (a frozen bridge) pays for it once per plan; each
observation pays only for the image side.  A caller that trains the bridge
builds the plan side once per plan per batch, and its graph carries the
gradients of every image-side row back into it.

The split is exact because every later operation sees the same values as
when each observation carried its own copy of every row.  The plan side
runs block 0's feed-forward and block 1's key and value projections over
all its rows (query rows included) and keeps the text rows, so its matrix
products keep the row count, and with it the summation order, of the
unsplit block; a one-text-row plan would otherwise take numpy's
matrix-vector product.  The cross-attention queries are projected from the
query rows alone, as in the unsplit block.  The result is byte-identical to
running both blocks over every row and slicing, except with a single query
row: numpy then takes a matrix-vector product, whose summation order
differs, and the two agree to round-off.
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

    ``queries`` (N, D) are block 0's self-attended query rows and ``cross_q``
    (N, D) their cross-attention queries.  ``keys`` and ``values`` (T, D) are
    block 1's self-attention projections of the plan's T text rows, None for
    a plan with no text.
    """

    queries: Tensor
    cross_q: Tensor
    keys: Tensor | None = None
    values: Tensor | None = None


@dataclass
class BridgeConfig:
    query_count: int = 8       # N summary tokens
    dim: int = 64              # bridge width
    lm_dim: int = 64           # language model embedding width
    heads: int = 4
    ff_mult: int = 4


class QueryBridge(Module):
    def __init__(self, rng: np.random.Generator, vocab_size: int, config: BridgeConfig):
        if config.query_count < 1:
            raise ContractError(f"query_count must be at least 1, got {config.query_count}")
        self.config = config
        self.queries = parameter(rng.standard_normal((config.query_count, config.dim)) * 0.1)
        self.text_embed = parameter(rng.standard_normal((vocab_size, config.dim)) * 0.1)
        self.text_pos = sinusoidal_embedding(MAX_SEQUENCE_LENGTH, config.dim)
        self.blocks = [
            TransformerBlock(
                rng, config.dim, config.heads, ff_mult=config.ff_mult, cross_attention=True
            ),
            TransformerBlock(rng, config.dim, config.heads, ff_mult=config.ff_mult),
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
        first, second = self.blocks
        x = first.self_attention(x)
        queries = x[:n, :]
        cross_q = first.cross_attn.w_q(first.ln_cross(queries))
        if not ids.size:
            return PlanSide(queries, cross_q)
        # every row runs through each projection, and only the text rows are kept
        normed = second.ln_self(first.feed_forward(x))
        attn = second.self_attn
        return PlanSide(queries, cross_q, attn.w_k(normed)[n:, :], attn.w_v(normed)[n:, :])

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
        first, second = self.blocks
        cross = first.cross_attn
        x = side.queries + cross.attend(side.cross_q, cross.w_k(tokens), cross.w_v(tokens))
        x = first.feed_forward(x)
        attn = second.self_attn
        normed = second.ln_self(x)
        q, k, v = attn.w_q(normed), attn.w_k(normed), attn.w_v(normed)
        if side.keys is not None:
            # the plan's keys and values, shared by every leading index, follow the queries'
            lead = tokens.shape[:-2]
            k = concat([k, broadcast_to(side.keys, (*lead, *side.keys.shape))], axis=-2)
            v = concat([v, broadcast_to(side.values, (*lead, *side.values.shape))], axis=-2)
        return self.ln_out(second.feed_forward(x + attn.attend(q, k, v)))

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
