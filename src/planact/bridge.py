"""Query-token bridge between visual tokens and the language model.

The bridge works on text ids: tokenizing a plan and grouping observations
by plan belong to its caller, ``ControlModel.instance_features``.  A fixed
set of learnable query vectors is concatenated with the embedded ids (at
least one; ``tokenize`` always gives BOS and EOS) and run through two
pre-norm blocks.  Block 0 self-attends over [queries; text]
with every row visible, cross-attends (query rows only) to the visual tokens,
the ``(..., cells, dim)`` tensor that ``VisualEncoder.encode_image``
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
observation pays only for the image side.  While grounding pretraining
(``policy.pretrain_bridge``) trains the bridge, the plan side is built once
per plan per minibatch, and its graph carries the gradients of every
image-side row back into it.

The split is exact because every later operation sees the same values as
when each observation carried its own copy of every row.  The plan side
runs block 0's feed-forward and block 1's key and value projections over
all its rows (query rows included) and keeps the text rows, so its matrix
products keep the row count, and with it the summation order, of the
unsplit block; a one-text-row plan would otherwise take numpy's
matrix-vector product.  The cross-attention queries are projected from the
query rows alone, as in the unsplit block.  The result is byte-identical to
running both blocks over every row and slicing for the plans the program
runs (at the policy's 8 query rows and width 64, up to 173 text ids;
``plan_for`` plans are 43 ids long).  Two cases agree only to round-off,
about 1e-15.  With a single query row numpy takes a matrix-vector product,
whose summation order differs.  Past about 170 text ids numpy's matrix
products over the longer unsplit rows may sum in another order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ContractError, DimensionError
from .nn import Linear, Module, TransformerBlock, LayerNorm, sinusoidal_embedding
from .tensor import Tensor, broadcast_to, concat, parameter, take_rows
from .vocab import MAX_SEQUENCE_LENGTH


@dataclass(frozen=True)
class PlanSide:
    """The image-free half of ``QueryBridge`` for one plan, unbatched.

    ``queries`` (N, D) are block 0's self-attended query rows and ``cross_q``
    (N, D) their cross-attention queries.  ``keys`` and ``values`` (T, D) are
    block 1's self-attention projections of the plan's T >= 1 text rows.
    """

    queries: Tensor
    cross_q: Tensor
    keys: Tensor
    values: Tensor


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

    def plan_side(self, text_ids: Sequence[int]) -> PlanSide:
        """The image-free half of the bridge for one non-empty id sequence (see ``PlanSide``)."""
        n = self.config.query_count
        ids = np.asarray(text_ids, dtype=np.int64)
        if ids.size == 0:
            raise ContractError("a plan side needs at least one text id")
        if ids.size > MAX_SEQUENCE_LENGTH:
            raise ContractError(
                f"plan of {ids.size} ids exceeds the bridge's {MAX_SEQUENCE_LENGTH} text positions"
            )
        text = take_rows(self.text_embed, ids) + self.text_pos[: ids.size, :]
        first, second = self.blocks
        x = first.self_attention(concat([self.queries, text], axis=0))
        queries = x[:n, :]
        cross_q = first.cross_attn.w_q(first.ln_cross(queries))
        # every row runs through each projection, and only the text rows are kept
        normed = second.ln_self(first.feed_forward(x))
        attn = second.self_attn
        return PlanSide(queries, cross_q, attn.w_k(normed)[n:, :], attn.w_v(normed)[n:, :])

    def extract(self, tokens: Tensor, side: PlanSide) -> Tensor:
        """Summarise visual tokens (..., P, D) under a plan's ``side`` into (..., N, D).

        ``side`` comes from ``plan_side`` and is shared by every leading
        index of ``tokens``; only the image side runs here.
        """
        if tokens.ndim < 2:
            raise DimensionError(f"expected visual tokens (..., P, D), got shape {tokens.shape}")
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
