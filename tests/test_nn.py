import math

import numpy as np
import pytest

from planact.errors import ContractError, DimensionError
from planact.gradcheck import check_gradients
from planact.nn import (
    KVCache,
    Mask,
    MultiHeadAttention,
    TransformerBlock,
    attention_probs,
    scaled_dot_attention,
    sinusoidal_embedding,
)
from planact.tensor import Tensor


class TestMask:
    def test_causal_pattern(self):
        allowed = Mask.causal().allowed(3, 3)
        np.testing.assert_array_equal(
            allowed, [[1, 0, 0], [1, 1, 0], [1, 1, 1]]
        )

    def test_prefix_pattern(self):
        allowed = Mask.prefix_mask(2).allowed(4, 4)
        # everyone sees the first two positions; causal beyond
        assert allowed[:, :2].all()
        assert not allowed[2, 3]
        assert allowed[3, 3]

    def test_prefix_zero_equals_causal(self):
        np.testing.assert_array_equal(
            Mask.prefix_mask(0).allowed(5, 5), Mask.causal().allowed(5, 5)
        )

    def test_causal_requires_square(self):
        with pytest.raises(DimensionError):
            Mask.causal().allowed(2, 3)


class TestScaledDotAttention:
    def test_single_key_forces_weight_one(self, rng):
        q = Tensor(rng.standard_normal((3, 4)))
        k = Tensor(rng.standard_normal((1, 4)))
        v = Tensor(rng.standard_normal((1, 4)))
        out = scaled_dot_attention(q, k, v, Mask.full())
        np.testing.assert_allclose(out.data, np.tile(v.data, (3, 1)), atol=1e-12)

    def test_identical_keys_average_values(self, rng):
        q = Tensor(rng.standard_normal((2, 4)))
        k = Tensor(np.tile(rng.standard_normal(4), (3, 1)))
        v = Tensor(rng.standard_normal((3, 4)))
        out = scaled_dot_attention(q, k, v, Mask.full())
        np.testing.assert_allclose(
            out.data, np.tile(v.data.mean(axis=0), (2, 1)), atol=1e-12
        )

    def test_matches_dense_recomputation(self, rng):
        q = Tensor(rng.standard_normal((2, 4)))
        k = Tensor(rng.standard_normal((3, 4)))
        v = Tensor(rng.standard_normal((3, 4)))
        out = scaled_dot_attention(q, k, v, Mask.full())
        # independent dense evaluation
        scores = q.data @ k.data.T / math.sqrt(4)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        probs = e / e.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(out.data, probs @ v.data, atol=1e-12)

    def test_fully_masked_row_rejected(self, rng):
        q = Tensor(rng.standard_normal((2, 4)))
        kv = Tensor(rng.standard_normal((2, 4)))
        allowed = np.array([[True, True], [False, False]])
        with pytest.raises(ContractError):
            scaled_dot_attention(q, kv, kv, allowed)

    def test_rows_are_stochastic(self, rng):
        q = Tensor(rng.standard_normal((4, 8)) * 3)
        k = Tensor(rng.standard_normal((5, 8)) * 3)
        probs = attention_probs(q, k, Mask.full())
        assert np.all(probs.data >= 0.0)
        np.testing.assert_allclose(probs.data.sum(axis=1), 1.0, atol=1e-10)

    def test_gradient(self, rng):
        q = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        k = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        v = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        check_gradients(
            lambda inp: scaled_dot_attention(inp[0], inp[1], inp[2], Mask.full())
            .tanh()
            .sum(),
            [q, k, v],
        )


class TestMultiHeadAttention:
    def test_single_head_reduces_to_projected_attention(self, rng):
        mha = MultiHeadAttention(rng, dim=6, heads=1)
        x_q = Tensor(rng.standard_normal((3, 6)))
        x_kv = Tensor(rng.standard_normal((4, 6)))
        out = mha(x_q, x_kv, Mask.full())
        manual = scaled_dot_attention(
            mha.w_q(x_q), mha.w_k(x_kv), mha.w_v(x_kv), Mask.full()
        )
        np.testing.assert_allclose(out.data, mha.w_o(manual).data, atol=1e-12)

    def test_kv_permutation_invariance(self, rng):
        mha = MultiHeadAttention(rng, dim=8, heads=2)
        x_q = Tensor(rng.standard_normal((3, 8)))
        kv = rng.standard_normal((5, 8))
        out = mha(x_q, Tensor(kv), Mask.full())
        perm = np.random.default_rng(9).permutation(5)
        out_p = mha(x_q, Tensor(kv[perm]), Mask.full())
        np.testing.assert_allclose(out.data, out_p.data, atol=1e-10)

    def test_zero_output_projection_gives_zero(self, rng):
        mha = MultiHeadAttention(rng, dim=4, heads=2)
        mha.w_o.w.data[...] = 0.0
        mha.w_o.b.data[...] = 0.0
        out = mha(Tensor(rng.standard_normal((2, 4))), Tensor(rng.standard_normal((3, 4))), Mask.full())
        np.testing.assert_array_equal(out.data, 0.0)

    def test_dim_mismatch(self, rng):
        mha = MultiHeadAttention(rng, dim=4, heads=2)
        with pytest.raises(DimensionError):
            mha(Tensor(np.zeros((2, 6))), Tensor(np.zeros((3, 4))), Mask.full())

    def test_indivisible_heads_rejected(self, rng):
        with pytest.raises(ContractError):
            MultiHeadAttention(rng, dim=6, heads=4)


def per_head_reference(mha, x_q, x_kv, allowed, past=None):
    """Multi-head attention as one loop over heads on 2-d numpy arrays.

    ``past`` is (keys, values) rows placed before the new keys and values,
    visible to every query.
    """
    def project(lin, x):
        return x @ lin.w.data + lin.b.data

    q, k, v = project(mha.w_q, x_q), project(mha.w_k, x_kv), project(mha.w_v, x_kv)
    if past is not None:
        k = np.concatenate([past[0], k])
        v = np.concatenate([past[1], v])
    visible = k.shape[0] - allowed.shape[1]
    allowed = np.concatenate([np.ones((len(q), visible), dtype=bool), allowed], axis=1)
    dh = mha.dim // mha.heads
    outs = []
    for h in range(mha.heads):
        sl = slice(h * dh, (h + 1) * dh)
        scores = np.where(allowed, q[:, sl] @ k[:, sl].T / math.sqrt(dh), -np.inf)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        outs.append((e / e.sum(axis=1, keepdims=True)) @ v[:, sl])
    return project(mha.w_o, np.concatenate(outs, axis=1))


class TestHeadsByReshape:
    """Heads split by reshape agree with a per-head loop."""

    def test_masked_self_attention(self, rng):
        mha = MultiHeadAttention(rng, dim=8, heads=4)
        x = rng.standard_normal((5, 8))
        out = mha(Tensor(x), Tensor(x), Mask.causal())
        ref = per_head_reference(mha, x, x, Mask.causal().allowed(5, 5))
        np.testing.assert_allclose(out.data, ref, rtol=0, atol=1e-12)

    def test_cross_attention_with_explicit_mask(self, rng):
        mha = MultiHeadAttention(rng, dim=8, heads=2)
        x_q, x_kv = rng.standard_normal((3, 8)), rng.standard_normal((4, 8))
        allowed = np.array([[1, 0, 1, 1], [0, 1, 0, 0], [1, 1, 1, 1]], dtype=bool)
        out = mha(Tensor(x_q), Tensor(x_kv), allowed)
        ref = per_head_reference(mha, x_q, x_kv, allowed)
        np.testing.assert_allclose(out.data, ref, rtol=0, atol=1e-12)

    def test_prefix_kv_and_cache_step(self, rng):
        # prefix rows seed the cache; the rows run so far follow them
        mha = MultiHeadAttention(rng, dim=8, heads=4)
        prefix = (rng.standard_normal((2, 8)), rng.standard_normal((2, 8)))
        x = rng.standard_normal((6, 8))
        cache = KVCache(Tensor(prefix[0]), Tensor(prefix[1]))
        first = mha(Tensor(x[:4]), Tensor(x[:4]), Mask.causal(), cache=cache)
        ref = per_head_reference(mha, x[:4], x[:4], Mask.causal().allowed(4, 4), prefix)
        np.testing.assert_allclose(first.data, ref, rtol=0, atol=1e-12)
        past = (cache.k.data.copy(), cache.v.data.copy())
        np.testing.assert_array_equal(past[0][:2], prefix[0])
        step = mha(Tensor(x[4:]), Tensor(x[4:]), Mask.causal(), cache=cache)
        ref = per_head_reference(mha, x[4:], x[4:], Mask.causal().allowed(2, 2), past)
        np.testing.assert_allclose(step.data, ref, rtol=0, atol=1e-12)
        assert len(cache) == 8

    def test_seeded_rows_keep_graph_on_first_call(self, rng):
        mha = MultiHeadAttention(rng, dim=4, heads=2)
        seed = Tensor(rng.standard_normal((2, 2, 4)), requires_grad=True)
        x = Tensor(rng.standard_normal((3, 4)))
        cache = KVCache(seed[:, 0, :], seed[:, 1, :])
        mha(x, x, Mask.causal(), cache=cache).tanh().sum().backward()
        assert seed.grad is not None and np.all(seed.grad != 0.0)
        assert not cache.k.requires_grad and cache.k._parents == ()
        check_gradients(
            lambda inp: mha(x, x, Mask.causal(), cache=KVCache(inp[0][:, 0, :], inp[0][:, 1, :]))
            .tanh()
            .sum(),
            [seed],
        )

    def test_batched_rows_match_unbatched(self, rng):
        mha = MultiHeadAttention(rng, dim=8, heads=2)
        x = rng.standard_normal((3, 4, 8))
        out = mha(Tensor(x), Tensor(x), Mask.causal())
        assert out.shape == (3, 4, 8)
        for b in range(3):
            one = mha(Tensor(x[b]), Tensor(x[b]), Mask.causal())
            np.testing.assert_allclose(out.data[b], one.data, rtol=0, atol=1e-12)

    def test_batched_gradient(self, rng):
        mha = MultiHeadAttention(rng, dim=4, heads=2)
        x = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        kv = Tensor(rng.standard_normal((2, 2, 4)), requires_grad=True)
        params = list(mha.named_parameters().values())
        check_gradients(lambda inp: mha(inp[0], inp[1], Mask.full()).tanh().sum(), [x, kv] + params)


class TestTransformerBlock:
    def test_all_zero_weights_pass_input_through(self, rng):
        block = TransformerBlock(rng, dim=4, heads=2)
        for p in block.parameters():
            p.data[...] = 0.0
        x = rng.standard_normal((3, 4))
        out = block(Tensor(x), Mask.full())
        np.testing.assert_allclose(out.data, x, atol=1e-12)

    def test_single_cross_key_is_rank_limited(self, rng):
        # with one key the attention weight is 1 everywhere, so the cross
        # contribution is the same projected value row for every query
        block = TransformerBlock(rng, dim=4, heads=2, cross_attention=True)
        kv = Tensor(rng.standard_normal((1, 4)))
        x = Tensor(rng.standard_normal((3, 4)))
        h = x + block.self_attn(block.ln_self(x), block.ln_self(x), Mask.full())
        contrib = block.cross_attn(block.ln_cross(h), kv, Mask.full())
        out_row = block.cross_attn.w_o(block.cross_attn.w_v(kv))
        np.testing.assert_allclose(
            contrib.data, np.tile(out_row.data, (3, 1)), atol=1e-10
        )

    def test_cross_kv_contract(self, rng):
        plain = TransformerBlock(rng, dim=4, heads=2)
        with pytest.raises(ContractError):
            plain(Tensor(np.zeros((2, 4))), Mask.full(), cross_kv=Tensor(np.zeros((2, 4))))
        crossed = TransformerBlock(rng, dim=4, heads=2, cross_attention=True)
        with pytest.raises(ContractError):
            crossed(Tensor(np.zeros((2, 4))), Mask.full())

    def test_causal_future_invariance_is_bitwise(self, rng):
        block = TransformerBlock(rng, dim=4, heads=2)
        x = rng.standard_normal((5, 4))
        out_a = block(Tensor(x), Mask.causal())
        tampered = x.copy()
        tampered[3:] += 100.0
        out_b = block(Tensor(tampered), Mask.causal())
        assert out_a.data[:3].tobytes() == out_b.data[:3].tobytes()

    def test_batched_cross_rows_match_unbatched(self, rng):
        block = TransformerBlock(rng, dim=4, heads=2, cross_attention=True)
        x = rng.standard_normal((3, 5, 4))
        kv = rng.standard_normal((3, 2, 4))
        out = block(Tensor(x), Mask.full(), cross_kv=Tensor(kv), cross_rows=2)
        for b in range(3):
            one = block(Tensor(x[b]), Mask.full(), cross_kv=Tensor(kv[b]), cross_rows=2)
            np.testing.assert_allclose(out.data[b], one.data, rtol=0, atol=1e-12)
        # rows past cross_rows skip cross-attention
        every = block(Tensor(x), Mask.full(), cross_kv=Tensor(kv), cross_rows=5)
        np.testing.assert_array_equal(out.data[:, :2], every.data[:, :2])
        assert not np.allclose(out.data[:, 2:], every.data[:, 2:])

    def test_gradient_full_block(self, rng):
        block = TransformerBlock(rng, dim=4, heads=2, cross_attention=True)
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        kv = Tensor(rng.standard_normal((2, 4)), requires_grad=True)
        params = list(block.named_parameters().values())

        def fn(inp):
            return block(inp[0], Mask.causal(), cross_kv=inp[1]).tanh().mean()

        check_gradients(fn, [x, kv] + params)


class TestPositionalEmbedding:
    def test_position_zero_alternates(self):
        table = sinusoidal_embedding(3, 6)
        np.testing.assert_allclose(table.data[0], [0, 1, 0, 1, 0, 1], atol=1e-12)

    def test_sinusoidal_bounded(self):
        table = sinusoidal_embedding(50, 16)
        assert np.all(np.abs(table.data) <= 1.0)
