import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from planact.errors import ContractError, DimensionError, NumericError
from planact.gradcheck import check_gradients
from planact.nn import (
    KVCache,
    MultiHeadAttention,
    TransformerBlock,
    causal_mask,
    sinusoidal_embedding,
)
from planact.tensor import (
    MASK_BIAS,
    Tensor,
    _unbroadcast,
    attention,
    concat,
    gelu,
    linear,
    softmax,
)


class TestMask:
    def test_causal_pattern(self):
        np.testing.assert_array_equal(
            causal_mask(3), [[1, 0, 0], [1, 1, 0], [1, 1, 1]]
        )

    def test_prefix_pattern(self):
        allowed = causal_mask(4, prefix=2)
        # everyone sees the first two positions; causal beyond
        assert allowed[:, :2].all()
        assert not allowed[2, 3]
        assert allowed[3, 3]

    def test_prefix_zero_equals_causal(self):
        np.testing.assert_array_equal(causal_mask(5, prefix=0), causal_mask(5))

    def test_negative_prefix_rejected(self):
        with pytest.raises(ContractError, match="prefix must be at least 0, got -1"):
            causal_mask(3, prefix=-1)
        with pytest.raises(ContractError, match="prefix must be at least 0, got -1"):
            causal_mask(2, 5, prefix=-1)
        with pytest.raises(ContractError, match="prefix must be an integer, got 1.0"):
            causal_mask(3, prefix=1.0)

    def test_fewer_keys_than_queries_rejected(self):
        with pytest.raises(ContractError, match="key columns"):
            causal_mask(3, 2)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_square_mask_is_the_query_only_pattern(self, n):
        for prefix in range(n + 2):
            cols = np.arange(n)
            square = (cols[None, :] <= cols[:, None]) | (cols < prefix)
            np.testing.assert_array_equal(causal_mask(n, n, prefix), square)
            np.testing.assert_array_equal(causal_mask(n, prefix=prefix), square)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_earlier_keys_are_visible_to_every_query(self, n):
        for earlier in (1, 3):
            full = np.concatenate([np.ones((n, earlier), dtype=bool), causal_mask(n)], axis=1)
            np.testing.assert_array_equal(causal_mask(n, n + earlier), full)

    def test_mask_that_does_not_fit_rejected(self, rng):
        mha = MultiHeadAttention(rng, dim=4, heads=2)
        x_q, x_kv = Tensor(rng.standard_normal((2, 4))), Tensor(rng.standard_normal((3, 4)))
        with pytest.raises(DimensionError, match="does not fit"):
            mha(x_q, x_kv, causal_mask(2))
        with pytest.raises(DimensionError, match="does not fit"):
            attention(x_q, x_kv, x_kv, 2, causal_mask(3))

    def test_bad_mask_leaves_cache_unchanged(self, rng):
        mha = MultiHeadAttention(rng, dim=4, heads=2)
        x = Tensor(rng.standard_normal((3, 4)))
        cache = KVCache(Tensor(np.zeros((0, 4))), Tensor(np.zeros((0, 4))), rows=8)
        mha(x, x, causal_mask(3), cache=cache)
        k, v = cache.k, cache.v
        with pytest.raises(DimensionError):
            mha(x[:2], x[:2], causal_mask(3), cache=cache)
        assert len(cache) == 3 and cache.k is k and cache.v is v

    def test_fully_masked_row_leaves_cache_unchanged(self, rng):
        mha = MultiHeadAttention(rng, dim=4, heads=2)
        x = Tensor(rng.standard_normal((2, 4)))
        cache = KVCache(Tensor(np.zeros((0, 4))), Tensor(np.zeros((0, 4))), rows=8)
        k, v = cache.k, cache.v
        blind = np.array([[True, False], [False, False]])
        with pytest.raises(ContractError, match="fully masked"):
            mha(x, x, blind, cache=cache)
        assert len(cache) == 0 and cache.k is k and cache.v is v
        # the mask covers the cached row too: a query that sees only it has a key
        seeded = KVCache(
            Tensor(rng.standard_normal((1, 4))), Tensor(rng.standard_normal((1, 4))), rows=8
        )
        sees_cached = np.concatenate([np.ones((2, 1), dtype=bool), blind], axis=1)
        assert mha(x, x, sees_cached, cache=seeded).shape == (2, 4)
        assert len(seeded) == 3
        k, v = seeded.k, seeded.v
        with pytest.raises(ContractError, match="fully masked"):
            mha(x, x, np.concatenate([np.zeros((2, 3), dtype=bool), blind], axis=1), cache=seeded)
        assert len(seeded) == 3 and seeded.k is k and seeded.v is v

    def test_mask_hides_cached_rows(self, rng):
        # a cached row the mask hides adds nothing, as if it had never run
        mha = MultiHeadAttention(rng, dim=4, heads=2)
        x = Tensor(rng.standard_normal((3, 4)))
        hidden = KVCache(Tensor(np.zeros((0, 4))), Tensor(np.zeros((0, 4))), rows=8)
        mha(x[:2], x[:2], causal_mask(2), cache=hidden)
        skipped = KVCache(Tensor(np.zeros((0, 4))), Tensor(np.zeros((0, 4))), rows=8)
        mha(x[:1], x[:1], causal_mask(1), cache=skipped)
        step = mha(x[2:], x[2:], np.array([[True, False, True]]), cache=hidden)
        np.testing.assert_allclose(
            step.data, mha(x[2:], x[2:], cache=skipped).data, rtol=0, atol=1e-12
        )


def _swap_node(x, a, b):
    """``x`` with axes ``a`` and ``b`` swapped, as one node."""
    return Tensor._result(np.swapaxes(x.data, a, b), (x,), lambda g: (np.swapaxes(g, a, b),))


def _matmul_node(a, b):
    """``a @ b`` over the last two axes as one node; leading axes broadcast."""
    def grad_fn(g):
        return (_unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape),
                _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape))

    return Tensor._result(a.data @ b.data, (a, b), grad_fn)


def chain_attention(q, k, v, heads, mask=None):
    """Multi-head attention as the chain of autodiff nodes it once ran as.

    Split heads (reshape, swap axes), scale the queries, multiply by the
    transposed keys, fill masked scores, softmax, multiply by the values,
    then merge heads (swap axes, reshape).  The fill is a product with the
    mask plus a constant, which equals ``np.where(mask, scores, MASK_BIAS)``.
    The swaps and products are nodes local to this reference, since the
    package's products all go through ``linear`` and ``attention``.
    """
    d = q.shape[-1] // heads

    def split(x):
        return _swap_node(x.reshape(*x.shape[:-1], heads, d), -3, -2)

    qh, kh, vh = split(q), split(k), split(v)
    scores = _matmul_node(qh * (1.0 / math.sqrt(d)), _swap_node(kh, -1, -2))
    if mask is not None and not mask.all():
        scores = scores * mask + np.where(mask, 0.0, MASK_BIAS)
    out = _matmul_node(softmax(scores, axis=-1), vh)
    return _swap_node(out, -3, -2).reshape(*out.shape[:-3], q.shape[-2], q.shape[-1])


def _attention_case(rng, case):
    """(q, k, v, heads, mask, leaves) for one calling pattern of the model code."""
    leaves = []

    def leaf(*shape):
        leaves.append(Tensor(rng.standard_normal(shape), requires_grad=True))
        return leaves[-1]

    if case == "unbatched":
        return leaf(3, 8), leaf(5, 8), leaf(5, 8), 2, None, leaves
    if case == "batched":
        return leaf(2, 4, 8), leaf(2, 6, 8), leaf(2, 6, 8), 4, None, leaves
    if case == "causal_with_prefix":
        x = leaf(6, 8)
        return x, x, x, 4, causal_mask(6, prefix=2), leaves
    if case == "kv_cache_step":
        cached, new = (leaf(3, 8), leaf(3, 8)), (leaf(2, 8), leaf(2, 8))
        k, v = (concat([c, n], axis=0) for c, n in zip(cached, new))
        return leaf(2, 8), k, v, 4, causal_mask(2, 5), leaves
    assert case == "fewer_kv_axes"
    return leaf(2, 3, 3, 8), leaf(4, 8), leaf(4, 8), 2, None, leaves


class TestScaledDotAttention:
    @pytest.mark.parametrize(
        "case", ["unbatched", "batched", "causal_with_prefix", "kv_cache_step", "fewer_kv_axes"]
    )
    def test_bitwise_equal_to_node_chain(self, rng, case):
        q, k, v, heads, mask, leaves = _attention_case(rng, case)
        fused = attention(q, k, v, heads, mask)
        chain = chain_attention(q, k, v, heads, mask)
        lead = np.broadcast_shapes(q.shape[:-2], k.shape[:-2])
        assert fused.shape == chain.shape == (*lead, q.shape[-2], 8)
        assert fused.data.tobytes() == chain.data.tobytes()
        w = Tensor(rng.standard_normal(fused.shape))
        grads = []
        for out in (fused, chain):
            for t in leaves:
                t.grad = None
            (out * w).sum().backward()
            grads.append([t.grad for t in leaves])
        for g_fused, g_chain in zip(*grads):
            assert g_fused.tobytes() == g_chain.tobytes()

    def test_nan_scores_raise(self, rng):
        q = rng.standard_normal((2, 4))
        q[1, 3] = np.nan
        kv = Tensor(rng.standard_normal((3, 4)))
        with pytest.raises(NumericError):
            attention(Tensor(q), kv, kv, 2)

    def test_single_key_forces_weight_one(self, rng):
        q = Tensor(rng.standard_normal((3, 4)))
        k = Tensor(rng.standard_normal((1, 4)))
        v = Tensor(rng.standard_normal((1, 4)))
        out = attention(q, k, v, 1)
        np.testing.assert_allclose(out.data, np.tile(v.data, (3, 1)), atol=1e-12)

    def test_identical_keys_average_values(self, rng):
        q = Tensor(rng.standard_normal((2, 4)))
        k = Tensor(np.tile(rng.standard_normal(4), (3, 1)))
        v = Tensor(rng.standard_normal((3, 4)))
        out = attention(q, k, v, 1)
        np.testing.assert_allclose(
            out.data, np.tile(v.data.mean(axis=0), (2, 1)), atol=1e-12
        )

    @pytest.mark.parametrize("heads, message", [(0, "heads must be at least 1, got 0"),
                                                (2.0, "heads must be an integer, got 2.0"),
                                                (3, "width 4 does not split into 3 heads")],
                             ids=["zero", "float", "indivisible"])
    def test_bad_head_count_rejected(self, rng, heads, message):
        x = Tensor(rng.standard_normal((2, 4)))
        with pytest.raises(ContractError, match=message):
            attention(x, x, x, heads)

    def test_matches_dense_recomputation(self, rng):
        q = Tensor(rng.standard_normal((2, 4)))
        k = Tensor(rng.standard_normal((3, 4)))
        v = Tensor(rng.standard_normal((3, 4)))
        out = attention(q, k, v, 1)
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
            attention(q, kv, kv, 2, allowed)

    def test_rows_are_stochastic(self, rng):
        # with one head and identity values the output rows are the weights
        q = Tensor(rng.standard_normal((4, 5)) * 3)
        k = Tensor(rng.standard_normal((5, 5)) * 3)
        probs = attention(q, k, Tensor(np.eye(5)), 1)
        assert np.all(probs.data >= 0.0)
        np.testing.assert_allclose(probs.data.sum(axis=1), 1.0, atol=1e-10)

    def test_gradient(self, rng):
        # two heads, keys and values shared by q's leading index, with and without a mask
        q = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        k = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        v = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        for mask in (None, causal_mask(3, prefix=1)):
            check_gradients(
                lambda inp: gelu(attention(inp[0], inp[1], inp[2], 2, mask)).sum(),
                [q, k, v],
            )

    @given(
        seed=st.integers(0, 2**32 - 1),
        heads=st.sampled_from([1, 2, 3]),
        n_q=st.integers(1, 4),
        extra_keys=st.integers(0, 3),
        causal=st.booleans(),
    )
    def test_shared_key_shift_changes_nothing(self, seed, heads, n_q, extra_keys, causal):
        # a vector c added to every key shifts each query's logits by q . c,
        # which softmax cancels: why keys take no bias
        rng = np.random.default_rng(seed)
        d, n_k = 2 * heads, n_q + extra_keys
        mask = causal_mask(n_q, n_k) if causal else None
        q, k, v = (rng.standard_normal(shape) for shape in ((n_q, d), (n_k, d), (n_k, d)))
        c = Tensor(rng.standard_normal(d), requires_grad=True)
        g = Tensor(rng.standard_normal((n_q, d)))
        runs = []
        for shift in (None, c):
            leaves = [Tensor(a, requires_grad=True) for a in (q, k, v)]
            keys = leaves[1] if shift is None else leaves[1] + shift
            out = attention(leaves[0], keys, leaves[2], heads, mask)
            (out * g).sum().backward()
            runs.append([out.data] + [t.grad for t in leaves])
        for plain, shifted in zip(*runs):
            np.testing.assert_allclose(shifted, plain, rtol=0, atol=1e-12)
        np.testing.assert_allclose(c.grad, 0.0, rtol=0, atol=1e-12)


class TestMultiHeadAttention:
    def test_single_head_reduces_to_projected_attention(self, rng):
        mha = MultiHeadAttention(rng, dim=6, heads=1)
        x_q = Tensor(rng.standard_normal((3, 6)))
        x_kv = Tensor(rng.standard_normal((4, 6)))
        out = mha(x_q, x_kv)
        manual = attention(mha.w_q(x_q), linear(x_kv, mha.w_k), mha.w_v(x_kv), 1)
        np.testing.assert_allclose(out.data, mha.w_o(manual).data, atol=1e-12)

    def test_kv_permutation_invariance(self, rng):
        mha = MultiHeadAttention(rng, dim=8, heads=2)
        x_q = Tensor(rng.standard_normal((3, 8)))
        kv = rng.standard_normal((5, 8))
        out = mha(x_q, Tensor(kv))
        perm = np.random.default_rng(9).permutation(5)
        out_p = mha(x_q, Tensor(kv[perm]))
        np.testing.assert_allclose(out.data, out_p.data, atol=1e-10)

    def test_zero_output_projection_gives_zero(self, rng):
        mha = MultiHeadAttention(rng, dim=4, heads=2)
        mha.w_o.w.data[...] = 0.0
        mha.w_o.b.data[...] = 0.0
        out = mha(Tensor(rng.standard_normal((2, 4))), Tensor(rng.standard_normal((3, 4))))
        np.testing.assert_array_equal(out.data, 0.0)

    def test_dim_mismatch(self, rng):
        mha = MultiHeadAttention(rng, dim=4, heads=2)
        with pytest.raises(DimensionError):
            mha(Tensor(np.zeros((2, 6))), Tensor(np.zeros((3, 4))))

    def test_indivisible_heads_rejected(self, rng):
        with pytest.raises(ContractError):
            MultiHeadAttention(rng, dim=6, heads=4)


def per_head_reference(mha, x_q, x_kv, allowed, past=None):
    """Multi-head attention as one loop over heads on 2-d numpy arrays.

    ``past`` is (keys, values) rows placed before the new keys and values;
    ``allowed`` covers them and the new keys.
    """
    def project(lin, x):
        return x @ lin.w.data + lin.b.data

    # keys take no bias
    q, k, v = project(mha.w_q, x_q), x_kv @ mha.w_k.data, project(mha.w_v, x_kv)
    if past is not None:
        k = np.concatenate([past[0], k])
        v = np.concatenate([past[1], v])
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
        out = mha(Tensor(x), Tensor(x), causal_mask(5))
        ref = per_head_reference(mha, x, x, causal_mask(5))
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
        cache = KVCache(Tensor(prefix[0]), Tensor(prefix[1]), rows=8)
        first = mha(Tensor(x[:4]), Tensor(x[:4]), causal_mask(4, 6), cache=cache)
        ref = per_head_reference(mha, x[:4], x[:4], causal_mask(4, 6), prefix)
        np.testing.assert_allclose(first.data, ref, rtol=0, atol=1e-12)
        past = (cache.k.data.copy(), cache.v.data.copy())
        np.testing.assert_array_equal(past[0][:2], prefix[0])
        step = mha(Tensor(x[4:]), Tensor(x[4:]), causal_mask(2, 8), cache=cache)
        ref = per_head_reference(mha, x[4:], x[4:], causal_mask(2, 8), past)
        np.testing.assert_allclose(step.data, ref, rtol=0, atol=1e-12)
        assert len(cache) == 8

    def test_append_past_storage_leaves_cache_unchanged(self, rng):
        mha = MultiHeadAttention(rng, dim=4, heads=2)
        x = Tensor(rng.standard_normal((5, 4)))
        empty = Tensor(np.zeros((0, 4)))
        cache = KVCache(empty, empty, rows=4)
        mha(x[:3], x[:3], causal_mask(3), cache=cache)
        k, v = cache.k, cache.v
        before = k.data.tobytes(), v.data.tobytes()
        with pytest.raises(DimensionError, match="3 \\+ 2 rows do not fit storage of 4"):
            mha(x[3:], x[3:], causal_mask(2, 5), cache=cache)
        assert len(cache) == 3 and cache.k is k and cache.v is v
        assert (k.data.tobytes(), v.data.tobytes()) == before

    def test_storage_below_seeded_rows_rejected(self):
        seeded = Tensor(np.zeros((2, 4)))
        with pytest.raises(ContractError, match="storage of 1 rows cannot hold 2 seeded rows"):
            KVCache(seeded, seeded, rows=1)

    def test_seeded_rows_keep_graph_on_first_call(self, rng):
        mha = MultiHeadAttention(rng, dim=4, heads=2)
        seed = Tensor(rng.standard_normal((2, 2, 4)), requires_grad=True)
        x = Tensor(rng.standard_normal((3, 4)))
        cache = KVCache(seed[:, 0, :], seed[:, 1, :], rows=5)
        gelu(mha(x, x, causal_mask(3, 5), cache=cache)).sum().backward()
        assert seed.grad is not None and np.all(seed.grad != 0.0)
        assert not cache.k.requires_grad and cache.k._parents == ()
        check_gradients(
            lambda inp: gelu(
                mha(x, x, causal_mask(3, 5), cache=KVCache(inp[0][:, 0, :], inp[0][:, 1, :], 5))
            ).sum(),
            [seed],
        )

    def test_batched_rows_match_unbatched(self, rng):
        mha = MultiHeadAttention(rng, dim=8, heads=2)
        x = rng.standard_normal((3, 4, 8))
        out = mha(Tensor(x), Tensor(x), causal_mask(4))
        assert out.shape == (3, 4, 8)
        for b in range(3):
            one = mha(Tensor(x[b]), Tensor(x[b]), causal_mask(4))
            np.testing.assert_allclose(out.data[b], one.data, rtol=0, atol=1e-12)

    def test_batched_gradient(self, rng):
        mha = MultiHeadAttention(rng, dim=4, heads=2)
        x = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        kv = Tensor(rng.standard_normal((2, 2, 4)), requires_grad=True)
        params = list(mha.named_parameters().values())
        check_gradients(lambda inp: gelu(mha(inp[0], inp[1])).sum(), [x, kv] + params)


class TestTransformerBlock:
    def test_all_zero_weights_pass_input_through(self, rng):
        block = TransformerBlock(rng, dim=4, heads=2)
        for p in block.parameters():
            p.data[...] = 0.0
        x = rng.standard_normal((3, 4))
        out = block(Tensor(x))
        np.testing.assert_allclose(out.data, x, atol=1e-12)

    def test_single_cross_key_is_rank_limited(self, rng):
        # with one key the attention weight is 1 everywhere, so the cross
        # contribution is the same projected value row for every query
        block = TransformerBlock(rng, dim=4, heads=2, cross_attention=True)
        kv = Tensor(rng.standard_normal((1, 4)))
        x = Tensor(rng.standard_normal((3, 4)))
        h = x + block.self_attn(block.ln_self(x), block.ln_self(x))
        contrib = block.cross_attn(block.ln_cross(h), kv)
        out_row = block.cross_attn.w_o(block.cross_attn.w_v(kv))
        np.testing.assert_allclose(
            contrib.data, np.tile(out_row.data, (3, 1)), atol=1e-10
        )

    def test_cross_kv_contract(self, rng):
        # a cross block has no single composition; its caller runs the sublayers
        crossed = TransformerBlock(rng, dim=4, heads=2, cross_attention=True)
        with pytest.raises(ContractError):
            crossed(Tensor(np.zeros((2, 4))))

    def test_call_composes_self_attention_and_feed_forward(self, rng):
        block = TransformerBlock(rng, dim=4, heads=2)
        x = Tensor(rng.standard_normal((2, 5, 4)))
        composed = block.feed_forward(block.self_attention(x, causal_mask(5)))
        assert block(x, causal_mask(5)).data.tobytes() == composed.data.tobytes()

    def test_causal_future_invariance_is_bitwise(self, rng):
        block = TransformerBlock(rng, dim=4, heads=2)
        x = rng.standard_normal((5, 4))
        out_a = block(Tensor(x), causal_mask(5))
        tampered = x.copy()
        tampered[3:] += 100.0
        out_b = block(Tensor(tampered), causal_mask(5))
        assert out_a.data[:3].tobytes() == out_b.data[:3].tobytes()

    def test_batched_sublayers_match_unbatched(self, rng):
        block = TransformerBlock(rng, dim=4, heads=2)
        x = rng.standard_normal((3, 5, 4))
        out = block(Tensor(x), causal_mask(5))
        for b in range(3):
            np.testing.assert_allclose(
                out.data[b], block(Tensor(x[b]), causal_mask(5)).data, rtol=0, atol=1e-12
            )

    def test_gradient_full_block(self, rng):
        block = TransformerBlock(rng, dim=4, heads=2)
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        params = list(block.named_parameters().values())
        check_gradients(lambda inp: gelu(block(inp[0], causal_mask(3))).mean(), [x] + params)


class TestPositionalEmbedding:
    def test_position_zero_alternates(self):
        table = sinusoidal_embedding(3, 6)
        np.testing.assert_allclose(table.data[0], [0, 1, 0, 1, 0, 1], atol=1e-12)

    @pytest.mark.parametrize("n, d, message", [(0, 4, "rows must be at least 1, got 0"),
                                               (3, 0, "width must be at least 1, got 0"),
                                               (3.0, 4, "rows must be an integer, got 3.0")],
                             ids=["zero_rows", "zero_width", "float_rows"])
    def test_bad_extent_rejected(self, n, d, message):
        with pytest.raises(ContractError, match=f"positional table {message}"):
            sinusoidal_embedding(n, d)

    def test_sinusoidal_bounded(self):
        table = sinusoidal_embedding(50, 16)
        assert np.all(np.abs(table.data) <= 1.0)
