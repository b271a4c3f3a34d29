import numpy as np
import pytest

from planact.bridge import BridgeConfig, QueryBridge
from planact.errors import ContractError, DimensionError
from planact.gradcheck import check_gradients
from planact.nn import set_trainable
from planact.tensor import Tensor, broadcast_to, concat, gelu, take_rows
from planact.vision import VisualEncoder, sinusoidal_grid_embedding
from planact.vocab import MAX_SEQUENCE_LENGTH, Vocabulary, tokenize


def reference_extract(bridge, tokens, ids):
    """The unsplit bridge: every row copied per observation through both blocks, then sliced."""
    n = bridge.config.query_count
    lead = tokens.shape[:-2]
    rows = [bridge.queries, take_rows(bridge.text_embed, ids) + bridge.text_pos[: len(ids), :]]
    x = concat([broadcast_to(r, (*lead, *r.shape[-2:])) for r in rows], axis=-2)
    for block in bridge.blocks:
        normed = block.ln_self(x)
        h = x + block.self_attn(normed, normed)
        if block.has_cross:
            head = h[..., :n, :]
            attended = block.cross_attn(block.ln_cross(head), tokens)
            h = concat([head + attended, h[..., n:, :]], axis=-2)
        x = h + block.ffn(block.ln_ffn(h))
    return bridge.ln_out(x)[..., :n, :]


@pytest.fixture
def encoder(rng):
    return VisualEncoder(rng, 3, 4, 16)


@pytest.fixture
def vocab():
    return Vocabulary.build(["go to the red block and activate it", "describe this video ."])


@pytest.fixture
def bridge(rng, vocab):
    cfg = BridgeConfig(query_count=4, dim=16, lm_dim=12, heads=2)
    return QueryBridge(rng, vocab_size=len(vocab), config=cfg)


class TestVisualEncoder:
    def test_single_frame_token_count(self, encoder, rng):
        out = encoder.encode_image(rng.standard_normal((3, 4, 4)))
        assert out.shape == (16, 16)

    @pytest.mark.parametrize(
        "shape",
        [(4, 4), (3, 4, 5), (3, 5, 4), (3, 5, 5), (2, 4, 4), (2, 4, 4, 4)],
        ids=["rank", "width", "height", "side", "channels", "batched-channels"],
    )
    def test_wrong_grid_shape_rejected(self, encoder, shape):
        with pytest.raises(DimensionError, match=r"does not match \(\.\.\., 3, 4, 4\)"):
            encoder.encode_image(np.zeros(shape))

    def test_tensor_rejected(self, encoder):
        # observations are constants: the encoder wraps the array itself
        with pytest.raises(ContractError, match="takes the observation array, not a Tensor"):
            encoder.encode_image(Tensor(np.zeros((3, 4, 4))))

    @pytest.mark.parametrize("lead", [(), (2,)], ids=["single", "batched"])
    def test_cell_layout(self, rng, lead):
        # an identity embedding leaves each token the channel vector of its cell
        side = 3
        enc = VisualEncoder(rng, 2, side, 2)
        enc.patch_embed.w.data[...] = np.eye(2)
        grid = np.arange(np.prod((*lead, 2, side, side)), dtype=np.float64).reshape(
            *lead, 2, side, side
        )
        tokens = enc.encode_image(grid).data
        assert tokens.shape == (*lead, side * side, 2)
        for r in range(side):
            for c in range(side):
                cell = grid[..., :, r, c] + enc.pos.data[r * side + c]
                np.testing.assert_array_equal(tokens[..., r * side + c, :], cell)

    def test_every_parameter_gets_a_gradient(self, encoder, rng):
        images = rng.standard_normal((2, 3, 4, 4))
        encoder.encode_image(images).sum().backward()
        missing = [name for name, p in encoder.named_parameters().items() if p.grad is None]
        assert missing == []

    def test_position_code_is_fixed_2d_table(self, encoder):
        np.testing.assert_array_equal(encoder.pos.data, sinusoidal_grid_embedding(4, 16).data)
        assert not encoder.pos.requires_grad
        assert list(encoder.named_parameters()) == ["patch_embed.w", "patch_embed.b"]

    @pytest.mark.parametrize("field, args, message", [
        ("channels", (0, 9, 16), "at least 1, got 0"),
        ("channels", (4.0, 9, 16), "an integer, got 4.0"),
        ("side", (4, 0, 16), "at least 1, got 0"),
        ("side", (4, 9.0, 16), "an integer, got 9.0"),
        ("dim", (4, 9, 0), "at least 1, got 0"),
        ("dim", (4, 9, True), "an integer, got True"),
    ], ids=["channels_zero", "channels_float", "side_zero", "side_float", "dim_zero", "dim_bool"])
    def test_bad_size_names_its_field(self, rng, field, args, message):
        with pytest.raises(ContractError, match=f"^{field} must be {message}$"):
            VisualEncoder(rng, *args)


class TestQueryBridge:
    def test_bottleneck_shape_fixed(self, bridge, vocab, rng):
        for rows, ids in [(16, [1, 2]), (32, tokenize("go to the red block", vocab)),
                          (64, tokenize("describe this video .", vocab))]:
            tokens = Tensor(rng.standard_normal((rows, 16)))
            assert bridge.extract(tokens, bridge.plan_side(ids)).shape == (4, 16)

    def test_empty_visual_rejected(self, bridge):
        with pytest.raises((ContractError, DimensionError)):
            bridge.extract(Tensor(np.zeros((0, 16))), bridge.plan_side([1, 2]))

    def test_tokens_without_a_token_axis_rejected(self, bridge):
        with pytest.raises(DimensionError, match=r"expected visual tokens \(\.\.\., P, D\)"):
            bridge.extract(Tensor(np.zeros(16)), bridge.plan_side([1, 2]))

    @pytest.mark.parametrize("ids", [[], (), np.array([], dtype=np.int64)],
                             ids=["list", "tuple", "array"])
    def test_empty_text_rejected(self, bridge, ids):
        with pytest.raises(ContractError, match="a plan side needs at least one text id"):
            bridge.plan_side(ids)

    def test_visual_permutation_invariance(self, bridge, rng):
        tokens = rng.standard_normal((10, 16))
        side = bridge.plan_side([1, 2])
        out1 = bridge.extract(Tensor(tokens), side)
        out2 = bridge.extract(Tensor(tokens[rng.permutation(10)]), side)
        np.testing.assert_allclose(out1.data, out2.data, atol=1e-10)

    def test_deterministic(self, encoder, bridge, vocab, rng):
        img = rng.standard_normal((3, 4, 4))
        ids = tokenize("go to the red block", vocab)
        a = bridge.extract(encoder.encode_image(img), bridge.plan_side(ids))
        b = bridge.extract(encoder.encode_image(img), bridge.plan_side(ids))
        assert a.data.tobytes() == b.data.tobytes()

    def test_projection_affine(self, bridge, rng):
        z1 = Tensor(rng.standard_normal((4, 16)))
        z2 = Tensor(rng.standard_normal((4, 16)))
        bridge.proj.b.data[...] = 0.0
        lhs = bridge.project_to_lm(z1 * 2.0 + z2 * 3.0)
        rhs = bridge.project_to_lm(z1) * 2.0 + bridge.project_to_lm(z2) * 3.0
        np.testing.assert_allclose(lhs.data, rhs.data, atol=1e-12)

    def test_projection_zero_weights(self, bridge, rng):
        bridge.proj.w.data[...] = 0.0
        bridge.proj.b.data[...] = 0.0
        out = bridge.project_to_lm(Tensor(rng.standard_normal((4, 16))))
        np.testing.assert_array_equal(out.data, 0.0)

    def test_projection_identity(self, rng, vocab):
        cfg = BridgeConfig(query_count=2, dim=8, lm_dim=8, heads=2)
        b = QueryBridge(rng, len(vocab), cfg)
        b.proj.w.data[...] = np.eye(8)
        b.proj.b.data[...] = 0.0
        z = Tensor(rng.standard_normal((2, 8)))
        np.testing.assert_array_equal(b.project_to_lm(z).data, z.data)

    def test_projection_dim_mismatch(self, bridge, rng):
        with pytest.raises(DimensionError):
            bridge.project_to_lm(Tensor(rng.standard_normal((4, 9))))

    def test_different_plans_distinguishable(self, encoder, bridge, vocab, rng):
        tokens = encoder.encode_image(rng.standard_normal((1, 3, 4, 4)))

        def features(plan):
            return bridge.extract(tokens, bridge.plan_side(tokenize(plan, vocab))).data

        a, b, repeat = (features(p) for p in ("go to the red block", "go to the video",
                                              "go to the red block"))
        assert np.linalg.norm(a - repeat) == 0.0
        assert np.linalg.norm(a - b) > 1e-6

    def test_extract_rows_match_single_images(self, encoder, bridge, vocab, rng):
        images = rng.standard_normal((2, 3, 4, 4))
        ids = tokenize("go to the red block", vocab)
        batched = bridge.extract(encoder.encode_image(images), bridge.plan_side(ids))
        assert batched.shape == (2, 4, 16)
        for i in range(2):
            one = bridge.extract(encoder.encode_image(images[i]), bridge.plan_side(ids))
            np.testing.assert_allclose(batched.data[i], one.data, rtol=0, atol=1e-12)

    def test_gradients_reach_trainables_not_frozen_encoder(self, encoder, bridge, vocab, rng):
        set_trainable(encoder.named_parameters(), False)
        img = rng.standard_normal((3, 4, 4))
        tokens = encoder.encode_image(img)
        z = bridge.extract(tokens, bridge.plan_side(tokenize("go to the red block", vocab)))
        loss = gelu(bridge.project_to_lm(z) * 0.3).sum()
        loss.backward()
        assert bridge.queries.grad is not None and np.any(bridge.queries.grad != 0)
        assert bridge.proj.w.grad is not None and np.any(bridge.proj.w.grad != 0)
        assert bridge.text_embed.grad is not None
        block_grads = [
            p.grad for p in bridge.blocks[0].named_parameters().values()
        ]
        assert all(g is not None for g in block_grads)
        assert all(p.grad is None for p in encoder.named_parameters().values())

    def test_gradient_check_through_bridge(self, rng, vocab):
        cfg = BridgeConfig(query_count=2, dim=6, lm_dim=4, heads=2)
        bridge = QueryBridge(rng, len(vocab), cfg)
        tokens = Tensor(rng.standard_normal((3, 6)), requires_grad=True)

        def fn(inp):
            z = bridge.extract(inp[0], bridge.plan_side([1, 4, 2]))
            return gelu(bridge.project_to_lm(z)).mean()

        params = [tokens, bridge.queries, bridge.proj.w, bridge.proj.b]
        check_gradients(fn, params)

    def test_zero_query_count_rejected(self):
        with pytest.raises(ContractError, match="query_count must be at least 1, got 0"):
            BridgeConfig(query_count=0)

    def test_zero_heads_rejected(self):
        with pytest.raises(ContractError, match="heads must be at least 1, got 0"):
            BridgeConfig(heads=0)

    @pytest.mark.parametrize("field", ["dim", "lm_dim", "ff_mult"])
    def test_zero_width_fails_by_name(self, field):
        with pytest.raises(ContractError, match=f"{field} must be at least 1, got 0"):
            BridgeConfig(**{field: 0})

    @pytest.mark.parametrize(
        "field, value",
        [("query_count", 2.0), ("heads", True), ("dim", 16.0), ("lm_dim", "64"), ("ff_mult", 4.0)],
    )
    def test_integer_field_must_be_an_integer(self, field, value):
        with pytest.raises(ContractError, match=f"{field} must be an integer, got {value!r}"):
            BridgeConfig(**{field: value})


class TestPlanSideOncePerPlan:
    """``plan_side`` then ``extract`` must equal the unsplit bridge."""

    @pytest.mark.parametrize("lead", [(), (1,), (5,)], ids=["unbatched", "one", "batched"])
    # one id, the two ids (BOS, EOS) that ``tokenize`` gives an empty text,
    # and a plan longer than any query row count
    @pytest.mark.parametrize("text", [1, 2, 43], ids=lambda t: f"text{t}")
    # one image token, fewer than the policy's query rows, the small
    # encoder's 4x4 grid and the policy's 9x9 grid
    @pytest.mark.parametrize("patches", [1, 4, 16, 81], ids=lambda p: f"patches{p}")
    @pytest.mark.parametrize(
        "shape", [(16, 2, 4, 4), (64, 4, 8, 2)], ids=["small", "policy"]
    )
    def test_bitwise_equal_to_unsplit_bridge(self, rng, shape, patches, text, lead):
        dim, heads, queries, ff_mult = shape
        cfg = BridgeConfig(query_count=queries, dim=dim, lm_dim=dim, heads=heads, ff_mult=ff_mult)
        bridge = QueryBridge(rng, 50, cfg)
        ids = [int(i) for i in rng.integers(0, 50, text)]
        tokens = Tensor(rng.standard_normal((*lead, patches, dim)))
        out = bridge.extract(tokens, bridge.plan_side(ids))
        assert out.shape == (*lead, queries, dim)
        assert out.data.tobytes() == reference_extract(bridge, tokens, ids).data.tobytes()

    @pytest.mark.parametrize("lead", [(), (5,)], ids=["unbatched", "batched"])
    @pytest.mark.parametrize("text", [200, MAX_SEQUENCE_LENGTH], ids=lambda t: f"text{t}")
    @pytest.mark.parametrize(
        "shape", [(16, 2, 4, 4), (64, 4, 8, 2)], ids=["small", "policy"]
    )
    def test_long_plan_matches_to_round_off(self, rng, shape, text, lead):
        # past about 170 text ids numpy's matrix products may sum in another
        # order than the unsplit bridge's, so the two agree to round-off only
        dim, heads, queries, ff_mult = shape
        cfg = BridgeConfig(query_count=queries, dim=dim, lm_dim=dim, heads=heads, ff_mult=ff_mult)
        bridge = QueryBridge(rng, 50, cfg)
        ids = [int(i) for i in rng.integers(0, 50, text)]
        tokens = Tensor(rng.standard_normal((*lead, 81, dim)))
        np.testing.assert_allclose(
            bridge.extract(tokens, bridge.plan_side(ids)).data,
            reference_extract(bridge, tokens, ids).data,
            rtol=0,
            atol=1e-14,
        )

    @pytest.mark.parametrize("lead", [(), (1,), (3,)], ids=["unbatched", "one", "batched"])
    def test_single_query_row_matches_to_round_off(self, rng, vocab, lead):
        # one query row takes numpy's matrix-vector product, whose summation
        # order differs from the unsplit bridge's matrix product
        cfg = BridgeConfig(query_count=1, dim=16, lm_dim=16, heads=2)
        bridge = QueryBridge(rng, len(vocab), cfg)
        tokens = Tensor(rng.standard_normal((*lead, 9, 16)))
        np.testing.assert_allclose(
            bridge.extract(tokens, bridge.plan_side([1, 4, 2])).data,
            reference_extract(bridge, tokens, [1, 4, 2]).data,
            rtol=0,
            atol=1e-13,
        )

    def test_gradient_check(self, rng, vocab):
        cfg = BridgeConfig(query_count=2, dim=6, lm_dim=4, heads=2)
        bridge = QueryBridge(rng, len(vocab), cfg)
        tokens = Tensor(rng.standard_normal((2, 3, 6)), requires_grad=True)

        def fn(inp):
            z = bridge.extract(inp[0], bridge.plan_side([1, 4, 2]))
            return gelu(bridge.project_to_lm(z[1])).mean()

        # the cross-attention over the image tokens; the plan side's projections
        # and feed-forward, shared by every leading index; block 1's query-only
        # projection and its keys and values of the text rows
        first, second = bridge.blocks
        cross = first.cross_attn
        params = [tokens, bridge.queries, bridge.text_embed, first.ln_cross.gamma,
                  cross.w_q.w, cross.w_k, cross.w_v.w, cross.w_o.w, first.ffn.lin2.w,
                  second.ln_self.gamma, second.self_attn.w_q.w, second.self_attn.w_k,
                  second.self_attn.w_v.w]
        check_gradients(fn, params)

    def test_over_long_plan_rejected(self, bridge):
        with pytest.raises(ContractError, match="plan of 257 ids exceeds the bridge's 256"):
            bridge.plan_side([1] * (MAX_SEQUENCE_LENGTH + 1))
        assert bridge.plan_side([1] * MAX_SEQUENCE_LENGTH).keys.shape == (MAX_SEQUENCE_LENGTH, 16)
