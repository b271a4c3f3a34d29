import numpy as np
import pytest

from planact.bridge import BridgeConfig, QueryBridge
from planact.errors import ContractError, DimensionError
from planact.gradcheck import check_gradients
from planact.nn import set_trainable
from planact.tensor import Tensor, broadcast_to, concat, gelu, take_rows
from planact.vision import VisionConfig, VisualEncoder, sinusoidal_grid_embedding
from planact.vocab import MAX_SEQUENCE_LENGTH, Vocabulary, tokenize

SMALL_VISION = VisionConfig(channels=3, image_size=32, patch_size=8, dim=16)


def reference_extract(bridge, tokens, ids):
    """The unsplit bridge: every row copied per observation through both blocks, then sliced."""
    n = bridge.config.query_count
    lead = tokens.shape[:-2]
    rows = [bridge.queries]
    if ids:
        rows.append(take_rows(bridge.text_embed, ids) + bridge.text_pos[: len(ids), :])
    rows = [broadcast_to(r, (*lead, *r.shape[-2:])) for r in rows]
    x = rows[0] if len(rows) == 1 else concat(rows, axis=-2)
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
    return VisualEncoder(rng, SMALL_VISION)


@pytest.fixture
def vocab():
    return Vocabulary.build(["go to the red block and activate it", "describe this video ."])


@pytest.fixture
def bridge(rng, vocab):
    cfg = BridgeConfig(query_count=4, dim=16, lm_dim=12, heads=2)
    return QueryBridge(rng, vocab_size=len(vocab), config=cfg)


class TestVisualEncoder:
    def test_single_frame_token_count(self, encoder, rng):
        out = encoder.encode_image(Tensor(rng.standard_normal((3, 32, 32))))
        assert out.shape == (16, 16)

    def test_indivisible_extent_rejected(self, encoder, rng):
        with pytest.raises(DimensionError):
            encoder.encode_image(Tensor(rng.standard_normal((3, 30, 32))))

    def test_patchify_layout(self, rng):
        enc = VisualEncoder(rng, VisionConfig(channels=1, image_size=4, patch_size=2, dim=4))
        img = np.arange(16.0).reshape(1, 4, 4)
        patches = enc._patchify(Tensor(img))
        np.testing.assert_array_equal(patches.data[0], [0, 1, 4, 5])
        np.testing.assert_array_equal(patches.data[3], [10, 11, 14, 15])

    def test_every_parameter_gets_a_gradient(self, encoder, rng):
        images = Tensor(rng.standard_normal((2, 3, 32, 32)))
        encoder.encode_image(images).sum().backward()
        missing = [name for name, p in encoder.named_parameters().items() if p.grad is None]
        assert missing == []

    def test_position_code_is_fixed_2d_table(self, encoder):
        np.testing.assert_array_equal(encoder.pos.data, sinusoidal_grid_embedding(4, 16).data)
        assert not encoder.pos.requires_grad
        assert list(encoder.named_parameters()) == ["patch_embed.w", "patch_embed.b"]

    def test_zero_patch_size_rejected(self, rng):
        with pytest.raises(ContractError, match="patch_size must be at least 1, got 0"):
            VisualEncoder(rng, VisionConfig(channels=1, image_size=4, patch_size=0, dim=4))

    def test_zero_channels_rejected(self, rng):
        with pytest.raises(ContractError, match="got 0 -> 4"):
            VisualEncoder(rng, VisionConfig(channels=0, image_size=4, patch_size=2, dim=4))


class TestQueryBridge:
    def test_bottleneck_shape_fixed(self, bridge, vocab, rng):
        for rows, text in [(16, None), (32, "go to the red block"), (64, "describe this video .")]:
            tokens = Tensor(rng.standard_normal((rows, 16)))
            ids = tokenize(text, vocab) if text else None
            assert bridge.extract(tokens, bridge.plan_side(ids)).shape == (4, 16)

    def test_empty_visual_rejected(self, bridge):
        with pytest.raises((ContractError, DimensionError)):
            bridge.extract(Tensor(np.zeros((0, 16))), bridge.plan_side(None))

    def test_empty_text_allowed(self, encoder, bridge, rng):
        tokens = encoder.encode_image(Tensor(rng.standard_normal((3, 32, 32))))
        assert bridge.extract(tokens, bridge.plan_side(None)).shape == (4, 16)

    def test_visual_permutation_invariance(self, bridge, rng):
        tokens = rng.standard_normal((10, 16))
        out1 = bridge.extract(Tensor(tokens), bridge.plan_side(None))
        out2 = bridge.extract(Tensor(tokens[rng.permutation(10)]), bridge.plan_side(None))
        np.testing.assert_allclose(out1.data, out2.data, atol=1e-10)

    def test_deterministic(self, encoder, bridge, vocab, rng):
        img = Tensor(rng.standard_normal((3, 32, 32)))
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

    def test_instance_features_match_extract(self, encoder, bridge, vocab, rng):
        tokens = encoder.encode_image(Tensor(rng.standard_normal((1, 3, 32, 32))))
        plan = "go to the red block and activate it"
        a = bridge.instance_features(tokens, [plan], vocab)
        b = bridge.extract(tokens, bridge.plan_side(tokenize(plan, vocab)))
        assert a.shape == (1, 4, 16)
        assert a.data.tobytes() == b.data.tobytes()

    def test_empty_plan_rejected(self, encoder, bridge, vocab, rng):
        tokens = encoder.encode_image(Tensor(rng.standard_normal((1, 3, 32, 32))))
        with pytest.raises(ContractError):
            bridge.instance_features(tokens, ["   "], vocab)

    def test_different_plans_distinguishable(self, encoder, bridge, vocab, rng):
        tokens = encoder.encode_image(Tensor(rng.standard_normal((1, 3, 32, 32))))
        a = bridge.instance_features(tokens, ["go to the red block"], vocab)
        b = bridge.instance_features(tokens, ["go to the video"], vocab)
        repeat = bridge.instance_features(tokens, ["go to the red block"], vocab)
        d_cross = np.linalg.norm(a.data - b.data)
        d_repeat = np.linalg.norm(a.data - repeat.data)
        assert d_repeat == 0.0
        assert d_cross > 1e-6

    def test_instance_features_rows_match_single_images(self, encoder, bridge, vocab, rng):
        # three plans: one extract per plan, rows in input order
        images = rng.standard_normal((3, 3, 32, 32))
        plans = ["go to the video", "go to the red block", "describe this video ."]
        batched = bridge.instance_features(encoder.encode_image(Tensor(images)), plans, vocab)
        for i, plan in enumerate(plans):
            one = bridge.instance_features(
                encoder.encode_image(Tensor(images[i : i + 1])), [plan], vocab
            )
            np.testing.assert_allclose(batched.data[i], one.data[0], rtol=0, atol=1e-12)

    def test_instance_features_plan_count_must_match(self, encoder, bridge, vocab, rng):
        tokens = encoder.encode_image(Tensor(rng.standard_normal((2, 3, 32, 32))))
        with pytest.raises(DimensionError):
            bridge.instance_features(tokens, ["go to the video"], vocab)

    def test_extract_rows_match_single_images(self, encoder, bridge, vocab, rng):
        images = rng.standard_normal((2, 3, 32, 32))
        ids = tokenize("go to the red block", vocab)
        batched = bridge.extract(encoder.encode_image(Tensor(images)), bridge.plan_side(ids))
        assert batched.shape == (2, 4, 16)
        for i in range(2):
            one = bridge.extract(encoder.encode_image(Tensor(images[i])), bridge.plan_side(ids))
            np.testing.assert_allclose(batched.data[i], one.data, rtol=0, atol=1e-12)

    def test_gradients_reach_trainables_not_frozen_encoder(self, encoder, bridge, vocab, rng):
        set_trainable(encoder.named_parameters(), False)
        img = Tensor(rng.standard_normal((3, 32, 32)))
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

    def test_zero_query_count_rejected(self, rng, vocab):
        with pytest.raises(ContractError, match="query_count must be at least 1, got 0"):
            QueryBridge(rng, len(vocab), BridgeConfig(query_count=0))

    def test_zero_heads_rejected(self, rng, vocab):
        with pytest.raises(ContractError, match="head count must be at least 1, got 0"):
            QueryBridge(rng, len(vocab), BridgeConfig(heads=0))

    @pytest.mark.parametrize(
        "field, message",
        [
            ("dim", "positional table needs positive extents, got 256x0"),
            ("lm_dim", "Linear widths must be at least 1, got 64 -> 0"),
            ("ff_mult", "Linear widths must be at least 1, got 64 -> 0"),
        ],
        ids=["dim", "lm_dim", "ff_mult"],
    )
    def test_zero_width_fails_by_name(self, rng, vocab, field, message):
        with pytest.raises(ContractError, match=message):
            QueryBridge(rng, len(vocab), BridgeConfig(**{field: 0}))


class TestPlanSideOncePerPlan:
    """``plan_side`` then ``extract`` must equal the unsplit bridge."""

    @pytest.mark.parametrize("lead", [(), (1,), (5,)], ids=["unbatched", "one", "batched"])
    @pytest.mark.parametrize("text", [0, 1, 43], ids=lambda t: f"text{t}")
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
        out = bridge.extract(tokens, bridge.plan_side(ids or None))
        assert out.shape == (*lead, queries, dim)
        assert out.data.tobytes() == reference_extract(bridge, tokens, ids).data.tobytes()

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
                  cross.w_q.w, cross.w_k.w, cross.w_v.w, cross.w_o.w, first.ffn.lin2.w,
                  second.ln_self.gamma, second.self_attn.w_q.w, second.self_attn.w_k.w,
                  second.self_attn.w_v.w]
        check_gradients(fn, params)

    def test_over_long_plan_rejected(self, bridge):
        with pytest.raises(ContractError, match="plan of 257 ids exceeds the bridge's 256"):
            bridge.plan_side([1] * (MAX_SEQUENCE_LENGTH + 1))
        assert bridge.plan_side([1] * MAX_SEQUENCE_LENGTH).keys.shape == (MAX_SEQUENCE_LENGTH, 16)

    def test_first_self_attention_runs_once_per_distinct_plan(
        self, encoder, bridge, vocab, rng, monkeypatch
    ):
        calls = []
        first = bridge.blocks[0]
        original = first.self_attention

        def counted(x, *args, **kwargs):
            calls.append(x.shape)
            return original(x, *args, **kwargs)

        monkeypatch.setattr(first, "self_attention", counted)
        tokens = encoder.encode_image(Tensor(rng.standard_normal((5, 3, 32, 32))))
        plans = ["go to the video", "go to the red block"] * 2 + ["go to the video"]
        bridge.instance_features(tokens, plans, vocab)
        # two distinct plans, each run unbatched
        assert len(calls) == 2 and all(len(shape) == 2 for shape in calls)
        calls.clear()
        bridge.instance_features(tokens, ["go to the red block"] * 5, vocab)
        assert len(calls) == 1
