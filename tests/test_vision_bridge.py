import numpy as np
import pytest

from planact.bridge import BridgeConfig, QueryBridge
from planact.errors import ContractError, DimensionError
from planact.gradcheck import check_gradients
from planact.nn import set_trainable
from planact.tensor import Tensor, gelu
from planact.vision import VisionConfig, VisualEncoder, sinusoidal_grid_embedding
from planact.vocab import Vocabulary, tokenize

SMALL_VISION = VisionConfig(channels=3, image_size=32, patch_size=8, dim=16, blocks=3, heads=2)


@pytest.fixture
def encoder(rng):
    return VisualEncoder(rng, SMALL_VISION)


@pytest.fixture
def vocab():
    return Vocabulary.build(["go to the red block and activate it", "describe this video ."])


@pytest.fixture
def bridge(rng, vocab):
    cfg = BridgeConfig(query_count=4, dim=16, lm_dim=12, blocks=2, heads=2)
    return QueryBridge(rng, vocab_size=len(vocab), config=cfg)


class TestVisualEncoder:
    def test_single_frame_token_count(self, encoder, rng):
        out = encoder.encode_image(Tensor(rng.standard_normal((3, 32, 32))))
        assert out.shape == (16, 16)

    def test_indivisible_extent_rejected(self, encoder, rng):
        with pytest.raises(DimensionError):
            encoder.encode_image(Tensor(rng.standard_normal((3, 30, 32))))

    def test_patchify_layout(self, rng):
        enc = VisualEncoder(rng, VisionConfig(channels=1, image_size=4, patch_size=2, dim=4, blocks=2, heads=1))
        img = np.arange(16.0).reshape(1, 4, 4)
        patches = enc._patchify(Tensor(img))
        np.testing.assert_array_equal(patches.data[0], [0, 1, 4, 5])
        np.testing.assert_array_equal(patches.data[3], [10, 11, 14, 15])

    def test_allocates_only_the_blocks_it_runs(self, encoder, rng):
        assert len(encoder.blocks) == SMALL_VISION.blocks - 1
        images = Tensor(rng.standard_normal((2, 3, 32, 32)))
        encoder.encode_image(images).sum().backward()
        missing = [name for name, p in encoder.named_parameters().items() if p.grad is None]
        assert missing == []

    def test_position_code_is_fixed_2d_table(self, encoder):
        np.testing.assert_array_equal(encoder.pos.data, sinusoidal_grid_embedding(4, 16).data)
        assert not encoder.pos.requires_grad
        assert {name.split(".")[0] for name in encoder.named_parameters()} == {
            "patch_embed", "blocks"
        }

    def test_zero_blocks_rejected(self, rng):
        with pytest.raises(ContractError):
            VisualEncoder(rng, VisionConfig(channels=1, image_size=4, patch_size=2, dim=4, blocks=0))


class TestQueryBridge:
    def test_bottleneck_shape_fixed(self, bridge, vocab, rng):
        for rows, text in [(16, None), (32, "go to the red block"), (64, "describe this video .")]:
            tokens = Tensor(rng.standard_normal((rows, 16)))
            ids = tokenize(text, vocab) if text else None
            assert bridge.extract(tokens, ids).shape == (4, 16)

    def test_empty_visual_rejected(self, bridge):
        with pytest.raises((ContractError, DimensionError)):
            bridge.extract(Tensor(np.zeros((0, 16))), None)

    def test_empty_text_allowed(self, encoder, bridge, rng):
        tokens = encoder.encode_image(Tensor(rng.standard_normal((3, 32, 32))))
        assert bridge.extract(tokens, None).shape == (4, 16)

    def test_visual_permutation_invariance(self, bridge, rng):
        tokens = rng.standard_normal((10, 16))
        out1 = bridge.extract(Tensor(tokens), None)
        out2 = bridge.extract(Tensor(tokens[rng.permutation(10)]), None)
        np.testing.assert_allclose(out1.data, out2.data, atol=1e-10)

    def test_deterministic(self, encoder, bridge, vocab, rng):
        img = Tensor(rng.standard_normal((3, 32, 32)))
        ids = tokenize("go to the red block", vocab)
        a = bridge.extract(encoder.encode_image(img), ids)
        b = bridge.extract(encoder.encode_image(img), ids)
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
        cfg = BridgeConfig(query_count=2, dim=8, lm_dim=8, blocks=2, heads=2)
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
        b = bridge.extract(tokens, tokenize(plan, vocab))
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
        # two token lengths, interleaved: one extract per length, rows in input order
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
        batched = bridge.extract(encoder.encode_image(Tensor(images)), ids)
        assert batched.shape == (2, 4, 16)
        for i in range(2):
            one = bridge.extract(encoder.encode_image(Tensor(images[i])), ids)
            np.testing.assert_allclose(batched.data[i], one.data, rtol=0, atol=1e-12)

    def test_gradients_reach_trainables_not_frozen_encoder(self, encoder, bridge, vocab, rng):
        set_trainable(encoder.named_parameters(), False)
        img = Tensor(rng.standard_normal((3, 32, 32)))
        tokens = encoder.encode_image(img)
        z = bridge.extract(tokens, tokenize("go to the red block", vocab))
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
        cfg = BridgeConfig(query_count=2, dim=6, lm_dim=4, blocks=2, heads=2)
        bridge = QueryBridge(rng, len(vocab), cfg)
        tokens = Tensor(rng.standard_normal((3, 6)), requires_grad=True)

        def fn(inp):
            z = bridge.extract(inp[0], [1, 4, 2])
            return gelu(bridge.project_to_lm(z)).mean()

        params = [tokens, bridge.queries, bridge.proj.w, bridge.proj.b]
        check_gradients(fn, params)
