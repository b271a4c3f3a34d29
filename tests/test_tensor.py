import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from planact.errors import ContractError, DimensionError, NumericError
from planact.gradcheck import check_gradients
from planact.gridworld import OBJECT_NAMES, EnvConfig, collect_demos, plan_for
from planact.lm import LmConfig, MicroLm
from planact.policy import ControlModel, PolicyConfig, pretrain_bridge
from planact.tensor import (
    Tensor,
    broadcast_to,
    concat,
    cross_entropy,
    gelu,
    layer_norm,
    linear,
    no_grad,
    parameter,
    softmax,
    take_rows,
    unfold_windows,
    write_rows,
)
from planact.vocab import Vocabulary


class TestMatmul:
    def test_identity(self):
        b = Tensor(np.arange(6.0).reshape(3, 2))
        out = Tensor(np.eye(3)) @ b
        np.testing.assert_array_equal(out.data, b.data)

    def test_hand_product(self):
        # [[1,2],[3,4]] @ [[0],[1]] = [[2],[4]]
        out = Tensor([[1.0, 2.0], [3.0, 4.0]]) @ Tensor([[0.0], [1.0]])
        np.testing.assert_array_equal(out.data, [[2.0], [4.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
            Tensor(np.zeros((2, 3))) @ Tensor(np.zeros((2, 3)))

    def test_gradient(self, rng):
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        check_gradients(lambda inp: (inp[0] @ inp[1]).sum(), [a, b])

    def test_batched_times_matrix_gradient(self, rng):
        a = Tensor(rng.standard_normal((2, 3, 3, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        check_gradients(lambda inp: gelu(inp[0] @ inp[1]).sum(), [a, w])

    def test_broadcast_batch_gradient(self, rng):
        a = Tensor(rng.standard_normal((2, 1, 3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((3, 4, 2)), requires_grad=True)
        assert (a @ b).shape == (2, 3, 3, 2)
        check_gradients(lambda inp: gelu(inp[0] @ inp[1]).sum(), [a, b])

    def test_batched_rows_match_two_d_products(self, rng):
        a = rng.standard_normal((3, 5, 4))
        w = rng.standard_normal((4, 2))
        out = (Tensor(a) @ Tensor(w)).data
        for i in range(3):
            np.testing.assert_allclose(out[i], a[i] @ w, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shape", [(6, 1, 7), (6, 5, 7)])
    def test_batched_weight_product_gradient(self, rng, shape):
        a = Tensor(rng.standard_normal(shape), requires_grad=True)
        w = Tensor(rng.standard_normal((7, 3)), requires_grad=True)
        check_gradients(lambda inp: gelu(inp[0] @ inp[1]).sum(), [a, w])

    @pytest.mark.parametrize("shape", [(32, 1, 144), (32, 5, 36), (2, 3, 5, 7)])
    def test_batched_weight_product_matches_per_index_formula(self, rng, shape):
        # the product of every leading index, its weight gradient summed over
        # the leading axes one at a time
        a = rng.standard_normal(shape)
        w = rng.standard_normal((shape[-1], 4))
        g = rng.standard_normal((*shape[:-1], 4))
        ta, tw = Tensor(a, requires_grad=True), Tensor(w, requires_grad=True)
        out = ta @ tw
        ga, gw = out._grad_fn(g)
        ref_gw = np.swapaxes(a, -1, -2) @ g
        while ref_gw.ndim > 2:
            ref_gw = ref_gw.sum(axis=0)
        np.testing.assert_allclose(out.data, a @ w, rtol=0, atol=1e-12)
        np.testing.assert_allclose(ga, g @ w.T, rtol=0, atol=1e-12)
        np.testing.assert_allclose(gw, ref_gw, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shape", [(4, 3, 5), (3, 5)])
    def test_no_gradient_for_a_constant_operand(self, rng, shape):
        x = Tensor(rng.standard_normal(shape))
        w = Tensor(rng.standard_normal((5, 2)), requires_grad=True)
        out = x @ w
        gx, gw = out._grad_fn(np.ones(out.shape))
        assert gx is None and gw.shape == (5, 2)
        out = Tensor(rng.standard_normal((2, 5)), requires_grad=True) @ Tensor(w.data)
        assert out._grad_fn(np.ones(out.shape))[1] is None

    def test_rank_one_and_batch_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            Tensor(np.zeros(3)) @ Tensor(np.zeros((3, 2)))
        with pytest.raises(DimensionError, match=r"\(2, 2, 3\).*\(3, 3, 2\)"):
            Tensor(np.zeros((2, 2, 3))) @ Tensor(np.zeros((3, 3, 2)))


class TestSoftmax:
    def test_uniform_from_equal_logits(self):
        out = softmax(Tensor(np.zeros((1, 4))), axis=-1)
        np.testing.assert_allclose(out.data, 0.25)

    def test_hand_ratio(self):
        # exp(0) : exp(ln 3) = 1 : 3
        out = softmax(Tensor([[0.0, np.log(3.0)]]), axis=-1)
        np.testing.assert_allclose(out.data, [[0.25, 0.75]], atol=1e-12)

    def test_saturation(self):
        out = softmax(Tensor([[0.0, 1e6, 0.0]]), axis=-1)
        np.testing.assert_allclose(out.data, [[0.0, 1.0, 0.0]], atol=1e-12)

    def test_nan_rejected(self):
        with pytest.raises(NumericError):
            softmax(Tensor([[np.nan, 0.0]]), axis=-1)

    @given(st.integers(2, 6), st.integers(1, 4))
    def test_rows_sum_to_one_and_shift_invariant(self, cols, rows):
        rng = np.random.default_rng(cols * 17 + rows)
        x = rng.standard_normal((rows, cols)) * 3.0
        out = softmax(Tensor(x), axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)
        shifted = softmax(Tensor(x + 7.3), axis=-1)
        np.testing.assert_allclose(out.data, shifted.data, atol=1e-10)

    def test_gradient(self, rng):
        x = Tensor(rng.standard_normal((2, 5)), requires_grad=True)
        w = Tensor(rng.standard_normal((2, 5)))
        check_gradients(lambda inp: (softmax(inp[0], axis=-1) * w).sum(), [x])


class TestLayerNorm:
    def test_constant_row_zeroed_by_eps(self):
        x = Tensor(np.full((1, 4), 3.0))
        out = layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-9)

    def test_two_point_row(self):
        # mean 2, population variance 1 -> [-1, 1] / sqrt(1 + eps)
        out = layer_norm(Tensor([[1.0, 3.0]]), Tensor(np.ones(2)), Tensor(np.zeros(2)))
        expected = np.array([[-1.0, 1.0]]) / np.sqrt(1.0 + 1e-5)
        np.testing.assert_allclose(out.data, expected, atol=1e-6)

    def test_affine_dominates(self):
        out = layer_norm(
            Tensor([[1.0, 9.0, 4.0]]),
            Tensor(np.zeros(3)),
            Tensor(np.full(3, 5.0)),
        )
        np.testing.assert_allclose(out.data, 5.0)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            layer_norm(Tensor(np.zeros((2, 3))), Tensor(np.ones(4)), Tensor(np.zeros(4)))

    @given(st.integers(3, 8))
    def test_normalisation_statistics(self, d):
        rng = np.random.default_rng(d)
        x = rng.standard_normal((3, d)) * 5.0 + 2.0
        out = layer_norm(Tensor(x), Tensor(np.ones(d)), Tensor(np.zeros(d)))
        var = x.var(axis=-1)
        assert np.all(np.abs(out.data.mean(axis=-1)) <= 1e-10)
        assert np.all(np.abs(out.data.var(axis=-1) - var / (var + 1e-5)) <= 1e-6)

    @pytest.mark.parametrize("shape", [(2, 4), (2, 3, 5)])
    def test_gradient(self, rng, shape):
        # with leading axes the gamma and beta gradients sum over all of them
        x = Tensor(rng.standard_normal(shape), requires_grad=True)
        g = Tensor(rng.standard_normal(shape[-1]), requires_grad=True)
        b = Tensor(rng.standard_normal(shape[-1]), requires_grad=True)
        w = rng.standard_normal(shape)
        check_gradients(
            lambda inp: gelu(layer_norm(inp[0], inp[1], inp[2]) * w).sum(), [x, g, b]
        )

    def test_one_node_bit_equal_to_composite(self, rng):
        def composite(x, gamma, beta):
            # mean, subtract, square, mean, sqrt, divide, scale, shift, each a float64
            # numpy operation in the order a composition of graph nodes would run them
            inv_d = 1.0 / x.shape[-1]
            centered = x - x.sum(axis=-1, keepdims=True) * inv_d
            var = (centered * centered).sum(axis=-1, keepdims=True) * inv_d
            return centered / np.sqrt(var + 1e-5) * gamma + beta

        for shape in [(7,), (3, 16), (2, 3, 64)]:
            data = rng.standard_normal(shape) * 4.0 + 1.5
            gamma = rng.standard_normal(shape[-1])
            beta = rng.standard_normal(shape[-1])
            fused = [Tensor(a, requires_grad=True) for a in (data, gamma, beta)]
            out = layer_norm(*fused)
            assert out._parents == tuple(fused)
            assert out.data.tobytes() == composite(data, gamma, beta).tobytes()


class TestCrossEntropy:
    def test_uniform_logits_closed_form(self):
        loss = cross_entropy(Tensor(np.zeros((3, 4))), [0, 1, 2])
        np.testing.assert_allclose(loss.item(), np.log(4.0), atol=1e-12)

    def test_confident_correct_prediction(self):
        logits = np.zeros((1, 5))
        logits[0, 2] = 1e6
        assert cross_entropy(Tensor(logits), [2]).item() < 1e-9

    def test_empty_batch_rejected(self):
        with pytest.raises(ContractError):
            cross_entropy(Tensor(np.zeros((0, 4))), [])

    def test_target_out_of_range(self):
        with pytest.raises(ContractError, match="target class 3 outside the 3 classes"):
            cross_entropy(Tensor(np.zeros((2, 3))), [0, 3])
        with pytest.raises(ContractError, match="target class -1 outside"):
            cross_entropy(Tensor(np.zeros((2, 3))), [-1, 0])

    def test_gradient(self, rng):
        x = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        check_gradients(lambda inp: cross_entropy(inp[0], [1, 0, 4, 2]), [x])


class TestBackward:
    def test_sum_gives_ones(self, rng):
        x = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        x.sum().backward()
        np.testing.assert_array_equal(x.grad, np.ones((3, 2)))

    def test_polynomial_derivative(self):
        x = Tensor(3.0, requires_grad=True)
        (x * x).backward()
        np.testing.assert_allclose(x.grad, 6.0)

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(ContractError):
            (x * 2.0).backward()

    def test_loss_without_grad_rejected(self):
        with pytest.raises(ContractError):
            Tensor(1.0).sum().backward()

    def test_grad_accumulates_on_reuse(self):
        x = Tensor([2.0], requires_grad=True)
        (x + x).sum().backward()
        np.testing.assert_allclose(x.grad, [2.0])

    def test_frozen_leaf_receives_no_grad(self, rng):
        frozen = Tensor(rng.standard_normal((2, 2)), requires_grad=False)
        live = Tensor(rng.standard_normal((2, 2)), requires_grad=True)
        (frozen @ live).sum().backward()
        assert frozen.grad is None
        assert live.grad is not None

    def test_each_node_visited_once(self, rng):
        # Diamond graph: y = a*b + a*c reuses a; its grad must be b+c exactly.
        a = Tensor(2.0, requires_grad=True)
        b, c = Tensor(3.0), Tensor(5.0)
        (a * b + a * c).backward()
        np.testing.assert_allclose(a.grad, 8.0)

    def test_composite_graph_matches_finite_differences(self, rng):
        a = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        c = Tensor(rng.standard_normal((2,)), requires_grad=True)

        def fn(inp):
            h = gelu(inp[0] @ inp[1]) + inp[2]
            return (softmax(h, axis=-1) * gelu(h)).mean()

        check_gradients(fn, [a, b, c])

    def test_determinism_bitwise(self, rng):
        data = rng.standard_normal((4, 4))

        def run():
            x = Tensor(data.copy(), requires_grad=True)
            loss = (softmax(x @ x, axis=-1)).sum()
            loss.backward()
            return loss.data.tobytes(), x.grad.tobytes()

        assert run() == run()


class TestNoGrad:
    def test_op_on_parameter_records_nothing(self, rng):
        p = parameter(rng.standard_normal((3, 4)))
        with no_grad():
            out = layer_norm(p @ Tensor(np.ones((4, 4))), Tensor(np.ones(4)), Tensor(np.zeros(4)))
        assert not out.requires_grad
        assert out._parents == () and out._grad_fn is None
        assert p.requires_grad  # leaves keep their flag

    def test_restored_after_nesting_and_exception(self, rng):
        p = parameter(rng.standard_normal(2))
        with no_grad():
            with no_grad():
                pass
            assert not (p * 2.0).requires_grad
        assert (p * 2.0).requires_grad
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("inside the block")
        assert (p * 2.0).requires_grad

    def test_backward_on_result_rejected(self, rng):
        p = parameter(rng.standard_normal(2))
        with no_grad():
            loss = (p * p).sum()
        with pytest.raises(ContractError):
            loss.backward()

    def test_lm_logits_bit_equal(self, rng):
        vocab = Vocabulary.build(["go to the red block", "open the drawer now"])
        model = MicroLm(rng, LmConfig(vocab_size=len(vocab), dim=16, blocks=2, heads=2,
                                      context=32, prefix_len=3))
        prompt = Tensor(rng.standard_normal((2, 16)))
        recorded = model.forward([4, 5, 6, 7], prompt)
        with no_grad():
            plain = model.forward([4, 5, 6, 7], prompt)
        assert recorded.requires_grad and not plain.requires_grad
        assert plain.data.tobytes() == recorded.data.tobytes()

    @pytest.mark.parametrize("pretrain", [False, True])
    def test_policy_logits_bit_equal(self, pretrain):
        vocab = Vocabulary.build([plan_for(name) for name in OBJECT_NAMES])
        config = PolicyConfig(bridge_dim=16, query_count=2, hidden_dim=16, global_dim=8,
                              conv_channels=4)
        model = ControlModel(np.random.default_rng(0), EnvConfig(), vocab, config)
        demos = collect_demos(EnvConfig(), [0])
        if pretrain:
            pretrain_bridge(model, demos)
        steps = demos[0].steps[:3]
        obs = np.stack([o for o, _, _ in steps])
        plans = [p for _, p, _ in steps]
        recorded = model.forward(obs, plans)
        with no_grad():
            plain = model.forward(obs, plans)
        assert recorded.requires_grad and not plain.requires_grad
        assert plain.data.tobytes() == recorded.data.tobytes()


class TestShapeOps:
    def test_reshape_transpose_roundtrip_gradient(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        check_gradients(
            lambda inp: gelu(inp[0].transpose(2, 0, 1).reshape(4, 6)).sum(), [x]
        )

    def test_getitem_gradient(self, rng):
        x = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        check_gradients(lambda inp: (inp[0][1:3, ::2] * 2.0).sum(), [x])

    def test_concat_gradient(self, rng):
        a = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal((1, 3)), requires_grad=True)
        check_gradients(lambda inp: concat([inp[0], inp[1]], axis=0).sum(), [a, b])

    def test_take_rows_gradient(self, rng):
        table = Tensor(rng.standard_normal((6, 3)), requires_grad=True)
        check_gradients(lambda inp: take_rows(inp[0], [1, 1, 4]).sum(), [table])

    def test_take_rows_out_of_range(self):
        with pytest.raises(ContractError, match="row id 3 outside the table's 2 rows"):
            take_rows(Tensor(np.zeros((2, 2))), [1, 3])
        with pytest.raises(ContractError, match="row id -1 outside"):
            take_rows(Tensor(np.zeros((2, 2))), [-1])

    def test_broadcast_to_gradient(self, rng):
        x = Tensor(rng.standard_normal((3, 1)), requires_grad=True)
        assert broadcast_to(x, (2, 3, 4)).shape == (2, 3, 4)
        check_gradients(lambda inp: gelu(broadcast_to(inp[0], (2, 3, 4))).sum(), [x])
        with pytest.raises(DimensionError):
            broadcast_to(x, (2, 4))

    def test_unfold_windows_gradient(self, rng):
        x = Tensor(rng.standard_normal((2, 4, 5, 2)), requires_grad=True)
        check_gradients(lambda inp: gelu(unfold_windows(inp[0], 3) * 0.3).sum(), [x])

    def test_unfold_windows_shape(self, rng):
        out = unfold_windows(Tensor(rng.standard_normal((2, 6, 6, 3))), 3)
        assert out.shape == (2, 16, 27)

    def test_unfold_windows_rows_per_image(self, rng):
        images = rng.standard_normal((3, 5, 4, 2))
        out = unfold_windows(Tensor(images), 3).data
        # window (i, j) of image b, channel-major then row-major inside the window
        for b, i, j in [(0, 0, 0), (2, 1, 1), (1, 2, 0)]:
            expected = images[b, i : i + 3, j : j + 3, :].transpose(2, 0, 1).reshape(-1)
            np.testing.assert_array_equal(out[b, i * 2 + j], expected)
        with pytest.raises(DimensionError):
            unfold_windows(Tensor(images[0]), 3)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("from_channels_first", [False, True])
    def test_unfold_windows_bitwise_equal_to_sliding_window_reference(
        self, rng, k, from_channels_first
    ):
        shape = (3, 6, 5, 4)
        if from_channels_first:  # the strided view GlobalEncoder feeds its first layer
            x = rng.standard_normal((3, 4, 6, 5)).transpose(0, 2, 3, 1)
        else:
            x = rng.standard_normal(shape)
        b, h, w, c = shape
        hh, ww = h - k + 1, w - k + 1
        view = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(1, 2))
        ref_rows = view.reshape(b, hh * ww, c * k * k)
        g = rng.standard_normal(ref_rows.shape)
        gw = g.reshape(b, hh, ww, c, k, k)
        ref_grad = np.zeros(shape)
        for ki in range(k):
            for kj in range(k):
                ref_grad[:, ki : ki + hh, kj : kj + ww] += gw[..., ki, kj]
        out = unfold_windows(Tensor(x, requires_grad=True), k)
        (grad,) = out._grad_fn(g)
        assert out.data.tobytes() == ref_rows.tobytes()
        assert grad.shape == shape
        assert np.ascontiguousarray(grad).tobytes() == ref_grad.tobytes()

    @pytest.mark.parametrize("k", [0, -1])
    def test_unfold_windows_rejects_window_below_one(self, rng, k):
        with pytest.raises(ContractError, match=f"at least 1, got {k}"):
            unfold_windows(Tensor(rng.standard_normal((1, 5, 5, 2))), k)


class TestLinear:
    SHAPES = [(5, 4), (2, 3, 4)]
    TRAINABLE = list(itertools.product([False, True], repeat=3))[1:]

    @staticmethod
    def operands(rng, shape):
        return (rng.standard_normal(shape), rng.standard_normal((shape[-1], 3)),
                rng.standard_normal(3))

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("trainable", TRAINABLE)
    def test_gradient(self, rng, shape, trainable):
        tensors = [Tensor(a) for a in self.operands(rng, shape)]
        inputs = [t for t, on in zip(tensors, trainable) if on]

        def fn(inp):
            it = iter(inp)
            x, w, b = (next(it) if on else t for t, on in zip(tensors, trainable))
            return gelu(linear(x, w, b)).sum()

        check_gradients(fn, inputs)
        for t, on in zip(tensors, trainable):
            assert (t.grad is not None) == on

    @pytest.mark.parametrize("shape", SHAPES + [(2, 1, 3, 4)])
    @pytest.mark.parametrize("trainable", TRAINABLE)
    def test_bitwise_equal_to_folded_formula(self, rng, shape, trainable):
        values = self.operands(rng, shape)
        g = rng.standard_normal((*shape[:-1], 3))
        x, w, b = (Tensor(a, requires_grad=on) for a, on in zip(values, trainable))
        out = linear(x, w, b)
        (out * Tensor(g)).sum().backward()
        # one GEMM over the rows of every leading index, forward and backward
        a, wd, bd = values
        a2, g2 = a.reshape(-1, shape[-1]), g.reshape(-1, 3)
        gb = g
        while gb.ndim > 1:
            gb = gb.sum(axis=0)
        want = [(a2 @ wd + bd).reshape(g.shape), (g2 @ wd.T).reshape(shape), a2.T @ g2, gb]
        got = [out.data, x.grad, w.grad, b.grad]
        for have, ref, on in zip(got, want, (True, *trainable)):
            assert (have is None and not on) or have.tobytes() == ref.tobytes()

    def test_is_one_node(self, rng):
        x, w, b = (Tensor(a, requires_grad=True) for a in self.operands(rng, (2, 3, 4)))
        out = linear(x, w, b)
        assert out._parents == (x, w, b)

    @pytest.mark.parametrize("x, w, b", [((4,), (4, 3), (3,)), ((2, 4), (5, 3), (3,)),
                                         ((2, 4), (4, 3), (2,)), ((2, 4), (4, 3, 1), (3,))])
    def test_shapes_that_do_not_fit_rejected(self, x, w, b):
        with pytest.raises(DimensionError):
            linear(Tensor(np.zeros(x)), Tensor(np.zeros(w)), Tensor(np.zeros(b)))


class TestWriteRows:
    def test_equals_concat_and_writes_only_past_the_head(self, rng):
        storage = np.full((2, 6, 3), 7.0)
        head = rng.standard_normal((2, 2, 3))
        new = rng.standard_normal((2, 3, 3))
        storage[:, :2] = head
        out = write_rows(storage, Tensor(head), Tensor(new))
        assert np.shares_memory(out.data, storage)
        assert out.data.tobytes() == concat([Tensor(head), Tensor(new)], axis=-2).data.tobytes()
        assert (storage[:, 5] == 7.0).all()

    def test_gradient_splits_as_concat(self, rng):
        head = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        new = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        w = Tensor(rng.standard_normal((5, 3)))

        def fn(inp):
            storage = np.empty((8, 3))
            storage[:2] = inp[0].data
            return (gelu(write_rows(storage, inp[0], inp[1])) * w).sum()

        check_gradients(fn, [head, new])

    def test_rows_past_storage_rejected(self):
        with pytest.raises(DimensionError, match="do not fit"):
            write_rows(np.empty((3, 2)), Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 2))))


class TestGelu:
    @pytest.mark.parametrize("shape", [(4, 5), ()])
    def test_bitwise_equal_to_its_formula(self, rng, shape):
        d = np.asarray(rng.standard_normal(shape) * 3.0)
        a, c = 0.044715, math.sqrt(2.0 / math.pi)
        want = d * 0.5 * (np.tanh((d + d * d * d * a) * c) + 1)
        assert gelu(Tensor(d)).data.tobytes() == want.tobytes()

    def test_gradient(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 4)) * 2.0, requires_grad=True)
        check_gradients(lambda inp: gelu(inp[0]).sum(), [x])

    def test_one_node_matches_composite_form(self, rng):
        x = rng.standard_normal((4, 5)) * 3.0
        out = gelu(Tensor(x, requires_grad=True))
        assert all(p.requires_grad and p._grad_fn is None for p in out._parents)
        c = np.sqrt(2.0 / np.pi)
        composite = 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x**3)))
        np.testing.assert_allclose(out.data, composite, rtol=0, atol=1e-12)


class TestRandomGraphGradients:
    """Random compositions of primitives checked against finite differences."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_composition(self, seed):
        rng = np.random.default_rng(seed)
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        c = Tensor(rng.standard_normal((3, 3)), requires_grad=True)

        def fn(inp):
            x, y, z = inp
            h = x @ y
            h = h + gelu(z)
            h = softmax(h, axis=-1) @ (z * 0.5)
            h = layer_norm(h, Tensor(np.ones(3)), Tensor(np.zeros(3)))
            return (gelu(h)).mean() + (x * x).sum() * 0.01

        check_gradients(fn, [a, b, c])
