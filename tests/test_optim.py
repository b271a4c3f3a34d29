import math

import numpy as np
import pytest

from planact.errors import ContractError, NumericError
from planact import optim
from planact.optim import AdamW, LrSchedule
from planact.tensor import Tensor


def make_param(values):
    p = Tensor(np.asarray(values, dtype=np.float64), requires_grad=True)
    p.is_param = True
    return p


class TestAdamW:
    def test_first_step_hand_evaluated(self):
        # p=1, g=1, lr=0.1, defaults (b1=.9, b2=.98, wd=.05, eps=1e-8):
        #   decay: p <- 1 - 0.1*0.05*1 = 0.995
        #   m = 0.1, v = 0.02; m_hat = m/(1-0.9) = 1, v_hat = v/(1-0.98) = 1
        #   p <- 0.995 - 0.1 * 1/(sqrt(1)+1e-8)
        expected = 0.995 - 0.1 * 1.0 / (1.0 + 1e-8)
        p = make_param([1.0])
        opt = AdamW([p])
        p.grad = np.ones(1)
        opt.step(lr=0.1)
        np.testing.assert_allclose(p.data, [expected], rtol=0, atol=1e-15)
        assert opt.t == 1

    def test_pure_decay_with_zero_grad(self):
        p = make_param([2.0])
        opt = AdamW([p])
        p.grad = np.zeros(1)
        opt.step(lr=0.2)
        np.testing.assert_allclose(p.data, [2.0 - 0.2 * 0.05 * 2.0], atol=1e-15)

    def test_step_counter_increments(self):
        p = make_param([0.0])
        opt = AdamW([p])
        for expected in (1, 2, 3):
            p.grad = np.ones(1)
            opt.step(lr=0.01)
            assert opt.t == expected

    def test_second_moment_nonnegative(self):
        p = make_param(np.linspace(-1, 1, 5))
        opt = AdamW([p])
        rng = np.random.default_rng(3)
        for _ in range(10):
            p.grad = rng.standard_normal(5)
            opt.step(lr=0.05)
        assert np.all(opt.v >= 0.0)

    def test_negative_lr_rejected(self):
        opt = AdamW([make_param([1.0])])
        with pytest.raises(ContractError):
            opt.step(lr=-0.1)

    @pytest.mark.parametrize("lr", [math.nan, math.inf])
    def test_non_finite_lr_rejected_before_any_change(self, lr):
        p = make_param([1.0, -2.0])
        opt = AdamW([p])
        p.grad = np.ones(2)
        with pytest.raises(ContractError, match="finite"):
            opt.step(lr=lr)
        np.testing.assert_array_equal(p.data, [1.0, -2.0])
        assert opt.t == 0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_gradient_names_the_parameter(self, bad):
        params = [make_param([1.0, 2.0]), make_param(np.ones((3, 2))), make_param([0.5])]
        opt = AdamW(params)
        for p in params:
            p.grad = np.ones(p.shape)
        params[1].grad[2, 0] = bad
        with pytest.raises(NumericError, match=r"parameter 1 of shape \(3, 2\)"):
            opt.step(lr=0.1)
        assert [p.data.tolist() for p in params] == [[1.0, 2.0], np.ones((3, 2)).tolist(), [0.5]]
        assert opt.t == 0 and not opt.m.any() and not opt.v.any()

    def test_same_tensor_twice_rejected(self):
        p = make_param([1.0])
        with pytest.raises(ContractError, match="more than once"):
            AdamW([p, make_param([2.0]), p])

    def test_parameters_are_views_of_one_buffer(self):
        params = [make_param(np.arange(6.0).reshape(2, 3)), make_param([7.0])]
        opt = AdamW(params)
        assert all(np.shares_memory(p.data, opt.flat) for p in params)
        np.testing.assert_array_equal(opt.flat, [0, 1, 2, 3, 4, 5, 7])
        params[1].data[...] = 9.0  # an in-place write, as restore_into makes, reaches the buffer
        assert opt.flat[-1] == 9.0

    def test_flat_update_bitwise_equal_to_per_tensor_reference(self):
        # the per-tensor loop: one update of each parameter's own arrays in turn
        rng = np.random.default_rng(5)
        shapes = [(3, 4), (7,), (2, 1, 3), (5,)]
        values = [rng.standard_normal(s) for s in shapes]
        params = [make_param(v.copy()) for v in values]
        opt = AdamW(params)
        ref_p = [v.copy() for v in values]
        ref_m = [np.zeros(s) for s in shapes]
        ref_v = [np.zeros(s) for s in shapes]
        for t in range(1, 21):
            lr = 0.01 * (1.0 + 0.1 * t)
            grads = [rng.standard_normal(s) for s in shapes]
            grads[2] = None  # a parameter the loss did not reach
            for p, g in zip(params, grads):
                p.grad = None if g is None else g.copy()
            opt.step(lr)
            bc1 = 1.0 - optim.BETA1**t
            bc2 = 1.0 - optim.BETA2**t
            for i, g in enumerate(grads):
                g = np.zeros(shapes[i]) if g is None else g
                ref_p[i] -= lr * optim.WEIGHT_DECAY * ref_p[i]
                ref_m[i] = optim.BETA1 * ref_m[i] + (1.0 - optim.BETA1) * g
                ref_v[i] = optim.BETA2 * ref_v[i] + (1.0 - optim.BETA2) * g * g
                m_hat = ref_m[i] / bc1
                v_hat = ref_v[i] / bc2
                ref_p[i] -= lr * m_hat / (np.sqrt(v_hat) + optim.EPS)
        for p, ref in zip(params, ref_p):
            assert p.data.tobytes() == ref.tobytes()
        assert opt.m.tobytes() == np.concatenate([m.ravel() for m in ref_m]).tobytes()
        assert opt.v.tobytes() == np.concatenate([v.ravel() for v in ref_v]).tobytes()


class TestLrSchedule:
    def test_peak_at_warmup_end(self):
        sched = LrSchedule(peak_lr=2e-5, total_steps=1000, warmup_ratio=0.05)
        assert sched.lr_at(sched.warmup_steps) == pytest.approx(2e-5)

    def test_zero_at_total(self):
        sched = LrSchedule(peak_lr=1e-3, total_steps=400)
        assert sched.lr_at(400) == pytest.approx(0.0, abs=1e-18)

    def test_midpoint_of_decay_is_half_peak(self):
        sched = LrSchedule(peak_lr=8e-4, total_steps=1000, warmup_ratio=0.0)
        # cos(pi/2) = 0 -> peak/2
        assert sched.lr_at(500) == pytest.approx(4e-4)

    def test_continuous_at_warmup_boundary(self):
        sched = LrSchedule(peak_lr=1.0, total_steps=200, warmup_ratio=0.1)
        w = sched.warmup_steps
        left = sched.peak_lr * (w - 1) / w + sched.peak_lr / w
        assert abs(left - sched.lr_at(w)) <= 1e-12
        assert sched.lr_at(w) == pytest.approx(1.0, abs=1e-12)

    def test_linear_ramp(self):
        sched = LrSchedule(peak_lr=1.0, total_steps=100, warmup_ratio=0.2)
        assert sched.lr_at(0) == 0.0
        assert sched.lr_at(10) == pytest.approx(0.5)

    def test_out_of_range_rejected(self):
        sched = LrSchedule(peak_lr=1.0, total_steps=10)
        with pytest.raises(ContractError):
            sched.lr_at(11)
        with pytest.raises(ContractError):
            sched.lr_at(-1)

    def test_nonnegative_everywhere(self):
        sched = LrSchedule(peak_lr=3e-3, total_steps=333, warmup_ratio=0.07)
        assert all(sched.lr_at(s) >= 0.0 for s in range(334))

    @pytest.mark.parametrize("steps, message", [(0, "at least 1, got 0"),
                                                (10.0, "an integer, got 10.0")],
                             ids=["zero", "float"])
    def test_bad_total_steps_rejected(self, steps, message):
        with pytest.raises(ContractError, match=f"total_steps must be {message}"):
            LrSchedule(peak_lr=1.0, total_steps=steps)

    def test_invalid_ratio_rejected(self):
        with pytest.raises(ContractError):
            LrSchedule(peak_lr=1.0, total_steps=10, warmup_ratio=1.0)
