"""AdamW update rule and the warmup-cosine schedule."""

import math
import warnings

import numpy as np
import pytest

from vmim.autodiff import NonFiniteError, Tensor
from vmim.optim import (
    AdamWConfig,
    OptState,
    adamw_step,
    clip_grad_norm,
    lr_at,
)


def single(value):
    return {"w": Tensor(np.array([value]), requires_grad=True)}


class ReferenceAdam:
    """Plain Adam on scalars, written independently of the optimizer module."""

    def __init__(self, beta1=0.9, beta2=0.999, eps=1e-8):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = 0.0
        self.v = 0.0
        self.t = 0

    def step(self, w, g, lr):
        self.t += 1
        self.m = self.beta1 * self.m + (1 - self.beta1) * g
        self.v = self.beta2 * self.v + (1 - self.beta2) * g * g
        m_hat = self.m / (1 - self.beta1**self.t)
        v_hat = self.v / (1 - self.beta2**self.t)
        return w - lr * m_hat / (math.sqrt(v_hat) + self.eps)


class TestAdamW:
    def test_zero_grad_no_decay_is_fixed_point(self):
        params = single(3.0)
        state = OptState.init(params)
        out, _ = adamw_step(params, {"w": np.zeros(1)}, state, 0.1, AdamWConfig(weight_decay=0.0))
        assert out["w"].data.item() == 3.0

    def test_zero_grad_with_decay_shrinks(self):
        params = single(2.0)
        state = OptState.init(params)
        out, _ = adamw_step(
            params, {"w": np.zeros(1)}, state, 0.1, AdamWConfig(weight_decay=0.05)
        )
        assert out["w"].data.item() == pytest.approx(2.0 * 0.995, abs=1e-15)

    def test_hand_evaluated_first_step(self):
        # w=1, g=1, lr=0.1: bias-corrected m_hat = v_hat = 1 -> w ~ 0.9
        params = single(1.0)
        state = OptState.init(params)
        out, state = adamw_step(
            params, {"w": np.ones(1)}, state, 0.1, AdamWConfig(weight_decay=0.0)
        )
        expected = 1.0 - 0.1 * 1.0 / (1.0 + 1e-8)
        assert out["w"].data.item() == pytest.approx(expected, abs=1e-15)
        assert state.t == 1

    def test_matches_reference_adam_when_decay_is_zero(self):
        rng = np.random.default_rng(0)
        params = single(0.7)
        state = OptState.init(params)
        ref = ReferenceAdam()
        w_ref = 0.7
        for step in range(50):
            g = float(rng.normal())
            lr = 0.05 * (1 + math.cos(step / 10))
            params, state = adamw_step(
                params, {"w": np.array([g])}, state, lr, AdamWConfig(weight_decay=0.0)
            )
            w_ref = ref.step(w_ref, g, lr)
            assert abs(params["w"].data.item() - w_ref) < 1e-12

    def test_non_finite_gradient_names_parameter(self):
        params = single(1.0)
        state = OptState.init(params)
        with pytest.raises(NonFiniteError, match="'w'"):
            adamw_step(params, {"w": np.array([np.nan])}, state, 0.1)

    def test_shape_mismatch_rejected(self):
        params = single(1.0)
        state = OptState.init(params)
        with pytest.raises(ValueError, match="shape"):
            adamw_step(params, {"w": np.zeros(2)}, state, 0.1)

    @pytest.mark.parametrize(
        "bad, error, pattern",
        [(np.full(2, np.nan), NonFiniteError, "'b'"), (np.zeros(3), ValueError, "parameter b ")],
        ids=["non-finite", "shape"],
    )
    def test_rejected_gradient_leaves_state_unchanged(self, bad, error, pattern):
        # The moments of 'a', checked first, used to advance before 'b'
        # raised, while t stayed 0.
        params = {name: Tensor(np.ones(2), requires_grad=True) for name in "ab"}
        state = OptState.init(params)
        with pytest.raises(error, match=pattern):
            adamw_step(params, {"a": np.ones(2), "b": bad}, state, 0.1)
        assert state.t == 0
        assert not any(a.any() for a in [*state.m.values(), *state.v.values()])

    def test_updates_are_deterministic(self):
        def run():
            params = {"w": Tensor(np.arange(4.0), requires_grad=True)}
            state = OptState.init(params)
            for i in range(20):
                g = np.sin(np.arange(4.0) + i)
                params, state = adamw_step(params, {"w": g}, state, 0.01)
            return params["w"].data.tobytes()

        assert run() == run()


class TestSchedule:
    def test_endpoints(self):
        assert lr_at(0, 10, 100, 3e-4) == 0.0
        assert lr_at(10, 10, 100, 3e-4) == 3e-4
        assert lr_at(100, 10, 100, 3e-4) == pytest.approx(0.0, abs=1e-19)
        assert lr_at(100, 10, 100, 3e-4, min_lr=1e-5) == pytest.approx(1e-5, abs=1e-19)

    def test_continuity_at_warmup_boundary(self):
        for warmup, total in [(5, 50), (1, 10), (0, 10), (10, 10)]:
            left = lr_at(max(0, warmup - 1), warmup, total, 1.0)
            right = lr_at(warmup, warmup, total, 1.0)
            if warmup:
                assert right - left <= 1.0 / warmup + 1e-12
            assert right == 1.0

    def test_nonnegative_everywhere(self):
        for step in range(0, 101):
            assert lr_at(step, 7, 100, 3e-4) >= 0.0

    def test_halfway_point_of_cosine(self):
        # halfway through decay: min + (base-min)/2
        assert lr_at(55, 10, 100, 2.0, min_lr=0.5) == pytest.approx(1.25, abs=1e-12)

    def test_invalid_ranges(self):
        with pytest.raises(ValueError):
            lr_at(0, 20, 10, 1.0)


class TestClip:
    def test_noop_below_threshold(self):
        grads = {"a": np.array([3.0, 4.0])}
        out = clip_grad_norm(grads, 100.0)
        assert np.array_equal(out["a"], grads["a"])

    def test_scales_to_max_norm(self):
        grads = {"a": np.array([3.0, 4.0])}  # norm 5
        out = clip_grad_norm(grads, 1.0)
        assert np.linalg.norm(out["a"]) == pytest.approx(1.0, abs=1e-12)

    def test_disabled_when_nonpositive(self):
        grads = {"a": np.array([30.0, 40.0])}
        out = clip_grad_norm(grads, 0.0)
        assert np.array_equal(out["a"], grads["a"])

    def test_non_finite_gradient_named(self):
        # inf would zero the finite gradients, NaN would poison them all.
        grads = {"a": np.ones(3), "b": np.array([1.0, np.inf]), "c": np.array([np.nan])}
        with pytest.raises(NonFiniteError, match="'b'"):
            clip_grad_norm(grads, 1.0)
        with pytest.raises(NonFiniteError, match="'c'"):
            clip_grad_norm({"a": grads["a"], "c": grads["c"]}, 1.0)

    def test_finite_gradients_whose_squares_overflow_are_scaled(self):
        grads = {"a": np.array([1e200]), "b": np.array([3.0])}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = clip_grad_norm(grads, 1.0)
        assert out["a"][0] == pytest.approx(1.0, rel=1e-12)
        assert out["b"][0] == pytest.approx(3e-200, rel=1e-12)
        # the true norm, 1.5e308 * sqrt(2), is past the float range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = clip_grad_norm({"a": np.array([1.5e308, 1.5e308])}, 1.0)
        assert out["a"] == pytest.approx([math.sqrt(0.5)] * 2, rel=1e-12)
        huge = {"a": np.array([1e200])}
        assert clip_grad_norm(huge, 1e300)["a"] is huge["a"]
