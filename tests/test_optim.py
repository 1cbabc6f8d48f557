"""Adam and learning-rate schedule tests, pinned against a scalar
textbook implementation."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gazemoe.errors import ConfigError, NumericsError
from gazemoe.optim import Adam, step_lr
from gazemoe.tensor import Tensor

import oracles


def _scalar_param(value):
    return Tensor(np.array([value]), requires_grad=True)


def _run_adam_on_quadratic(theta0, lr, steps):
    """Minimize f(theta) = theta^2 via explicit grad 2*theta."""
    p = _scalar_param(theta0)
    opt = Adam([("theta", p)], lr=lr)
    history = [p.data.item()]
    for _ in range(steps):
        p.grad = 2.0 * p.data
        opt.step()
        history.append(p.data.item())
    return history


class TestAdam:
    def test_three_steps_on_quadratic_match_oracle(self):
        got = _run_adam_on_quadratic(1.0, lr=0.1, steps=3)
        want = oracles.adam_scalar_oracle(lambda t: 2.0 * t, 1.0, lr=0.1, steps=3)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)

    def test_hundred_steps_match_oracle(self):
        got = _run_adam_on_quadratic(1.0, lr=0.1, steps=100)
        want = oracles.adam_scalar_oracle(lambda t: 2.0 * t, 1.0, lr=0.1, steps=100)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)

    def test_first_step_moves_by_about_lr(self):
        # With bias correction, step 1 is lr * g/(|g| + eps') ~ lr.
        history = _run_adam_on_quadratic(1.0, lr=0.1, steps=1)
        assert history[1] == pytest.approx(0.9, abs=1e-6)

    def test_zero_gradients_leave_parameters_unchanged(self):
        p = Tensor(np.array([1.5, -2.25, 0.0]), requires_grad=True)
        before = p.data.copy()
        opt = Adam([("p", p)], lr=0.5)
        p.grad = np.zeros(3)
        opt.step()
        np.testing.assert_array_equal(p.data, before)

    def test_none_gradients_are_skipped(self):
        p = _scalar_param(2.0)
        q = _scalar_param(3.0)
        opt = Adam([("p", p), ("q", q)], lr=0.1)
        p.grad = np.array([1.0])
        opt.step()
        assert p.data.item() != 2.0
        assert q.data.item() == 3.0

    def test_nan_gradient_aborts_naming_parameter(self):
        p = _scalar_param(1.0)
        opt = Adam([("layer.w", p)], lr=0.1)
        p.grad = np.array([np.nan])
        with pytest.raises(NumericsError, match="layer.w"):
            opt.step()

    def test_inf_gradient_aborts(self):
        p = _scalar_param(1.0)
        opt = Adam([("b", p)], lr=0.1)
        p.grad = np.array([np.inf])
        with pytest.raises(NumericsError, match="'b'"):
            opt.step()

    def test_a_non_finite_gradient_changes_no_state(self):
        p, q = _scalar_param(1.0), _scalar_param(2.0)
        opt = Adam([("p", p), ("q", q)], lr=0.1)
        p.grad, q.grad = np.array([0.5]), np.array([np.nan])
        with pytest.raises(NumericsError, match="'q'"):
            opt.step()
        # p comes first, yet neither it nor its moments nor t moved
        assert p.data.item() == 1.0 and q.data.item() == 2.0
        assert opt.t == 0
        assert not any(buf.any() for buf in opt._m + opt._v)
        # so the next step is the first one, as on a fresh optimizer
        q.grad = np.array([0.25])
        opt.step()
        p2, q2 = _scalar_param(1.0), _scalar_param(2.0)
        p2.grad, q2.grad = np.array([0.5]), np.array([0.25])
        Adam([("p", p2), ("q", q2)], lr=0.1).step()
        assert (p.data.item(), q.data.item()) == (p2.data.item(), q2.data.item())

    def test_converges_on_quadratic(self):
        history = _run_adam_on_quadratic(3.0, lr=0.2, steps=200)
        assert abs(history[-1]) < 0.05 < abs(history[0])

    def test_zero_grad_clears(self):
        p = _scalar_param(1.0)
        opt = Adam([("p", p)], lr=0.1)
        p.grad = np.array([1.0])
        opt.zero_grad()
        assert p.grad is None

    def test_elementwise_state_is_independent(self):
        # Vector Adam must equal two scalar Adams run side by side.
        p = Tensor(np.array([1.0, -4.0]), requires_grad=True)
        opt = Adam([("p", p)], lr=0.05)
        for _ in range(7):
            p.grad = 2.0 * p.data
            opt.step()
        want0 = oracles.adam_scalar_oracle(lambda t: 2.0 * t, 1.0, lr=0.05, steps=7)[-1]
        want1 = oracles.adam_scalar_oracle(lambda t: 2.0 * t, -4.0, lr=0.05, steps=7)[-1]
        np.testing.assert_allclose(p.data, [want0, want1], rtol=0, atol=1e-12)

    @given(
        grads=st.lists(st.floats(-10, 10), min_size=1, max_size=20),
        theta0=st.floats(-5, 5),
        lr=st.floats(1e-4, 0.5),
    )
    def test_arbitrary_gradient_streams_match_oracle(self, grads, theta0, lr):
        p = _scalar_param(theta0)
        opt = Adam([("p", p)], lr=lr)
        for g in grads:
            p.grad = np.array([g])
            opt.step()
        feed = iter(grads)
        want = oracles.adam_scalar_oracle(lambda _t: next(feed), theta0, lr=lr,
                                  steps=len(grads))[-1]
        np.testing.assert_allclose(p.data.item(), want, rtol=0, atol=1e-10)

    @pytest.mark.parametrize(
        "kwargs",
        [dict(lr=0.0), dict(lr=-1.0), dict(beta1=1.0), dict(beta2=-0.1),
         dict(eps=0.0)],
    )
    def test_bad_hyperparameters_rejected(self, kwargs):
        p = _scalar_param(1.0)
        base = dict(lr=0.1)
        base.update(kwargs)
        with pytest.raises(ConfigError):
            Adam([("p", p)], **base)


class TestStepLr:
    def test_worked_example(self):
        assert step_lr(25, base_lr=5e-4, step_size=10, gamma=0.1) == pytest.approx(
            5e-6, rel=1e-12
        )

    @pytest.mark.parametrize(
        "epoch,expected",
        [(0, 1.0), (9, 1.0), (10, 0.1), (19, 0.1), (20, 0.01), (30, 0.001)],
    )
    def test_stage_boundaries(self, epoch, expected):
        assert step_lr(epoch, base_lr=1.0, step_size=10, gamma=0.1) == pytest.approx(
            expected, rel=1e-12
        )

    def test_gamma_one_is_constant(self):
        for epoch in range(40):
            assert step_lr(epoch, 3e-4, 7, 1.0) == 3e-4

    def test_bad_inputs_rejected(self):
        with pytest.raises(ConfigError):
            step_lr(5, 1e-3, 0, 0.1)
        with pytest.raises(ConfigError):
            step_lr(-1, 1e-3, 10, 0.1)
