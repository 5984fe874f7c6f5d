"""Gradient checks: every loss used in training against central differences."""

import numpy as np
import pytest

import tape_reference
from voltfleet.sac.nets import DenseNet, GaussianPolicy, QNetwork
from voltfleet.sac.tensor import Tensor, concat, minimum

FD_H = 1e-5
FD_TOL = 1e-4


def fd_check(loss_fn, params, rng, n_coords=20, h=FD_H, tol=FD_TOL):
    """Compare autodiff grads to central differences on random coordinates."""
    for p in params:
        p.grad = None
    loss_fn().backward()
    grads = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params]

    sizes = [p.data.size for p in params]
    total = sum(sizes)
    worst = 0.0
    for flat in rng.choice(total, size=min(n_coords, total), replace=False):
        pi = 0
        while flat >= sizes[pi]:
            flat -= sizes[pi]
            pi += 1
        p = params[pi]
        keep = p.data.flat[flat]
        p.data.flat[flat] = keep + h
        up = float(loss_fn().data)
        p.data.flat[flat] = keep - h
        down = float(loss_fn().data)
        p.data.flat[flat] = keep
        g_fd = (up - down) / (2.0 * h)
        g_ad = grads[pi].flat[flat]
        err = abs(g_fd - g_ad) / max(abs(g_fd) + abs(g_ad), 1e-3)
        worst = max(worst, err)
        assert err < tol, f"param {pi} coord {flat}: fd={g_fd} ad={g_ad}"
    return worst


# ---- op-level behavior ------------------------------------------------


def test_add_broadcast_accumulates_bias_gradient():
    x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
    b = Tensor(np.ones(4), requires_grad=True)
    (x + b).sum().backward()
    assert np.array_equal(b.grad, np.full(4, 3.0))
    assert np.array_equal(x.grad, np.ones((3, 4)))


def test_repeated_operand_doubles_gradient():
    x = Tensor(np.array([2.0, -1.0]), requires_grad=True)
    (x + x).sum().backward()
    assert np.array_equal(x.grad, np.array([2.0, 2.0]))


def test_mul_div_gradients():
    a = Tensor(np.array([2.0, 3.0]), requires_grad=True)
    b = Tensor(np.array([4.0, 5.0]), requires_grad=True)
    (a / b).sum().backward()
    assert np.allclose(a.grad, [0.25, 0.2])
    assert np.allclose(b.grad, [-2.0 / 16.0, -3.0 / 25.0])


def test_matmul_gradients_small_case():
    a = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
    w = Tensor(np.array([[3.0], [4.0]]), requires_grad=True)
    tape_reference.matmul(a, w).sum().backward()
    assert np.array_equal(a.grad, np.array([[3.0, 4.0]]))
    assert np.array_equal(w.grad, np.array([[1.0], [2.0]]))


def test_slice_backward_scatters():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    x[:, 1:].sum().backward()
    assert np.array_equal(x.grad, np.array([[0.0, 1.0, 1.0], [0.0, 1.0, 1.0]]))


def test_concat_backward_splits():
    a = Tensor(np.ones((2, 2)), requires_grad=True)
    b = Tensor(np.ones((2, 3)), requires_grad=True)
    out = concat([a, b], axis=1)
    assert out.shape == (2, 5)
    (out * Tensor(np.arange(10.0).reshape(2, 5))).sum().backward()
    assert np.array_equal(a.grad, np.array([[0.0, 1.0], [5.0, 6.0]]))
    assert np.array_equal(b.grad, np.array([[2.0, 3.0, 4.0], [7.0, 8.0, 9.0]]))


def test_clip_gradient_masks_outside():
    x = Tensor(np.array([-3.0, 0.5, 3.0]), requires_grad=True)
    x.clip(-1.0, 1.0).sum().backward()
    assert np.array_equal(x.grad, np.array([0.0, 1.0, 0.0]))


def test_minimum_routes_gradient_to_smaller():
    a = Tensor(np.array([1.0, 5.0, 2.0]), requires_grad=True)
    b = Tensor(np.array([2.0, 3.0, 2.0]), requires_grad=True)
    minimum(a, b).sum().backward()
    assert np.array_equal(a.grad, np.array([1.0, 0.0, 1.0]))  # tie -> first
    assert np.array_equal(b.grad, np.array([0.0, 1.0, 0.0]))


def test_softplus_stable_at_extremes():
    x = Tensor(np.array([-800.0, 0.0, 800.0]), requires_grad=True)
    y = x.softplus()
    assert np.all(np.isfinite(y.data))
    assert y.data[0] == 0.0
    assert y.data[2] == 800.0
    y.sum().backward()
    assert x.grad[1] == pytest.approx(0.5)
    assert np.all(np.isfinite(x.grad))


def test_tanh_squash_correction_identity():
    # 2(log 2 - u - softplus(-2u)) equals log(1 - tanh(u)^2) away from overflow
    u = np.linspace(-5.0, 5.0, 101)
    lhs = 2.0 * (np.log(2.0) - u - (Tensor(-2.0 * u).softplus().data))
    rhs = np.log(1.0 - np.tanh(u) ** 2)
    assert np.allclose(lhs, rhs, atol=1e-10)


def test_sum_axis_and_mean_shapes():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    assert x.sum(axis=1, keepdims=True).shape == (2, 1)
    assert x.sum(axis=0).shape == (3,)
    m = x.mean(axis=1)
    assert np.allclose(m.data, [1.0, 4.0])
    m.sum().backward()
    assert np.allclose(x.grad, np.full((2, 3), 1.0 / 3.0))


def test_float32_stays_float32():
    # numpy scalars keep their dtype, and constants take the tensor's
    x = Tensor(np.arange(6.0, dtype=np.float32).reshape(2, 3), requires_grad=True)
    s = x.sum()
    assert s.data.dtype == np.float32
    assert (-s).data.dtype == np.float32  # -s.data is an np.float32 scalar
    y = ((x * 2.0 - 0.5 * np.pi) / 3 + np.ones(3)).mean()
    assert y.data.dtype == np.float32
    y.backward()
    assert x.grad.dtype == np.float32
    assert Tensor(np.arange(3)).data.dtype == np.float64
    assert Tensor(2.0).data.dtype == np.float64


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        (x * 2.0).backward()


# ---- finite-difference checks on the real losses ----------------------


@pytest.mark.parametrize("init_seed", range(5))
def test_fd_dense_regression_loss(init_seed):
    rng = np.random.default_rng(100 + init_seed)
    net = DenseNet([4, 8, 8, 3], rng)
    x = Tensor(rng.standard_normal((8, 4)))
    t = rng.standard_normal((8, 3))
    fd_check(lambda: (net.forward(x) - t).square().mean(), net.params(), rng)


@pytest.mark.parametrize("init_seed", range(5))
def test_fd_policy_log_prob(init_seed):
    rng = np.random.default_rng(200 + init_seed)
    pol = GaussianPolicy(3, 2, rng)
    obs = Tensor(rng.standard_normal((8, 3)))
    eps = rng.standard_normal((8, 2))
    fd_check(lambda: pol.sample(obs, eps)[1].mean(), pol.params(), rng)


@pytest.mark.parametrize("init_seed", range(5))
def test_fd_critic_bellman_loss(init_seed):
    rng = np.random.default_rng(300 + init_seed)
    q = QNetwork(3, 2, rng)
    obs = Tensor(rng.standard_normal((8, 3)))
    act = Tensor(rng.uniform(-1, 1, (8, 2)))
    y = rng.standard_normal((8, 1))
    fd_check(lambda: (q.forward(obs, act) - y).square().mean(), q.params(), rng)


@pytest.mark.parametrize("init_seed", range(5))
def test_fd_actor_loss_through_twin_critics(init_seed):
    rng = np.random.default_rng(400 + init_seed)
    pol = GaussianPolicy(3, 2, rng)
    q1 = QNetwork(3, 2, rng)
    q2 = QNetwork(3, 2, rng)
    obs = Tensor(rng.standard_normal((8, 3)))
    eps = rng.standard_normal((8, 2))
    alpha = 0.2

    def loss():
        a, logp = pol.sample(obs, eps)
        q_pi = minimum(q1.forward(obs, a), q2.forward(obs, a))
        return (logp * alpha - q_pi).mean()

    # both the policy and the critics feel this loss
    fd_check(loss, pol.params() + q1.params() + q2.params(), rng, n_coords=30)


def test_fd_temperature_loss_single_parameter():
    rng = np.random.default_rng(500)
    log_alpha = Tensor(np.log(0.2), requires_grad=True)
    gap = rng.standard_normal((16, 1))  # stands in for logp + target_entropy

    def loss():
        return ((log_alpha * -1.0) * Tensor(gap)).mean()

    loss_val = loss()
    loss_val.backward()
    g_ad = float(log_alpha.grad)
    h = FD_H
    log_alpha.data = log_alpha.data + h
    up = float(loss().data)
    log_alpha.data = log_alpha.data - 2 * h
    down = float(loss().data)
    g_fd = (up - down) / (2 * h)
    assert abs(g_fd - g_ad) / max(abs(g_fd) + abs(g_ad), 1e-3) < FD_TOL
    assert g_ad == pytest.approx(-float(gap.mean()), rel=1e-12)
