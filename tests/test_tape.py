"""`DenseNet.forward` as one tape node against the op-by-op reference.

Outputs and every gradient must have equal bits (`tobytes()` also tells
-0.0 from +0.0), on random nets, with trainable or frozen parameters and
with or without a gradient on the input.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tape_reference
from voltfleet.sac import Adam, DenseNet, SacAgent, SacConfig
from voltfleet.sac.tensor import Tensor


def same_bits(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return np.array_equal(a, b) and a.tobytes() == b.tobytes()


def with_zeros(rng, shape):
    """Normal draws with some entries set to +0.0 and -0.0."""
    a = rng.standard_normal(shape)
    a[rng.random(shape) < 0.1] = 0.0
    a[rng.random(shape) < 0.1] = -0.0
    return a


def random_net(rng, n_in, hidden, n_out):
    net = DenseNet([n_in, *hidden, n_out], rng)
    # biases off zero, and a dead unit so that pre-activations hit exactly 0
    for b in net.biases:
        b.data[:] = with_zeros(rng, b.data.shape)
    for w in net.weights[:-1]:
        w.data[:, 0] = 0.0
    return net


def run(forward, net, x, c):
    """Forward, then backward of a loss that sums two uses of the output."""
    for p in net.params():
        p.grad = None
    x.grad = None
    out = forward(net, x)
    ((out * Tensor(c)).sum() + out.square().mean()).backward()
    return out.data.copy(), [p.grad for p in net.params()], x.grad


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_in=st.integers(1, 9),
    hidden=st.lists(st.integers(1, 12), min_size=0, max_size=3),
    n_out=st.integers(1, 5),
    batch=st.integers(1, 16),
    trainable=st.booleans(),
    input_grad=st.booleans(),
)
def test_dense_stack_matches_op_by_op_tape(seed, n_in, hidden, n_out, batch,
                                           trainable, input_grad):
    rng = np.random.default_rng(seed)
    net = random_net(rng, n_in, hidden, n_out)
    for p in net.params():
        p.requires_grad = trainable
    x = Tensor(with_zeros(rng, (batch, n_in)), requires_grad=input_grad)
    c = with_zeros(rng, (batch, n_out))

    ref_out, ref_grads, ref_xg = run(tape_reference.forward, net, x, c)
    out, grads, xg = run(DenseNet.forward, net, x, c)

    assert same_bits(out, ref_out)
    assert same_bits(xg, ref_xg)
    assert (xg is None) == (not input_grad)
    for g, rg in zip(grads, ref_grads):
        assert same_bits(g, rg)
        assert (g is None) == (not trainable)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("batch", [1, 256])
def test_dead_unit_under_negative_gradient_leaves_no_negative_zero(dtype, batch):
    """Unit 0 of each hidden layer is dead across the whole batch and every
    upstream gradient is negative, so the ReLU mask leaves a column of -0.0.
    The gradients made from it are kept without a + 0.0 pass: none may hold
    a -0.0, and all must have the op-by-op tape's bits."""
    rng = np.random.default_rng(17)
    net = DenseNet([6, 256, 256, 3], rng, dtype=dtype)
    for w in net.weights:
        w.data[:] = np.abs(w.data)  # with x >= 0 and c < 0: every upstream gradient < 0
    for w in net.weights[:-1]:
        w.data[:, 0] = 0.0
    x = Tensor(np.abs(rng.standard_normal((batch, 6))).astype(dtype), requires_grad=True)
    c = Tensor(-np.ones((batch, 3), dtype))
    grads = {}
    for name, forward in (("reference", tape_reference.forward), ("fused", DenseNet.forward)):
        for p in net.params():
            p.grad = None
        x.grad = None
        (forward(net, x) * c).sum().backward()
        grads[name] = [p.grad for p in net.params()] + [x.grad]
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        assert np.all(w.grad[:, 0] == 0.0) and b.grad[0] == 0.0  # the dead unit
    for g, rg in zip(grads["fused"], grads["reference"]):
        assert g.dtype == dtype
        assert not np.any(np.signbit(g) & (g == 0.0))
        assert same_bits(g, rg)


def test_forward_np_matches_forward():
    rng = np.random.default_rng(5)
    net = random_net(rng, 6, [16, 16], 3)
    x = with_zeros(rng, (32, 6))
    assert same_bits(net.forward_np(x), tape_reference.forward(net, Tensor(x)).data)


def record_adam_grads(monkeypatch):
    """Wrap `Adam.step` to keep a copy of every gradient it is given."""
    seen = []
    step = Adam.step

    def recording(self):
        seen.append([None if p.grad is None else p.grad.copy() for p in self.params])
        step(self)

    monkeypatch.setattr(Adam, "step", recording)
    return seen


def small_batch(rng, n, obs_dim, act_dim):
    return {
        "obs": rng.standard_normal((n, obs_dim)),
        "act": rng.uniform(-1, 1, (n, act_dim)),
        "rew": rng.standard_normal(n),
        "next_obs": rng.standard_normal((n, obs_dim)),
        "done": (rng.random(n) < 0.1).astype(float),
    }


def agent_bytes(agent) -> bytes:
    parts = [t.data.tobytes() for _, t in sorted(agent._param_map().items())]
    for opt in (agent.critic_opt, agent.actor_opt, agent.alpha_opt):
        parts += [m.tobytes() + v.tobytes() for m, v in zip(opt.m, opt.v)]
    return b"".join(parts)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_critic_then_actor_gradients_match_reference(monkeypatch, dtype):
    """One update: the critic pass (trainable critics, leaf inputs), then
    the actor pass (frozen critics, an input that needs a gradient)."""
    cfg = SacConfig(batch_size=32, dtype=dtype)
    batch = small_batch(np.random.default_rng(11), 32, 5, 2)
    seen = {}
    for name in ("reference", "fused"):
        with monkeypatch.context() as mp:
            if name == "reference":
                mp.setattr(DenseNet, "forward", tape_reference.forward)
            grads = record_adam_grads(mp)
            agent = SacAgent(5, 2, seed=4, config=cfg)
            stats = agent.update(batch)
        seen[name] = (grads, stats, agent_bytes(agent))
    (ref_grads, ref_stats, ref_bytes), (grads, stats, got_bytes) = seen["reference"], seen["fused"]
    assert len(grads) == len(ref_grads) == 3  # critic, actor, temperature
    for step, ref_step in zip(grads, ref_grads):
        assert len(step) == len(ref_step)
        for g, rg in zip(step, ref_step):
            assert g is not None
            assert g.dtype == dtype
            assert same_bits(g, rg)
    assert stats == ref_stats
    assert got_bytes == ref_bytes


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("seed", [0, 3])
def test_seeded_updates_match_reference_bytes(monkeypatch, seed, dtype):
    cfg = SacConfig(batch_size=32, dtype=dtype)
    agents = {}
    for name in ("reference", "fused"):
        with monkeypatch.context() as mp:
            if name == "reference":
                mp.setattr(DenseNet, "forward", tape_reference.forward)
            agent = SacAgent(6, 3, seed=seed, config=cfg)
            rng = np.random.default_rng(seed + 50)
            for _ in range(20):
                agent.update(small_batch(rng, 32, 6, 3))
        agents[name] = agent_bytes(agent)
    assert agents["fused"] == agents["reference"]


def test_float32_agent_makes_no_float64_array(monkeypatch):
    """Updates on a replay batch and on a float64 batch, and acts, of a
    float32 agent: every tensor and every gradient handed on is float32,
    bar one-element values; act still returns float64."""
    leaks = []
    init, accumulate = Tensor.__init__, Tensor._accumulate

    def watched_init(self, data, requires_grad=False):
        init(self, data, requires_grad)
        if self.data.dtype == np.float64 and self.data.size > 1:
            leaks.append(("tensor", self.data.shape))

    def watched_accumulate(self, g, owned=False):
        if g.dtype == np.float64 and g.size > 1:
            leaks.append(("gradient", g.shape))
        accumulate(self, g, owned)

    agent = SacAgent(5, 2, seed=1, config=SacConfig(batch_size=32))
    rng = np.random.default_rng(8)
    for _ in range(64):
        agent.replay.add(rng.standard_normal(5), rng.uniform(-1, 1, 2),
                         float(rng.standard_normal()), rng.standard_normal(5), False)
    monkeypatch.setattr(Tensor, "__init__", watched_init)
    monkeypatch.setattr(Tensor, "_accumulate", watched_accumulate)
    agent.update(agent.replay.sample(32))
    agent.update(small_batch(rng, 32, 5, 2))
    actions = [agent.act(rng.standard_normal(5)),
               agent.act(rng.standard_normal((3, 5)), deterministic=True)]
    assert leaks == []
    assert all(a.dtype == np.float64 for a in actions)
    assert all(p.data.dtype == np.float32 for p in agent._param_map().values())
