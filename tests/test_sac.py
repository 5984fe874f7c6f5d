import os
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest

from test_env import train_config

import voltfleet.sac.replay as replay_mod
from voltfleet.env import V2GEnv
from voltfleet.grid import load_feeder_file
from voltfleet.resources import feeder_path
from voltfleet.sac import Adam, ReplayBuffer, SacAgent, SacConfig, Tensor
from voltfleet.sac.agent import frozen
from voltfleet.sac.train import episode_return, train


def small_agent(seed=0, **kw):
    cfg = SacConfig(batch_size=kw.pop("batch_size", 32), **kw)
    return SacAgent(obs_dim=5, act_dim=2, seed=seed, config=cfg)


def random_batch(rng, n=32, obs_dim=5, act_dim=2):
    return {
        "obs": rng.standard_normal((n, obs_dim)),
        "act": rng.uniform(-1, 1, (n, act_dim)),
        "rew": rng.standard_normal(n),
        "next_obs": rng.standard_normal((n, obs_dim)),
        "done": (rng.random(n) < 0.1).astype(float),
    }


# ---- replay buffer ----------------------------------------------------


def test_replay_wraps_and_overwrites_oldest(monkeypatch):
    buf = ReplayBuffer(1, 1, capacity=3, rng=np.random.default_rng(0))
    for k in range(5):
        buf.add([k], [0.0], float(k), [0.0], False)
    assert len(buf) == 3
    stored = sorted(buf._obs[:3, 0].tolist())
    assert stored == [2.0, 3.0, 4.0]  # 0 and 1 overwritten


def test_replay_grows_on_demand(monkeypatch):
    monkeypatch.setattr(replay_mod, "_INITIAL_ROOM", 4)
    buf = ReplayBuffer(2, 1, capacity=16, rng=np.random.default_rng(0))
    assert buf.allocated == 4
    for k in range(9):
        buf.add([k, k], [0.0], 0.0, [0.0, 0.0], False)
    assert buf.allocated == 16
    assert len(buf) == 9
    assert buf._obs[3, 0] == 3.0  # early rows survive the copies


def test_replay_sampling_uniform_and_seeded():
    buf = ReplayBuffer(1, 1, capacity=200, rng=np.random.default_rng(7))
    for k in range(100):
        buf.add([k], [0.0], 0.0, [0.0], False)
    counts = np.zeros(100)
    for _ in range(100):
        idx = buf.sample(200)["obs"][:, 0].astype(int)
        np.add.at(counts, idx, 1)
    # 20000 draws over 100 slots: every slot visited, no gross skew
    assert counts.min() > 100 and counts.max() < 320

    b1 = ReplayBuffer(1, 1, capacity=10, rng=np.random.default_rng(3))
    b2 = ReplayBuffer(1, 1, capacity=10, rng=np.random.default_rng(3))
    for b in (b1, b2):
        for k in range(10):
            b.add([k], [0.0], 0.0, [0.0], False)
    assert np.array_equal(b1.sample(6)["obs"], b2.sample(6)["obs"])


def test_replay_stores_in_its_dtype(monkeypatch):
    monkeypatch.setattr(replay_mod, "_INITIAL_ROOM", 2)
    buf = ReplayBuffer(2, 1, capacity=8, rng=np.random.default_rng(0), dtype=np.float32)
    for k in range(5):
        buf.add([k + 0.1, k], [0.5], 1.0 / 3.0, [0.0, k], k == 4)
    assert buf.allocated == 8
    batch = buf.sample(4)
    assert all(v.dtype == np.float32 for v in batch.values())
    assert buf._obs[4, 0] == np.float32(4.1)
    assert ReplayBuffer(1, 1)._obs.dtype == np.float64  # the default


def test_replay_empty_sample_rejected():
    with pytest.raises(ValueError, match="empty"):
        ReplayBuffer(1, 1, capacity=4).sample(1)


# ---- optimizer --------------------------------------------------------


def test_adam_first_step_is_signed_lr():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    opt = Adam([p], lr=0.1)
    p.grad = np.array([0.5, -3.0])
    opt.step()
    # bias correction makes the first step lr * sign(grad), up to eps
    assert np.allclose(p.data, [1.0 - 0.1, -2.0 + 0.1], atol=1e-6)


def test_adam_minimizes_quadratic():
    p = Tensor(np.array([5.0]), requires_grad=True)
    opt = Adam([p], lr=0.05)
    for _ in range(2000):
        opt.zero_grad()
        loss = (p * p).sum()
        loss.backward()
        opt.step()
    assert abs(p.data[0]) < 1e-3


# ---- agent ------------------------------------------------------------


def test_actions_bounded_and_deterministic_repeatable():
    agent = small_agent(seed=1)
    obs = np.random.default_rng(0).standard_normal(5)
    a1 = agent.act(obs, deterministic=True)
    a2 = agent.act(obs, deterministic=True)
    assert a1.shape == (2,)
    assert np.array_equal(a1, a2)
    assert np.all(np.abs(a1) <= 1.0)
    samples = np.array([agent.act(obs) for _ in range(50)])
    assert np.all(np.abs(samples) < 1.0)
    assert samples.std(axis=0).min() > 0  # stochastic head actually explores


def test_config_accepts_only_two_dtypes():
    assert SacConfig().dtype == "float32"
    assert SacConfig(dtype="float64").dtype == "float64"
    for bad in ("float16", "f4", np.float32, "int32"):
        with pytest.raises(ValueError, match="dtype"):
            SacConfig(dtype=bad)


def test_dtypes_share_the_seeded_draws():
    """The float32 agent starts from the float64 agent's draws, cast."""
    a32 = small_agent(seed=3)
    a64 = small_agent(seed=3, dtype="float64")
    for k, t in a64._param_map().items():
        got = a32._param_map()[k].data
        assert got.dtype == np.float32
        assert np.array_equal(got, t.data.astype(np.float32)), k
    for opt in (a32.critic_opt, a32.actor_opt, a32.alpha_opt):
        assert all(m.dtype == v.dtype == np.float32 for m, v in zip(opt.m, opt.v))
    assert a32.replay._obs.dtype == np.float32
    obs = np.linspace(-1, 1, 5)
    a = a32.act(obs)
    assert a.dtype == np.float64
    # same noise draw: the two dtypes act alike to float32 precision
    assert np.allclose(a, a64.act(obs), rtol=0, atol=1e-5)


def test_float32_update_tracks_float64():
    batch = random_batch(np.random.default_rng(4))
    stats = [small_agent(seed=2, dtype=d).update(batch) for d in ("float32", "float64")]
    for k, v in stats[1].items():
        assert stats[0][k] == pytest.approx(v, rel=1e-4, abs=1e-6), k


def test_same_seed_same_agent():
    a = small_agent(seed=9)
    b = small_agent(seed=9)
    obs = np.ones(5)
    assert np.array_equal(a.act(obs), b.act(obs))


def test_polyak_update_is_exact_blend():
    agent = small_agent(seed=0)
    tau = agent.config.tau
    online = agent.q1.params()[0]
    target = agent.q1_target.params()[0]
    before = target.data.copy()
    online.data = online.data + 1.0
    agent._polyak()
    expected = (1.0 - tau) * before + tau * online.data
    assert np.allclose(target.data, expected, atol=1e-15)


def test_update_returns_finite_stats_and_moves_params():
    agent = small_agent(seed=2)
    batch = random_batch(np.random.default_rng(0))
    w_before = agent.policy.params()[0].data.copy()
    q_before = agent.q1.params()[0].data.copy()
    a_before = agent.alpha
    stats = agent.update(batch)
    assert all(np.isfinite(v) for v in stats.values())
    assert not np.array_equal(agent.policy.params()[0].data, w_before)
    assert not np.array_equal(agent.q1.params()[0].data, q_before)
    assert agent.alpha != a_before
    assert agent.updates == 1


def test_target_draw_records_no_tape_node():
    agent = small_agent(seed=4)
    draws = []
    sample = agent.policy.sample
    agent.policy.sample = lambda obs, eps: draws.append(sample(obs, eps)) or draws[-1]
    agent.update(random_batch(np.random.default_rng(2)))
    (next_a, next_logp), (pi_a, logp) = draws  # bootstrap target, then actor pass
    for t in (next_a, next_logp):
        assert not t.requires_grad and t._parents == () and t._backward is None
    assert pi_a.requires_grad and logp.requires_grad
    nets = agent.policy.params() + agent.q1.params() + agent.q2.params()
    assert all(p.requires_grad for p in nets)


def test_frozen_restores_each_flag_on_error():
    w = Tensor(np.ones(2), requires_grad=True)
    c = Tensor(np.ones(2))
    with pytest.raises(RuntimeError):
        with frozen([w, c]):
            assert not w.requires_grad
            assert not (w * 2.0).requires_grad
            raise RuntimeError
    assert w.requires_grad and not c.requires_grad


def test_repeated_updates_fit_fixed_batch():
    # the regression target moves with the policy, so expect progress, not a fit
    agent = small_agent(seed=3)
    batch = random_batch(np.random.default_rng(1))
    first = agent.update(batch)["critic_loss"]
    for _ in range(60):
        last = agent.update(batch)["critic_loss"]
    assert last < first * 0.8


def test_checkpoint_round_trip(tmp_path):
    agent = small_agent(seed=4)
    agent.update(random_batch(np.random.default_rng(2)))
    path = tmp_path / "ckpt"
    agent.save(path)

    other = small_agent(seed=99)
    obs = np.linspace(-1, 1, 5)
    assert not np.allclose(other.act(obs, True), agent.act(obs, True))
    other.load(path)
    assert np.array_equal(other.act(obs, True), agent.act(obs, True))
    assert other.updates == agent.updates

    restored = SacAgent.restore(path, config=agent.config)
    assert np.array_equal(restored.act(obs, True), agent.act(obs, True))

    wrong = SacAgent(obs_dim=3, act_dim=2, seed=0)
    with pytest.raises(ValueError, match="dimension"):
        wrong.load(path)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_checkpoint_records_dtype_and_restores_in_it(tmp_path, dtype):
    agent = small_agent(seed=4, dtype=dtype)
    agent.update(random_batch(np.random.default_rng(2)))
    path = tmp_path / "ckpt.npz"
    agent.save(path)
    with np.load(path) as blob:
        assert str(blob["__dtype"]) == dtype
    # the checkpoint's dtype wins over the config's
    other = "float64" if dtype == "float32" else "float32"
    restored = SacAgent.restore(path, config=SacConfig(batch_size=32, dtype=other))
    assert restored.config.dtype == dtype
    assert param_bytes(restored) == param_bytes(agent)
    assert all(p.data.dtype == dtype for p in restored._param_map().values())


@pytest.mark.parametrize("saved, loading", [("float32", "float64"), ("float64", "float32")])
def test_load_rejects_other_dtype(tmp_path, saved, loading):
    path = tmp_path / "ckpt.npz"
    small_agent(seed=4, dtype=saved).save(path)
    other = small_agent(seed=5, dtype=loading)
    before = param_bytes(other)
    with pytest.raises(ValueError, match=f"is {saved}, this agent is {loading}"):
        other.load(path)
    assert param_bytes(other) == before


def test_load_rejects_array_of_other_dtype(tmp_path):
    agent = small_agent(seed=4, dtype="float64")
    path = tmp_path / "ckpt.npz"
    agent.save(path)
    rewrite_checkpoint(path, lambda a: a.update({"q1.2": a["q1.2"].astype(np.float32)}))
    other = small_agent(seed=5, dtype="float64")
    before = param_bytes(other)
    with pytest.raises(ValueError, match=r"'q1\.2' is float32, this agent needs float64"):
        other.load(path)
    assert param_bytes(other) == before


def test_checkpoint_without_dtype_is_float64(tmp_path):
    """Checkpoints written before the dtype was recorded were float64."""
    agent = small_agent(seed=4, dtype="float64")
    path = tmp_path / "ckpt.npz"
    agent.save(path)
    rewrite_checkpoint(path, lambda a: a.pop("__dtype"))
    assert SacAgent.restore(path).config.dtype == "float64"
    with pytest.raises(ValueError, match="is float64, this agent is float32"):
        small_agent(seed=5).load(path)


def rewrite_checkpoint(path, edit):
    with np.load(path) as blob:
        arrays = dict(blob)
    edit(arrays)
    np.savez(path, **arrays)


def param_bytes(agent):
    return [t.data.tobytes() for t in agent._param_map().values()]


def test_load_rejects_same_size_wrong_shape(tmp_path):
    agent = small_agent(seed=4)
    path = tmp_path / "ckpt.npz"
    agent.save(path)
    # (7, 256) weight stored as (256, 7): same size, so a reshape would pass
    rewrite_checkpoint(path, lambda a: a.update({"q1.0": a["q1.0"].T.copy()}))
    other = small_agent(seed=5)
    before = param_bytes(other)
    with pytest.raises(ValueError, match=r"'q1\.0' has shape \(256, 7\)"):
        other.load(path)
    assert param_bytes(other) == before


@pytest.mark.parametrize("key", ["policy.3", "q2_target.5", "log_alpha", "__meta"])
def test_load_rejects_missing_key(tmp_path, key):
    agent = small_agent(seed=4)
    path = tmp_path / "ckpt.npz"
    agent.save(path)
    rewrite_checkpoint(path, lambda a: a.pop(key))
    other = small_agent(seed=5)
    before = param_bytes(other)
    with pytest.raises(ValueError, match=re.escape(repr(key))):
        other.load(path)
    assert param_bytes(other) == before
    with pytest.raises(ValueError, match=re.escape(repr(key))):
        SacAgent.restore(path, config=agent.config)


# ---- training loop ----------------------------------------------------


@pytest.fixture(scope="module")
def five_bus_env():
    feeder = load_feeder_file(feeder_path("five_bus_train"))
    return V2GEnv(train_config(feeder, lam_range=(0.5, 2.0), episode_len=25), seed=0)


def test_train_smoke_and_history_csv(tmp_path, five_bus_env):
    agent = SacAgent(obs_dim=5, act_dim=2, seed=5, config=SacConfig(batch_size=32))
    csv_path = tmp_path / "log.csv"
    result = train(
        five_bus_env, agent, total_steps=120, warmup=40,
        log_every=40, csv_path=csv_path, seed=0,
    )
    assert result.steps == 120
    assert len(result.history) == 3
    assert agent.updates == 80
    assert len(agent.replay) == 120
    text = csv_path.read_text().splitlines()
    assert text[0].startswith("step,reward_mean")
    assert len(text) == 4


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_dumps_batch_on_divergence(tmp_path, five_bus_env):
    agent = SacAgent(obs_dim=5, act_dim=2, seed=6, config=SacConfig(batch_size=16))
    agent.log_alpha.data = np.array(np.inf)  # force a non-finite alpha stat
    dump = tmp_path / "dump.npz"
    with pytest.raises(RuntimeError, match="non-finite"):
        train(five_bus_env, agent, total_steps=40, warmup=20, dump_path=dump, seed=0)
    assert dump.exists()
    with np.load(dump) as blob:
        assert blob["obs"].shape == (16, 5)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("with_csv", [True, False])
def test_divergence_dump_default_stays_out_of_cwd(tmp_path, monkeypatch, five_bus_env,
                                                  with_csv):
    cwd, tmp, out = tmp_path / "cwd", tmp_path / "tmp", tmp_path / "out"
    for d in (cwd, tmp, out):
        d.mkdir()
    monkeypatch.chdir(cwd)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp))
    agent = SacAgent(obs_dim=5, act_dim=2, seed=6, config=SacConfig(batch_size=16))
    agent.log_alpha.data = np.array(np.inf)  # force a non-finite alpha stat
    csv_path = out / "log.csv" if with_csv else None
    with pytest.raises(RuntimeError, match="non-finite") as err:
        train(five_bus_env, agent, total_steps=40, warmup=20, csv_path=csv_path, seed=0)
    assert os.listdir(cwd) == []
    named = Path(str(err.value).rsplit("batch saved to ", 1)[1])
    assert named == (out / "log.divergence.npz" if with_csv else tmp / "sac_divergence_dump.npz")
    with np.load(named) as blob:
        assert blob["obs"].shape == (16, 5)


def test_episode_return_random_vs_uncontrolled(five_bus_env):
    rng = np.random.default_rng(0)
    r = episode_return(five_bus_env, None, rng=rng)
    assert np.isfinite(r)


def test_episode_return_random_play_needs_an_rng(five_bus_env):
    with pytest.raises(ValueError, match="random play .* needs an rng"):
        episode_return(five_bus_env, None)
