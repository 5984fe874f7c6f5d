"""Soft actor-critic with twin critics and learned temperature."""

from __future__ import annotations

import copy
import dataclasses
from contextlib import contextmanager

import numpy as np

from .nets import GaussianPolicy, QNetwork
from .replay import ReplayBuffer
from .tensor import Tensor, minimum


@contextmanager
def frozen(params: list[Tensor]):
    """Inside the block the parameters record no graph and get no gradient."""
    before = [p.requires_grad for p in params]
    for p in params:
        p.requires_grad = False
    try:
        yield
    finally:
        for p, flag in zip(params, before):
            p.requires_grad = flag


DTYPES = ("float32", "float64")

# the standard soft actor-critic values (Haarnoja et al. 2018, arXiv:1812.05905,
# Table 1); the target entropy is -act_dim and the replay capacity is
# ReplayBuffer's default
GAMMA = 0.99
TAU = 5e-3
LR = 3e-4
ALPHA_INIT = 0.2


@dataclasses.dataclass(frozen=True)
class SacConfig:
    batch_size: int = 256
    # nets, Adam moments, log_alpha and replay storage; act() returns float64
    dtype: str = "float32"

    def __post_init__(self):
        if type(self.batch_size) is not int or self.batch_size < 1:
            raise ValueError(f"batch_size must be an int >= 1, not {self.batch_size!r}")
        if self.dtype not in DTYPES:
            raise ValueError(f"dtype must be one of {DTYPES}, not {self.dtype!r}")


class Adam:
    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, params: list[Tensor], lr: float):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        self.t += 1
        b1c = 1.0 - self.BETA1**self.t
        b2c = 1.0 - self.BETA2**self.t
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            self.m[i] = self.BETA1 * self.m[i] + (1.0 - self.BETA1) * p.grad
            self.v[i] = self.BETA2 * self.v[i] + (1.0 - self.BETA2) * p.grad**2
            p.data -= self.lr * (self.m[i] / b1c) / (np.sqrt(self.v[i] / b2c) + self.EPS)


class SacAgent:
    def __init__(self, obs_dim: int, act_dim: int, seed: int = 0,
                 config: SacConfig | None = None):
        self.obs_dim = obs_dim
        self.act_dim = act_dim
        self.config = config or SacConfig()
        self.dtype = dtype = np.dtype(self.config.dtype)
        ss = np.random.SeedSequence(seed)
        k_pol, k_q1, k_q2, k_noise, k_replay = ss.spawn(5)

        self.policy = GaussianPolicy(obs_dim, act_dim, np.random.default_rng(k_pol), dtype)
        self.q1 = QNetwork(obs_dim, act_dim, np.random.default_rng(k_q1), dtype)
        self.q2 = QNetwork(obs_dim, act_dim, np.random.default_rng(k_q2), dtype)
        self.q1_target = copy.deepcopy(self.q1)
        self.q2_target = copy.deepcopy(self.q2)
        for p in self.q1_target.params() + self.q2_target.params():
            p.requires_grad = False

        self.log_alpha = Tensor(np.asarray(np.log(ALPHA_INIT), dtype=dtype), requires_grad=True)
        self.target_entropy = -float(act_dim)

        self.critic_opt = Adam(self.q1.params() + self.q2.params(), LR)
        self.actor_opt = Adam(self.policy.params(), LR)
        self.alpha_opt = Adam([self.log_alpha], LR)

        self._noise_rng = np.random.default_rng(k_noise)
        self.replay = ReplayBuffer(obs_dim, act_dim, rng=np.random.default_rng(k_replay),
                                   dtype=dtype)
        self.updates = 0

    @property
    def alpha(self) -> float:
        return float(np.exp(self.log_alpha.data))

    def act(self, obs: np.ndarray, deterministic: bool = False) -> np.ndarray:
        obs2 = np.atleast_2d(obs)
        if deterministic:
            a = self.policy.act_np(obs2)
        else:
            eps = self._noise_rng.standard_normal((obs2.shape[0], self.act_dim))
            a = self.policy.act_np(obs2, eps)
        a = np.asarray(a, dtype=np.float64)
        return a[0] if np.ndim(obs) == 1 else a

    def _polyak(self) -> None:
        for online, target in (
            (self.q1, self.q1_target),
            (self.q2, self.q2_target),
        ):
            for p, pt in zip(online.params(), target.params()):
                pt.data *= 1.0 - TAU
                pt.data += TAU * p.data

    def update(self, batch: dict[str, np.ndarray]) -> dict[str, float]:
        """One gradient step on critics, actor and temperature, then polyak.

        The batch is cast to the agent's dtype first."""
        batch = {k: np.asarray(v, dtype=self.dtype) for k, v in batch.items()}
        obs = Tensor(batch["obs"])
        act = Tensor(batch["act"])
        n = obs.shape[0]

        # bootstrap target, recorded on no tape
        eps_next = self._noise_rng.standard_normal((n, self.act_dim))
        with frozen(self.policy.params()):
            next_a, next_logp = self.policy.sample(Tensor(batch["next_obs"]), eps_next)
        q_next = np.minimum(
            self.q1_target.forward_np(batch["next_obs"], next_a.data),
            self.q2_target.forward_np(batch["next_obs"], next_a.data),
        )
        soft_next = q_next - self.alpha * next_logp.data
        y = batch["rew"][:, None] + GAMMA * (1.0 - batch["done"][:, None]) * soft_next

        # critics
        self.critic_opt.zero_grad()
        q1_pred = self.q1.forward(obs, act)
        q2_pred = self.q2.forward(obs, act)
        critic_loss = (q1_pred - y).square().mean() + (q2_pred - y).square().mean()
        critic_loss.backward()
        self.critic_opt.step()

        # actor; the critics only pass the gradient through to the action,
        # so their weights are frozen for this pass and get no gradient
        self.actor_opt.zero_grad()
        self.critic_opt.zero_grad()
        with frozen(self.critic_opt.params):
            eps_pi = self._noise_rng.standard_normal((n, self.act_dim))
            pi_a, logp = self.policy.sample(obs, eps_pi)
            q_pi = minimum(self.q1.forward(obs, pi_a), self.q2.forward(obs, pi_a))
            actor_loss = (logp * self.alpha - q_pi).mean()
            actor_loss.backward()
        self.actor_opt.step()

        # temperature, driven toward the entropy target
        self.alpha_opt.zero_grad()
        alpha_loss = (
            (self.log_alpha * -1.0) * Tensor(logp.data + self.target_entropy)
        ).mean()
        alpha_loss.backward()
        self.alpha_opt.step()

        self._polyak()
        self.updates += 1
        return {
            "critic_loss": float(critic_loss.data),
            "actor_loss": float(actor_loss.data),
            "alpha_loss": float(alpha_loss.data),
            "alpha": self.alpha,
            "q1_mean": float(q1_pred.data.mean()),
            "entropy_est": float(-logp.data.mean()),
        }

    # ---- persistence -------------------------------------------------
    def _param_map(self) -> dict[str, Tensor]:
        out = {"log_alpha": self.log_alpha}
        for prefix, net in (
            ("policy", self.policy),
            ("q1", self.q1),
            ("q2", self.q2),
            ("q1_target", self.q1_target),
            ("q2_target", self.q2_target),
        ):
            for i, p in enumerate(net.params()):
                out[f"{prefix}.{i}"] = p
        return out

    @staticmethod
    def _npz(path) -> str:
        s = str(path)
        return s if s.endswith(".npz") else s + ".npz"

    def save(self, path) -> None:
        arrays = {k: t.data for k, t in self._param_map().items()}
        arrays["__meta"] = np.array([self.obs_dim, self.act_dim, self.updates])
        arrays["__dtype"] = np.array(self.config.dtype)
        np.savez(self._npz(path), **arrays)

    @staticmethod
    def _meta(blob, path) -> np.ndarray:
        meta = blob["__meta"] if "__meta" in blob else None
        if meta is None or meta.shape != (3,):
            raise ValueError(f"checkpoint {path}: '__meta' missing or not 3 values")
        return meta

    @staticmethod
    def _dtype(blob, path) -> str:
        """The recorded dtype; checkpoints from before it was recorded are
        float64."""
        dtype = str(blob["__dtype"]) if "__dtype" in blob else "float64"
        if dtype not in DTYPES:
            raise ValueError(f"checkpoint {path}: dtype {dtype!r} is not one of {DTYPES}")
        return dtype

    def load(self, path) -> None:
        """Read a `save` checkpoint; the dtype, every key and exact shapes
        and dtypes are checked before any parameter changes."""
        params = self._param_map()
        with np.load(self._npz(path)) as blob:
            meta = self._meta(blob, path)
            if int(meta[0]) != self.obs_dim or int(meta[1]) != self.act_dim:
                raise ValueError("checkpoint dimensions do not match this agent")
            dtype = self._dtype(blob, path)
            if dtype != self.config.dtype:
                raise ValueError(
                    f"checkpoint {path} is {dtype}, this agent is {self.config.dtype}"
                )
            loaded = {}
            for k, t in params.items():
                if k not in blob:
                    raise ValueError(f"checkpoint {path}: no {k!r}")
                data = blob[k]
                if data.shape != t.data.shape:
                    raise ValueError(
                        f"checkpoint {path}: {k!r} has shape {data.shape}, "
                        f"this agent needs {t.data.shape}"
                    )
                if data.dtype != t.data.dtype:
                    raise ValueError(
                        f"checkpoint {path}: {k!r} is {data.dtype}, "
                        f"this agent needs {t.data.dtype}"
                    )
                loaded[k] = data
        for k, data in loaded.items():
            params[k].data = data
        self.updates = int(meta[2])

    @classmethod
    def restore(cls, path) -> "SacAgent":
        """A new agent loaded from `path`, built in the checkpoint's dtype."""
        with np.load(cls._npz(path)) as blob:
            meta = cls._meta(blob, path)
            dtype = cls._dtype(blob, path)
        agent = cls(int(meta[0]), int(meta[1]), config=SacConfig(dtype=dtype))
        agent.load(path)
        return agent
