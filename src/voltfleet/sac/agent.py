"""Soft actor-critic with twin critics and learned temperature."""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .nets import GaussianPolicy, QNetwork
from .replay import ReplayBuffer
from .tensor import Tensor, minimum


@dataclass(frozen=True)
class SacConfig:
    gamma: float = 0.99
    tau: float = 5e-3
    lr: float = 3e-4
    batch_size: int = 256
    alpha_init: float = 0.2
    target_entropy: float | None = None  # default: -act_dim
    replay_capacity: int = 1_000_000


class Adam:
    def __init__(self, params: list[Tensor], lr: float = 3e-4, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        self.t += 1
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * p.grad
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * p.grad**2
            p.data -= self.lr * (self.m[i] / b1c) / (np.sqrt(self.v[i] / b2c) + self.eps)


class SacAgent:
    def __init__(self, obs_dim: int, act_dim: int, seed: int = 0,
                 config: SacConfig | None = None):
        self.obs_dim = obs_dim
        self.act_dim = act_dim
        self.config = config or SacConfig()
        ss = np.random.SeedSequence(seed)
        k_pol, k_q1, k_q2, k_noise, k_replay = ss.spawn(5)

        self.policy = GaussianPolicy(obs_dim, act_dim, np.random.default_rng(k_pol))
        self.q1 = QNetwork(obs_dim, act_dim, np.random.default_rng(k_q1))
        self.q2 = QNetwork(obs_dim, act_dim, np.random.default_rng(k_q2))
        self.q1_target = copy.deepcopy(self.q1)
        self.q2_target = copy.deepcopy(self.q2)
        for p in self.q1_target.params() + self.q2_target.params():
            p.requires_grad = False

        self.log_alpha = Tensor(np.log(self.config.alpha_init), requires_grad=True)
        self.target_entropy = (
            -float(act_dim)
            if self.config.target_entropy is None
            else self.config.target_entropy
        )

        lr = self.config.lr
        self.critic_opt = Adam(self.q1.params() + self.q2.params(), lr=lr)
        self.actor_opt = Adam(self.policy.params(), lr=lr)
        self.alpha_opt = Adam([self.log_alpha], lr=lr)

        self._noise_rng = np.random.default_rng(k_noise)
        self.replay = ReplayBuffer(
            obs_dim, act_dim, self.config.replay_capacity,
            rng=np.random.default_rng(k_replay),
        )
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
        return a[0] if np.ndim(obs) == 1 else a

    def _polyak(self) -> None:
        tau = self.config.tau
        for online, target in (
            (self.q1, self.q1_target),
            (self.q2, self.q2_target),
        ):
            for p, pt in zip(online.params(), target.params()):
                pt.data *= 1.0 - tau
                pt.data += tau * p.data

    def update(self, batch: dict[str, np.ndarray]) -> dict[str, float]:
        """One gradient step on critics, actor and temperature, then polyak."""
        cfg = self.config
        obs = Tensor(batch["obs"])
        act = Tensor(batch["act"])
        n = obs.shape[0]

        # bootstrap target (no gradients flow here)
        eps_next = self._noise_rng.standard_normal((n, self.act_dim))
        next_a, next_logp = self.policy.sample(Tensor(batch["next_obs"]), eps_next)
        q_next = np.minimum(
            self.q1_target.forward_np(batch["next_obs"], next_a.data),
            self.q2_target.forward_np(batch["next_obs"], next_a.data),
        )
        soft_next = q_next - self.alpha * next_logp.data
        y = batch["rew"][:, None] + cfg.gamma * (1.0 - batch["done"][:, None]) * soft_next

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
        for p in self.critic_opt.params:
            p.requires_grad = False
        try:
            eps_pi = self._noise_rng.standard_normal((n, self.act_dim))
            pi_a, logp = self.policy.sample(obs, eps_pi)
            q_pi = minimum(self.q1.forward(obs, pi_a), self.q2.forward(obs, pi_a))
            actor_loss = (logp * self.alpha - q_pi).mean()
            actor_loss.backward()
        finally:
            for p in self.critic_opt.params:
                p.requires_grad = True
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
        np.savez(self._npz(path), **arrays)

    @staticmethod
    def _meta(blob, path) -> np.ndarray:
        meta = blob["__meta"] if "__meta" in blob else None
        if meta is None or meta.shape != (3,):
            raise ValueError(f"checkpoint {path}: '__meta' missing or not 3 values")
        return meta

    def load(self, path) -> None:
        """Read a `save` checkpoint; every key and exact shape is checked
        before any parameter changes."""
        params = self._param_map()
        with np.load(self._npz(path)) as blob:
            meta = self._meta(blob, path)
            if int(meta[0]) != self.obs_dim or int(meta[1]) != self.act_dim:
                raise ValueError("checkpoint dimensions do not match this agent")
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
                loaded[k] = data.astype(np.float64)
        for k, data in loaded.items():
            params[k].data = data
        self.updates = int(meta[2])

    @classmethod
    def restore(cls, path, seed: int = 0, config: SacConfig | None = None) -> "SacAgent":
        with np.load(cls._npz(path)) as blob:
            meta = cls._meta(blob, path)
        agent = cls(int(meta[0]), int(meta[1]), seed=seed, config=config)
        agent.load(path)
        return agent
