"""Dense networks and the squashed-Gaussian policy head."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, concat

LOG_STD_MIN = -20.0
LOG_STD_MAX = 2.0
_LOG_2PI = float(np.log(2.0 * np.pi))
_LOG_2 = float(np.log(2.0))

HIDDEN = (256, 256)


class DenseNet:
    """Fully connected ReLU stack; the last layer is linear."""

    def __init__(self, sizes: list[int], rng: np.random.Generator):
        self.sizes = tuple(sizes)
        self.weights: list[Tensor] = []
        self.biases: list[Tensor] = []
        for i, (n_in, n_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            last = i == len(sizes) - 2
            # small uniform head keeps initial outputs near zero
            lim = 3e-3 if last else np.sqrt(6.0 / (n_in + n_out))
            w = rng.uniform(-lim, lim, size=(n_in, n_out))
            self.weights.append(Tensor(w, requires_grad=True))
            self.biases.append(Tensor(np.zeros(n_out), requires_grad=True))

    def params(self) -> list[Tensor]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def _layers(self, h: np.ndarray, saved: list | None = None) -> np.ndarray:
        """The layer loop of `forward` and `forward_np`.

        Each layer is h @ W, then + b in place, then (not on the last
        layer) ReLU in place with the bits of where(z > 0, z, 0.0): fmax
        maps NaN to 0, and + 0.0 turns -0.0 into +0.0. When `saved` is a
        list it gets each layer's input and its ReLU mask (None on the
        last layer) for the backward pass.
        """
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = h @ w.data
            z += b.data
            mask = None
            if i < last:
                np.fmax(z, 0.0, out=z)
                z += 0.0
                if saved is not None:
                    mask = z > 0
            if saved is not None:
                saved.append((h, mask))
            h = z
        return h

    def forward(self, x: Tensor) -> Tensor:
        """The whole stack as one tape node.

        Its gradients have the bits of the op-by-op tape (matmul, bias
        add, ReLU per layer): every gradient that tape passed on went
        through `Tensor._accumulate`, whose + 0.0 is repeated here.
        """
        saved: list[tuple[np.ndarray, np.ndarray | None]] = []
        out = self._layers(x.data, saved)

        def backward(g):
            g = g + 0.0
            for i in reversed(range(len(saved))):
                h, mask = saved[i]
                if mask is not None:
                    g *= mask
                    g += 0.0
                w, b = self.weights[i], self.biases[i]
                if b.requires_grad:
                    b._accumulate(g.sum(axis=0))
                if w.requires_grad:
                    w._accumulate(h.T @ g)
                if i > 0:
                    g = g @ w.data.T
                elif x.requires_grad:
                    x._accumulate(g @ w.data.T)

        return Tensor._result(out, (x, *self.params()), backward)

    def forward_np(self, x: np.ndarray) -> np.ndarray:
        """Graph-free forward for inference."""
        return self._layers(np.asarray(x, dtype=np.float64))


class QNetwork:
    """State-action value head: (obs, act) -> scalar per row."""

    def __init__(self, obs_dim: int, act_dim: int, rng: np.random.Generator):
        self.net = DenseNet([obs_dim + act_dim, *HIDDEN, 1], rng)

    def params(self) -> list[Tensor]:
        return self.net.params()

    def forward(self, obs: Tensor, act: Tensor) -> Tensor:
        return self.net.forward(concat([obs, act], axis=1))

    def forward_np(self, obs: np.ndarray, act: np.ndarray) -> np.ndarray:
        return self.net.forward_np(np.concatenate([obs, act], axis=1))


class GaussianPolicy:
    """tanh-squashed diagonal Gaussian; outputs live in (-1, 1)."""

    def __init__(self, obs_dim: int, act_dim: int, rng: np.random.Generator):
        self.act_dim = act_dim
        self.net = DenseNet([obs_dim, *HIDDEN, 2 * act_dim], rng)

    def params(self) -> list[Tensor]:
        return self.net.params()

    def _head(self, obs: Tensor) -> tuple[Tensor, Tensor]:
        out = self.net.forward(obs)
        mean = out[:, : self.act_dim]
        log_std = out[:, self.act_dim :].clip(LOG_STD_MIN, LOG_STD_MAX)
        return mean, log_std

    def sample(self, obs: Tensor, eps: np.ndarray) -> tuple[Tensor, Tensor]:
        """Reparameterized draw.

        eps is standard normal noise of shape (batch, act_dim); passing it
        in keeps the graph deterministic, which the gradient checks need.
        Returns (action, log_prob) with log_prob of shape (batch, 1).
        """
        mean, log_std = self._head(obs)
        std = log_std.exp()
        u = mean + std * Tensor(eps)
        action = u.tanh()
        # diagonal Gaussian density at u
        z = (u - mean) / std
        log_gauss = (z.square() * -0.5 - log_std - 0.5 * _LOG_2PI).sum(
            axis=1, keepdims=True
        )
        # squash correction: log(1 - tanh(u)^2) = 2(log 2 - u - softplus(-2u))
        corr = ((u * -2.0).softplus() + u - _LOG_2) * 2.0
        log_prob = log_gauss + corr.sum(axis=1, keepdims=True)
        return action, log_prob

    def act_np(self, obs: np.ndarray, eps: np.ndarray | None = None) -> np.ndarray:
        """Graph-free action; eps=None gives the deterministic tanh(mean)."""
        out = self.net.forward_np(np.atleast_2d(obs))
        mean = out[:, : self.act_dim]
        if eps is None:
            return np.tanh(mean)
        log_std = np.clip(out[:, self.act_dim :], LOG_STD_MIN, LOG_STD_MAX)
        return np.tanh(mean + np.exp(log_std) * eps)
