"""Uniform replay buffer backed by preallocated numpy arrays.

Storage starts small and doubles as transitions arrive, up to the fixed
capacity; past capacity the buffer wraps and overwrites the oldest rows.
Rows are stored, and sampled, in the buffer's `dtype`.
"""

from __future__ import annotations

import numpy as np

_INITIAL_ROOM = 4096


class ReplayBuffer:
    def __init__(
        self,
        obs_dim: int,
        act_dim: int,
        capacity: int = 1_000_000,
        *,
        rng: np.random.Generator,
        dtype=np.float64,
    ):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._rng = rng
        room = min(_INITIAL_ROOM, capacity)
        self._obs = np.zeros((room, obs_dim), dtype)
        self._act = np.zeros((room, act_dim), dtype)
        self._rew = np.zeros(room, dtype)
        self._next_obs = np.zeros((room, obs_dim), dtype)
        self._done = np.zeros(room, dtype)
        self._size = 0
        self._cursor = 0

    def __len__(self) -> int:
        return self._size

    @property
    def allocated(self) -> int:
        return self._obs.shape[0]

    def _grow(self) -> None:
        new_room = min(self.allocated * 2, self.capacity)
        for name in ("_obs", "_act", "_rew", "_next_obs", "_done"):
            old = getattr(self, name)
            fresh = np.zeros((new_room, *old.shape[1:]), old.dtype)
            fresh[: self._size] = old[: self._size]
            setattr(self, name, fresh)

    def add(self, obs, act, rew: float, next_obs, done: bool) -> None:
        if self._size == self.allocated and self.allocated < self.capacity:
            self._grow()
        i = self._cursor
        self._obs[i] = obs
        self._act[i] = act
        self._rew[i] = rew
        self._next_obs[i] = next_obs
        self._done[i] = float(done)
        self._cursor = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, batch_size: int) -> dict[str, np.ndarray]:
        if self._size == 0:
            raise ValueError("cannot sample from an empty buffer")
        idx = self._rng.integers(0, self._size, size=batch_size)
        return {
            "obs": self._obs[idx],
            "act": self._act[idx],
            "rew": self._rew[idx],
            "next_obs": self._next_obs[idx],
            "done": self._done[idx],
        }
