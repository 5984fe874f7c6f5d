"""Uniform replay buffer backed by preallocated numpy arrays.

Storage for the full capacity is allocated once, in anonymous memory
maps whose pages the OS commits only as rows are written, so an unfilled
buffer costs little memory. Past capacity the buffer wraps and
overwrites the oldest rows. Rows are stored, and sampled, in the
buffer's `dtype`.
"""

from __future__ import annotations

import math
import mmap

import numpy as np


def _zeros(shape: tuple[int, ...], dtype) -> np.ndarray:
    """Zeros whose pages are committed on first write.

    Not `np.zeros`: once a freed block under glibc's 32 MB mmap ceiling
    (such as a 5-bus float32 buffer's `obs`) has raised its mmap
    threshold, calloc serves the next block from the heap and clears all
    of it, so every later buffer of that size is written through and
    stays resident.
    """
    count = math.prod(shape)
    nbytes = max(count * np.dtype(dtype).itemsize, 1)  # a map cannot be empty
    return np.frombuffer(mmap.mmap(-1, nbytes), dtype, count).reshape(shape)


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
        self._obs = _zeros((capacity, obs_dim), dtype)
        self._act = _zeros((capacity, act_dim), dtype)
        self._rew = _zeros((capacity,), dtype)
        self._next_obs = _zeros((capacity, obs_dim), dtype)
        self._done = _zeros((capacity,), dtype)
        self._size = 0
        self._cursor = 0

    def __len__(self) -> int:
        return self._size

    def add(self, obs, act, rew: float, next_obs, done: bool) -> None:
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
