"""Training loop utilities for the soft actor-critic agent."""

from __future__ import annotations

import csv
import math
import tempfile
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .agent import SacAgent

DIVERGENCE_DUMP = "sac_divergence_dump.npz"


@dataclass
class TrainResult:
    steps: int
    history: list[dict] = field(default_factory=list)


def episode_return(env, agent: SacAgent | None, rng=None, deterministic=True) -> float:
    """Total reward over one episode; agent=None plays uniform random actions from `rng`."""
    if agent is None and rng is None:
        raise ValueError("random play (agent=None) needs an rng")
    obs = env.reset()
    total = 0.0
    done = False
    while not done:
        if agent is None:
            a = rng.uniform(-1.0, 1.0, env.action_size)
        else:
            a = agent.act(obs, deterministic=deterministic)
        res = env.step(a)
        total += res.reward
        obs = res.observation
        done = res.done
    return total


def train(
    env,
    agent: SacAgent,
    total_steps: int,
    warmup: int = 1000,
    log_every: int = 500,
    csv_path: str | Path | None = None,
    seed: int = 0,
    dump_path: str | Path | None = None,
) -> TrainResult:
    """Off-policy loop: act, store, update once per post-warmup step.

    Warmup actions are uniform random to fill the replay buffer before any
    gradient step. A negative `total_steps` or `warmup`, or a `log_every`
    that is not an int >= 1, is a ValueError before the first step.
    Raises RuntimeError (after dumping the offending batch) if a loss stops
    being finite. The batch goes to `dump_path`, by default beside
    `csv_path` (`<name>.divergence.npz`), or without one to
    `DIVERGENCE_DUMP` in the system's temporary directory.
    """
    for name, value in (("total_steps", total_steps), ("warmup", warmup)):
        if value < 0:
            raise ValueError(f"{name} must be >= 0, not {value}")
    if type(log_every) is not int or log_every < 1:  # bool is not a step count
        raise ValueError(f"log_every must be an int >= 1, not {log_every!r}")
    rng = np.random.default_rng(seed)
    batch_size = agent.config.batch_size
    recent: deque[float] = deque(maxlen=200)
    result = TrainResult(steps=total_steps)
    stats: dict[str, float] = {}

    obs = env.reset()
    for step in range(1, total_steps + 1):
        if step <= warmup:
            a = rng.uniform(-1.0, 1.0, agent.act_dim)
        else:
            a = agent.act(obs)
        res = env.step(a)
        agent.replay.add(obs, a, res.reward, res.observation, res.done)
        recent.append(res.reward)
        obs = env.reset() if res.done else res.observation

        if step > warmup and len(agent.replay) >= batch_size:
            batch = agent.replay.sample(batch_size)
            stats = agent.update(batch)
            bad = [k for k, v in stats.items() if not math.isfinite(v)]
            if bad:
                if dump_path is None:
                    dump_path = (
                        divergence_dump_beside(csv_path) if csv_path is not None
                        else Path(tempfile.gettempdir()) / DIVERGENCE_DUMP
                    )
                with open(dump_path, "wb") as fh:  # exactly this name, no added .npz
                    np.savez(fh, **batch)
                raise RuntimeError(
                    f"non-finite {bad} at step {step}; batch saved to {dump_path}"
                )

        if step % log_every == 0 or step == total_steps:
            row = {"step": step, "reward_mean": float(np.mean(recent))}
            row.update(stats)
            result.history.append(row)

    if csv_path is not None:
        _write_history(csv_path, result.history)
    return result


def divergence_dump_beside(path: str | Path) -> Path:
    """Where a divergence dump goes next to an output file: its suffix
    replaced by `.divergence.npz`."""
    return Path(path).with_suffix(".divergence.npz")


def _write_history(path: str | Path, rows: list[dict]) -> None:
    if not rows:
        return
    fields = list(rows[-1].keys())
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, restval="")
        writer.writeheader()
        writer.writerows(rows)
