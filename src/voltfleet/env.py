"""Voltage-regulation MDP around the feeder model.

Observations are the bus voltage magnitudes of the *uncontrolled* solve
at the current loading, so the agent sees the problem before acting.
Actions are normalized hub setpoints in [-1, 1]^(2H): (p, q) per hub,
scaled by the hub ratings. The step applies the action at the observed
loading, scores the controlled solve, then advances the loading and
returns the next uncontrolled observation. In eval mode the loading
follows the profile, so an observation can come from a non-converged
solve; `info["obs_converged"]` flags the one each action was taken on.

Hub quantities travel as arrays in `hubs` order, from the action through
the fleet to the solve: one fleet per hub, (H, 2) kW/kvar setpoints and
(H,) rho (`info["rho"]`), with the bus indices (`hub_index`) and ratings
built once per env. Only the step's `info["delivered"]` maps bus ids to
the delivered (P, Q), for the records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .fleet import FleetState, allocate
from .grid import Feeder, Hub, solve_power_flow
from .scenario import Scenario

V_LOW_PU = 0.95
V_HIGH_PU = 1.05
IN_BAND_BONUS = 10.0
VIOLATION_SCALE = 100.0

_MAX_RESAMPLES = 1000


def reward_from_voltages(v_pu: np.ndarray) -> float:
    """Flat bonus when every bus is in band, else the summed band distance."""
    v = np.asarray(v_pu, dtype=float)
    under = np.clip(V_LOW_PU - v, 0.0, None)
    over = np.clip(v - V_HIGH_PU, 0.0, None)
    total = under.sum() + over.sum()
    if total == 0.0:
        return IN_BAND_BONUS
    return float(-VIOLATION_SCALE * total)


def action_to_setpoints(
    action: np.ndarray, ratings: np.ndarray, active: bool = True
) -> np.ndarray:
    """Normalized action -> (H, 2) hub (P_kw, Q_kvar), zeroed when inactive.

    `ratings` holds each hub's (p_max_kw, q_max_kvar); an action clipped
    to [-1, 1] stays within them.
    """
    if not active:
        return np.zeros_like(ratings)
    return np.reshape(action, ratings.shape) * ratings


@dataclass(frozen=True)
class EnvConfig:
    feeder: Feeder
    hub_buses: tuple[str, ...]
    phase: int = 1
    mode: str = "train"  # train: random loading; eval: 24 h daily profile
    episode_len: int = 100
    lambda_range: tuple[float, float] = (0.1, 4.0)
    profile: tuple[float, ...] | None = None
    v2g_window: tuple[int, int] = (6, 23)
    nonconvergence_penalty: float = -1000.0

    def __post_init__(self):
        if self.mode not in ("train", "eval"):
            raise ValueError("mode must be train or eval")
        if self.phase not in (1, 2):
            raise ValueError("phase must be 1 or 2")
        if self.mode == "eval" and (self.profile is None or len(self.profile) != 24):
            raise ValueError("eval mode needs a 24-hour profile")
        hub_map = {h.bus for h in self.feeder.hubs}
        missing = [b for b in self.hub_buses if b not in hub_map]
        if missing:
            raise ValueError(f"hub buses not on feeder: {missing}")
        if not self.hub_buses:
            raise ValueError("need at least one active hub")


def config_from_scenario(
    scenario: Scenario, mode: str = "train", phase: int = 1
) -> EnvConfig:
    return EnvConfig(
        feeder=scenario.feeder,
        hub_buses=scenario.hub_buses,
        phase=phase,
        mode=mode,
        episode_len=scenario.episode_len,
        lambda_range=(scenario.lambda_min, scenario.lambda_max),
        profile=scenario.profile,
        v2g_window=scenario.v2g_window,
        nonconvergence_penalty=scenario.nonconvergence_penalty,
    )


@dataclass(frozen=True)
class StepResult:
    observation: np.ndarray
    reward: float
    done: bool
    info: dict = field(default_factory=dict)


class V2GEnv:
    """Episodic environment; see module docstring for the step contract."""

    def __init__(
        self,
        config: EnvConfig,
        fleets: Sequence[FleetState] | None = None,
        seed: int | None = None,
    ):
        self.config = config
        by_bus = {h.bus: h for h in config.feeder.hubs}
        self.hubs: tuple[Hub, ...] = tuple(by_bus[b] for b in config.hub_buses)
        # per-hub arrays, in hub order: bus index and (p_max_kw, q_max_kvar)
        self.hub_index = np.array([config.feeder.bus_index(b) for b in config.hub_buses])
        self.ratings = np.array([(h.p_max_kw, h.q_max_kvar) for h in self.hubs])
        # one fleet per hub, in hub order
        self.fleets: tuple[FleetState, ...] = tuple(fleets or ())
        if config.phase == 2 and len(self.fleets) != len(self.hubs):
            raise ValueError(
                f"phase 2 needs one fleet per hub: {len(self.hubs)} hubs, "
                f"{len(self.fleets)} fleets"
            )
        self._rng = np.random.default_rng(seed)
        # diagnostics, cumulative over the env lifetime
        self.clamp_events = 0
        self.degenerate_resets = 0
        self.nonconverged_steps = 0
        self._sol = None
        self._done = True

    @property
    def observation_size(self) -> int:
        return len(self.config.feeder.buses)

    @property
    def action_size(self) -> int:
        return 2 * len(self.hubs)

    def _require_reset(self) -> None:
        if self._sol is None:
            raise RuntimeError("environment not started; call reset() first")

    @property
    def current_lambda(self) -> float:
        self._require_reset()
        return self._lam

    @property
    def current_hour(self) -> int:
        self._require_reset()
        return self._hour

    @property
    def current_solution(self):
        """Uncontrolled solve at the loading the last observation came from."""
        self._require_reset()
        return self._sol

    def _solve(self, hub_pq=None):
        return solve_power_flow(self.config.feeder, self._lam, self.hub_index, hub_pq)

    def _draw_lambda(self) -> None:
        lo, hi = self.config.lambda_range
        for _ in range(_MAX_RESAMPLES):
            self._lam = float(self._rng.uniform(lo, hi))
            self._sol = self._solve()
            if self._sol.converged:
                return
            self.degenerate_resets += 1
        raise RuntimeError("could not draw a convergent loading level")

    def reset(self, seed: int | None = None) -> np.ndarray:
        if seed is not None:
            self._rng = np.random.default_rng(seed)
        self._t = 0
        self._hour = 0
        self._done = False
        if self.config.mode == "eval":
            self._lam = self.config.profile[0]
            self._sol = self._solve()
        else:
            self._draw_lambda()
        return self._sol.v_pu.copy()

    def _window_open(self) -> bool:
        if self.config.mode == "train":
            return True
        lo, hi = self.config.v2g_window
        return lo <= self._hour < hi

    def step(self, action) -> StepResult:
        if self._done:
            raise RuntimeError("episode finished; call reset()")
        a = np.asarray(action, dtype=float).reshape(-1)
        if a.shape != (self.action_size,):
            raise ValueError(f"action must have {self.action_size} components")
        if not np.all(np.isfinite(a)):
            raise ValueError("action components must be finite")
        n_clamped = int(np.sum((a < -1.0) | (a > 1.0)))
        self.clamp_events += n_clamped
        a = np.clip(a, -1.0, 1.0)

        active = self._window_open()
        delivered = action_to_setpoints(a, self.ratings, active)
        rho = np.ones(len(self.hubs))
        if self.config.phase == 2:
            for i, (fleet, (p, q)) in enumerate(zip(self.fleets, delivered.tolist())):
                res = allocate(p, q, fleet, self._hour)
                delivered[i] = res.p_sup_kw, res.q_sup_kvar
                rho[i] = res.rho

        sol = self._solve(delivered)
        if sol.converged:
            r = reward_from_voltages(sol.v_pu)
        else:
            r = self.config.nonconvergence_penalty
            self.nonconverged_steps += 1

        info = {
            "lambda": self._lam,
            "hour": self._hour,
            "converged": sol.converged,
            "obs_converged": self._sol.converged,
            "delivered": dict(zip(self.config.hub_buses, map(tuple, delivered.tolist()))),
            "rho": rho,
            "clamped": n_clamped,
            "solution": sol,
        }

        # advance to the next decision point
        self._t += 1
        if self.config.mode == "eval":
            self._hour += 1
            if self._hour >= 24:
                self._done = True
            else:
                self._lam = self.config.profile[self._hour]
                self._sol = self._solve()
        else:
            self._hour = self._t % 24
            if self._t >= self.config.episode_len:
                self._done = True
            else:
                self._draw_lambda()

        return StepResult(self._sol.v_pu.copy(), r, self._done, info)
