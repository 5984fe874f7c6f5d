"""Voltage-regulation MDP around the feeder model.

The env runs one `Scenario` as `EnvConfig(scenario, mode, phase)`. The
scenario holds the feeder, the hubs, the loading, the V2G window and
the non-convergence penalty, and checks their rules when it is built;
the config adds only the mode (train: a random loading in the
scenario's lambda range per step; eval: its 24-hour profile) and the
phase (2: each hub delivers through its fleet).

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
from .grid import Hub, solve_power_flow
from .scenario import Scenario

V_LOW_PU = 0.95
V_HIGH_PU = 1.05
IN_BAND_BONUS = 10.0
VIOLATION_SCALE = 100.0

_MAX_RESAMPLES = 1000


def reward_from_voltages(v_pu: np.ndarray) -> float:
    """Flat bonus when every bus is in band, else the summed band distance."""
    v = np.asarray(v_pu, dtype=float)
    under = np.maximum(V_LOW_PU - v, 0.0)
    over = np.maximum(v - V_HIGH_PU, 0.0)
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
    """A scenario run in one mode and phase; the scenario checks its own rules."""

    scenario: Scenario
    mode: str = "train"  # train: random loading; eval: 24 h daily profile
    phase: int = 1  # 1: setpoints delivered as asked; 2: through the hub fleets

    def __post_init__(self):
        if self.mode not in ("train", "eval"):
            raise ValueError("mode must be train or eval")
        if self.phase not in (1, 2):
            raise ValueError("phase must be 1 or 2")

    @property
    def v2g_window(self) -> tuple[int, int]:
        # read by perfbench/tracer.py:45, which counts the steps that deliver
        return self.scenario.v2g_window


# the older name, still called by perfbench/workloads.py and the acceptance tests
config_from_scenario = EnvConfig


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
        # bound once, so a step reaches a scenario field in one lookup
        self._scenario = sc = config.scenario
        by_bus = {h.bus: h for h in sc.feeder.hubs}
        self.hubs: tuple[Hub, ...] = tuple(by_bus[b] for b in sc.hub_buses)
        # per-hub arrays, in hub order: bus index and (p_max_kw, q_max_kvar)
        self.hub_index = np.array([sc.feeder.bus_index(b) for b in sc.hub_buses])
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
        return len(self._scenario.feeder.buses)

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
        return solve_power_flow(self._scenario.feeder, self._lam, self.hub_index, hub_pq)

    def _draw_lambda(self) -> None:
        sc = self._scenario
        lo, hi = sc.lambda_min, sc.lambda_max
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
            self._lam = self._scenario.profile[0]
            self._sol = self._solve()
        else:
            self._draw_lambda()
        return self._sol.v_pu.copy()

    def _window_open(self) -> bool:
        if self.config.mode == "train":
            return True
        lo, hi = self._scenario.v2g_window
        return lo <= self._hour < hi

    def step(self, action) -> StepResult:
        if self._done:
            raise RuntimeError("episode finished; call reset()")
        a = np.asarray(action, dtype=float).reshape(-1)
        if a.shape != (self.action_size,):
            raise ValueError(f"action must have {self.action_size} components")
        if not np.isfinite(a).all():
            raise ValueError("action components must be finite")
        n_clamped = int(np.count_nonzero((a < -1.0) | (a > 1.0)))
        self.clamp_events += n_clamped
        a = np.minimum(np.maximum(a, -1.0), 1.0)  # np.clip's values, without its dispatch

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
            r = self._scenario.nonconvergence_penalty
            self.nonconverged_steps += 1

        info = {
            "lambda": self._lam,
            "hour": self._hour,
            "converged": sol.converged,
            "obs_converged": self._sol.converged,
            "delivered": dict(zip(self._scenario.hub_buses, map(tuple, delivered.tolist()))),
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
                self._lam = self._scenario.profile[self._hour]
                self._sol = self._solve()
        else:
            self._hour = self._t % 24
            if self._t >= self._scenario.episode_len:
                self._done = True
            else:
                self._draw_lambda()

        return StepResult(self._sol.v_pu.copy(), r, self._done, info)
