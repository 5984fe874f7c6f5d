"""Run a scenario day under a chosen controller and collect hourly records."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..droop import droop_control
from ..env import V2GEnv, config_from_scenario
from ..fleet import DegradationParams, available_count
from ..grid import scale_loads, solve_power_flow
from ..scenario import Scenario, build_fleets
from .metrics import DayMetrics, compute_metrics

CONTROLLERS = ("none", "droop", "rl")

_FP_MAX_ITERS = 200
_FP_TOL_KW = 1e-2


@dataclass(frozen=True)
class HourRecord:
    hour: int
    lam: float
    converged: bool
    obs_converged: bool  # the solve behind the observation acted on; not in CSV or report
    v_mean: float
    v_min: float
    v_max: float
    reward: float
    hub_p_kw: dict[str, float]
    hub_q_kvar: dict[str, float]
    hub_rho: dict[str, float]
    soc_mean: float | None
    ev_count: int


@dataclass(frozen=True)
class RunResult:
    scenario: str
    feeder: str
    profile: str
    controller: str
    ev_constrained: bool
    seed: int
    hours: tuple[HourRecord, ...]
    metrics: DayMetrics
    total_reward: float

    @property
    def label(self) -> str:
        return self.controller + ("+ev" if self.ev_constrained else "")


def _droop_action(env: V2GEnv, scenario: Scenario) -> np.ndarray:
    """Normalized action realizing the droop response to the observed voltages.

    With fixed_point enabled the hub response is iterated against the grid
    until the voltages it was computed from stop moving, so the setpoint
    handed to the environment reproduces itself under the final solve.
    """
    curve = scenario.droop
    setpoints = droop_control(env.hubs, env.current_solution, curve)
    if curve.fixed_point:
        # damped iteration: the raw response map oscillates on stiff feeders
        feeder = env.config.feeder
        demands = scale_loads(feeder, env.current_lambda)
        for _ in range(_FP_MAX_ITERS):
            nxt = solve_power_flow(feeder, demands, hub_injections=setpoints)
            if not nxt.converged:
                break
            target = droop_control(env.hubs, nxt, curve)
            gap = max(
                max(abs(target[b][0] - setpoints[b][0]),
                    abs(target[b][1] - setpoints[b][1]))
                for b in setpoints
            )
            if gap < _FP_TOL_KW:
                setpoints = target
                break
            setpoints = {
                b: (
                    0.5 * setpoints[b][0] + 0.5 * target[b][0],
                    0.5 * setpoints[b][1] + 0.5 * target[b][1],
                )
                for b in setpoints
            }
    action = np.empty(2 * len(env.hubs))
    for i, hub in enumerate(env.hubs):
        p, q = setpoints[hub.bus]
        action[2 * i] = p / hub.p_max_kw
        action[2 * i + 1] = q / hub.q_max_kvar
    return action


def _fleet_snapshot(env: V2GEnv, hour: int) -> tuple[float | None, int]:
    """Mean SOC and available EVs over all hubs before the hour's step; reads only."""
    if not env.fleets:
        return None, 0
    socs, count = [], 0
    for fleet in env.fleets.values():
        if fleet.soc.size:
            socs.append(float(np.mean(fleet.soc)) * fleet.soc.size)
        count += available_count(fleet, hour)
    total_evs = sum(f.soc.size for f in env.fleets.values())
    return (sum(socs) / total_evs if total_evs else None), count


def evaluate(
    scenario: Scenario,
    controller: str = "none",
    agent=None,
    ev_constrained: bool = False,
    seed: int | None = None,
) -> RunResult:
    """One 24-hour day of the scenario profile under the given controller.

    The fleet draw (when ev_constrained) is seeded from the run seed alone,
    so different controllers face identical fleets and any difference in
    the records comes from control, not initialization.
    """
    if controller not in CONTROLLERS:
        raise ValueError(f"controller must be one of {CONTROLLERS}")
    if controller == "rl" and agent is None:
        raise ValueError("controller 'rl' needs an agent")
    run_seed = scenario.seed if seed is None else seed

    fleets = None
    phase = 1
    if ev_constrained:
        phase = 2
        fleet_seq = np.random.SeedSequence(entropy=run_seed, spawn_key=(1,))
        fleets = build_fleets(scenario, fleet_seq)

    cfg = config_from_scenario(scenario, mode="eval", phase=phase)
    deg = DegradationParams(
        cycle_coeff=scenario.fleet.cycle_coeff,
        calendar_coeff=scenario.fleet.calendar_coeff,
    )
    env = V2GEnv(cfg, fleets=fleets, degradation=deg, seed=run_seed)

    act: Callable[[np.ndarray], np.ndarray]
    if controller == "none":
        act = lambda obs: np.zeros(env.action_size)
    elif controller == "rl":
        act = lambda obs: agent.act(obs, deterministic=True)
    else:
        act = lambda obs: _droop_action(env, scenario)

    records: list[HourRecord] = []
    total = 0.0
    obs = env.reset()
    done = False
    while not done:
        hour = env.current_hour
        soc, n_ev = _fleet_snapshot(env, hour)
        res = env.step(act(obs))
        info = res.info
        sol = info["solution"]
        records.append(
            HourRecord(
                hour=hour,
                lam=info["lambda"],
                converged=info["converged"],
                obs_converged=info["obs_converged"],
                v_mean=float(sol.v_pu.mean()) if info["converged"] else float("nan"),
                v_min=float(sol.v_pu.min()) if info["converged"] else float("nan"),
                v_max=float(sol.v_pu.max()) if info["converged"] else float("nan"),
                reward=res.reward,
                hub_p_kw={b: pq[0] for b, pq in info["delivered"].items()},
                hub_q_kvar={b: pq[1] for b, pq in info["delivered"].items()},
                hub_rho=dict(info["rho"]),
                soc_mean=soc,
                ev_count=n_ev,
            )
        )
        total += res.reward
        obs = res.observation
        done = res.done

    return RunResult(
        scenario=scenario.name,
        feeder=scenario.feeder_name,
        profile=scenario.profile_name,
        controller=controller,
        ev_constrained=ev_constrained,
        seed=run_seed,
        hours=tuple(records),
        metrics=compute_metrics(records),
        total_reward=total,
    )
