"""Run a scenario day under a chosen controller and collect hourly records.

Fixed-point droop is solved once per day, before the first step, for the
hours of the V2G window only: outside it the env delivers nothing, so
those hours take the zero action. The window's hours are iterated
together (`fixed_point_setpoints`), each with the same damped map and
exits as alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..droop import droop_control, fixed_point_setpoints
from ..env import EnvConfig, V2GEnv
from ..fleet import available_count
from ..grid import solve_power_flow
from ..scenario import Scenario, build_fleets
from .metrics import DayMetrics, compute_metrics

CONTROLLERS = ("none", "droop", "rl")


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
    """Normalized action realizing the droop response to the observed voltages."""
    setpoints = droop_control(env.current_solution, env.hub_index, env.ratings, scenario.droop)
    return (setpoints / env.ratings).reshape(-1)


def _fixed_point_actions(env: V2GEnv, scenario: Scenario) -> dict[int, np.ndarray]:
    """Normalized fixed-point droop action for each hour of the V2G window.

    The hours are independent (the fleet never enters the iteration), so
    they are iterated together. Each starts from the observed solve at
    its loading: the same solution the env observes in that hour.
    """
    feeder = scenario.feeder
    hours = range(*scenario.v2g_window)
    lams = [scenario.profile[h] for h in hours]
    observed = [solve_power_flow(feeder, lam) for lam in lams]
    setpoints = fixed_point_setpoints(feeder, lams, observed, env.hub_index, env.ratings,
                                      scenario.droop)
    return {h: (s / env.ratings).reshape(-1) for h, s in zip(hours, setpoints)}


def _fleet_snapshot(env: V2GEnv, hour: int) -> tuple[float | None, int]:
    """Mean SOC and available EVs over all hubs before the hour's step; reads only."""
    if not env.fleets:
        return None, 0
    socs, count = [], 0
    for fleet in env.fleets:
        if fleet.soc.size:
            # np.mean's own arithmetic, without its dispatch
            socs.append(float(np.add.reduce(fleet.soc) / fleet.soc.size) * fleet.soc.size)
        count += available_count(fleet, hour)
    total_evs = sum(f.soc.size for f in env.fleets)
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
    the records comes from control, not initialization. An rl agent must
    take one voltage per bus and give a (P, Q) pair per hub; any other
    size is a ValueError before the day starts.
    """
    if controller not in CONTROLLERS:
        raise ValueError(f"controller must be one of {CONTROLLERS}")
    if controller == "rl":
        if agent is None:
            raise ValueError("controller 'rl' needs an agent")
        n_bus, n_act = len(scenario.feeder.buses), 2 * len(scenario.hub_buses)
        if (agent.obs_dim, agent.act_dim) != (n_bus, n_act):
            raise ValueError(
                f"policy takes {agent.obs_dim} bus voltages and gives {agent.act_dim} "
                f"actions; scenario {scenario.name} has {n_bus} buses and needs "
                f"{n_act} actions (2 per hub)"
            )
    run_seed = scenario.seed if seed is None else seed

    fleets = None
    if ev_constrained:
        fleet_seq = np.random.SeedSequence(entropy=run_seed, spawn_key=(1,))
        fleets = build_fleets(scenario, fleet_seq)

    cfg = EnvConfig(scenario, mode="eval", phase=2 if ev_constrained else 1)
    env = V2GEnv(cfg, fleets=fleets, seed=run_seed)

    act: Callable[[np.ndarray], np.ndarray]
    if controller == "none":
        act = lambda obs: np.zeros(env.action_size)
    elif controller == "rl":
        act = lambda obs: agent.act(obs, deterministic=True)
    elif scenario.droop.fixed_point:
        # outside the window the env delivers nothing, whatever the action
        actions = _fixed_point_actions(env, scenario)
        closed = np.zeros(env.action_size)
        act = lambda obs: actions.get(env.current_hour, closed)
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
        v_mean = v_min = v_max = float("nan")
        if info["converged"]:
            # the reductions np.mean, min and max run, without their dispatch
            v = info["solution"].v_pu
            v_mean = float(np.add.reduce(v) / v.size)
            v_min, v_max = float(np.minimum.reduce(v)), float(np.maximum.reduce(v))
        records.append(
            HourRecord(
                hour=hour,
                lam=info["lambda"],
                converged=info["converged"],
                obs_converged=info["obs_converged"],
                v_mean=v_mean,
                v_min=v_min,
                v_max=v_max,
                reward=res.reward,
                hub_p_kw={b: pq[0] for b, pq in info["delivered"].items()},
                hub_q_kvar={b: pq[1] for b, pq in info["delivered"].items()},
                hub_rho=dict(zip(scenario.hub_buses, info["rho"].tolist())),
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
