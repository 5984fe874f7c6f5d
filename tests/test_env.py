import dataclasses

import numpy as np
import pytest

from voltfleet.env import (
    EnvConfig,
    StepResult,
    V2GEnv,
    action_to_setpoints,
    config_from_scenario,
    reward_from_voltages,
)
from voltfleet.fleet import FleetState
from voltfleet.grid import load_feeder_file, solve_power_flow
from voltfleet.resources import feeder_path
from voltfleet.scenario import Scenario, build_fleets, load_scenario


@pytest.fixture(scope="module")
def two_bus():
    return load_feeder_file(feeder_path("two_bus"))


@pytest.fixture(scope="module")
def five_bus():
    return load_feeder_file(feeder_path("five_bus_train"))


def small_scenario(feeder, lam=1.0, **kw):
    """Every hub of the feeder under a flat profile at `lam`; `kw` sets other fields."""
    return Scenario(name="small", feeder_name="small", feeder=feeder, profile_name="flat",
                    profile=(lam,) * 24, hub_buses=tuple(h.bus for h in feeder.hubs), **kw)


def eval_config(feeder, lam=1.0, phase=1, **kw):
    return EnvConfig(small_scenario(feeder, lam, **kw), mode="eval", phase=phase)


def train_config(feeder, lam_range=(0.1, 4.0), phase=1, **kw):
    lo, hi = lam_range
    scenario = small_scenario(feeder, lambda_min=lo, lambda_max=hi, **kw)
    return EnvConfig(scenario, mode="train", phase=phase)


# reward shape: 10.0 in band, else -100 per pu-sum of band distance
def test_reward_all_in_band():
    assert reward_from_voltages(np.array([1.0, 0.95, 1.05])) == 10.0


def test_reward_single_low_bus():
    assert reward_from_voltages(np.array([1.0, 0.93])) == pytest.approx(-2.0, abs=1e-9)


def test_reward_single_high_bus():
    assert reward_from_voltages(np.array([1.07, 1.0])) == pytest.approx(-2.0, abs=1e-9)


def test_reward_sums_both_sides():
    v = np.array([0.93, 1.0, 1.07])
    assert reward_from_voltages(v) == pytest.approx(-4.0, abs=1e-9)


def test_action_scaling_by_hub_rating(two_bus):
    env = V2GEnv(eval_config(two_bus))
    assert env.hub_index.tolist() == [two_bus.bus_index("2")]
    assert env.ratings.tolist() == [[500.0, 400.0]]
    sp = action_to_setpoints(np.array([-0.5, 0.25]), env.ratings)
    assert sp.tolist()[0] == pytest.approx([-250.0, 100.0], abs=1e-12)
    off = action_to_setpoints(np.array([1.0, 1.0]), env.ratings, active=False)
    assert off.tolist() == [[0.0, 0.0]]


def test_clipped_actions_stay_within_ratings(five_bus):
    env = V2GEnv(train_config(five_bus), seed=0)
    env.reset()
    rng = np.random.default_rng(4)
    for _ in range(20):
        res = env.step(rng.uniform(-3.0, 3.0, env.action_size))
        delivered = np.array(list(res.info["delivered"].values()))
        assert np.all(np.abs(delivered) <= env.ratings)
    res = env.step(np.tile([5.0, -5.0], len(env.hubs)))
    assert np.array_equal(np.array(list(res.info["delivered"].values())),
                          env.ratings * [1.0, -1.0])


def test_config_validation(two_bus):
    scenario = small_scenario(two_bus)
    assert [f.name for f in dataclasses.fields(EnvConfig)] == ["scenario", "mode", "phase"]
    assert config_from_scenario is EnvConfig
    with pytest.raises(ValueError, match="mode"):
        EnvConfig(scenario, mode="test")
    with pytest.raises(ValueError, match="phase"):
        EnvConfig(scenario, phase=3)


SCENARIO_BREAKS = [
    (dict(nonconvergence_penalty=float("nan")), "nonconvergence_penalty"),
    (dict(nonconvergence_penalty=-float("inf")), "nonconvergence_penalty"),
    (dict(episode_len=0), "episode_len"),
    (dict(v2g_window=(23, 6)), "v2g_window"),
    (dict(v2g_window=(6, 25)), "v2g_window"),
    (dict(v2g_window=(6,)), "v2g_window"),
    (dict(lambda_min=2.0, lambda_max=1.0), "lambda_max"),
    (dict(lambda_min=1.0, lambda_max=1.0), "lambda_max"),
    (dict(lambda_min=float("nan")), "lambda_min"),
    (dict(lambda_max=float("inf")), "lambda_max"),
    (dict(lambda_min=-0.1), "lambda_min"),
    # a hand-built scenario is held to the rules a scenario file is
    (dict(hub_buses=("4",)), r"hubs not on feeder: \['4'\]"),
    (dict(hub_buses=("5", "99")), r"hubs not on feeder: \['99'\]"),
    (dict(hub_buses=()), "needs at least one V2G hub"),
    (dict(profile=(1.0,) * 23), "profile needs 24 hourly multipliers, got 23"),
]


@pytest.mark.parametrize("changes, match", [
    # a profile is named by its length
    pytest.param(changes, match, id=",".join(
        f"{k}={len(v) if k == 'profile' else v}" for k, v in changes.items()))
    for changes, match in SCENARIO_BREAKS
])
def test_config_rejects_values_that_break_a_run(changes, match):
    scenario = load_scenario("five_bus_train")
    with pytest.raises(ValueError, match=match):
        dataclasses.replace(scenario, **changes)


def test_config_rejects_a_repeated_hub_bus():
    scenario = load_scenario("multi_hub_mild")
    with pytest.raises(ValueError, match=r"more than once: \['844'\]"):
        dataclasses.replace(scenario, hub_buses=("890", "844", "844"))


def test_phase2_requires_fleets(two_bus):
    with pytest.raises(ValueError, match="fleet"):
        V2GEnv(eval_config(two_bus, phase=2))


@pytest.mark.parametrize("n_fleets", [4, 6])
def test_phase2_needs_one_fleet_per_hub(n_fleets):
    sc = load_scenario("multi_hub_mild")
    fleets = build_fleets(sc, 0)
    assert len(fleets) == 5
    cfg = config_from_scenario(sc, mode="eval", phase=2)
    wrong = (fleets * 2)[:n_fleets]
    with pytest.raises(ValueError, match=f"5 hubs, {n_fleets} fleets"):
        V2GEnv(cfg, fleets=wrong)


@pytest.mark.parametrize("name", ["current_lambda", "current_hour", "current_solution"])
def test_state_before_reset_is_an_error(two_bus, name):
    env = V2GEnv(eval_config(two_bus))
    with pytest.raises(RuntimeError, match=r"reset\(\) first"):
        getattr(env, name)
    env.reset()
    getattr(env, name)


def test_reset_returns_uncontrolled_voltages(two_bus):
    env = V2GEnv(eval_config(two_bus, lam=1.3))
    obs = env.reset()
    direct = solve_power_flow(two_bus, 1.3)
    assert np.array_equal(obs, direct.v_pu)
    assert env.current_solution.converged
    assert env.current_lambda == 1.3


def test_zero_action_scores_uncontrolled_grid(two_bus):
    env = V2GEnv(eval_config(two_bus, lam=1.0))
    obs = env.reset()
    res = env.step(np.zeros(2))
    assert isinstance(res, StepResult)
    assert res.reward == pytest.approx(reward_from_voltages(obs), abs=1e-12)
    assert res.info["delivered"]["2"] == (0.0, 0.0)


def test_injection_raises_reward_on_sagging_feeder(two_bus):
    env = V2GEnv(eval_config(two_bus, lam=1.0, v2g_window=(0, 24)))
    env.reset()
    passive = env.step(np.zeros(2)).reward
    env.reset()
    active = env.step(np.array([0.5, 0.25])).reward
    assert active > passive


def test_window_closed_forces_zero_delivery(two_bus):
    env = V2GEnv(eval_config(two_bus, lam=1.0))
    obs = env.reset()
    res = env.step(np.array([1.0, 1.0]))  # hour 0, outside [6, 23)
    assert res.info["delivered"]["2"] == (0.0, 0.0)
    assert res.reward == pytest.approx(reward_from_voltages(obs), abs=1e-12)


def test_window_open_passes_action_through(two_bus):
    env = V2GEnv(eval_config(two_bus, lam=1.0))
    env.reset()
    for _ in range(6):
        env.step(np.zeros(2))
    res = env.step(np.array([1.0, 0.5]))  # hour 6, inside the window
    assert res.info["hour"] == 6
    assert res.info["delivered"]["2"] == pytest.approx((500.0, 200.0))


def test_out_of_range_action_clamped_and_counted(two_bus):
    env = V2GEnv(eval_config(two_bus, lam=1.0, v2g_window=(0, 24)))
    env.reset()
    r_clamped = env.step(np.array([2.0, -3.0])).reward
    assert env.clamp_events == 2
    env.reset()
    r_exact = env.step(np.array([1.0, -1.0])).reward
    assert r_clamped == r_exact
    with pytest.raises(ValueError, match="finite"):
        env.step(np.array([np.nan, 0.0]))
    with pytest.raises(ValueError, match="components"):
        env.step(np.zeros(3))


def test_controlled_collapse_pays_penalty(two_bus):
    env = V2GEnv(eval_config(two_bus, lam=1.0))
    env.reset()
    for _ in range(6):
        env.step(np.zeros(2))
    res = env.step(np.array([-1.0, -1.0]))  # 500 kW + 400 kvar extra draw
    assert res.info["converged"] is False
    assert res.reward == -1000.0
    assert env.nonconverged_steps == 1


def test_obs_converged_flags_the_observed_solve(two_bus):
    # two_bus stops converging near lam 3.6; full injection rescues the grid
    env = V2GEnv(eval_config(two_bus, lam=4.0, v2g_window=(0, 24)))
    env.reset()
    assert not env.current_solution.converged
    res = env.step(np.ones(2))
    assert res.info["obs_converged"] is False and res.info["converged"] is True
    # and a full draw collapses a converged observation
    env = V2GEnv(eval_config(two_bus, lam=1.0, v2g_window=(0, 24)))
    env.reset()
    res = env.step(-np.ones(2))
    assert res.info["obs_converged"] is True and res.info["converged"] is False


def test_eval_episode_runs_24_hours(two_bus):
    env = V2GEnv(eval_config(two_bus, lam=0.5))
    env.reset()
    hours = []
    done = False
    while not done:
        res = env.step(np.zeros(2))
        hours.append(res.info["hour"])
        done = res.done
    assert hours == list(range(24))
    with pytest.raises(RuntimeError, match="reset"):
        env.step(np.zeros(2))


def test_train_episode_length(five_bus):
    cfg = train_config(five_bus, episode_len=7)
    env = V2GEnv(cfg, seed=1)
    env.reset()
    flags = [env.step(np.zeros(2)).done for _ in range(7)]
    assert flags == [False] * 6 + [True]


def test_train_resampling_skips_collapsed_loadings(two_bus):
    # two_bus stops converging near lam 3.6; draws above that are discarded
    env = V2GEnv(train_config(two_bus, episode_len=200), seed=123)
    obs = env.reset()
    assert np.all(np.isfinite(obs))
    done = False
    while not done:
        res = env.step(np.zeros(2))
        assert np.all(np.isfinite(res.observation))
        done = res.done
    assert env.degenerate_resets > 0
    assert env.nonconverged_steps == 0


def test_train_determinism_per_seed(five_bus):
    def rollout(seed):
        env = V2GEnv(train_config(five_bus), seed=seed)
        obs = [env.reset()]
        lams = [env.current_lambda]
        for _ in range(10):
            res = env.step(np.full(2, 0.3))
            obs.append(res.observation)
            lams.append(res.info["lambda"])
        return np.array(obs), lams

    o1, l1 = rollout(42)
    o2, l2 = rollout(42)
    o3, l3 = rollout(43)
    assert np.array_equal(o1, o2) and l1 == l2
    assert l1 != l3


def test_phase2_matches_phase1_with_ample_fleet():
    sc = load_scenario("five_bus_train")
    sc = dataclasses.replace(
        sc,
        fleet=dataclasses.replace(
            sc.fleet, capacity_kwh=2000.0, c_rate=1.0, soc_init=(0.5, 0.5)
        ),
    )
    fleets = build_fleets(sc, 9)

    def run(phase, fleets=None):
        cfg = config_from_scenario(sc, mode="eval", phase=phase)
        env = V2GEnv(cfg, fleets=fleets)
        obs = env.reset()
        rewards = []
        done = False
        while not done:
            v_hub = obs[-1]  # hub bus is listed last on this feeder
            a = float(np.clip((1.0 - v_hub) * 20.0, -1.0, 1.0))
            res = env.step(np.array([a, a / 2]))
            rewards.append(res.reward)
            obs = res.observation
            done = res.done
        return rewards

    r1 = run(1)
    r2 = run(2, build_fleets(sc, 9))
    assert r1 == r2  # rho stays 1, delivered power is bitwise the setpoint
    del fleets


def test_phase2_scales_delivery_when_fleet_is_small(five_bus):
    tiny = FleetState(
        soc=[0.5], soh=[1.0], capacity_kwh=20.0, c_rate=0.5, eta_inv=0.96
    )
    cfg = eval_config(five_bus, lam=1.0, phase=2, v2g_window=(0, 24))
    env = V2GEnv(cfg, fleets=[tiny])
    env.reset()
    res = env.step(np.array([1.0, 0.0]))  # asks for 500 kW from a 10 kW fleet
    rho = res.info["rho"][0]
    assert rho == pytest.approx(10.0 * 0.96 / 500.0, rel=1e-9)
    p, q = res.info["delivered"]["5"]
    assert p == pytest.approx(500.0 * rho, rel=1e-9)
    assert q == 0.0
