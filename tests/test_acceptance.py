"""End-to-end acceptance checks, one test per shipped guarantee.

The two slow tests (criteria 5 and 6) train policies from scratch; the
whole module runs in well under half an hour on a laptop-class CPU.
"""

import dataclasses
import time

import numpy as np
import pytest

from nr_oracle import solve_newton
from sweep_reference import scale_loads
from test_autodiff import fd_check
from test_power_flow import random_radial_feeder, two_bus, two_bus_closed_form

from voltfleet.droop import DroopCurve, droop_output
from voltfleet.env import (
    V2GEnv,
    action_to_setpoints,
    config_from_scenario,
    reward_from_voltages,
)
from voltfleet.fleet import FleetSpec, FleetState, allocate
from voltfleet.grid import solve_power_flow
from voltfleet.harness import build_report, evaluate
from voltfleet.harness.cli import main
from voltfleet.sac import SacAgent, SacConfig, Tensor, minimum
from voltfleet.sac.nets import GaussianPolicy, QNetwork
from voltfleet.sac.train import episode_return, train
from voltfleet.scenario import load_scenario


def test_criterion_1_power_flow_matches_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(20240817)
    for _ in range(200):
        n = int(rng.integers(3, 11))
        feeder = random_radial_feeder(rng, n)
        sweep = solve_power_flow(feeder, 1.0)
        vm, ok = solve_newton(feeder, scale_loads(feeder, 1.0))
        assert sweep.converged and ok
        assert np.max(np.abs(sweep.v_pu - vm)) < 1e-6

    r, x, p_kw, q_kvar = 0.02, 0.04, 300.0, 100.0
    feeder = two_bus(r, x, p_kw, q_kvar)
    sol = solve_power_flow(feeder, 1.0)
    analytic = two_bus_closed_form(r, x, p_kw / 1000.0, q_kvar / 1000.0)
    assert abs(sol.voltage_at("2") - analytic) < 1e-6
    assert time.perf_counter() - start < 10.0


def test_criterion_2_exact_arithmetic_examples():
    start = time.perf_counter()
    tol = 1e-9

    # reward shape
    assert reward_from_voltages(np.array([1.0, 1.0, 1.0])) == 10.0
    assert abs(reward_from_voltages(np.array([0.93, 1.0, 1.0])) - (-2.0)) < tol
    assert abs(reward_from_voltages(np.array([0.94, 1.06])) - (-2.0)) < tol

    # fleet allocation, 3-4-5 request through a 0.96 inverter
    ample = FleetState(
        soc=[0.5] * 20, soh=[1.0] * 20, spec=FleetSpec(capacity_kwh=75.0, eta_inv=0.96)
    )
    res = allocate(300.0, 400.0, ample, hour=12)
    assert abs(res.rho - 1.0) < tol
    assert abs(res.p_sup_kw - 300.0) < tol
    assert abs(res.q_sup_kvar - 400.0) < tol
    assert abs(res.p_fleet_kw - 500.0 / 0.96) < tol

    # exactly half the needed capability -> rho 0.5, delivered scaled
    half = FleetState(
        soc=[0.5], soh=[1.0], spec=FleetSpec(capacity_kwh=3125.0 / 6.0, eta_inv=0.96)
    )
    res = allocate(300.0, 400.0, half, hour=12)
    assert abs(res.rho - 0.5) < tol
    assert abs(res.p_sup_kw - 150.0) < tol
    assert abs(res.q_sup_kvar - 200.0) < tol

    # droop pointwise outputs
    curve = DroopCurve()
    for v, out in [(1.0, 0.0), (0.90, 1.0), (1.10, -1.0), (0.94, 0.5), (1.06, -0.5)]:
        assert abs(droop_output(curve, v) - out) < tol

    # normalized action -> kW/kVAr on a 500/400 hub
    ratings = np.array([[500.0, 400.0]])  # one hub: (p_max_kw, q_max_kvar)
    assert action_to_setpoints(np.array([1.0, 1.0]), ratings)[0].tolist() == [500.0, 400.0]
    sp = action_to_setpoints(np.array([-0.5, 0.25]), ratings)[0]
    assert abs(sp[0] - (-250.0)) < tol and abs(sp[1] - 100.0) < tol
    assert time.perf_counter() - start < 1.0


def test_criterion_3_gradient_checks():
    start = time.perf_counter()
    for init in range(5):
        rng = np.random.default_rng(9000 + init)
        pol = GaussianPolicy(3, 2, rng)
        q1 = QNetwork(3, 2, rng)
        q2 = QNetwork(3, 2, rng)
        obs = Tensor(rng.standard_normal((8, 3)))
        act = Tensor(rng.uniform(-1, 1, (8, 2)))
        y = rng.standard_normal((8, 1))
        eps = rng.standard_normal((8, 2))

        fd_check(
            lambda: (q1.forward(obs, act) - y).square().mean()
            + (q2.forward(obs, act) - y).square().mean(),
            q1.params() + q2.params(),
            rng,
            n_coords=20,
        )

        def actor_loss():
            a, logp = pol.sample(obs, eps)
            return (logp * 0.2 - minimum(q1.forward(obs, a), q2.forward(obs, a))).mean()

        fd_check(actor_loss, pol.params(), rng, n_coords=20)

        log_alpha = Tensor(np.log(0.2), requires_grad=True)
        gap = rng.standard_normal((8, 1))
        alpha_loss = lambda: ((log_alpha * -1.0) * Tensor(gap)).mean()
        alpha_loss().backward()
        g_ad = float(log_alpha.grad)
        h = 1e-5
        log_alpha.data = log_alpha.data + h
        up = float(alpha_loss().data)
        log_alpha.data = log_alpha.data - 2 * h
        down = float(alpha_loss().data)
        g_fd = (up - down) / (2 * h)
        assert abs(g_fd - g_ad) / max(abs(g_fd) + abs(g_ad), 1e-3) < 1e-4
    assert time.perf_counter() - start < 30.0


def _ample_fleet_scenario():
    sc = load_scenario("five_bus_train")
    return dataclasses.replace(
        sc,
        fleet=dataclasses.replace(
            sc.fleet, capacity_kwh=2000.0, c_rate=1.0, soc_init=(0.5, 0.5)
        ),
    )


def test_criterion_4_phase_consistency_both_controllers():
    sc = _ample_fleet_scenario()
    agent = SacAgent(len(sc.feeder.buses), 2 * len(sc.hub_buses), seed=0)
    for controller in ("droop", "rl"):
        kw = {"agent": agent} if controller == "rl" else {}
        p1 = evaluate(sc, controller, **kw)
        p2 = evaluate(sc, controller, ev_constrained=True, **kw)
        for h1, h2 in zip(p1.hours, p2.hours):
            assert abs(h1.reward - h2.reward) <= 1e-9, (controller, h1.hour)
        assert all(r.hub_rho["5"] == 1.0 for r in p2.hours)


@pytest.mark.slow
def test_criterion_5_learning_beats_baselines():
    sc = load_scenario("five_bus_train")
    seed = sc.seed

    eval_env = V2GEnv(config_from_scenario(sc, mode="eval"))
    rng = np.random.default_rng(seed)
    random_mean = float(
        np.mean([episode_return(eval_env, None, rng=rng) for _ in range(5)])
    )
    uncontrolled = evaluate(sc, "none")

    train_env = V2GEnv(config_from_scenario(sc, mode="train"), seed=seed)
    agent = SacAgent(
        train_env.observation_size, train_env.action_size, seed=seed,
        config=SacConfig(),
    )
    train(train_env, agent, total_steps=20000, warmup=1000, seed=seed)

    det_return = episode_return(eval_env, agent, deterministic=True)
    trained = evaluate(sc, "rl", agent=agent)

    assert det_return > random_mean
    assert trained.metrics.violation_hours <= 0.5 * uncontrolled.metrics.violation_hours
    assert uncontrolled.metrics.violation_hours > 0  # the bar is real


def _train_on(scenario_name: str, steps: int) -> SacAgent:
    sc = load_scenario(scenario_name)
    env = V2GEnv(config_from_scenario(sc, mode="train"), seed=sc.seed)
    agent = SacAgent(
        env.observation_size, env.action_size, seed=sc.seed, config=SacConfig()
    )
    train(env, agent, total_steps=steps, warmup=1000, seed=sc.seed)
    return agent


@pytest.mark.slow
def test_criterion_6_directional_trends_34_bus():
    # (a) coordinated control clears the mild day
    multi = load_scenario("multi_hub_mild")
    multi_agent = _train_on("multi_hub_mild", steps=6000)
    droop_multi = evaluate(multi, "droop")
    rl_multi = evaluate(multi, "rl", agent=multi_agent)
    assert droop_multi.metrics.violation_hours <= 1
    assert rl_multi.metrics.violation_hours <= 1

    # (b) the finite fleet, not the controller, limits single-hub relief
    mild = load_scenario("single_hub_mild")
    single_agent = _train_on("single_hub_mild", steps=4000)
    base_mild = evaluate(mild, "none")
    assert base_mild.metrics.violation_hours == 13
    for controller in ("rl", "droop"):
        kw = {"agent": single_agent} if controller == "rl" else {}
        run = evaluate(mild, controller, ev_constrained=True, **kw)
        reduction = base_mild.metrics.violation_hours - run.metrics.violation_hours
        assert 0 <= reduction <= 3, (controller, reduction)

    # (c) aggressive loading is beyond any single-hub configuration
    agg = load_scenario("single_hub_aggressive")
    base_agg = evaluate(agg, "none")
    rows = [
        evaluate(agg, "droop"),
        evaluate(agg, "rl", agent=single_agent),
        evaluate(agg, "droop", ev_constrained=True),
        evaluate(agg, "rl", agent=single_agent, ev_constrained=True),
    ]
    for run in rows:
        assert run.metrics.violation_hours == base_agg.metrics.violation_hours, run.label

    # the comparison table renders for the single-hub row set
    table = build_report([base_mild] + [
        evaluate(mild, c, ev_constrained=ev, agent=single_agent if c == "rl" else None)
        for c in ("rl", "droop") for ev in (False, True)
    ])
    assert table.count("\n") > 7


def test_criterion_7_cli_report_bodies_byte_identical(tmp_path):
    args = ["eval", "--scenario", "five_bus_train", "--controllers", "none", "droop"]
    assert main(args + ["--out-dir", str(tmp_path / "a")]) == 0
    assert main(args + ["--out-dir", str(tmp_path / "b")]) == 0
    body_a = (tmp_path / "a" / "report.txt").read_bytes()
    body_b = (tmp_path / "b" / "report.txt").read_bytes()
    assert body_a == body_b
    for name in ("five_bus_train_none.csv", "five_bus_train_droop.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
