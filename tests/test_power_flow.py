import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sweep_reference as ref
import voltfleet.grid.model as model
from voltfleet.grid import (
    Bus,
    Hub,
    Line,
    LoadPoint,
    build_feeder,
    clamp_hub_setpoint,
    load_feeder_file,
    scale_loads,
    solve_power_flow,
)
from voltfleet.resources import feeder_path

from nr_oracle import _ybus, solve_newton


def two_bus(r_ohm=0.02, x_ohm=0.04, p_kw=300.0, q_kvar=100.0):
    # base_kv=1, base_mva=1 => z_base = 1 ohm, s_base = 1000 kW
    return build_feeder(
        buses=[Bus("1", 1.0, is_slack=True), Bus("2", 1.0)],
        lines=[Line("1", "2", r_ohm, x_ohm)],
        loads=[LoadPoint("2", p_kw, q_kvar)],
        hubs=[Hub("2", 500.0, 400.0)],
    )


def two_bus_closed_form(r, x, p, q, v1=1.0):
    """|V2| of the two-bus case from the quadratic in u = |V2|^2.

    Eliminating the angle from V2 = V1 - z*conj(S)/conj(V2) gives
    u^2 + u*(2*(r*p + x*q) - v1^2) + (r^2 + x^2)*(p^2 + q^2) = 0;
    the physical (high-voltage) solution is the larger root.
    """
    a = r * p + x * q
    b2 = (r * r + x * x) * (p * p + q * q)
    w = v1 * v1
    disc = (w - 2 * a) ** 2 - 4 * b2
    assert disc > 0, "case outside the solvable region"
    u = ((w - 2 * a) + math.sqrt(disc)) / 2
    return math.sqrt(u)


def random_radial_feeder(rng, n_buses):
    """Random tree with moderate loading; always solvable."""
    buses = [Bus("0", 11.0, is_slack=True)]
    lines = []
    for i in range(1, n_buses):
        parent = str(rng.integers(0, i))
        buses.append(Bus(str(i), 11.0))
        r = float(rng.uniform(0.3, 2.0))
        x = float(rng.uniform(0.3, 2.0))
        lines.append(Line(parent, str(i), r, x))
    loads = [
        LoadPoint(str(i), float(rng.uniform(0.0, 400.0)), float(rng.uniform(0.0, 150.0)))
        for i in range(1, n_buses)
    ]
    hub_bus = str(rng.integers(1, n_buses))
    hubs = [Hub(hub_bus, 500.0, 400.0)]
    return build_feeder(buses, lines, loads, hubs, base_mva=2.0)


KV_LEVELS = (0.48, 4.16, 12.47, 24.9)


def random_case(rng, n_buses, lam):
    """Random radial feeder with its demands at loading lam and hub injections.

    Voltage bases are mixed, the slack bus sits anywhere in the bus list
    and carries a load of its own, and lines list their ends in either
    direction. Line impedances are drawn in per unit on the downstream
    bus's base, so every base gives comparable stress; lam above about 1
    takes the larger feeders past the nose of their PV curve.
    """
    base_mva = float(rng.choice([1.0, 2.5, 10.0]))
    s_base_kw = base_mva * 1000.0
    kv = rng.choice(KV_LEVELS, size=n_buses)
    ids = [f"b{k}" for k in rng.permutation(n_buses)]  # ids[0] is the slack
    buses = [Bus(ids[i], float(kv[i]), is_slack=(i == 0)) for i in range(n_buses)]
    lines = []
    for i in range(1, n_buses):
        up = ids[int(rng.integers(0, i))]
        r, x = rng.uniform(0.002, 0.03, size=2) * kv[i] ** 2 / base_mva
        ends = (up, ids[i]) if rng.random() < 0.5 else (ids[i], up)
        lines.append(Line(*ends, float(r), float(x)))
    loads = [
        LoadPoint(ids[i], float(p), float(q))
        for i, (p, q) in enumerate(rng.uniform(0.0, 0.25, size=(n_buses, 2)) * s_base_kw)
    ]
    hub_buses = rng.choice(ids[1:], size=min(3, n_buses - 1), replace=False)
    hubs = [Hub(str(b), 0.5 * s_base_kw, 0.5 * s_base_kw) for b in hub_buses]
    feeder = build_feeder(
        [buses[k] for k in rng.permutation(n_buses)], lines, loads, hubs, base_mva
    )
    injections = {
        h.bus: tuple(float(v) for v in rng.uniform(-0.3, 0.3, size=2) * s_base_kw)
        for h in hubs
    }
    return feeder, scale_loads(feeder, lam), injections


random_cases = st.builds(
    lambda seed, n_buses, lam: random_case(np.random.default_rng(seed), n_buses, lam),
    st.integers(0, 2**32 - 1),
    st.integers(2, 40),
    st.floats(0.0, 4.0),
)


def _phasors(sol):
    return sol.v_pu * np.exp(1j * sol.angle_rad)


@settings(max_examples=300, deadline=None)
@given(random_cases)
def test_compiled_solve_matches_loop_sweep(case):
    feeder, demands, injections = case
    want = ref.solve_power_flow(feeder, demands, injections)
    got = solve_power_flow(feeder, demands, injections)
    assert (got.converged, got.iterations) == (want.converged, want.iterations)
    assert got.bus_ids == want.bus_ids
    if got.converged:
        assert np.max(np.abs(_phasors(got) - _phasors(want))) <= 1e-12


def test_random_cases_reach_past_the_nose():
    rng = np.random.default_rng(11)
    outcomes = []
    for _ in range(60):
        case = random_case(rng, int(rng.integers(2, 41)), float(rng.uniform(0.0, 4.0)))
        outcomes.append(solve_power_flow(*case).converged)
    assert 0.1 < np.mean(outcomes) < 0.9


@settings(max_examples=150, deadline=None)
@given(random_cases)
def test_compiled_solve_matches_newton(case):
    feeder, demands, injections = case
    sweep = solve_power_flow(feeder, demands, injections)
    vm, ok = solve_newton(feeder, demands, injections)
    assume(sweep.converged and ok)
    assert np.max(np.abs(sweep.v_pu - vm)) < 1e-6


@pytest.mark.parametrize("seed", range(5))
def test_compiled_matrices(seed):
    rng = np.random.default_rng(seed)
    feeder, _, _ = random_case(rng, 12, 1.0)
    net = feeder.network
    np.testing.assert_allclose(net.admittance, _ybus(feeder), rtol=1e-12, atol=0.0)
    # with the slack grounded, the path-impedance block inverts the admittance block
    ns = np.ix_(net.nonslack, net.nonslack)
    np.testing.assert_allclose(
        net.path_impedance[ns] @ net.admittance[ns], np.eye(11), atol=1e-9
    )
    assert not np.any(net.path_impedance[feeder.slack_index])
    assert not np.any(net.path_impedance[:, feeder.slack_index])


def test_feeder_compiled_once_on_first_solve(monkeypatch):
    compiled = []
    compile_network = model.compile_network
    monkeypatch.setattr(
        model, "compile_network", lambda f: compiled.append(f) or compile_network(f)
    )
    built, loaded = two_bus(), load_feeder_file(feeder_path("ieee34_equiv"))
    assert compiled == []
    assert "network" not in vars(built) and "network" not in vars(loaded)
    for lam in (0.5, 1.5):
        solve_power_flow(loaded, scale_loads(loaded, lam))
    assert len(compiled) == 1 and compiled[0] is loaded


def test_two_bus_matches_closed_form():
    r, x, p_kw, q_kvar = 0.02, 0.04, 300.0, 100.0
    feeder = two_bus(r, x, p_kw, q_kvar)
    sol = solve_power_flow(feeder, scale_loads(feeder, 1.0))
    assert sol.converged
    expected = two_bus_closed_form(r, x, p_kw / 1000.0, q_kvar / 1000.0)
    assert sol.voltage_at("2") == pytest.approx(expected, abs=1e-9)
    # independently frozen from the quadratic above
    assert expected == pytest.approx(0.98984639, abs=1e-8)


def test_two_bus_heavy_load_closed_form():
    # deep sag (~0.88 pu) but still inside the solvable region
    r, x, p_kw, q_kvar = 0.05, 0.09, 1200.0, 500.0
    feeder = two_bus(r, x, p_kw, q_kvar)
    sol = solve_power_flow(feeder, scale_loads(feeder, 1.0))
    assert sol.converged
    expected = two_bus_closed_form(r, x, 1.2, 0.5)
    assert sol.voltage_at("2") == pytest.approx(expected, abs=1e-8)


def test_zero_load_is_flat():
    feeder = two_bus()
    sol = solve_power_flow(feeder, {}, v_slack_pu=1.03)
    assert sol.converged
    assert np.all(sol.v_pu == 1.03)
    assert np.all(sol.angle_rad == 0.0)
    assert sol.iterations <= 2


def test_slack_only_feeder_solves_flat():
    feeder = build_feeder([Bus("a", 1.0, is_slack=True)], [], [LoadPoint("a", 10.0, 1.0)], [])
    sol = solve_power_flow(feeder, scale_loads(feeder, 1.0), v_slack_pu=1.02)
    assert sol.converged and sol.iterations == 1
    assert sol.v_pu.tolist() == [1.02]


def test_slack_voltage_pinned_exactly():
    feeder = two_bus()
    for vs in (0.97, 1.0, 1.05):
        sol = solve_power_flow(feeder, scale_loads(feeder, 1.0), v_slack_pu=vs)
        assert sol.v_pu[feeder.slack_index] == vs  # bit-for-bit, not approx


def test_matches_newton_on_random_feeders():
    rng = np.random.default_rng(1234)
    checked = 0
    for _ in range(12):
        feeder = random_radial_feeder(rng, int(rng.integers(3, 13)))
        demands = scale_loads(feeder, float(rng.uniform(0.2, 1.2)))
        hub = feeder.hubs[0]
        injections = {
            hub.bus: (float(rng.uniform(-300.0, 300.0)), float(rng.uniform(-200.0, 200.0)))
        }
        sweep = solve_power_flow(feeder, demands, injections)
        vm, ok = solve_newton(feeder, demands, injections)
        if not (sweep.converged and ok):
            continue
        assert np.max(np.abs(sweep.v_pu - vm)) < 1e-6
        checked += 1
    assert checked >= 10


def test_power_balance_at_every_bus():
    # certified mismatch: recompute S = V conj(Y V) with the independent Ybus
    rng = np.random.default_rng(77)
    feeder = random_radial_feeder(rng, 9)
    demands = scale_loads(feeder, 1.0)
    sol = solve_power_flow(feeder, demands)
    assert sol.converged

    v = sol.v_pu * np.exp(1j * sol.angle_rad)
    s_calc = v * np.conj(_ybus(feeder) @ v)  # injected, p.u.
    s_base_kw = feeder.base_mva * 1000.0
    for i, bus_id in enumerate(sol.bus_ids):
        if i == feeder.slack_index:
            continue
        p, q = demands.get(bus_id, (0.0, 0.0))
        target = -complex(p, q) / s_base_kw
        assert abs(s_calc[i] - target) < 5e-8

    # slack covers total load plus (positive) losses
    p_load = sum(p for p, _ in demands.values()) / s_base_kw
    assert s_calc[feeder.slack_index].real > p_load
    assert s_calc[feeder.slack_index].real < p_load * 1.2


def test_voltage_monotone_in_loading():
    rng = np.random.default_rng(5)
    feeder = random_radial_feeder(rng, 8)
    mins = []
    for lam in (0.0, 0.5, 1.0, 1.5):
        sol = solve_power_flow(feeder, scale_loads(feeder, lam))
        assert sol.converged
        mins.append(float(np.min(sol.v_pu)))
    assert all(a > b for a, b in zip(mins, mins[1:]))


def test_injection_raises_local_voltage():
    feeder = two_bus(p_kw=800.0, q_kvar=300.0)
    base = solve_power_flow(feeder, scale_loads(feeder, 1.0))
    boosted = solve_power_flow(
        feeder, scale_loads(feeder, 1.0), hub_injections={"2": (400.0, 200.0)}
    )
    assert boosted.voltage_at("2") > base.voltage_at("2")
    # absorbing power depresses it
    sagged = solve_power_flow(
        feeder, scale_loads(feeder, 1.0), hub_injections={"2": (-400.0, -200.0)}
    )
    assert sagged.voltage_at("2") < base.voltage_at("2")


def test_nonconvergence_is_flagged_not_raised():
    # load far beyond the maximum power transfer of the line
    feeder = two_bus(p_kw=60000.0, q_kvar=30000.0)
    sol = solve_power_flow(feeder, scale_loads(feeder, 1.0))
    assert not sol.converged
    assert sol.iterations <= 100
    assert sol.v_pu[feeder.slack_index] == 1.0  # slack stays pinned regardless


def test_scale_loads_basics():
    feeder = two_bus(p_kw=300.0, q_kvar=100.0)
    assert scale_loads(feeder, 0.0) == {"2": (0.0, 0.0)}
    assert scale_loads(feeder, 2.0) == {"2": (600.0, 200.0)}
    with pytest.raises(ValueError):
        scale_loads(feeder, -0.1)


def test_scale_loads_aggregates_per_bus():
    feeder = build_feeder(
        buses=[Bus("a", 1.0, is_slack=True), Bus("b", 1.0)],
        lines=[Line("a", "b", 0.1, 0.1)],
        loads=[LoadPoint("b", 100.0, 40.0), LoadPoint("b", 50.0, 10.0)],
        hubs=[],
    )
    assert scale_loads(feeder, 1.0) == {"b": (150.0, 50.0)}


def test_clamp_hub_setpoint():
    hub = Hub("x", 500.0, 400.0)
    assert clamp_hub_setpoint(hub, 120.0, -30.0) == (120.0, -30.0)
    assert clamp_hub_setpoint(hub, 900.0, -700.0) == (500.0, -400.0)
    assert clamp_hub_setpoint(hub, -501.0, 400.5) == (-500.0, 400.0)
