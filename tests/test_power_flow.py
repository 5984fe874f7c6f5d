import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sweep_reference as ref
import voltfleet.grid.model as model
import voltfleet.grid.powerflow as powerflow
from voltfleet.grid import (
    Bus,
    Hub,
    Line,
    LoadPoint,
    PowerFlowSolution,
    build_feeder,
    load_feeder_file,
    solve_power_flow,
    solve_power_flows,
)
from voltfleet.resources import feeder_path

from nr_oracle import _ybus, solve_newton


def injection_arrays(feeder, injections):
    """The (hub_index, hub_pq) arrays of a bus-keyed injection dict."""
    index = np.array([feeder.bus_index(b) for b in injections], dtype=int)
    return index, np.array(list(injections.values()), dtype=float).reshape(-1, 2)


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
    """Random radial feeder with its loading lam and hub injections (by bus).

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
    return feeder, lam, injections


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
    feeder, lam, injections = case
    want = ref.solve_power_flow(feeder, ref.scale_loads(feeder, lam), injections)
    got = solve_power_flow(feeder, lam, *injection_arrays(feeder, injections))
    assert (got.converged, got.iterations) == (want.converged, want.iterations)
    assert got.bus_ids == want.bus_ids
    if got.converged:
        assert np.max(np.abs(_phasors(got) - _phasors(want))) <= 1e-12


def _same_solution(a, b):
    return (
        (a.converged, a.iterations, a.max_mismatch_pu) == (b.converged, b.iterations, b.max_mismatch_pu)
        and a.v_pu.tobytes() == b.v_pu.tobytes()
        and a.angle_rad.tobytes() == b.angle_rad.tobytes()
    )


@settings(max_examples=150, deadline=None)
@given(random_cases, st.booleans())
def test_no_injection_solves_reused_with_the_bits_of_a_fresh_solve(case, capacitive):
    feeder, lam, injections = case
    if capacitive:  # at lam 0 a negative Q demand is -0.0; a -0.0 injection makes it +0.0
        feeder = dataclasses.replace(feeder, loads=tuple(
            LoadPoint(lp.bus, lp.p_base_kw, -lp.q_base_kvar) for lp in feeder.loads))
    hub_index, _ = injection_arrays(feeder, injections)
    zero = np.zeros((len(hub_index), 2))
    zero[::2] = -0.0
    for index, pq in ((None, None), (hub_index, zero), (hub_index, None), (None, None)):
        got = solve_power_flow(feeder, lam, index, pq)
        fresh = solve_power_flow(dataclasses.replace(feeder), lam, index, pq)
        assert _same_solution(got, fresh)


def test_no_injection_solution_is_shared_and_read_only():
    feeder = load_feeder_file(feeder_path("ieee34_equiv"))
    hub_index = np.array([feeder.bus_index(h.bus) for h in feeder.hubs])
    first = solve_power_flow(feeder, 1.3)
    assert solve_power_flow(feeder, 1.3) is first
    assert solve_power_flow(feeder, 1.3, hub_index, np.zeros((len(hub_index), 2))) is first
    injected = np.full((len(hub_index), 2), 50.0)
    once = solve_power_flow(feeder, 1.3, hub_index, injected)
    again = solve_power_flow(feeder, 1.3, hub_index, injected)
    assert once is not again and _same_solution(once, again)
    for sol in (first, once):
        for arr in (sol.v_pu, sol.angle_rad):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.5
    assert _same_solution(first, solve_power_flow(dataclasses.replace(feeder), 1.3))
    kept = feeder.network.no_injection
    for k in range(3 * powerflow.NO_INJECTION_CAP):
        solve_power_flow(feeder, 0.5 + k / 100)
        assert 0 < len(kept) <= powerflow.NO_INJECTION_CAP


SHIPPED_FEEDERS = ("two_bus", "five_bus_train", "ieee34_equiv")


def shipped_case(name, seed, lam):
    """A freshly loaded shipped feeder with hub setpoints drawn inside the ratings."""
    feeder = load_feeder_file(feeder_path(name))
    rng = np.random.default_rng(seed)
    injections = {
        h.bus: tuple(float(v) for v in rng.uniform(-1.0, 1.0, size=2) * (h.p_max_kw, h.q_max_kvar))
        for h in feeder.hubs
    }
    return feeder, lam, injections


any_cases = st.one_of(
    random_cases,
    st.builds(shipped_case, st.sampled_from(SHIPPED_FEEDERS), st.integers(0, 2**32 - 1),
              st.floats(0.0, 4.0)),
)


def _column(feeder, batch, j):
    """Column j of a batched solve's result as the single solve would return it."""
    v, converged, iterations, mismatch = batch
    v_pu, angle_rad = powerflow._polar(v[:, j].copy(), feeder.slack_index)
    return PowerFlowSolution(feeder.bus_ids, v_pu, angle_rad, bool(converged[j]),
                             int(iterations[j]), float(mismatch[j]))


def _flat(feeder, k):
    """The flat start of k batched cases."""
    return np.ones((len(feeder.buses), k), complex)


def _lone(feeder, lam, hub_index, hub_pq, start=None):
    """The solution of a one-column batched solve; `start` is an (n,) iterate or None (flat)."""
    start = _flat(feeder, 1) if start is None else start[:, None]
    return _column(feeder, solve_power_flows(feeder, [lam], hub_index, hub_pq[None], start), 0)


@settings(max_examples=200, deadline=None)
@given(any_cases, st.floats(0.0, 4.0), st.floats(-1.0, 1.0), st.booleans())
def test_warm_start_from_a_converged_iterate_certifies_the_balance(case, start_lam, scale, zero):
    """A start from a converged iterate certifies the same balance as the flat start."""
    feeder, lam, injections = case
    assume(injections)
    hub_index, hub_pq = injection_arrays(feeder, injections)
    if zero:
        hub_pq = np.zeros_like(hub_pq)
    flat = solve_power_flow(feeder, lam, hub_index, hub_pq)
    assert _same_solution(_lone(feeder, lam, hub_index, hub_pq), flat)
    start = solve_power_flow(feeder, start_lam, hub_index, scale * hub_pq)
    assume(start.converged)
    warm = _lone(feeder, lam, hub_index, hub_pq, _phasors(start))
    if warm.converged:
        assert warm.max_mismatch_pu <= powerflow.DEFAULT_TOLERANCE_PU
    if warm.converged and flat.converged:
        assert np.max(np.abs(_phasors(warm) - _phasors(flat))) <= 1e-6


START_KINDS = ("flat", "warm")


@settings(max_examples=150, deadline=None)
@given(random_cases, st.lists(st.tuples(st.floats(0.0, 4.0),
                                        st.sampled_from((0.0, -0.0, 0.3, 1.0, -1.0)),
                                        st.sampled_from(START_KINDS)),
                              min_size=1, max_size=6))
def test_batched_solves_match_single_solves(case, columns):
    """A flat column alone has the single solve's bits; among others every
    column's voltages agree with it alone to 1e-9 pu.

    Columns mix loadings past the nose, zero injections and flat starts
    with starts from another solve's iterate, converged or not, so some
    stop early and the rest go on without them.
    """
    feeder, start_lam, injections = case
    hub_index, hub_pq = injection_arrays(feeder, injections)
    warm = solve_power_flow(feeder, start_lam, hub_index, 0.5 * hub_pq)
    with np.errstate(all="ignore"):  # a diverged solve's phasors may not be finite
        warm_v = _phasors(warm)
    starts = [dict(flat=None, warm=warm_v)[kind] for _, _, kind in columns]
    lams = [lam for lam, _, _ in columns]
    pqs = np.stack([scale * hub_pq for _, scale, _ in columns])
    singles = [solve_power_flow(feeder, lam, hub_index, pq) for lam, pq in zip(lams, pqs)]

    fresh = dataclasses.replace(feeder)
    table = fresh.network.no_injection
    bogus = dataclasses.replace(warm, iterations=-1)
    table.update({float(lam): bogus for lam in lams})
    kept = dict(table)
    lones = [_lone(fresh, lam, hub_index, pq, start) for lam, pq, start in zip(lams, pqs, starts)]
    for (_, _, kind), lone, single in zip(columns, lones, singles):
        if kind == "flat":
            assert _same_solution(lone, single)
    start = np.stack([np.ones(len(feeder.buses), complex) if s is None else s for s in starts],
                     axis=1)
    given_start = start.copy()
    batch = solve_power_flows(fresh, lams, hub_index, pqs, start)
    assert table == kept  # neither read nor written
    assert start.tobytes() == given_start.tobytes()  # the start is not written
    v, converged, iterations, mismatch = batch
    assert v.shape == (len(feeder.buses), len(columns))
    assert converged.shape == iterations.shape == mismatch.shape == (len(columns),)
    for j, lone in enumerate(lones):
        got = _column(feeder, batch, j)
        assert got.converged == lone.converged
        if got.converged:
            assert got.max_mismatch_pu <= powerflow.DEFAULT_TOLERANCE_PU
            assert np.max(np.abs(_phasors(got) - _phasors(lone))) <= 1e-9


def test_a_diverging_column_stops_no_other():
    feeder = two_bus()
    hub_index = np.array([feeder.bus_index("2")])
    lams = [1.0, 200.0, 0.5, 200.0, 2.0]  # 200: far past the line's transfer limit
    pqs = np.array([[[100.0, 50.0]], [[0.0, 0.0]], [[-80.0, 20.0]], [[300.0, 0.0]], [[0.0, 0.0]]])
    batch = solve_power_flows(feeder, lams, hub_index, pqs, _flat(feeder, len(lams)))
    assert batch[1].tolist() == [True, False, True, False, True]
    for j, (lam, pq) in enumerate(zip(lams, pqs)):
        got = _column(feeder, batch, j)
        single = solve_power_flow(feeder, lam, hub_index, pq)
        assert (got.converged, got.iterations) == (single.converged, single.iterations)
        if got.converged:
            assert np.max(np.abs(_phasors(got) - _phasors(single))) <= 1e-9
        assert batch[0][feeder.slack_index, j] == 1.0


@pytest.mark.parametrize("lams, pq_shape, start_shape, match", [
    ([math.nan, 1.0], (2, 1, 2), None, "load multiplier"),
    ([1.0, math.inf], (2, 1, 2), None, "load multiplier"),
    ([-0.1], (1, 1, 2), None, "load multiplier"),
    ([1.0, 1.0], (2, 2, 2), None, "hub_pq"),
    ([1.0, 1.0], (1, 1, 2), None, "hub_pq"),
    ([1.0], (1, 2), None, "hub_pq"),
    ([1.0, 1.0], (2, 1, 2), (2,), "start"),
    ([1.0, 1.0], (2, 1, 2), (2, 1), "start"),
    ([1.0, 1.0], (2, 1, 2), (3, 2), "start"),
])
def test_batched_solve_rejects_what_the_single_solve_rejects(lams, pq_shape, start_shape, match):
    feeder = two_bus()
    hub_index = np.array([feeder.bus_index("2")])
    start = _flat(feeder, len(lams)) if start_shape is None else np.ones(start_shape, complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=match):
            solve_power_flows(feeder, lams, hub_index, np.full(pq_shape, 10.0), start)
    assert not feeder.network.no_injection


@pytest.mark.parametrize("lam", [math.nan, math.inf, -0.1])
def test_non_finite_or_negative_loading_rejected(lam):
    feeder = two_bus()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # raised before any arithmetic on it
        with pytest.raises(ValueError, match="load multiplier"):
            solve_power_flow(feeder, lam)
    assert not feeder.network.no_injection


def test_random_cases_reach_past_the_nose():
    rng = np.random.default_rng(11)
    outcomes = []
    for _ in range(60):
        feeder, lam, injections = random_case(
            rng, int(rng.integers(2, 41)), float(rng.uniform(0.0, 4.0))
        )
        sol = solve_power_flow(feeder, lam, *injection_arrays(feeder, injections))
        outcomes.append(sol.converged)
    assert 0.1 < np.mean(outcomes) < 0.9


@settings(max_examples=150, deadline=None)
@given(random_cases)
def test_compiled_solve_matches_newton(case):
    feeder, lam, injections = case
    sweep = solve_power_flow(feeder, lam, *injection_arrays(feeder, injections))
    vm, ok = solve_newton(feeder, ref.scale_loads(feeder, lam), injections)
    assume(sweep.converged and ok)
    assert np.max(np.abs(sweep.v_pu - vm)) < 1e-6


@pytest.mark.parametrize("seed", range(5))
def test_compiled_matrices(seed):
    rng = np.random.default_rng(seed)
    feeder, _, _ = random_case(rng, 12, 1.0)
    net = feeder.network
    np.testing.assert_allclose(net.admittance, _ybus(feeder), rtol=1e-12, atol=0.0)
    # with the slack grounded, the path-impedance block inverts the admittance block
    nonslack = np.delete(np.arange(12), feeder.slack_index)
    ns = np.ix_(nonslack, nonslack)
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
        solve_power_flow(loaded, lam)
    assert len(compiled) == 1 and compiled[0] is loaded


def test_two_bus_matches_closed_form():
    r, x, p_kw, q_kvar = 0.02, 0.04, 300.0, 100.0
    feeder = two_bus(r, x, p_kw, q_kvar)
    sol = solve_power_flow(feeder, 1.0)
    assert sol.converged
    expected = two_bus_closed_form(r, x, p_kw / 1000.0, q_kvar / 1000.0)
    assert sol.voltage_at("2") == pytest.approx(expected, abs=1e-9)
    # independently frozen from the quadratic above
    assert expected == pytest.approx(0.98984639, abs=1e-8)


def test_two_bus_heavy_load_closed_form():
    # deep sag (~0.88 pu) but still inside the solvable region
    r, x, p_kw, q_kvar = 0.05, 0.09, 1200.0, 500.0
    feeder = two_bus(r, x, p_kw, q_kvar)
    sol = solve_power_flow(feeder, 1.0)
    assert sol.converged
    expected = two_bus_closed_form(r, x, 1.2, 0.5)
    assert sol.voltage_at("2") == pytest.approx(expected, abs=1e-8)


def test_zero_load_is_flat():
    feeder = two_bus()
    sol = solve_power_flow(feeder, 0.0)
    assert sol.converged
    assert np.all(sol.v_pu == 1.0)
    assert np.all(sol.angle_rad == 0.0)
    assert sol.iterations <= 2


def test_slack_only_feeder_solves_flat():
    feeder = build_feeder([Bus("a", 1.0, is_slack=True)], [], [LoadPoint("a", 10.0, 1.0)], [])
    sol = solve_power_flow(feeder, 1.0)
    assert sol.converged and sol.iterations == 1
    assert sol.v_pu.tolist() == [1.0]


def test_slack_voltage_pinned_exactly():
    feeder = two_bus()
    hub = np.array([feeder.bus_index("2")])
    sols = [solve_power_flow(feeder, lam) for lam in (0.5, 1.0, 3.0)]
    sols.append(solve_power_flow(feeder, 1.0, hub, np.array([[200.0, -50.0]])))
    start = np.stack([np.ones(2, complex), _phasors(sols[1])], axis=1)
    batch = solve_power_flows(feeder, [0.5, 3.0], hub, np.full((2, 1, 2), 80.0), start)
    assert batch[0][feeder.slack_index].tolist() == [1.0, 1.0]
    sols += [_column(feeder, batch, j) for j in range(2)]
    for sol in sols:
        assert sol.v_pu[feeder.slack_index] == 1.0  # bit-for-bit, not approx
        assert sol.angle_rad[feeder.slack_index] == 0.0


def test_matches_newton_on_random_feeders():
    rng = np.random.default_rng(1234)
    checked = 0
    for _ in range(12):
        feeder = random_radial_feeder(rng, int(rng.integers(3, 13)))
        lam = float(rng.uniform(0.2, 1.2))
        hub = feeder.hubs[0]
        injections = {
            hub.bus: (float(rng.uniform(-300.0, 300.0)), float(rng.uniform(-200.0, 200.0)))
        }
        sweep = solve_power_flow(feeder, lam, *injection_arrays(feeder, injections))
        vm, ok = solve_newton(feeder, ref.scale_loads(feeder, lam), injections)
        if not (sweep.converged and ok):
            continue
        assert np.max(np.abs(sweep.v_pu - vm)) < 1e-6
        checked += 1
    assert checked >= 10


def test_power_balance_at_every_bus():
    # certified mismatch: recompute S = V conj(Y V) with the independent Ybus
    rng = np.random.default_rng(77)
    feeder = random_radial_feeder(rng, 9)
    demands = ref.scale_loads(feeder, 1.0)
    sol = solve_power_flow(feeder, 1.0)
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
        sol = solve_power_flow(feeder, lam)
        assert sol.converged
        mins.append(float(np.min(sol.v_pu)))
    assert all(a > b for a, b in zip(mins, mins[1:]))


def test_injection_raises_local_voltage():
    feeder = two_bus(p_kw=800.0, q_kvar=300.0)
    hub = np.array([feeder.bus_index("2")])
    base = solve_power_flow(feeder, 1.0)
    boosted = solve_power_flow(feeder, 1.0, hub, np.array([[400.0, 200.0]]))
    assert boosted.voltage_at("2") > base.voltage_at("2")
    # absorbing power depresses it
    sagged = solve_power_flow(feeder, 1.0, hub, np.array([[-400.0, -200.0]]))
    assert sagged.voltage_at("2") < base.voltage_at("2")


@pytest.mark.parametrize(
    "index, pq, match",
    [
        (None, [[300.0, 100.0]], "needs the hub_index"),
        ([1], [[300.0, 100.0], [10.0, 0.0]], r"must be \(1, 2\) for the 1 buses .* got \(2, 2\)"),
        ([0, 1], [[300.0, 100.0]], r"must be \(2, 2\) for the 2 buses .* got \(1, 2\)"),
        ([1], [[300.0, 100.0, 0.0]], r"must be \(1, 2\) for the 1 buses .* got \(1, 3\)"),
    ],
)
def test_injection_without_or_misaligned_index_rejected(index, pq, match):
    # a lone injection row would otherwise be broadcast onto every bus
    feeder = two_bus()
    index = None if index is None else np.array(index)
    pq = None if pq is None else np.array(pq)
    with pytest.raises(ValueError, match=match):
        solve_power_flow(feeder, 1.0, index, pq)


def test_one_row_for_two_hubs_rejected():
    # a flat (2,) row is as long as a two-hub index, and would be broadcast
    # onto both hubs: the solve of [[300, 100], [300, 100]], bit for bit
    feeder = load_feeder_file(feeder_path("ieee34_equiv"))
    index = np.array([feeder.bus_index("890"), feeder.bus_index("844")])
    with pytest.raises(ValueError, match=r"must be \(2, 2\) for the 2 buses .* got \(2,\)"):
        solve_power_flow(feeder, 1.5, index, np.array([300.0, 100.0]))


@pytest.mark.parametrize("alias", ["same", "negative"])
def test_repeated_hub_index_rejected(alias):
    # pq[hub_index] -= ... keeps only the last row of a repeated bus, so the
    # (300, 100) row would be dropped: v_min 0.8946 pu, the no-injection
    # value, where the one injection gives 0.9070 pu. A negative index names
    # the same bus as its non-negative alias.
    feeder = load_feeder_file(feeder_path("ieee34_equiv"))
    i = feeder.bus_index("890")
    j = i if alias == "same" else i - len(feeder.buses)
    index, rows = np.array([i, j]), np.array([[300.0, 100.0], [0.0, 0.0]])
    assert solve_power_flow(feeder, 1.5, index[:1], rows[:1]).v_pu.min() == pytest.approx(
        0.9070, abs=1e-4)
    with pytest.raises(ValueError, match=f"repeats bus index {i}"):
        solve_power_flow(feeder, 1.5, index, rows)
    with pytest.raises(ValueError, match=f"repeats bus index {i}"):
        solve_power_flows(feeder, [1.5], index, rows[None], _flat(feeder, 1))
    # without injection no row is dropped: the kept solve is handed back
    plain = solve_power_flow(feeder, 1.5)
    assert solve_power_flow(feeder, 1.5, index, np.zeros((2, 2))) is plain


@pytest.mark.parametrize("alias", ["same", "negative"])
def test_injection_at_the_slack_rejected(alias):
    # the slack holds 1.0 pu and its demand never enters the sweep, so an
    # injection there would be dropped without a trace
    feeder = load_feeder_file(feeder_path("ieee34_equiv"))
    i = feeder.slack_index
    index = np.array([i if alias == "same" else i - len(feeder.buses)])
    with pytest.raises(ValueError, match=f"slack bus, index {i}"):
        solve_power_flow(feeder, 1.5, index, np.array([[300.0, 100.0]]))


@pytest.mark.parametrize("alias", ["same", "negative"])
def test_batched_injection_at_the_slack_rejected(alias):
    feeder = load_feeder_file(feeder_path("ieee34_equiv"))
    i = feeder.slack_index
    hub = feeder.bus_index("890")
    index = np.array([hub, i if alias == "same" else i - len(feeder.buses)])
    with pytest.raises(ValueError, match=f"slack bus, index {i}"):
        solve_power_flows(feeder, [1.5, 0.5], index, np.full((2, 2, 2), 100.0), _flat(feeder, 2))


def test_hub_index_without_injection_injects_nothing():
    feeder = two_bus()
    hub = np.array([feeder.bus_index("2")])
    alone = solve_power_flow(feeder, 1.0, hub)
    assert np.array_equal(alone.v_pu, solve_power_flow(feeder, 1.0).v_pu)


def test_nonconvergence_is_flagged_not_raised():
    # load far beyond the maximum power transfer of the line
    feeder = two_bus(p_kw=60000.0, q_kvar=30000.0)
    sol = solve_power_flow(feeder, 1.0)
    assert not sol.converged
    assert sol.iterations <= 100
    assert sol.v_pu[feeder.slack_index] == 1.0  # slack stays pinned regardless


def test_base_load_scales_with_lam():
    feeder = two_bus(p_kw=300.0, q_kvar=100.0)
    assert feeder.network.base_load_kw.tolist() == [[0.0, 0.0], [300.0, 100.0]]
    assert np.all(solve_power_flow(feeder, 0.0).v_pu == 1.0)
    doubled = solve_power_flow(two_bus(p_kw=600.0, q_kvar=200.0), 1.0)
    assert np.array_equal(solve_power_flow(feeder, 2.0).v_pu, doubled.v_pu)
    with pytest.raises(ValueError, match=">= 0"):
        solve_power_flow(feeder, -0.1)


def test_base_load_aggregates_per_bus():
    feeder = build_feeder(
        buses=[Bus("a", 1.0, is_slack=True), Bus("b", 1.0)],
        lines=[Line("a", "b", 0.1, 0.1)],
        loads=[LoadPoint("b", 100.0, 40.0), LoadPoint("b", 50.0, 10.0)],
        hubs=[],
    )
    assert feeder.network.base_load_kw.tolist() == [[0.0, 0.0], [150.0, 50.0]]
    want = ref.solve_power_flow(feeder, ref.scale_loads(feeder, 1.0))
    assert np.allclose(solve_power_flow(feeder, 1.0).v_pu, want.v_pu, rtol=0.0, atol=1e-12)
