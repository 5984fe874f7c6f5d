import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fleet_reference as ref
from voltfleet.fleet import (
    AllocationResult,
    FleetState,
    allocate,
    capability,
    mark_availability,
)


def make_fleet(
    n, soc=0.5, soh=0.95, capacity=75.0, c_rate=0.5, eta=0.96,
    availability=(1.0,) * 24, order=None,
):
    return FleetState(
        soc=np.full(n, soc),
        soh=np.full(n, soh),
        capacity_kwh=capacity,
        c_rate=c_rate,
        eta_inv=eta,
        availability_schedule=availability,
        order=order,
    )


def test_capability_current_limited():
    # 0.5 C-rate on a 75 kWh pack at soh 0.95
    assert capability(make_fleet(1))[0] == pytest.approx(35.625, abs=1e-12)


def test_capability_unavailable_is_zero():
    fleet = make_fleet(1, availability=(0.0,) * 24)
    mark_availability(fleet, 0)
    assert capability(fleet)[0] == 0.0


def test_capability_taper_at_rails():
    assert capability(make_fleet(1, soc=0.0), discharge=True)[0] == 0.0
    assert capability(make_fleet(1, soc=1.0), discharge=False)[0] == 0.0
    # half-taper at soc 0.05 discharging
    full = capability(make_fleet(1, soc=0.5))[0]
    half = capability(make_fleet(1, soc=0.05))[0]
    assert half == pytest.approx(0.5 * full, abs=1e-12)
    # taper applies only toward the rail being approached
    assert capability(make_fleet(1, soc=0.05), discharge=False)[0] == pytest.approx(
        full, abs=1e-12
    )


def test_step_idle_calendar_aging_only():
    fleet = make_fleet(1)
    allocate(0.0, 0.0, fleet, hour=0)
    assert fleet.soc[0] == 0.5
    assert fleet.soh[0] == pytest.approx(0.95 - fleet.calendar_coeff, abs=1e-15)


def test_step_full_charge_hits_one():
    fleet = make_fleet(1, soc=0.5, soh=1.0, capacity=75.0, eta=1.0)
    allocate(-37.5, 0.0, fleet, hour=0)
    assert fleet.soc[0] == 1.0  # 37.5 kWh into 75 kWh from half full


def test_step_full_discharge_hits_zero():
    fleet = make_fleet(1, soc=0.5, soh=1.0, capacity=75.0, eta=1.0)
    allocate(37.5, 0.0, fleet, hour=0)
    assert fleet.soc[0] == 0.0


def test_available_power_sums_capabilities():
    fleet = make_fleet(10)
    mark_availability(fleet, 0)
    assert capability(fleet).sum() == pytest.approx(356.25, abs=1e-9)


def test_available_power_zero_participation():
    fleet = make_fleet(10, availability=(0.0,) * 24)
    mark_availability(fleet, 5)
    assert capability(fleet).sum() == 0.0


def test_availability_floor_rule():
    fleet = make_fleet(20, availability=(0.45,) * 24)
    mark_availability(fleet, 0)
    assert fleet.available.sum() == 9  # floor(0.45 * 20)


def test_availability_uses_fixed_order():
    fleet = make_fleet(4, availability=(0.5,) * 24, order=(2, 0, 3, 1))
    mark_availability(fleet, 0)
    assert fleet.available.tolist() == [True, False, True, False]


def test_allocate_three_four_five_feasible():
    fleet = make_fleet(15)  # 534.375 kW available >= 520.84
    res = allocate(300.0, 400.0, fleet, hour=0)
    assert res.rho == 1.0
    assert (res.p_sup_kw, res.q_sup_kvar) == (300.0, 400.0)
    assert res.p_fleet_kw == pytest.approx(500.0 / 0.96, abs=1e-9)


def test_allocate_half_capability_scales_to_half():
    # one oversized pack whose capability is exactly half of 500/0.96
    fleet = make_fleet(1, soc=0.5, soh=1.0, capacity=3125.0 / 6.0, c_rate=0.5)
    res = allocate(300.0, 400.0, fleet, hour=0)
    assert res.rho == pytest.approx(0.5, abs=1e-9)
    assert res.p_sup_kw == pytest.approx(150.0, abs=1e-9)
    assert res.q_sup_kvar == pytest.approx(200.0, abs=1e-9)


def test_allocate_zero_request_is_identity():
    fleet = make_fleet(3)
    soc_before = fleet.soc.copy()
    res = allocate(0.0, 0.0, fleet, hour=0)
    assert res == AllocationResult(0.0, 0.0, 1.0, 0.0)
    for soc, soh, before in zip(fleet.soc, fleet.soh, soc_before):
        assert soc == before
        assert soh == pytest.approx(0.95 - fleet.calendar_coeff, abs=1e-15)


def test_allocate_preserves_power_factor():
    rng = np.random.default_rng(42)
    for _ in range(50):
        fleet = make_fleet(int(rng.integers(1, 8)), soc=float(rng.uniform(0.15, 0.95)))
        p = float(rng.uniform(-600, 600))
        q = float(rng.uniform(-500, 500))
        res = allocate(p, q, fleet, hour=int(rng.integers(0, 24)))
        if p != 0.0:
            assert res.q_sup_kvar / res.p_sup_kw == pytest.approx(q / p, rel=1e-12)


def test_rho_monotone_in_request_magnitude():
    rhos = []
    for scale in (0.5, 1.0, 2.0, 4.0):
        fleet = make_fleet(5)
        res = allocate(scale * 300.0, scale * 400.0, fleet, hour=0)
        rhos.append(res.rho)
    assert all(a >= b for a, b in zip(rhos, rhos[1:]))


def test_unit_efficiency_passthrough():
    fleet = make_fleet(15, eta=1.0)
    res = allocate(300.0, 400.0, fleet, hour=0)
    assert res.p_fleet_kw == pytest.approx(500.0, abs=1e-12)


def test_soc_bounds_and_soh_monotone_over_random_runs():
    rng = np.random.default_rng(7)
    fleet = make_fleet(6, soc=0.3)
    last_soh = fleet.soh.copy()
    for step in range(200):
        p = float(rng.uniform(-800, 800))
        q = float(rng.uniform(-600, 600))
        allocate(p, q, fleet, hour=step % 24)
        for i in range(6):
            assert 0.0 <= fleet.soc[i] <= 1.0
            assert fleet.soh[i] <= last_soh[i]
            last_soh[i] = fleet.soh[i]


def test_draw_never_exceeds_available_power():
    fleet = make_fleet(4, soc=0.12, availability=(0.5,) * 24)
    mark_availability(fleet, 0)
    avail = capability(fleet).sum()
    res = allocate(900.0, 700.0, fleet, hour=0)
    assert res.p_fleet_kw <= avail + 1e-9
    assert res.rho < 1.0


@pytest.mark.parametrize(
    "kwargs, fragment",
    [
        (dict(soc=[0.5, 1.2], soh=[1.0, 1.0]), "soc"),
        (dict(soc=[-0.1], soh=[1.0]), "soc"),
        (dict(soc=[0.5], soh=[0.0]), "soh"),
        (dict(soc=[0.5], soh=[1.5]), "soh"),
        (dict(soc=[0.5, 0.5], soh=[1.0]), "equal length"),
        (dict(soc=[0.5, 0.5], soh=[1.0, 1.0], order=(0, 0)), "permutation"),
        (dict(soc=[0.5, 0.5], soh=[1.0, 1.0], order=(0,)), "permutation"),
        (dict(soc=[0.5], soh=[1.0], capacity_kwh=0.0), "capacity"),
        (dict(soc=[0.5], soh=[1.0], c_rate=-0.5), "c_rate"),
        (dict(soc=[0.5], soh=[1.0], eta_inv=0.0), "eta_inv"),
        (dict(soc=[0.5], soh=[1.0], availability_schedule=(1.5,)), "availability"),
        (dict(soc=[0.5], soh=[1.0], availability_schedule=()), "availability"),
        *(
            (dict(soc=[0.5], soh=[1.0], **{key: bad}), key)
            for key in ("cycle_coeff", "calendar_coeff")
            for bad in (math.nan, math.inf, -math.inf, -1e-6)
        ),
        *(
            (dict(soc=[0.5], soh=[1.0], **{key: bad}), key)
            for key in ("capacity_kwh", "c_rate")
            for bad in (math.inf, math.nan)
        ),
        (dict(soc=[0.5], soh=[1.0], eta_inv=math.nan), "eta_inv"),
    ],
)
def test_fleet_state_rejects_bad_inputs(kwargs, fragment):
    with pytest.raises(ValueError, match=fragment):
        FleetState(**kwargs)


# ---- array model against the per-EV reference -------------------------

fractions = st.floats(0.0, 1.0)


@st.composite
def fleets(draw):
    """(array fleet, per-EV reference fleet) holding the same state and
    aging coefficients."""
    n = draw(st.integers(0, 12))
    soc = draw(st.lists(fractions, min_size=n, max_size=n))
    soh = draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n))
    capacity = draw(st.floats(1.0, 200.0))
    c_rate = draw(st.floats(0.05, 3.0))
    eta = draw(st.floats(0.5, 1.0))
    schedule = tuple(draw(st.lists(fractions, min_size=24, max_size=24)))
    order = draw(st.permutations(range(n)))
    cycle_coeff = draw(st.floats(0.0, 1e-3))
    calendar_coeff = draw(st.floats(0.0, 1e-4))
    array_fleet = FleetState(
        soc=soc, soh=soh, capacity_kwh=capacity, c_rate=c_rate, eta_inv=eta,
        cycle_coeff=cycle_coeff, calendar_coeff=calendar_coeff,
        availability_schedule=schedule, order=order,
    )
    ref_fleet = ref.FleetState(
        evs=[
            ref.EvUnit(capacity_kwh=capacity, soc=s, soh=h, c_rate_limit=c_rate)
            for s, h in zip(soc, soh)
        ],
        eta_inv=eta,
        cycle_coeff=cycle_coeff,
        calendar_coeff=calendar_coeff,
        availability_schedule=schedule,
        order=tuple(order),
    )
    return array_fleet, ref_fleet


power = st.floats(-2000.0, 2000.0) | st.just(0.0)
requests = st.lists(
    st.tuples(power, power, st.integers(0, 47)), min_size=1, max_size=30,
)


@settings(max_examples=150, deadline=None)
@given(fleets(), requests)
def test_allocate_matches_per_ev_reference(pair, seq):
    fleet, ref_fleet = pair
    for p, q, hour in seq:
        got = allocate(p, q, fleet, hour)
        want = ref.allocate(p, q, ref_fleet, hour)
        # same operations in the same order: equal, not merely close
        assert got == want
        assert fleet.soc.tolist() == [ev.soc for ev in ref_fleet.evs]
        assert fleet.soh.tolist() == [ev.soh for ev in ref_fleet.evs]
        assert fleet.available.tolist() == [ev.available for ev in ref_fleet.evs]


@settings(max_examples=150, deadline=None)
@given(fleets(), requests)
def test_allocate_invariants(pair, seq):
    fleet, _ = pair
    for p, q, hour in seq:
        soc_before, soh_before = fleet.soc.copy(), fleet.soh.copy()
        mark_availability(fleet, hour)
        caps = capability(fleet, discharge=p >= 0)
        res = allocate(p, q, fleet, hour)

        assert np.all((fleet.soc >= 0.0) & (fleet.soc <= 1.0))
        assert np.all(fleet.soh <= soh_before)
        assert 0.0 <= res.rho <= 1.0
        assert math.hypot(res.p_sup_kw, res.q_sup_kvar) <= math.hypot(p, q) * (1 + 1e-12)
        assert res.p_fleet_kw <= caps.sum() * (1 + 1e-12) + 1e-9
        # per-EV battery power seen through the SOC change (a clip only shrinks it)
        drawn = np.abs(fleet.soc - soc_before) * fleet.capacity_kwh * soh_before
        assert np.all(drawn <= caps * (1 + 1e-9) + 1e-6)
