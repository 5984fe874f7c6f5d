"""Per-EV reference model of the fleet, for cross-checking `voltfleet.fleet`.

This is the fleet as a list of frozen per-EV records, each rebuilt with
`dataclasses.replace()` on every step. The production model holds the
same state as arrays; the property tests in `test_fleet.py` run both on
the same inputs and compare. Kept deliberately simple and per-EV, with
its own time step `dt_h`: it shares only `AllocationResult` with the
package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from voltfleet.fleet import AllocationResult


@dataclass(frozen=True)
class EvUnit:
    capacity_kwh: float
    soc: float
    soh: float
    c_rate_limit: float = 0.5
    pack_voltage_v: float = 400.0  # informational; energy-form model
    available: bool = True


@dataclass
class FleetState:
    """Mutable owner of the per-hub EV collection.

    `order` is a seed-fixed permutation; availability marks the first
    floor(fraction * N) units of that order, so runs are reproducible.
    Every unit ages at the fleet's `cycle_coeff` (SOH per unit normalized
    throughput) and `calendar_coeff` (SOH per hour).
    """

    evs: list[EvUnit]
    eta_inv: float = 0.96
    cycle_coeff: float = 5e-6
    calendar_coeff: float = 1e-7
    availability_schedule: tuple[float, ...] = (1.0,) * 24
    order: tuple[int, ...] = ()

    def __post_init__(self):
        if not 0 < self.eta_inv <= 1:
            raise ValueError("eta_inv must be in (0, 1]")
        for f in self.availability_schedule:
            if not 0 <= f <= 1:
                raise ValueError("availability fractions must be in [0, 1]")
        if not self.order:
            self.order = tuple(range(len(self.evs)))


def battery_power_capability(ev: EvUnit, discharge: bool = True) -> float:
    """Deliverable battery power (kW) in the given direction.

    min(P_voltage, P_current): P_current = c_rate * capacity * soh;
    P_voltage tapers it linearly near the SOC rail being approached
    (below 0.1 when discharging, above 0.9 when charging).
    """
    if not ev.available:
        return 0.0
    p_current = ev.c_rate_limit * ev.capacity_kwh * ev.soh
    if discharge:
        taper = min(ev.soc / 0.1, 1.0)
    else:
        taper = min((1.0 - ev.soc) / 0.1, 1.0)
    return p_current * max(taper, 0.0)


def step_battery(
    ev: EvUnit, p_bat_kw: float, dt_h: float, cycle_coeff: float, calendar_coeff: float
) -> EvUnit:
    """Advance one EV by dt_h at signed battery power (positive charges)."""
    if dt_h <= 0:
        raise ValueError("dt_h must be positive")
    cap = battery_power_capability(ev, discharge=p_bat_kw < 0)
    if abs(p_bat_kw) > cap + 1e-9:
        raise ValueError(
            f"battery power {p_bat_kw:.3f} kW exceeds capability {cap:.3f} kW"
        )
    usable = ev.capacity_kwh * ev.soh
    soc = min(max(ev.soc + p_bat_kw * dt_h / usable, 0.0), 1.0)
    soh = ev.soh - cycle_coeff * abs(p_bat_kw) * dt_h / ev.capacity_kwh
    soh -= calendar_coeff * dt_h
    return replace(ev, soc=soc, soh=max(soh, 1e-9))


def mark_availability(fleet: FleetState, hour: int) -> None:
    """Flag the first floor(fraction * N) units of the fixed order."""
    frac = fleet.availability_schedule[hour % len(fleet.availability_schedule)]
    n_avail = int(math.floor(frac * len(fleet.evs) + 1e-9))
    chosen = set(fleet.order[:n_avail])
    for i, ev in enumerate(fleet.evs):
        fleet.evs[i] = replace(ev, available=i in chosen)


def fleet_available_power(
    fleet: FleetState, hour: int, discharge: bool = True
) -> float:
    mark_availability(fleet, hour)
    return sum(battery_power_capability(ev, discharge) for ev in fleet.evs)


def allocate(
    p_req_kw: float,
    q_req_kvar: float,
    fleet: FleetState,
    hour: int,
    dt_h: float = 1.0,
) -> AllocationResult:
    """Scale a grid-side request to fleet capability and age the fleet.

    Every EV is stepped each call: participating units carry their
    proportional share of the battery draw, the rest idle (calendar
    aging only). Infeasible requests are scaled by rho, never rejected.
    """
    s_req = math.hypot(p_req_kw, q_req_kvar)
    p_fleet = s_req / fleet.eta_inv
    discharge = p_req_kw >= 0  # zero-P reactive service still drains via s_req

    p_avail = fleet_available_power(fleet, hour, discharge)
    if s_req == 0.0:
        rho = 1.0
    else:
        rho = min(1.0, p_avail / p_fleet)
    drawn = rho * p_fleet

    caps = [battery_power_capability(ev, discharge) for ev in fleet.evs]
    total_cap = sum(caps)
    assert drawn <= total_cap + 1e-6, "allocation exceeded fleet capability"
    for i, ev in enumerate(fleet.evs):
        share = drawn * caps[i] / total_cap if total_cap > 0 else 0.0
        p_bat = -share if discharge else share
        fleet.evs[i] = step_battery(
            ev, p_bat, dt_h, fleet.cycle_coeff, fleet.calendar_coeff
        )

    return AllocationResult(
        p_sup_kw=rho * p_req_kw,
        q_sup_kvar=rho * q_req_kvar,
        rho=rho,
        p_fleet_kw=drawn,
    )

