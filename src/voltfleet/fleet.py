"""EV fleet battery model and hub-level power allocation.

Each hub aggregates a uniform fleet of EVs behind one inverter. The
fleet is a struct of arrays: per-EV `soc`, `soh` and `available`, plus
the pack capacity, C-rate and inverter efficiency shared by all its
EVs. A grid-side power request is translated to a battery-side draw via
apparent power and inverter efficiency; when the request exceeds what
the available EVs can deliver, a scaling ratio rho shrinks the delivered
(P, Q) pair while preserving its power factor.

Sign conventions: requested/delivered P is grid-side, positive =
inject into the grid (discharges batteries). Per-EV battery power is
positive when charging.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


def check_aging(cycle_coeff: float, calendar_coeff: float) -> None:
    """Raise ValueError unless both aging coefficients are finite and >= 0."""
    for name, value in (("cycle_coeff", cycle_coeff), ("calendar_coeff", calendar_coeff)):
        if not 0.0 <= value < math.inf:
            raise ValueError(f"{name} must be finite and >= 0, got {value}")


@dataclass
class FleetState:
    """Mutable per-hub fleet: one array entry per EV.

    `order` is a seed-fixed permutation; availability marks the first
    floor(fraction * N) EVs of that order, so runs are reproducible.
    `cycle_coeff` is the SOH lost per unit of normalized throughput and
    `calendar_coeff` the SOH lost per hour.
    """

    soc: np.ndarray
    soh: np.ndarray
    capacity_kwh: float = 75.0
    c_rate: float = 0.5
    eta_inv: float = 0.96
    cycle_coeff: float = 5e-6
    calendar_coeff: float = 1e-7
    availability_schedule: tuple[float, ...] = (1.0,) * 24
    order: np.ndarray | None = None
    available: np.ndarray = field(init=False)

    def __post_init__(self):
        self.soc = np.array(self.soc, dtype=float)
        self.soh = np.array(self.soh, dtype=float)
        n = self.soc.size
        if self.soc.shape != (n,) or self.soh.shape != (n,):
            raise ValueError("soc and soh must be 1-D arrays of equal length")
        if not np.all((self.soc >= 0.0) & (self.soc <= 1.0)):
            raise ValueError("soc must lie in [0, 1]")
        if not np.all((self.soh > 0.0) & (self.soh <= 1.0)):
            raise ValueError("soh must lie in (0, 1]")
        if not self.capacity_kwh > 0:
            raise ValueError("capacity_kwh must be positive")
        if not self.c_rate > 0:
            raise ValueError("c_rate must be positive")
        if not 0 < self.eta_inv <= 1:
            raise ValueError("eta_inv must be in (0, 1]")
        check_aging(self.cycle_coeff, self.calendar_coeff)
        if not self.availability_schedule:
            raise ValueError("availability schedule needs at least one fraction")
        for f in self.availability_schedule:
            if not 0 <= f <= 1:
                raise ValueError("availability fractions must be in [0, 1]")
        self.order = np.arange(n) if self.order is None else np.array(self.order, dtype=int)
        if not np.array_equal(np.sort(self.order), np.arange(n)):
            raise ValueError("order must be a permutation of the EV indices")
        self.available = np.ones(n, dtype=bool)


@dataclass(frozen=True)
class AllocationResult:
    p_sup_kw: float
    q_sup_kvar: float
    rho: float
    p_fleet_kw: float  # battery-side apparent-power draw


def capability(fleet: FleetState, discharge: bool = True) -> np.ndarray:
    """Deliverable battery power (kW) of each EV in the given direction.

    min(P_voltage, P_current): P_current = c_rate * capacity * soh;
    P_voltage tapers it linearly near the SOC rail being approached
    (below 0.1 when discharging, above 0.9 when charging). EVs not
    available this hour deliver nothing.
    """
    p_current = fleet.c_rate * fleet.capacity_kwh * fleet.soh
    rail_gap = fleet.soc if discharge else 1.0 - fleet.soc
    taper = np.maximum(np.minimum(rail_gap / 0.1, 1.0), 0.0)
    return np.where(fleet.available, p_current * taper, 0.0)


def available_count(fleet: FleetState, hour: int) -> int:
    """Number of EVs available at the given hour: floor(fraction * N)."""
    frac = fleet.availability_schedule[hour % len(fleet.availability_schedule)]
    return int(math.floor(frac * fleet.soc.size + 1e-9))


def mark_availability(fleet: FleetState, hour: int) -> None:
    """Flag the first available_count(fleet, hour) EVs of the fixed order."""
    n_avail = available_count(fleet, hour)
    fleet.available[:] = False
    fleet.available[fleet.order[:n_avail]] = True


def allocate(
    p_req_kw: float,
    q_req_kvar: float,
    fleet: FleetState,
    hour: int,
) -> AllocationResult:
    """Scale a grid-side request to fleet capability and age the fleet
    by one hour at its own coefficients.

    Every EV is stepped each call: participating EVs carry their
    proportional share of the battery draw, the rest idle (calendar
    aging only). Infeasible requests are scaled by rho, never rejected.
    """
    s_req = math.hypot(p_req_kw, q_req_kvar)
    p_fleet = s_req / fleet.eta_inv
    discharge = p_req_kw >= 0  # zero-P reactive service still drains via s_req

    mark_availability(fleet, hour)
    caps = capability(fleet, discharge)
    # summed in EV order, one addition at a time, so rho is reproducible
    p_avail = sum(caps.tolist())
    rho = 1.0 if s_req == 0.0 else min(1.0, p_avail / p_fleet)
    drawn = rho * p_fleet

    share = drawn * caps / p_avail if p_avail > 0 else np.zeros_like(caps)
    if np.any(share > caps + 1e-9):
        raise ValueError("allocation exceeded an EV's battery power capability")
    p_bat = -share if discharge else share
    usable = fleet.capacity_kwh * fleet.soh
    fleet.soc = np.clip(fleet.soc + p_bat / usable, 0.0, 1.0)
    soh = fleet.soh - fleet.cycle_coeff * np.abs(p_bat) / fleet.capacity_kwh
    soh -= fleet.calendar_coeff
    fleet.soh = np.maximum(soh, 1e-9)

    return AllocationResult(
        p_sup_kw=rho * p_req_kw,
        q_sup_kvar=rho * q_req_kvar,
        rho=rho,
        p_fleet_kw=drawn,
    )
