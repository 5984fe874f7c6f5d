"""EV fleet battery model and hub-level power allocation.

`FleetSpec` is a scenario's one description of its EVs: the pack
(capacity, C-rate, inverter efficiency), the aging coefficients, the
hourly availability and how the fleet starts out. Each hub aggregates a
uniform fleet of EVs behind one inverter: a `FleetState` is a struct of
per-EV `soc`, `soh` and `available` arrays that reads its pack through
the `FleetSpec` it was drawn from. A grid-side power request is
translated to a battery-side draw via apparent power and inverter
efficiency; when the request exceeds what the available EVs can
deliver, a scaling ratio rho shrinks the delivered (P, Q) pair while
preserving its power factor.

Sign conventions: requested/delivered P is grid-side, positive =
inject into the grid (discharges batteries). Per-EV battery power is
positive when charging.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class FleetSpec:
    """A scenario's EV fleet, shared by every hub fleet drawn from it.

    `ev_count` EVs are split over the hubs, each starting at a SOC drawn
    from `soc_init` and at `soh_init`. `cycle_coeff` is the SOH lost per
    unit of normalized throughput and `calendar_coeff` the SOH lost per
    hour; `availability` holds the fraction of each hub's EVs available
    in each hour of the day.
    """

    ev_count: int = 30
    capacity_kwh: float = 75.0
    soc_init: tuple[float, float] = (0.2, 0.9)
    soh_init: float = 0.95
    eta_inv: float = 0.96
    c_rate: float = 0.5
    cycle_coeff: float = 5e-6
    calendar_coeff: float = 1e-7
    availability: tuple[float, ...] = (1.0,) * 24

    def __post_init__(self):
        if type(self.ev_count) is not int or self.ev_count < 0:  # a bool is no count
            raise ValueError(f"ev_count must be an int >= 0, not {self.ev_count!r}")
        if not 0.0 < self.soh_init <= 1.0:
            raise ValueError("soh_init must lie in (0, 1]")
        # NaN fails every comparison, so each rule rejects it
        for name, ok, domain in (
            ("capacity_kwh", 0.0 < self.capacity_kwh < math.inf, "finite and > 0"),
            ("c_rate", 0.0 < self.c_rate < math.inf, "finite and > 0"),
            ("eta_inv", 0.0 < self.eta_inv <= 1.0, "in (0, 1]"),
            ("cycle_coeff", 0.0 <= self.cycle_coeff < math.inf, "finite and >= 0"),
            ("calendar_coeff", 0.0 <= self.calendar_coeff < math.inf, "finite and >= 0"),
        ):
            if not ok:
                raise ValueError(f"{name} must be {domain}, got {getattr(self, name)}")
        if len(self.soc_init) != 2 or not 0.0 <= self.soc_init[0] <= self.soc_init[1] <= 1.0:
            raise ValueError("soc_init wants two bounds: 0 <= low <= high <= 1")
        if len(self.availability) != 24:
            raise ValueError("availability needs 24 hourly fractions")
        if any(not 0.0 <= a <= 1.0 for a in self.availability):
            raise ValueError("availability fractions must lie in [0, 1]")


@dataclass
class FleetState:
    """Mutable per-hub fleet: one array entry per EV, its pack in `spec`.

    `order` is a seed-fixed permutation; availability marks the first
    floor(fraction * N) EVs of that order, so runs are reproducible.
    """

    soc: np.ndarray
    soh: np.ndarray
    spec: FleetSpec = FleetSpec()
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
        order = np.arange(n) if self.order is None else np.array(self.order)
        if order.size and order.dtype.kind not in "iu":  # a float or a bool is no EV index
            raise ValueError(f"order must hold int EV indices, not {self.order!r}")
        self.order = order.astype(int, copy=False)
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
    p_current = fleet.spec.c_rate * fleet.spec.capacity_kwh * fleet.soh
    rail_gap = fleet.soc if discharge else 1.0 - fleet.soc
    taper = np.maximum(np.minimum(rail_gap / 0.1, 1.0), 0.0)
    caps = p_current * taper
    caps[~fleet.available] = 0.0
    return caps


def available_count(fleet: FleetState, hour: int) -> int:
    """Number of EVs available at the given hour: floor(fraction * N)."""
    frac = fleet.spec.availability[hour % 24]
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
    by one hour at its spec's coefficients.

    Every EV is stepped each call: participating EVs carry their
    proportional share of the battery draw, the rest idle (calendar
    aging only). Infeasible requests are scaled by rho, never rejected.
    A zero request (hypot(p, q) == 0) draws nothing: rho is 1, the
    request comes back as it is, SOC keeps its bits and every EV ages by
    the calendar alone, the bits the general arithmetic gives, as its
    zero shares add only +-0.0.
    """
    spec = fleet.spec
    s_req = math.hypot(p_req_kw, q_req_kvar)
    mark_availability(fleet, hour)
    if s_req == 0.0:
        fleet.soh = np.maximum(fleet.soh - spec.calendar_coeff, 1e-9)
        return AllocationResult(p_sup_kw=float(p_req_kw), q_sup_kvar=float(q_req_kvar),
                                rho=1.0, p_fleet_kw=0.0)

    p_fleet = s_req / spec.eta_inv
    discharge = p_req_kw >= 0  # zero-P reactive service still drains via s_req
    caps = capability(fleet, discharge)
    # summed in EV order, one addition at a time, so rho is reproducible
    p_avail = sum(caps.tolist())
    rho = min(1.0, p_avail / p_fleet)
    drawn = rho * p_fleet

    share = drawn * caps / p_avail if p_avail > 0 else np.zeros_like(caps)
    if (share > caps + 1e-9).any():
        raise ValueError("allocation exceeded an EV's battery power capability")
    p_bat = -share if discharge else share
    usable = spec.capacity_kwh * fleet.soh
    # np.clip's values, without its dispatch; 0.0 first, so -0.0 stays -0.0 as under clip
    fleet.soc = np.minimum(np.maximum(0.0, fleet.soc + p_bat / usable), 1.0)
    soh = fleet.soh - spec.cycle_coeff * np.abs(p_bat) / spec.capacity_kwh
    soh -= spec.calendar_coeff
    fleet.soh = np.maximum(soh, 1e-9)

    return AllocationResult(
        p_sup_kw=rho * p_req_kw,
        q_sup_kvar=rho * q_req_kvar,
        rho=rho,
        p_fleet_kw=drawn,
    )
