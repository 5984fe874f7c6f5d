"""`voltfleet.fleet.allocate` and `capability` before the zero-request path.

Both functions as they were when every request, zero or not, ran the
general arithmetic: the capability mask by `np.where`, rho from the
summed capabilities, a zero share per EV, `np.clip` on the SOC. The
package now returns a zero request early and masks by assignment; the
tests in `test_fleet.py` run both on the same fleets and requests and
require equal bits of the result, `soc` and `soh`. It shares only
`FleetState`, `AllocationResult` and `mark_availability` with the package.
"""

from __future__ import annotations

import math

import numpy as np

from voltfleet.fleet import AllocationResult, FleetState, mark_availability


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
    return np.where(fleet.available, p_current * taper, 0.0)


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
    """
    s_req = math.hypot(p_req_kw, q_req_kvar)
    p_fleet = s_req / fleet.spec.eta_inv
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
    usable = fleet.spec.capacity_kwh * fleet.soh
    fleet.soc = np.clip(fleet.soc + p_bat / usable, 0.0, 1.0)
    soh = fleet.soh - fleet.spec.cycle_coeff * np.abs(p_bat) / fleet.spec.capacity_kwh
    soh -= fleet.spec.calendar_coeff
    fleet.soh = np.maximum(soh, 1e-9)

    return AllocationResult(
        p_sup_kw=rho * p_req_kw,
        q_sup_kvar=rho * q_req_kvar,
        rho=rho,
        p_fleet_kw=drawn,
    )
