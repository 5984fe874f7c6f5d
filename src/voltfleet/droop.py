"""Volt-Var / Volt-Watt droop baseline.

Each hub inverter reads only its own bus voltage and maps it through one
piecewise-linear curve: zero inside the deadband around 1.0 p.u., a
single linear ramp to full output at the saturation voltage, clamped
beyond. The same normalized output sets both the active (Volt-Watt) and
the reactive (Volt-Var) setpoint, scaled by the hub's P and Q ratings.
Positive output injects (supports undervoltage). `droop_control` answers
for all hubs at once, as an (H, 2) kW/kvar array in hub order.

`DroopCurve` is also the scenario's `[droop]` section: `fixed_point`
asks the evaluation harness to iterate the response against the grid
until it reproduces itself. `fixed_point_setpoints` runs that iteration
for many loadings at once; the harness hands it the hours of the V2G
window, as no hub injects outside it. Each loading keeps its own damped
map and its own exits, and the loadings still iterating share one
batched solve per round, on one (n, k) phasor iterate kept across the
rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grid import Feeder, PowerFlowSolution, solve_power_flows

FP_MAX_ITERS = 200
FP_TOL_KW = 1e-2


@dataclass(frozen=True)
class DroopCurve:
    deadband_pu: float = 0.02
    v_sat_low_pu: float = 0.90
    v_sat_high_pu: float = 1.10
    fixed_point: bool = False

    def __post_init__(self):
        if not self.v_sat_low_pu < 1.0 < self.v_sat_high_pu:
            raise ValueError("saturation voltages must bracket 1.0")
        # both ramp widths, as droop_output divides by them, must be positive
        d = self.deadband_pu
        if not (d > 0 and 1.0 - d - self.v_sat_low_pu > 0 and self.v_sat_high_pu - (1.0 + d) > 0):
            raise ValueError("deadband must be positive and inside the saturation band")


def _unit(x: float) -> float:
    """`x` clipped to [0, 1] as numpy's clip does: NaN stays NaN, -0.0 gives 0.0."""
    return 0.0 if x <= 0.0 else 1.0 if x > 1.0 else x


def _outputs(curve: DroopCurve, voltages: list[float]) -> list[float]:
    """The curve at each voltage, as Python floats with the array expression's bits."""
    lo_edge = 1.0 - curve.deadband_pu
    hi_edge = 1.0 + curve.deadband_pu
    sag_span = lo_edge - curve.v_sat_low_pu
    swell_span = curve.v_sat_high_pu - hi_edge
    out = []
    for x in voltages:
        if x <= 0:
            raise ValueError("voltage must be positive")
        out.append(_unit((lo_edge - x) / sag_span) - _unit((x - hi_edge) / swell_span))
    return out


def droop_output(curve: DroopCurve, v_pu):
    """Normalized output in [-1, 1] for each measured voltage.

    A float gives a float, an array an array of the same shape. Below the
    deadband only the sag ramp is non-zero, above it only the swell ramp.
    The few hub voltages are mapped as Python floats, which costs less
    than the numpy calls of the array expression and gives its bits.
    """
    v = np.asarray(v_pu, dtype=float)
    out = _outputs(curve, v.ravel().tolist())
    return out[0] if v.ndim == 0 else np.array(out).reshape(v.shape)


def droop_control(
    solution: PowerFlowSolution,
    hub_index: np.ndarray,
    ratings: np.ndarray,
    curve: DroopCurve,
) -> np.ndarray:
    """(H, 2) hub (P_kw, Q_kvar) setpoints, each from its own bus voltage.

    `hub_index` gives each hub's bus index, `ratings` its (p_max_kw,
    q_max_kvar).
    """
    out = _outputs(curve, solution.v_pu[hub_index].tolist())
    return np.array(out)[:, None] * ratings


def fixed_point_setpoints(
    feeder: Feeder,
    lams: Sequence[float],
    observed: Sequence[PowerFlowSolution],
    hub_index: np.ndarray,
    ratings: np.ndarray,
    curve: DroopCurve,
) -> np.ndarray:
    """(k, H, 2) hub setpoints that reproduce themselves at each of k loadings.

    `observed[j]` is the solve without injection at `lams[j]`. Its droop
    response is the first setpoint s, and its phasors start the first
    solve with s (a non-converged one gives the flat start). Each round,
    the loadings still iterating are solved together, each column from
    its last converged iterate, and the droop response t to their hub
    voltages |V| is taken. A loading stops with t when |t - s| <
    FP_TOL_KW, and keeps s when its solve does not converge; else s
    becomes 0.5 s + 0.5 t, damped because the raw map oscillates on stiff
    feeders. At most FP_MAX_ITERS rounds.
    """
    def response(v_hub):  # (k, H) hub voltages -> (k, H, 2) setpoints
        return droop_output(curve, v_hub)[..., None] * ratings

    k, n = len(lams), len(feeder.buses)
    v_pu = np.array([sol.v_pu for sol in observed]).reshape(k, n)
    angle = np.array([sol.angle_rad for sol in observed]).reshape(k, n)
    ok = np.array([sol.converged for sol in observed], dtype=bool)
    setpoints = response(v_pu[:, hub_index])
    # the (n, k) iterate: observed phasors, else the flat start
    v = np.full((n, k), 1.0 + 0.0j)
    v[:, ok] = (v_pu[ok] * np.exp(1j * angle[ok])).T
    going = np.arange(k)
    for _ in range(FP_MAX_ITERS):
        if not going.size:
            break
        v_new, ok = solve_power_flows(feeder, [lams[j] for j in going], hub_index,
                                      setpoints[going], v[:, going])[:2]
        going = going[ok]
        v[:, going] = v_new[:, ok]
        target = response(np.abs(v_new[hub_index][:, ok]).T)
        s = setpoints[going]
        settled = np.abs(target - s).max(axis=(1, 2)) < FP_TOL_KW
        setpoints[going] = np.where(settled[:, None, None], target, 0.5 * s + 0.5 * target)
        going = going[~settled]
    return setpoints
