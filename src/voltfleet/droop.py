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
until it reproduces itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import PowerFlowSolution


@dataclass(frozen=True)
class DroopCurve:
    deadband_pu: float = 0.02
    v_sat_low_pu: float = 0.90
    v_sat_high_pu: float = 1.10
    fixed_point: bool = False

    def __post_init__(self):
        if not 0 < self.deadband_pu < 1.0 - self.v_sat_low_pu:
            raise ValueError("deadband must be positive and inside the saturation band")
        if not self.v_sat_low_pu < 1.0 < self.v_sat_high_pu:
            raise ValueError("saturation voltages must bracket 1.0")


def droop_output(curve: DroopCurve, v_pu):
    """Normalized output in [-1, 1] for each measured voltage.

    A float gives a float, an array an array of the same shape. Below the
    deadband only the sag ramp is non-zero, above it only the swell ramp.
    """
    v = np.asarray(v_pu, dtype=float)
    if (v <= 0).any():
        raise ValueError("voltage must be positive")
    lo_edge = 1.0 - curve.deadband_pu
    hi_edge = 1.0 + curve.deadband_pu
    sag = ((lo_edge - v) / (lo_edge - curve.v_sat_low_pu)).clip(0.0, 1.0)
    swell = ((v - hi_edge) / (curve.v_sat_high_pu - hi_edge)).clip(0.0, 1.0)
    return (sag - swell)[()]


def droop_control(
    solution: PowerFlowSolution,
    hub_index: np.ndarray,
    ratings: np.ndarray,
    curve: DroopCurve | None = None,
) -> np.ndarray:
    """(H, 2) hub (P_kw, Q_kvar) setpoints, each from its own bus voltage.

    `hub_index` gives each hub's bus index, `ratings` its (p_max_kw,
    q_max_kvar).
    """
    out = droop_output(curve or DroopCurve(), solution.v_pu[hub_index])
    return out[:, None] * ratings
