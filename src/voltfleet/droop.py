"""Volt-Var / Volt-Watt droop baseline.

Each hub inverter reads only its own bus voltage and maps it through one
piecewise-linear curve: zero inside the deadband around 1.0 p.u., a
single linear ramp to full output at the saturation voltage, clamped
beyond. The same normalized output sets both the active (Volt-Watt) and
the reactive (Volt-Var) setpoint, scaled by the hub's P and Q ratings.
Positive output injects (supports undervoltage).

`DroopCurve` is also the scenario's `[droop]` section: `fixed_point`
asks the evaluation harness to iterate the response against the grid
until it reproduces itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .grid import Hub, PowerFlowSolution


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


def droop_output(curve: DroopCurve, v_pu: float) -> float:
    """Normalized output in [-1, 1] for a measured voltage."""
    if v_pu <= 0:
        raise ValueError("voltage must be positive")
    lo_edge = 1.0 - curve.deadband_pu
    hi_edge = 1.0 + curve.deadband_pu
    if lo_edge <= v_pu <= hi_edge:
        return 0.0
    if v_pu < lo_edge:
        out = (lo_edge - v_pu) / (lo_edge - curve.v_sat_low_pu)
        return min(out, 1.0)
    out = (v_pu - hi_edge) / (curve.v_sat_high_pu - hi_edge)
    return -min(out, 1.0)


def droop_control(
    hubs: Iterable[Hub],
    solution: PowerFlowSolution,
    curve: DroopCurve | None = None,
) -> dict[str, tuple[float, float]]:
    """Per-hub (P_kw, Q_kvar) setpoints from each hub's own bus voltage."""
    curve = curve or DroopCurve()
    setpoints: dict[str, tuple[float, float]] = {}
    for hub in hubs:
        out = droop_output(curve, solution.voltage_at(hub.bus))
        setpoints[hub.bus] = (out * hub.p_max_kw, out * hub.q_max_kvar)
    return setpoints
