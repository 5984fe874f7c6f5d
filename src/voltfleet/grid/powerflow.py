"""Steady-state power flow for radial feeders (backward/forward sweep).

Balanced positive-sequence model in per unit. The sweep is the
current-summation variant in matrix form (Teng's BIBC/BCBV direct
method): node currents from the latest voltages, then every voltage at
once as the slack voltage minus the path-impedance matrix times those
currents, which is the leaf-to-root current sum and root-to-leaf drop
of the loop sweep in one product. The matrices are compiled once per
feeder (`Feeder.network`). Convergence is judged on the per-bus complex
power mismatch, not on the voltage update, so a converged solution
certifies power balance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .model import Feeder, Hub

DEFAULT_TOLERANCE_PU = 1e-8
DEFAULT_MAX_ITERATIONS = 100

Demands = Mapping[str, tuple[float, float]]


@dataclass(frozen=True)
class PowerFlowSolution:
    bus_ids: tuple[str, ...]
    v_pu: np.ndarray
    angle_rad: np.ndarray
    converged: bool
    iterations: int
    max_mismatch_pu: float

    def voltage_at(self, bus_id: str) -> float:
        return float(self.v_pu[self.bus_ids.index(bus_id)])


def scale_loads(feeder: Feeder, lam: float) -> dict[str, tuple[float, float]]:
    """Per-bus (P, Q) demand in kW/kvar at load multiplier lam >= 0."""
    if lam < 0:
        raise ValueError("load multiplier must be >= 0")
    demands: dict[str, tuple[float, float]] = {}
    for lp in feeder.loads:
        p, q = demands.get(lp.bus, (0.0, 0.0))
        demands[lp.bus] = (p + lam * lp.p_base_kw, q + lam * lp.q_base_kvar)
    return demands


def clamp_hub_setpoint(hub: Hub, p_kw: float, q_kvar: float) -> tuple[float, float]:
    """Clip a requested hub setpoint to the rated limits, componentwise."""
    p = min(max(p_kw, -hub.p_max_kw), hub.p_max_kw)
    q = min(max(q_kvar, -hub.q_max_kvar), hub.q_max_kvar)
    return p, q


def solve_power_flow(
    feeder: Feeder,
    demands: Demands,
    hub_injections: Demands | None = None,
    v_slack_pu: float = 1.0,
    tolerance_pu: float = DEFAULT_TOLERANCE_PU,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> PowerFlowSolution:
    """Backward/forward sweep solve.

    `demands` maps bus id -> consumed (P_kw, Q_kvar); `hub_injections`
    maps bus id -> injected (P_kw, Q_kvar), positive injecting into the
    grid (reduces net demand at the bus). Non-convergence is reported
    via `converged=False`; voltages are then the last iterate, never a
    stale earlier state.
    """
    n = len(feeder.buses)
    net = feeder.network
    s_base_kw = feeder.base_mva * 1000.0

    s_net = np.zeros(n, dtype=np.complex128)  # consumed power, p.u.
    for bus_id, (p, q) in demands.items():
        s_net[feeder.bus_index(bus_id)] += complex(p, q) / s_base_kw
    if hub_injections:
        for bus_id, (p, q) in hub_injections.items():
            s_net[feeder.bus_index(bus_id)] -= complex(p, q) / s_base_kw

    root = feeder.slack_index
    v_slack = complex(v_slack_pu, 0.0)
    v = np.full(n, v_slack)  # flat start, every solve
    mismatch = np.inf
    iterations = 0
    with np.errstate(all="ignore"):  # divergence handled via the finite check
        for iterations in range(1, max_iterations + 1):
            v = v_slack - net.path_impedance @ np.conj(s_net / v)
            # power-balance residual at every non-slack bus: the lines
            # deliver -V conj(Y V) into each bus, which must meet its demand
            s_err = v * np.conj(net.admittance @ v) + s_net
            mismatch = float(np.abs(s_err[net.nonslack]).max(initial=0.0))
            if not math.isfinite(mismatch):
                mismatch = np.inf
                break
            if mismatch <= tolerance_pu:
                break

    converged = math.isfinite(mismatch) and mismatch <= tolerance_pu
    v[root] = v_slack  # slack pinned bit-for-bit
    return PowerFlowSolution(
        bus_ids=feeder.bus_ids,
        v_pu=np.abs(v),
        angle_rad=np.angle(v),
        converged=converged,
        iterations=iterations,
        max_mismatch_pu=mismatch,
    )
