"""Steady-state power flow for radial feeders (backward/forward sweep).

Balanced positive-sequence model in per unit. The sweep is the
current-summation variant in matrix form (Teng's BIBC/BCBV direct
method): node currents from the latest voltages, then every voltage at
once as the slack voltage minus the path-impedance matrix times those
currents, which is the leaf-to-root current sum and root-to-leaf drop
of the loop sweep in one product. The matrices and the base load per
bus are compiled once per feeder (`Feeder.network`), so a solve takes
only the load multiplier and the hub injections, as arrays. Convergence
is judged on the per-bus complex power mismatch, not on the voltage
update, so a converged solution certifies power balance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Feeder

DEFAULT_TOLERANCE_PU = 1e-8
DEFAULT_MAX_ITERATIONS = 100


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


def solve_power_flow(
    feeder: Feeder,
    lam: float,
    hub_index: np.ndarray | None = None,
    hub_pq: np.ndarray | None = None,
    v_slack_pu: float = 1.0,
) -> PowerFlowSolution:
    """Backward/forward sweep solve at load multiplier `lam` >= 0.

    Every bus consumes `lam` times its base load (`Network.base_load_kw`).
    `hub_pq` is an (H, 2) array of injected (P_kw, Q_kvar), one row per
    bus index in `hub_index`, positive injecting into the grid (reduces
    net demand at the bus). `hub_index` without `hub_pq` injects nothing.
    Non-convergence is reported via `converged=False`; voltages are then
    the last iterate, never a stale earlier state.
    """
    if lam < 0:
        raise ValueError("load multiplier must be >= 0")
    if hub_pq is not None:
        # pq[None] would broadcast the injection onto every bus
        if hub_index is None:
            raise ValueError("hub_pq needs the hub_index of its rows")
        if len(hub_index) != len(hub_pq):
            raise ValueError(
                f"hub_index has {len(hub_index)} buses but hub_pq has {len(hub_pq)} rows"
            )
    n = len(feeder.buses)
    net = feeder.network
    s_base_kw = feeder.base_mva * 1000.0

    # (P, Q) each bus consumes, in p.u. P and Q are divided as floats, not
    # as one complex (numpy multiplies that by the reciprocal), and load and
    # injection each before the subtraction, so every term is correctly
    # rounded; a row of two float64 is then one complex128
    pq = lam * net.base_load_kw / s_base_kw
    if hub_pq is not None:
        pq[hub_index] -= hub_pq / s_base_kw
    s_net = pq.view(np.complex128)[:, 0]

    root = feeder.slack_index
    v_slack = complex(v_slack_pu, 0.0)
    v = np.full(n, v_slack)  # flat start, every solve
    mismatch = np.inf
    iterations = 0
    with np.errstate(all="ignore"):  # divergence handled via the finite check
        for iterations in range(1, DEFAULT_MAX_ITERATIONS + 1):
            v = v_slack - net.path_impedance @ np.conj(s_net / v)
            # power-balance residual at every non-slack bus: the lines
            # deliver -V conj(Y V) into each bus, which must meet its demand
            s_err = v * np.conj(net.admittance @ v) + s_net
            mismatch = float(np.abs(s_err[net.nonslack]).max(initial=0.0))
            if not math.isfinite(mismatch):
                mismatch = np.inf
                break
            if mismatch <= DEFAULT_TOLERANCE_PU:
                break

    converged = math.isfinite(mismatch) and mismatch <= DEFAULT_TOLERANCE_PU
    v[root] = v_slack  # slack pinned bit-for-bit
    return PowerFlowSolution(
        bus_ids=feeder.bus_ids,
        v_pu=np.abs(v),
        angle_rad=np.angle(v),
        converged=converged,
        iterations=iterations,
        max_mismatch_pu=mismatch,
    )
