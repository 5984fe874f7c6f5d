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

The slack bus holds 1.0 pu, so a solve without injection depends only
on the loading, and evaluation repeats such solves: the days of a
scenario share its 24 profile loadings, and uncontrolled hours, hours
outside the V2G window and droop hours inside the deadband inject
nothing. The network keeps those solutions (`Network.no_injection`, at
most `NO_INJECTION_CAP`) and hands a repeat the same object, so every
solution's `v_pu` and `angle_rad` are read-only. A tracer that wraps
`solve_power_flow` counts a reused solution as a solve with its
original `iterations`.

`solve_power_flows` solves k cases at once for the fixed-point droop, on
(n, k) phasor arrays, and only it takes a warm start: an (n, k) complex
iterate, used column by column as given. A warm start changes an
iterate's path, so its result matches the flat start's to the
tolerance, not to the bit. It returns the raw phasors with per-column
status arrays and builds no `PowerFlowSolution`, so a caller that
iterates can start each round from the last one without a polar round
trip. The two solves share their checks, not their loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Feeder

DEFAULT_TOLERANCE_PU = 1e-8
DEFAULT_MAX_ITERATIONS = 100
# no-injection solutions kept per network; a day has 24 loadings
NO_INJECTION_CAP = 64
_V_SLACK = np.complex128(1.0)


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


def _check_loading(lam) -> None:
    if not 0.0 <= lam < math.inf:
        raise ValueError(f"load multiplier must be finite and >= 0, got {lam!r}")


def _check_hub_index(hub_index, n: int, root: int) -> None:
    buses = [b % n for b in np.asarray(hub_index).tolist()]  # -1 names bus n - 1
    if len(set(buses)) != len(buses):  # pq[hub_index] -= ... keeps a repeated bus's last row
        raise ValueError(f"hub_index repeats bus index {max(buses, key=buses.count)}: {buses}")
    if root in buses:  # the slack holds 1.0 pu, so its demand never enters the sweep
        raise ValueError(f"hub_index names the slack bus, index {root}: {buses}")


def _polar(v: np.ndarray, root: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only |V| and angle of the phasors `v`; the slack entry is
    first set to exactly 1.0 pu."""
    v[root] = _V_SLACK
    v_pu, angle_rad = np.abs(v), np.arctan2(v.imag, v.real)
    v_pu.flags.writeable = angle_rad.flags.writeable = False
    return v_pu, angle_rad


def solve_power_flow(
    feeder: Feeder,
    lam: float,
    hub_index: np.ndarray | None = None,
    hub_pq: np.ndarray | None = None,
) -> PowerFlowSolution:
    """Backward/forward sweep solve at load multiplier `lam` >= 0, from the flat start.

    Every bus consumes `lam` times its base load (`Network.base_load_kw`).
    `hub_pq` is an (H, 2) array of injected (P_kw, Q_kvar), one row per
    bus index in `hub_index`, positive injecting into the grid (reduces
    net demand at the bus); a repeated index, or the slack bus's, is a
    `ValueError`. `hub_index` without `hub_pq` injects nothing, and
    neither does an all-zero `hub_pq`: such a solve is reused from the
    feeder's network when the same `lam` was solved before (same object,
    same bits, same `iterations`). The arrays of every solution are read-only.
    Non-convergence is reported via `converged=False`; voltages are then
    the last iterate, never a stale earlier state.
    """
    _check_loading(lam)
    if hub_pq is not None:
        # pq[None] would broadcast the injection onto every bus
        if hub_index is None:
            raise ValueError("hub_pq needs the hub_index of its rows")
        if np.shape(hub_pq) != (len(hub_index), 2):
            raise ValueError(
                f"hub_pq must be ({len(hub_index)}, 2) for the {len(hub_index)} buses of "
                f"hub_index, got {np.shape(hub_pq)}"
            )
    net = feeder.network
    injects = hub_pq is not None and np.count_nonzero(hub_pq)
    if injects:
        _check_hub_index(hub_index, len(feeder.buses), feeder.slack_index)
    else:
        key = float(lam)
        kept = net.no_injection.get(key)
        if kept is not None:
            return kept
    s_base_kw = feeder.base_mva * 1000.0

    # (P, Q) each bus consumes, in p.u. P and Q are divided as floats, not
    # as one complex (numpy multiplies that by the reciprocal), and load and
    # injection each before the subtraction, so every term is correctly
    # rounded; a row of two float64 is then one complex128. A zero
    # injection changes at most the sign of a zero demand, which no
    # result bit depends on, so it shares the no-injection solution
    pq = lam * net.base_load_kw / s_base_kw
    if hub_pq is not None:
        pq[hub_index] -= hub_pq / s_base_kw
    s_net = pq.view(np.complex128)[:, 0]

    root = feeder.slack_index
    v = np.empty(len(feeder.buses), np.complex128)
    v.fill(_V_SLACK)  # flat start
    mismatch = np.inf
    iterations = 0
    with np.errstate(all="ignore"):  # divergence handled via the finite check
        for iterations in range(1, DEFAULT_MAX_ITERATIONS + 1):
            v = _V_SLACK - np.dot(net.path_impedance, np.conj(s_net / v))
            # power-balance residual at every non-slack bus: the lines
            # deliver -V conj(Y V) into each bus, which must meet its demand
            s_err = v * np.conj(np.dot(net.admittance, v)) + s_net
            s_err[root] = 0.0
            mismatch = float(np.maximum.reduce(np.abs(s_err)))
            if not math.isfinite(mismatch):
                mismatch = np.inf
                break
            if mismatch <= DEFAULT_TOLERANCE_PU:
                break

    v_pu, angle_rad = _polar(v, root)
    sol = PowerFlowSolution(
        bus_ids=feeder.bus_ids,
        v_pu=v_pu,
        angle_rad=angle_rad,
        converged=mismatch <= DEFAULT_TOLERANCE_PU,
        iterations=iterations,
        max_mismatch_pu=mismatch,
    )
    if not injects:
        if len(net.no_injection) >= NO_INJECTION_CAP:
            net.no_injection.clear()
        net.no_injection[key] = sol
    return sol


def solve_power_flows(
    feeder: Feeder,
    lams,
    hub_index: np.ndarray,
    hub_pq: np.ndarray,
    start: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """k independent solves of one feeder at once, one per column.

    Case j is `solve_power_flow(feeder, lams[j], hub_index, hub_pq[j])`,
    checked the same way, with `hub_pq` (k, H, 2), except that it starts
    from column j of `start`, an (n, k) complex iterate (all ones: the
    flat start). Returns the (n, k) phasors, the slack row exactly 1.0 pu,
    and (k,) arrays of converged, iterations and max mismatch (inf when
    not finite); a column that did not converge holds its last iterate.
    The sweep runs on (n, k) arrays, so each product is one
    matrix-matrix product. Each column stops on its own test (converged,
    non-finite or the iteration cap) and then leaves the product. A lone
    flat-started column gives `solve_power_flow`'s bits after `_polar`;
    among others its voltages agree to the tolerance, as the product may
    sum in another order. The network's no-injection solutions are
    neither read nor kept, and `start` is not written.
    """
    for lam in lams:
        _check_loading(lam)
    k, n = len(lams), len(feeder.buses)
    hub_pq = np.asarray(hub_pq, dtype=float)
    if hub_pq.shape != (k, len(hub_index), 2):
        raise ValueError(
            f"hub_pq must be ({k}, {len(hub_index)}, 2) for {k} cases on the "
            f"{len(hub_index)} buses of hub_index, got {hub_pq.shape}"
        )
    root = feeder.slack_index
    _check_hub_index(hub_index, n, root)
    if np.shape(start) != (n, k):
        raise ValueError(f"start must be ({n}, {k}) for {k} cases on {n} buses, "
                         f"got {np.shape(start)}")
    net = feeder.network
    s_base_kw = feeder.base_mva * 1000.0

    # (n, k, 2) demand in p.u., rounded term by term as in solve_power_flow
    pq = np.array(lams, dtype=float)[:, None] * net.base_load_kw[:, None, :] / s_base_kw
    pq[hub_index] -= hub_pq.transpose(1, 0, 2) / s_base_kw
    s_net = pq.view(np.complex128)[..., 0]

    # every column stops by the iteration cap, so each one is written
    v = np.empty((n, k), np.complex128)
    iterations = np.zeros(k, dtype=int)
    mismatch = np.full(k, np.inf)

    # the columns still iterating, their voltages and their demand
    cols, v_on, s_on = np.arange(k), start, s_net
    with np.errstate(all="ignore"):  # divergence handled via the finite check
        for it in range(1, DEFAULT_MAX_ITERATIONS + 1):
            if not cols.size:
                break
            v_on = _V_SLACK - np.dot(net.path_impedance, np.conj(s_on / v_on))
            s_err = v_on * np.conj(np.dot(net.admittance, v_on)) + s_on
            s_err[root] = 0.0
            mm = np.maximum.reduce(np.abs(s_err), axis=0)
            going = (mm > DEFAULT_TOLERANCE_PU) & np.isfinite(mm) & (it < DEFAULT_MAX_ITERATIONS)
            if going.all():
                continue
            stop = ~going
            done = cols[stop]
            v[:, done] = v_on[:, stop]
            iterations[done] = it
            mismatch[done] = np.where(np.isfinite(mm[stop]), mm[stop], np.inf)
            cols, v_on, s_on = cols[going], v_on[:, going], s_on[:, going]

    v[root] = _V_SLACK
    return v, mismatch <= DEFAULT_TOLERANCE_PU, iterations, mismatch
