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
trip. The two solves share their checks, their demand and their step,
which works in place on arrays allocated once per call; they differ
only in loop control and packaging.
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


def _work(shape) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Fresh work arrays of one sweep: the iterate, the conjugate bus
    currents, the product and power error, and the error's magnitude."""
    c = np.complex128
    return np.empty(shape, c), np.empty(shape, c), np.empty(shape, c), np.empty(shape)


def _demand(lam, base_load_kw, s_base_kw, hub_index, hub_pq) -> np.ndarray:
    """Each bus's complex demand in p.u., less `hub_pq` (None: none) at the
    buses `hub_index`: (n,) from a float `lam` on the (n, 2) base load,
    (n, k) from (k, 1) loadings on an (n, 1, 2) view with (H, k, 2) rows.
    P and Q are divided as floats, not as one complex (numpy multiplies
    that by the reciprocal), and load and injection each before the
    subtraction, so every term is correctly rounded. A zero injection flips
    at most the sign of a zero demand, so it may share a no-injection solve.
    """
    pq = lam * base_load_kw / s_base_kw
    if hub_pq is not None:
        pq[hub_index] -= hub_pq / s_base_kw
    return pq.view(np.complex128)[..., 0]


def _step(net, root: int, s, v_in, v, cur, err, mag) -> None:
    """One sweep iteration, v = 1 - Z conj(s / v_in) (`v_in` may be `v`),
    then the power error at v into `err` and its magnitude into `mag`,
    in the operation order of the plain expressions, so it rounds as they would."""
    np.divide(s, v_in, out=cur)
    np.conjugate(cur, out=cur)
    net.path_impedance.dot(cur, err)
    np.subtract(_V_SLACK, err, out=v)
    # power-balance residual at every non-slack bus: the lines deliver
    # -V conj(Y V) into each bus to meet its demand, so err = v conj(Y v) + s
    net.admittance.dot(v, cur)
    np.conjugate(cur, out=cur)
    np.multiply(v, cur, out=err)
    np.add(err, s, out=err)
    err[root] = 0.0
    np.absolute(err, out=mag)


def solve_power_flow(
    feeder: Feeder,
    lam: float,
    hub_index: np.ndarray | None = None,
    hub_pq: np.ndarray | None = None,
) -> PowerFlowSolution:
    """Backward/forward sweep solve at load multiplier `lam` >= 0, from the flat start.

    Every bus consumes `lam` times its base load (`Network.base_load_kw`).
    `hub_pq` is an (H, 2) array-like of injected (P_kw, Q_kvar), one row per
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
        hub_pq = np.asarray(hub_pq, dtype=float)
        if hub_pq.shape != (len(hub_index), 2):
            raise ValueError(
                f"hub_pq must be ({len(hub_index)}, 2) for the {len(hub_index)} buses of "
                f"hub_index, got {hub_pq.shape}"
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
    s_net = _demand(lam, net.base_load_kw, feeder.base_mva * 1000.0, hub_index, hub_pq)

    root = feeder.slack_index
    v, cur, err, mag = _work(len(feeder.buses))
    v.fill(_V_SLACK)  # flat start
    with np.errstate(all="ignore"):  # divergence handled via the finite check
        for iterations in range(1, DEFAULT_MAX_ITERATIONS + 1):
            _step(net, root, s_net, v, v, cur, err, mag)
            mismatch = float(mag[mag.argmax()])  # argmax stops at a NaN: it is the max
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
    s_net = _demand(np.array(lams, dtype=float)[:, None], net.base_load_kw[:, None, :],
                    feeder.base_mva * 1000.0, hub_index, hub_pq.transpose(1, 0, 2))

    # every column stops by the iteration cap, so each one is written
    v = np.empty((n, k), np.complex128)
    iterations = np.zeros(k, dtype=int)
    mismatch = np.full(k, np.inf)

    # the columns still iterating, their last iterate (first start, which
    # is not written) and their demand, and the work arrays sized to them
    cols, v_in, s_on = np.arange(k), start, s_net
    v_on, cur, err, mag = _work((n, k))
    with np.errstate(all="ignore"):  # divergence handled via the finite check
        for it in range(1, DEFAULT_MAX_ITERATIONS + 1):
            if not cols.size:
                break
            _step(net, root, s_on, v_in, v_on, cur, err, mag)
            v_in = v_on
            mm = np.maximum.reduce(mag, axis=0)
            going = (mm > DEFAULT_TOLERANCE_PU) & np.isfinite(mm) & (it < DEFAULT_MAX_ITERATIONS)
            if going.all():
                continue
            stop = ~going
            done = cols[stop]
            v[:, done] = v_on[:, stop]
            iterations[done] = it
            mismatch[done] = np.where(np.isfinite(mm[stop]), mm[stop], np.inf)
            # compress keeps the survivors C-ordered like the work arrays;
            # v_on[:, going] is F-ordered, which makes each ufunc strided
            cols, v_in, s_on = cols[going], v_on.compress(going, 1), s_on.compress(going, 1)
            v_on, cur, err, mag = _work((n, cols.size))

    v[root] = _V_SLACK
    return v, mismatch <= DEFAULT_TOLERANCE_PU, iterations, mismatch
