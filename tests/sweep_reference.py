"""Loop backward/forward sweep, kept as a reference for `voltfleet.grid.powerflow`.

This is the power-flow solve as per-bus Python loops: the BFS tree is
rebuilt on every call, branch currents are accumulated leaf-to-root and
voltages propagated root-to-leaf one bus at a time. The production solver
runs the same fixed-point iteration as matrix products on a feeder
compiled once; the property tests in `test_power_flow.py` run both on the
same inputs and compare. It shares only the data model, the default
tolerances and `PowerFlowSolution` with the package.
"""

from __future__ import annotations

import numpy as np

from voltfleet.grid import (
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_TOLERANCE_PU,
    Feeder,
    PowerFlowSolution,
)
from voltfleet.grid.powerflow import Demands


def _tree_order(feeder: Feeder) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """BFS ordering from the slack bus.

    Returns (order, parent, z_pu) where order[0] is the slack, parent[i]
    is the upstream bus index of bus i, and z_pu[i] is the impedance of
    the line feeding bus i (per unit on that bus's voltage base).
    """
    n = len(feeder.buses)
    adjacency: list[list[tuple[int, complex]]] = [[] for _ in range(n)]
    for ln in feeder.lines:
        a = feeder.bus_index(ln.from_bus)
        b = feeder.bus_index(ln.to_bus)
        z = complex(ln.resistance_ohm, ln.reactance_ohm)
        adjacency[a].append((b, z))
        adjacency[b].append((a, z))

    order = np.empty(n, dtype=np.int64)
    parent = np.full(n, -1, dtype=np.int64)
    z_pu = np.zeros(n, dtype=np.complex128)
    root = feeder.slack_index
    order[0] = root
    visited = [False] * n
    visited[root] = True
    head, count = 0, 1
    while head < count:
        u = order[head]
        head += 1
        for v, z_ohm in adjacency[u]:
            if not visited[v]:
                visited[v] = True
                parent[v] = u
                z_base = feeder.buses[v].base_kv ** 2 / feeder.base_mva
                z_pu[v] = z_ohm / z_base
                order[count] = v
                count += 1
    return order, parent, z_pu


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
    order, parent, z_pu = _tree_order(feeder)
    s_base_kw = feeder.base_mva * 1000.0

    s_net = np.zeros(n, dtype=np.complex128)  # consumed power, p.u.
    for bus_id, (p, q) in demands.items():
        s_net[feeder.bus_index(bus_id)] += complex(p, q) / s_base_kw
    if hub_injections:
        for bus_id, (p, q) in hub_injections.items():
            s_net[feeder.bus_index(bus_id)] -= complex(p, q) / s_base_kw

    root = feeder.slack_index
    v = np.full(n, complex(v_slack_pu, 0.0))  # flat start, every solve
    down = order[1:]          # non-slack buses in sweep order
    up = down[::-1]
    par = parent[down]

    mismatch = np.inf
    iterations = 0
    with np.errstate(all="ignore"):  # divergence handled via the finite check
        for iterations in range(1, max_iterations + 1):
            # backward: accumulate branch currents leaf-to-root
            i_branch = np.conj(s_net / v)
            for b in up:
                i_branch[parent[b]] += i_branch[b]
            # forward: propagate voltage drops root-to-leaf
            for b in down:
                v[b] = v[parent[b]] - z_pu[b] * i_branch[b]
            # power-balance residual at every non-slack bus
            i_line = (v[par] - v[down]) / z_pu[down]   # current into each bus
            i_net = np.zeros(n, dtype=np.complex128)
            np.add.at(i_net, down, i_line)
            np.add.at(i_net, par, -i_line)
            s_calc = v * np.conj(i_net)
            mismatch = float(np.max(np.abs(s_calc[down] - s_net[down])))
            if not np.isfinite(mismatch):
                mismatch = np.inf
                break
            if mismatch <= tolerance_pu:
                break

    converged = bool(np.isfinite(mismatch) and mismatch <= tolerance_pu)
    v[root] = complex(v_slack_pu, 0.0)  # slack pinned bit-for-bit
    return PowerFlowSolution(
        bus_ids=feeder.bus_ids,
        v_pu=np.abs(v),
        angle_rad=np.angle(v),
        converged=converged,
        iterations=iterations,
        max_mismatch_pu=mismatch,
    )
