"""Radial feeder data model: buses, lines, loads, V2G hubs.

A feeder is a tree rooted at the single slack bus. All records are
immutable after construction; validation happens once, up front, so the
solver can assume a well-formed network. The per-unit matrices and the
base-load vector the solver needs are compiled once per feeder, on its
first solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


class FeederTopologyError(ValueError):
    """Feeder graph is not a tree rooted at a single slack bus."""


@dataclass(frozen=True)
class Bus:
    id: str
    base_kv: float
    is_slack: bool = False


@dataclass(frozen=True)
class Line:
    from_bus: str
    to_bus: str
    resistance_ohm: float
    reactance_ohm: float


@dataclass(frozen=True)
class LoadPoint:
    bus: str
    p_base_kw: float
    q_base_kvar: float


@dataclass(frozen=True)
class Hub:
    bus: str
    p_max_kw: float
    q_max_kvar: float


@dataclass(frozen=True)
class Feeder:
    """Validated radial feeder. Construct via :func:`build_feeder` or
    :func:`voltfleet.grid.feeder_io.load_feeder`."""

    buses: tuple[Bus, ...]
    lines: tuple[Line, ...]
    loads: tuple[LoadPoint, ...]
    hubs: tuple[Hub, ...]
    base_mva: float = 1.0

    def bus_index(self, bus_id: str) -> int:
        try:
            return self._index[bus_id]
        except KeyError:
            raise KeyError(f"unknown bus {bus_id!r}") from None

    @cached_property
    def _index(self) -> dict[str, int]:
        return {b: i for i, b in enumerate(self.bus_ids)}

    @cached_property
    def bus_ids(self) -> tuple[str, ...]:
        return tuple(b.id for b in self.buses)

    @cached_property
    def slack_index(self) -> int:
        return next(i for i, b in enumerate(self.buses) if b.is_slack)

    @cached_property
    def network(self) -> Network:
        """Per-unit matrices of the feeder, compiled on first use."""
        return compile_network(self)


@dataclass(frozen=True)
class Network:
    """Per-unit matrices of a feeder for the matrix-form sweep.

    `path_impedance[i, j]` is the impedance shared by the paths from the
    slack bus to buses i and j (BCBV @ BIBC in Teng's direct method), so
    `V0 - path_impedance @ I` is the voltage profile that bus currents I
    draw. Its slack row and column are zero. `admittance` is the bus
    admittance matrix. Each line is normalized on the voltage base of its
    end farther from the slack. `base_load_kw` is the (n, 2) array of
    (P_kw, Q_kvar) each bus consumes at load multiplier 1, summed over
    its loads. `no_injection` holds the solutions of solves without
    injection by `lam`; `solve_power_flow` fills and reuses it.
    """

    path_impedance: np.ndarray
    admittance: np.ndarray
    base_load_kw: np.ndarray
    no_injection: dict = field(default_factory=dict, compare=False, repr=False)


def _walk(n: int, ends: list[tuple[int, int]], root: int):
    """Yield (bus, parent, line) for each bus the lines reach from `root`, root
    excluded, breadth first so each bus follows its parent. `ends[k]` holds
    the bus indices of line k."""
    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for k, (a, b) in enumerate(ends):
        adjacency[a].append((b, k))
        adjacency[b].append((a, k))
    seen = [False] * n
    seen[root] = True
    queue = [root]
    for u in queue:
        for v, k in adjacency[u]:
            if not seen[v]:
                seen[v] = True
                queue.append(v)
                yield v, u, k


def compile_network(feeder: Feeder) -> Network:
    """Both matrices from one breadth-first pass over the tree, and the base load."""
    n = len(feeder.buses)
    ends = [(feeder.bus_index(ln.from_bus), feeder.bus_index(ln.to_bus)) for ln in feeder.lines]
    # Row e of each matrix is the line feeding bus e (none for the slack).
    # path[e, i] = 1 when that line lies on the path from the slack to bus i
    # (Teng's BIBC); incidence[e] is +1 at bus e and -1 at its parent.
    path = np.zeros((n, n))
    incidence = np.zeros((n, n))
    z_pu = np.zeros(n, dtype=np.complex128)
    y_pu = np.zeros(n, dtype=np.complex128)
    for v, u, k in _walk(n, ends, feeder.slack_index):
        ln = feeder.lines[k]
        z_ohm = complex(ln.resistance_ohm, ln.reactance_ohm)
        z_pu[v] = z_ohm / (feeder.buses[v].base_kv ** 2 / feeder.base_mva)
        y_pu[v] = 1.0 / z_pu[v]
        path[:, v] = path[:, u]
        path[v, v] = 1.0
        incidence[v, v] = 1.0
        incidence[v, u] = -1.0
    base_load = np.zeros((n, 2))
    for lp in feeder.loads:
        base_load[feeder.bus_index(lp.bus)] += (lp.p_base_kw, lp.q_base_kvar)
    return Network(
        path_impedance=(path.T * z_pu) @ path,
        admittance=(incidence.T * y_pu) @ incidence,
        base_load_kw=base_load,
    )


def build_feeder(
    buses: list[Bus],
    lines: list[Line],
    loads: list[LoadPoint],
    hubs: list[Hub],
    base_mva: float = 1.0,
) -> Feeder:
    """Assemble and validate a Feeder; raises FeederTopologyError or ValueError."""
    index: dict[str, int] = {}
    for b in buses:
        if b.id in index:
            raise FeederTopologyError(f"duplicate bus id {b.id!r}")
        if not 0 < b.base_kv < math.inf:
            raise ValueError(f"bus {b.id!r}: base_kv must be positive and finite")
        index[b.id] = len(index)

    slack = [i for i, b in enumerate(buses) if b.is_slack]
    if len(slack) != 1:
        raise FeederTopologyError(
            f"feeder needs exactly one slack bus, found {len(slack)}"
        )

    n = len(buses)
    if len(lines) != n - 1:
        raise FeederTopologyError(
            f"{n} buses require {n - 1} lines for a tree, found {len(lines)}"
        )
    ends = []
    for ln in lines:
        a, b = index.get(ln.from_bus), index.get(ln.to_bus)
        if a is None or b is None:
            end = ln.from_bus if a is None else ln.to_bus
            raise FeederTopologyError(f"line references unknown bus {end!r}")
        if a == b:
            raise FeederTopologyError(f"line {ln.from_bus!r}->{ln.to_bus!r} is a self-loop")
        if not 0 <= ln.resistance_ohm < math.inf or not math.isfinite(ln.reactance_ohm):
            raise ValueError(
                f"line {ln.from_bus}->{ln.to_bus}: resistance must be finite and >= 0, "
                "reactance finite"
            )
        if ln.resistance_ohm == 0 and ln.reactance_ohm == 0:
            raise ValueError(
                f"line {ln.from_bus}->{ln.to_bus}: zero impedance (merge the buses instead)"
            )
        ends.append((a, b))

    # N buses and N-1 lines, all reached from the slack: a tree
    reached = [*_walk(n, ends, slack[0])]
    if len(reached) != n - 1:
        seen = {slack[0]}.union(v for v, _, _ in reached)
        missing = [bus.id for i, bus in enumerate(buses) if i not in seen]
        raise FeederTopologyError(
            f"buses not connected to the slack bus: {missing} (cycle elsewhere)"
        )

    for lp in loads:
        if lp.bus not in index:
            raise FeederTopologyError(f"load references unknown bus {lp.bus!r}")
        if not 0 <= lp.p_base_kw < math.inf or not math.isfinite(lp.q_base_kvar):
            raise ValueError(
                f"load at bus {lp.bus}: p_base_kw must be finite and >= 0, q_base_kvar finite"
            )
    seen_hub_bus: set[str] = set()
    for h in hubs:
        if h.bus not in index:
            raise FeederTopologyError(f"hub references unknown bus {h.bus!r}")
        if h.bus in seen_hub_bus:
            raise FeederTopologyError(f"duplicate hub at bus {h.bus!r}")
        if index[h.bus] == slack[0]:
            raise FeederTopologyError(
                f"hub at the slack bus {h.bus!r}: the slack voltage is fixed, "
                "so its injection would move no voltage"
            )
        seen_hub_bus.add(h.bus)
        if not (0 < h.p_max_kw < math.inf and 0 < h.q_max_kvar < math.inf):
            raise ValueError(f"hub at bus {h.bus}: rated limits must be positive and finite")
    if not 0 < base_mva < math.inf:
        raise ValueError("base_mva must be positive and finite")

    return Feeder(
        buses=tuple(buses),
        lines=tuple(lines),
        loads=tuple(loads),
        hubs=tuple(hubs),
        base_mva=float(base_mva),
    )
