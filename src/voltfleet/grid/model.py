"""Radial feeder data model: buses, lines, loads, V2G hubs.

A feeder is a tree rooted at the single slack bus. All records are
immutable after construction; validation happens once, up front, so the
solver can assume a well-formed network. The per-unit matrices the
solver needs are compiled once per feeder, on its first solve.
"""

from __future__ import annotations

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
    def bus_ids(self) -> tuple[str, ...]:
        return tuple(b.id for b in self.buses)

    @property
    def slack_index(self) -> int:
        return self._slack

    @property
    def hub_by_bus(self) -> dict[str, Hub]:
        return {h.bus: h for h in self.hubs}

    @cached_property
    def network(self) -> Network:
        """Per-unit matrices of the feeder, compiled on first use."""
        return compile_network(self)

    # populated by build_feeder via object.__setattr__ (frozen dataclass)
    _index: dict[str, int] = field(default_factory=dict, repr=False, compare=False)
    _slack: int = field(default=-1, repr=False, compare=False)


@dataclass(frozen=True)
class Network:
    """Per-unit matrices of a feeder for the matrix-form sweep.

    `path_impedance[i, j]` is the impedance shared by the paths from the
    slack bus to buses i and j (BCBV @ BIBC in Teng's direct method), so
    `V0 - path_impedance @ I` is the voltage profile that bus currents I
    draw. Its slack row and column are zero. `admittance` is the bus
    admittance matrix. Each line is normalized on the voltage base of its
    end farther from the slack.
    """

    path_impedance: np.ndarray
    admittance: np.ndarray
    nonslack: np.ndarray


def compile_network(feeder: Feeder) -> Network:
    """Both matrices from one breadth-first pass over the tree."""
    n = len(feeder.buses)
    adjacency: list[list[tuple[int, complex]]] = [[] for _ in range(n)]
    for ln in feeder.lines:
        a = feeder.bus_index(ln.from_bus)
        b = feeder.bus_index(ln.to_bus)
        z = complex(ln.resistance_ohm, ln.reactance_ohm)
        adjacency[a].append((b, z))
        adjacency[b].append((a, z))

    # Row e of each matrix is the line feeding bus e (none for the slack).
    # path[e, i] = 1 when that line lies on the path from the slack to bus i
    # (Teng's BIBC); incidence[e] is +1 at bus e and -1 at its parent.
    root = feeder.slack_index
    path = np.zeros((n, n))
    incidence = np.zeros((n, n))
    z_pu = np.zeros(n, dtype=np.complex128)
    y_pu = np.zeros(n, dtype=np.complex128)
    seen = [False] * n
    seen[root] = True
    queue = [root]
    for u in queue:  # a bus is reached after its parent
        for v, z_ohm in adjacency[u]:
            if not seen[v]:
                seen[v] = True
                z_pu[v] = z_ohm / (feeder.buses[v].base_kv ** 2 / feeder.base_mva)
                y_pu[v] = 1.0 / z_pu[v]
                path[:, v] = path[:, u]
                path[v, v] = 1.0
                incidence[v, v] = 1.0
                incidence[v, u] = -1.0
                queue.append(v)
    return Network(
        path_impedance=(path.T * z_pu) @ path,
        admittance=(incidence.T * y_pu) @ incidence,
        nonslack=np.delete(np.arange(n), root),
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
        if b.base_kv <= 0:
            raise ValueError(f"bus {b.id!r}: base_kv must be positive")
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
    for ln in lines:
        for end in (ln.from_bus, ln.to_bus):
            if end not in index:
                raise FeederTopologyError(f"line references unknown bus {end!r}")
        if ln.from_bus == ln.to_bus:
            raise FeederTopologyError(f"line {ln.from_bus!r}->{ln.to_bus!r} is a self-loop")
        if ln.resistance_ohm < 0:
            raise ValueError(f"line {ln.from_bus}->{ln.to_bus}: negative resistance")
        if ln.resistance_ohm == 0 and ln.reactance_ohm == 0:
            raise ValueError(
                f"line {ln.from_bus}->{ln.to_bus}: zero impedance (merge the buses instead)"
            )

    # connectivity check: N buses, N-1 edges, all reachable from slack => tree
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for ln in lines:
        a, b = index[ln.from_bus], index[ln.to_bus]
        adjacency[a].append(b)
        adjacency[b].append(a)
    seen = [False] * n
    stack = [slack[0]]
    seen[slack[0]] = True
    while stack:
        u = stack.pop()
        for v in adjacency[u]:
            if not seen[v]:
                seen[v] = True
                stack.append(v)
    if not all(seen):
        missing = [buses[i].id for i in range(n) if not seen[i]]
        raise FeederTopologyError(
            f"buses not connected to the slack bus: {missing} (cycle elsewhere)"
        )

    for lp in loads:
        if lp.bus not in index:
            raise FeederTopologyError(f"load references unknown bus {lp.bus!r}")
        if lp.p_base_kw < 0:
            raise ValueError(f"load at bus {lp.bus}: p_base_kw must be >= 0")
    seen_hub_bus: set[str] = set()
    for h in hubs:
        if h.bus not in index:
            raise FeederTopologyError(f"hub references unknown bus {h.bus!r}")
        if h.bus in seen_hub_bus:
            raise FeederTopologyError(f"duplicate hub at bus {h.bus!r}")
        seen_hub_bus.add(h.bus)
        if h.p_max_kw <= 0 or h.q_max_kvar <= 0:
            raise ValueError(f"hub at bus {h.bus}: rated limits must be positive")
    if base_mva <= 0:
        raise ValueError("base_mva must be positive")

    feeder = Feeder(
        buses=tuple(buses),
        lines=tuple(lines),
        loads=tuple(loads),
        hubs=tuple(hubs),
        base_mva=float(base_mva),
    )
    object.__setattr__(feeder, "_index", index)
    object.__setattr__(feeder, "_slack", slack[0])
    return feeder
