"""Digests of every HourRecord field and of the compiled feeder matrices.

    PYTHONPATH=src python tests/record_digest.py

Runs each shipped scenario at seeds 0, 1 and 2 under `none`, `droop` and
fixed-point droop, each with and without the EV fleet, and prints two
sha256 digests over the exact bits of every record field and day reward:
one for the days without fixed-point droop and one for the fixed-point
days. A change meant to keep every output bit-identical must keep the
first; the second moves whenever the fixed-point iterates do, for
example under a different start of their solves.

A third digest covers the feeder parse and compilation: the bytes of
`path_impedance`, `admittance` and `base_load_kw` of the compiled network
of each shipped feeder and of 300 `random_case` feeders (mixed voltage
bases, the slack anywhere, lines in either direction) drawn from
`default_rng(5)`.

A fourth digest covers the solves themselves: the exact bits of seeded
single solves (shipped and `random_case` feeders, with and without
injections, at loadings from zero to past the nose and to overflow) and
of seeded batched solves from flat and warm starts. It counts each exit
the sweep can take: converged, non-finite and the iteration cap.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
from test_power_flow import SHIPPED_FEEDERS, injection_arrays, random_case, shipped_case

from voltfleet.grid import load_feeder_file, solve_power_flow, solve_power_flows
from voltfleet.grid.powerflow import DEFAULT_MAX_ITERATIONS
from voltfleet.harness.evaluate import evaluate
from voltfleet.resources import feeder_path
from voltfleet.scenario import load_scenario

SCENARIOS = ("five_bus_train", "single_hub_mild", "single_hub_aggressive",
             "multi_hub_mild", "multi_hub_aggressive")
SEEDS = (0, 1, 2)


def enc(x) -> str:
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, dict):
        return "{" + ",".join(f"{k}:{enc(v)}" for k, v in sorted(x.items())) + "}"
    return repr(x)


def digests() -> dict[str, tuple[int, str]]:
    """(days, sha256) for the days without and with fixed-point droop."""
    hashes = {"plain": hashlib.sha256(), "fixed_point": hashlib.sha256()}
    days = dict.fromkeys(hashes, 0)
    for name in SCENARIOS:
        base = load_scenario(name)
        for seed in SEEDS:
            for ctrl, fp in (("none", False), ("droop", False), ("droop", True)):
                sc = dataclasses.replace(base, droop=dataclasses.replace(base.droop,
                                                                         fixed_point=fp))
                kind = "fixed_point" if fp else "plain"
                for ev in (False, True):
                    run = evaluate(sc, ctrl, ev_constrained=ev, seed=seed)
                    h = hashes[kind]
                    for rec in run.hours:
                        for f in dataclasses.fields(rec):
                            h.update(f"{f.name}={enc(getattr(rec, f.name))};".encode())
                    h.update(enc(run.total_reward).encode())
                    days[kind] += 1
    return {k: (days[k], h.hexdigest()) for k, h in hashes.items()}


def network_digest() -> tuple[int, str]:
    """(feeders, sha256) over the compiled matrices of the feeders above."""
    rng = np.random.default_rng(5)
    feeders = [load_feeder_file(feeder_path(name))
               for name in ("two_bus", "five_bus_train", "ieee34_equiv")]
    feeders += [random_case(rng, int(rng.integers(2, 41)), 1.0)[0] for _ in range(300)]
    h = hashlib.sha256()
    for feeder in feeders:
        net = feeder.network
        for a in (net.path_impedance, net.admittance, net.base_load_kw):
            h.update(a.tobytes())
    return len(feeders), h.hexdigest()


# from no load past the nose of every shipped feeder; the last three overflow
SHIPPED_LOADINGS = (0.0, 0.7, 1.0, 2.0, 4.0, 8.0, 64.0, 1e150, 1e200, 1e300)
EXITS = ("converged", "non_finite", "max_iterations")


def _exit(converged, iterations, mismatch) -> str:
    if converged:
        return "converged"
    if mismatch == float("inf"):
        return "non_finite"
    assert iterations == DEFAULT_MAX_ITERATIONS
    return "max_iterations"


def _cases(rng):
    """(feeder, lam, injections) of the shipped feeders at each loading,
    hub setpoints inside the ratings, and of 200 `random_case` feeders."""
    for name in SHIPPED_FEEDERS:
        for lam in SHIPPED_LOADINGS:
            yield shipped_case(name, int(rng.integers(2**32)), lam)
    for _ in range(200):
        yield random_case(rng, int(rng.integers(2, 41)), float(rng.uniform(0.0, 6.0)))


def solve_digest() -> tuple[dict[str, int], str]:
    """(solves per exit, sha256) over single and batched solves.

    Each case is solved alone without and with its injection. Then
    columns of it, drawn with loadings of their own, injections scaled
    by 0, 0.3, 1 or -1 and a flat start or one from a single solve's
    iterate (converged or not), are solved as one batch.
    """
    rng = np.random.default_rng(19)
    h = hashlib.sha256()
    exits = dict.fromkeys(EXITS, 0)
    for feeder, lam, injections in _cases(rng):
        hub_index, hub_pq = injection_arrays(feeder, injections)
        for index, pq in ((None, None), (hub_index, hub_pq)):
            sol = solve_power_flow(feeder, lam, index, pq)
            h.update(sol.v_pu.tobytes() + sol.angle_rad.tobytes())
            h.update(f"{sol.converged},{sol.iterations},{sol.max_mismatch_pu.hex()};".encode())
            exits[_exit(sol.converged, sol.iterations, sol.max_mismatch_pu)] += 1
        k = int(rng.integers(1, 7))
        lams = [lam] + rng.uniform(0.0, 6.0, size=k - 1).tolist()
        pqs = np.stack([s * hub_pq for s in rng.choice([0.0, 0.3, 1.0, -1.0], size=k)])
        with np.errstate(all="ignore"):  # a diverged solve's phasors may not be finite
            warm = sol.v_pu * np.exp(1j * sol.angle_rad)
        start = np.ones((len(feeder.buses), k), complex)
        start[:, rng.random(k) < 0.5] = warm[:, None]
        v, converged, iterations, mismatch = solve_power_flows(feeder, lams, hub_index, pqs,
                                                               start)
        for a in (v, converged, iterations, mismatch):
            h.update(a.tobytes())
        for column in zip(converged, iterations, mismatch):
            exits[_exit(*column)] += 1
    return exits, h.hexdigest()


if __name__ == "__main__":
    for kind, (n, digest) in digests().items():
        print(f"{kind}: {n} days {digest}")
    n, digest = network_digest()
    print(f"network: {n} feeders {digest}")
    exits, digest = solve_digest()
    print("solves: " + ", ".join(f"{n} {kind}" for kind, n in exits.items()) + f" {digest}")
