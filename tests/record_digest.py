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
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
from test_power_flow import random_case

from voltfleet.grid import load_feeder_file
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


if __name__ == "__main__":
    for kind, (n, digest) in digests().items():
        print(f"{kind}: {n} days {digest}")
    n, digest = network_digest()
    print(f"network: {n} feeders {digest}")
