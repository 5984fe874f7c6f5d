"""Scenario files: INI descriptions of a feeder + profile + fleet + droop setup."""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .droop import DroopCurve
from .fleet import FleetState
from .grid import Feeder, load_feeder_file
from .profiles import load_profile
from .resources import feeder_path, scenario_path

_LAMBDA_MODES = ("per_step", "per_episode")


@dataclass(frozen=True)
class FleetSpec:
    ev_count: int = 30
    capacity_kwh: float = 75.0
    soc_init: tuple[float, float] = (0.2, 0.9)
    soh_init: float = 0.95
    eta_inv: float = 0.96
    c_rate: float = 0.5
    cycle_coeff: float = 5e-6
    calendar_coeff: float = 1e-7
    availability: tuple[float, ...] = (1.0,) * 24

    def __post_init__(self):
        if self.ev_count < 0:
            raise ValueError("ev_count must be >= 0")
        if not self.capacity_kwh > 0:
            raise ValueError("capacity_kwh must be positive")
        if not self.c_rate > 0:
            raise ValueError("c_rate must be positive")
        if not 0.0 < self.soh_init <= 1.0:
            raise ValueError("soh_init must lie in (0, 1]")
        if not 0.0 < self.eta_inv <= 1.0:
            raise ValueError("eta_inv must lie in (0, 1]")
        lo, hi = self.soc_init
        if not (0.0 <= lo <= hi <= 1.0):
            raise ValueError("soc_init bounds must satisfy 0 <= lo <= hi <= 1")
        if len(self.availability) != 24:
            raise ValueError("availability needs 24 hourly fractions")
        if any(not 0.0 <= a <= 1.0 for a in self.availability):
            raise ValueError("availability fractions must lie in [0, 1]")


@dataclass(frozen=True)
class Scenario:
    name: str
    feeder_name: str
    feeder: Feeder
    profile_name: str
    profile: tuple[float, ...]
    hub_buses: tuple[str, ...]
    phase: int = 1
    episode_len: int = 100
    lambda_min: float = 0.1
    lambda_max: float = 4.0
    lambda_mode: str = "per_step"
    v2g_window: tuple[int, int] = (6, 23)
    nonconvergence_penalty: float = -1000.0
    seed: int = 0
    fleet: FleetSpec = field(default_factory=FleetSpec)
    droop: DroopCurve = field(default_factory=DroopCurve)


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(t) for t in text.replace(",", " ").split())


def _parse_fleet(sec) -> FleetSpec:
    avail = _floats(sec.get("availability", "1.0"))
    if len(avail) == 1:
        avail = avail * 24
    soc = _floats(sec.get("soc_init", "0.2 0.9"))
    if len(soc) != 2:
        raise ValueError("soc_init wants two numbers: low high")
    return FleetSpec(
        ev_count=sec.getint("ev_count", 30),
        capacity_kwh=sec.getfloat("capacity_kwh", 75.0),
        soc_init=(soc[0], soc[1]),
        soh_init=sec.getfloat("soh_init", 0.95),
        eta_inv=sec.getfloat("eta_inv", 0.96),
        c_rate=sec.getfloat("c_rate", 0.5),
        cycle_coeff=sec.getfloat("cycle_coeff", 5e-6),
        calendar_coeff=sec.getfloat("calendar_coeff", 1e-7),
        availability=avail,
    )


def _parse_droop(sec) -> DroopCurve:
    return DroopCurve(
        deadband_pu=sec.getfloat("deadband", 0.02),
        v_sat_low_pu=sec.getfloat("v_sat_low", 0.90),
        v_sat_high_pu=sec.getfloat("v_sat_high", 1.10),
        fixed_point=sec.getboolean("fixed_point", False),
    )


def load_scenario(name_or_path: str | Path) -> Scenario:
    path = scenario_path(str(name_or_path))
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read(path)
    if "scenario" not in parser:
        raise ValueError(f"{path}: missing [scenario] section")
    sec = parser["scenario"]

    feeder_name = sec.get("feeder")
    if not feeder_name:
        raise ValueError(f"{path}: [scenario] needs a feeder")
    feeder = load_feeder_file(feeder_path(feeder_name))

    profile_name = sec.get("profile", "")
    if "profile_values" in sec:
        profile = _floats(sec["profile_values"])
        if len(profile) != 24:
            raise ValueError("profile_values needs 24 hourly multipliers")
        profile_name = profile_name or "inline"
    elif profile_name:
        profile = load_profile(profile_name)
    else:
        raise ValueError(f"{path}: [scenario] needs profile or profile_values")

    hubs_tok = sec.get("hubs", "all").strip()
    feeder_hub_buses = tuple(h.bus for h in feeder.hubs)
    if hubs_tok.lower() == "all":
        hub_buses = feeder_hub_buses
    else:
        hub_buses = tuple(hubs_tok.replace(",", " ").split())
        missing = [b for b in hub_buses if b not in feeder_hub_buses]
        if missing:
            raise ValueError(f"{path}: hubs not on feeder: {missing}")
    if not hub_buses:
        raise ValueError(f"{path}: scenario has no V2G hubs")

    phase = sec.getint("phase", 1)
    if phase not in (1, 2):
        raise ValueError("phase must be 1 or 2")
    lam_lo = sec.getfloat("lambda_min", 0.1)
    lam_hi = sec.getfloat("lambda_max", 4.0)
    if not (0.0 <= lam_lo < lam_hi):
        raise ValueError("need 0 <= lambda_min < lambda_max")
    mode = sec.get("lambda_mode", "per_step").strip()
    if mode not in _LAMBDA_MODES:
        raise ValueError(f"lambda_mode must be one of {_LAMBDA_MODES}")
    win = sec.get("v2g_window", "6 23").replace(",", " ").split()
    if len(win) != 2:
        raise ValueError("v2g_window wants two hours: start end")
    w_lo, w_hi = int(win[0]), int(win[1])
    if not (0 <= w_lo < w_hi <= 24):
        raise ValueError("v2g_window must satisfy 0 <= start < end <= 24")

    return Scenario(
        name=Path(path).stem,
        feeder_name=feeder_name,
        feeder=feeder,
        profile_name=profile_name,
        profile=tuple(profile),
        hub_buses=hub_buses,
        phase=phase,
        episode_len=sec.getint("episode_len", 100),
        lambda_min=lam_lo,
        lambda_max=lam_hi,
        lambda_mode=mode,
        v2g_window=(w_lo, w_hi),
        nonconvergence_penalty=sec.getfloat("nonconvergence_penalty", -1000.0),
        seed=sec.getint("seed", 0),
        fleet=_parse_fleet(sec=parser["fleet"] if "fleet" in parser else parser["DEFAULT"]),
        droop=_parse_droop(sec=parser["droop"] if "droop" in parser else parser["DEFAULT"]),
    )


def build_fleets(
    scenario: Scenario, seed_seq: np.random.SeedSequence | int | None = None
) -> dict[str, FleetState]:
    """One independent fleet per active hub.

    ``ev_count`` is the scenario total, split evenly over hubs with the
    remainder going to the hubs listed first.  Initial SOC is uniform over
    the configured range; the participation order is a fixed permutation
    drawn once per hub, so availability fractions select a reproducible
    subset each day.
    """
    spec = scenario.fleet
    if seed_seq is None:
        seed_seq = scenario.seed
    if not isinstance(seed_seq, np.random.SeedSequence):
        seed_seq = np.random.SeedSequence(seed_seq)
    n_hubs = len(scenario.hub_buses)
    base, extra = divmod(spec.ev_count, n_hubs)
    fleets: dict[str, FleetState] = {}
    for i, (bus, child) in enumerate(zip(scenario.hub_buses, seed_seq.spawn(n_hubs))):
        rng = np.random.default_rng(child)
        count = base + (1 if i < extra else 0)
        socs = rng.uniform(spec.soc_init[0], spec.soc_init[1], size=count)
        fleets[bus] = FleetState(
            soc=socs,
            soh=np.full(count, spec.soh_init),
            capacity_kwh=spec.capacity_kwh,
            c_rate=spec.c_rate,
            eta_inv=spec.eta_inv,
            availability_schedule=spec.availability,
            order=rng.permutation(count),
        )
    return fleets
