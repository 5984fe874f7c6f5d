"""Scenario files: INI descriptions of a feeder + profile + fleet + droop setup.

A file holds a `[scenario]` section and optional `[fleet]` and `[droop]`
sections. Each key is read once, into the field it sets on `Scenario`,
`FleetSpec` or `DroopCurve`; a key the file leaves out takes the field's
default. An unknown section or key, or any key under `[DEFAULT]`, is a
ValueError naming the file, the section and the key; so is a file that
is not INI, such as one with a repeated key or section. The rules on
the values live on those classes, so a hand-built `Scenario` is checked
as a file is and a file's error names its file and section; only the
load multipliers are checked as they are read (`profile_values`,
`load_profile`).
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .droop import DroopCurve
from .fleet import FleetState, check_pack
from .grid import Feeder, load_feeder_file
from .profiles import check_multipliers, load_profile
from .resources import feeder_path, scenario_path


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
        if not 0.0 < self.soh_init <= 1.0:
            raise ValueError("soh_init must lie in (0, 1]")
        check_pack(self.capacity_kwh, self.c_rate, self.eta_inv,
                   self.cycle_coeff, self.calendar_coeff)
        if len(self.soc_init) != 2 or not 0.0 <= self.soc_init[0] <= self.soc_init[1] <= 1.0:
            raise ValueError("soc_init wants two bounds: 0 <= low <= high <= 1")
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
    episode_len: int = 100
    lambda_min: float = 0.1
    lambda_max: float = 4.0
    v2g_window: tuple[int, int] = (6, 23)
    nonconvergence_penalty: float = -1000.0
    seed: int = 0
    fleet: FleetSpec = field(default_factory=FleetSpec)
    droop: DroopCurve = field(default_factory=DroopCurve)

    def __post_init__(self):
        on_feeder = {h.bus for h in self.feeder.hubs}
        missing = [b for b in self.hub_buses if b not in on_feeder]
        if missing:
            raise ValueError(f"hubs not on feeder: {missing}")
        if not self.hub_buses:
            raise ValueError("needs at least one V2G hub")
        # a bus listed twice would get two hub rows, and the solve keeps only one
        repeated = sorted({b for b in self.hub_buses if self.hub_buses.count(b) > 1})
        if repeated:
            raise ValueError(f"hub buses listed more than once: {repeated}")
        if len(self.profile) != 24:
            raise ValueError(f"profile needs 24 hourly multipliers, got {len(self.profile)}")
        if self.episode_len < 1:
            raise ValueError("episode_len must be >= 1")
        if not 0.0 <= self.lambda_min < self.lambda_max < math.inf:
            raise ValueError("need 0 <= lambda_min < lambda_max < inf")
        if len(self.v2g_window) != 2 or not 0 <= self.v2g_window[0] < self.v2g_window[1] <= 24:
            raise ValueError("v2g_window wants two hours: 0 <= start < end <= 24")
        if not math.isfinite(self.nonconvergence_penalty):
            raise ValueError("nonconvergence_penalty must be finite")


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(t) for t in text.replace(",", " ").split())


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.replace(",", " ").split())


def _hourly(text: str) -> tuple[float, ...]:
    """24 hourly values; a single value stands for every hour."""
    values = _floats(text)
    return values * 24 if len(values) == 1 else values


def _boolean(text: str) -> bool:
    """configparser's getboolean: 1/yes/true/on or 0/no/false/off, any case."""
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {text}") from None


# section -> key -> conversion of its text (int, float: as getint, getfloat);
# load_scenario resolves feeder, profile(_values) and hubs, the rest are fields
_KEYS = {
    "scenario": dict(
        feeder=str, profile=str, profile_values=_floats, hubs=str, episode_len=int,
        lambda_min=float, lambda_max=float, v2g_window=_ints,
        nonconvergence_penalty=float, seed=int,
    ),
    "fleet": dict(
        ev_count=int, capacity_kwh=float, soc_init=_floats, soh_init=float, eta_inv=float,
        c_rate=float, cycle_coeff=float, calendar_coeff=float, availability=_hourly,
    ),
    "droop": dict(deadband=float, v_sat_low=float, v_sat_high=float, fixed_point=_boolean),
}
_FIELDS = {"deadband": "deadband_pu", "v_sat_low": "v_sat_low_pu", "v_sat_high": "v_sat_high_pu"}


def _read(path: Path, parser: configparser.ConfigParser, section: str) -> dict:
    """The converted values of the keys the section holds, by field name."""
    if section not in parser:
        return {}
    known = _KEYS[section]
    values = {}
    for key, text in parser[section].items():
        if key not in known:
            raise ValueError(f"{path}: [{section}] unknown key {key!r}; known: {sorted(known)}")
        try:
            values[_FIELDS.get(key, key)] = known[key](text)
        except ValueError as exc:
            raise ValueError(f"{path}: [{section}] {key}: {exc}") from None
    return values


def _build(path: Path, section: str, cls, values: dict):
    try:
        return cls(**values)
    except ValueError as exc:
        raise ValueError(f"{path}: [{section}] {exc}") from None


def load_scenario(name_or_path: str | Path) -> Scenario:
    path = scenario_path(str(name_or_path))
    # values are read as written: a % is text, not an interpolation
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        parser.read(path)
    except configparser.Error as exc:  # a repeated key or section, a key before any section
        raise ValueError(f"{path}: {exc}") from None
    for key in parser.defaults():
        raise ValueError(f"{path}: [DEFAULT] key {key!r}: scenario files take no defaults")
    for section in parser.sections():
        if section not in _KEYS:
            raise ValueError(f"{path}: unknown section [{section}]; known: {sorted(_KEYS)}")
    if "scenario" not in parser:
        raise ValueError(f"{path}: missing [scenario] section")
    values = _read(path, parser, "scenario")

    feeder_name = values.pop("feeder", "")
    if not feeder_name:
        raise ValueError(f"{path}: [scenario] needs a feeder")
    feeder = load_feeder_file(feeder_path(feeder_name))

    profile_name = values.pop("profile", "")
    if "profile_values" in values:
        profile = values.pop("profile_values")
        check_multipliers(profile, f"{path}: [scenario] profile_values")
        profile_name = profile_name or "inline"
    elif profile_name:
        profile = load_profile(profile_name)
    else:
        raise ValueError(f"{path}: [scenario] needs profile or profile_values")

    hubs_tok = values.pop("hubs", "all")
    if hubs_tok.lower() == "all":
        hub_buses = tuple(h.bus for h in feeder.hubs)
    else:
        hub_buses = tuple(hubs_tok.replace(",", " ").split())

    return _build(path, "scenario", Scenario, dict(
        name=Path(path).stem,
        feeder_name=feeder_name,
        feeder=feeder,
        profile_name=profile_name,
        profile=tuple(profile),
        hub_buses=hub_buses,
        fleet=_build(path, "fleet", FleetSpec, _read(path, parser, "fleet")),
        droop=_build(path, "droop", DroopCurve, _read(path, parser, "droop")),
        **values,
    ))


def build_fleets(
    scenario: Scenario, seed_seq: np.random.SeedSequence | int
) -> tuple[FleetState, ...]:
    """One independent fleet per active hub, in ``hub_buses`` order.

    ``ev_count`` is the scenario total, split evenly over hubs with the
    remainder going to the hubs listed first.  Initial SOC is uniform over
    the configured range; the participation order is a fixed permutation
    drawn once per hub, so availability fractions select a reproducible
    subset each day. Each fleet ages at the scenario's coefficients.
    """
    spec = scenario.fleet
    if not isinstance(seed_seq, np.random.SeedSequence):
        seed_seq = np.random.SeedSequence(seed_seq)
    n_hubs = len(scenario.hub_buses)
    base, extra = divmod(spec.ev_count, n_hubs)
    fleets = []
    for i, child in enumerate(seed_seq.spawn(n_hubs)):
        rng = np.random.default_rng(child)
        count = base + (1 if i < extra else 0)
        socs = rng.uniform(spec.soc_init[0], spec.soc_init[1], size=count)
        fleets.append(FleetState(
            soc=socs,
            soh=np.full(count, spec.soh_init),
            capacity_kwh=spec.capacity_kwh,
            c_rate=spec.c_rate,
            eta_inv=spec.eta_inv,
            cycle_coeff=spec.cycle_coeff,
            calendar_coeff=spec.calendar_coeff,
            availability_schedule=spec.availability,
            order=rng.permutation(count),
        ))
    return tuple(fleets)
