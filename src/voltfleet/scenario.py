"""Scenario files: INI descriptions of a feeder + profile + fleet + droop setup.

A file holds a `[scenario]` section and optional `[fleet]` and `[droop]`
sections. Each key is read once, into the field it sets on `Scenario`,
`FleetSpec` (the fleet model's one description of the EVs, from
`fleet.py`) or `DroopCurve`; a key the file leaves out takes the field's
default. An unknown section or key, or any key under `[DEFAULT]`, is a
ValueError naming the file, the section and the key; so is a file that
is not INI, such as one with a repeated key or section. The rules on
the values live on those classes, so a hand-built `Scenario` is checked
as a file is and a file's error names its file and section; only the
load multipliers are checked as they are read (`profile_values`,
`load_profile`). `build_fleets` draws one `FleetState` per hub, each
carrying the scenario's `FleetSpec`.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .droop import DroopCurve
from .fleet import FleetSpec, FleetState
from .grid import Feeder, load_feeder_file
from .profiles import check_multipliers, load_profile
from .resources import feeder_path, scenario_path


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
        if type(self.episode_len) is not int or self.episode_len < 1:  # a bool is no count
            raise ValueError(f"episode_len must be an int >= 1, not {self.episode_len!r}")
        if not 0.0 <= self.lambda_min < self.lambda_max < math.inf:
            raise ValueError("need 0 <= lambda_min < lambda_max < inf")
        if (len(self.v2g_window) != 2 or any(type(h) is not int for h in self.v2g_window)
                or not 0 <= self.v2g_window[0] < self.v2g_window[1] <= 24):
            raise ValueError("v2g_window wants two int hours: 0 <= start < end <= 24")
        if not math.isfinite(self.nonconvergence_penalty):
            raise ValueError("nonconvergence_penalty must be finite")
        if type(self.seed) is not int or self.seed < 0:
            raise ValueError(f"seed must be an int >= 0, not {self.seed!r}")


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
    subset each day. Every fleet carries the scenario's `FleetSpec`, so
    all hubs share its pack, aging coefficients and availability.
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
        fleets.append(FleetState(soc=socs, soh=np.full(count, spec.soh_init), spec=spec,
                                 order=rng.permutation(count)))
    return tuple(fleets)
