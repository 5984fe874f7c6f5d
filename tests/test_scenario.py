import dataclasses
import re

import numpy as np
import pytest

from voltfleet.droop import DroopCurve
from voltfleet.profiles import load_profile
from voltfleet.resources import scenario_path
from voltfleet.scenario import FleetSpec, build_fleets, load_scenario

SHIPPED = [
    "single_hub_mild",
    "single_hub_aggressive",
    "multi_hub_mild",
    "multi_hub_aggressive",
    "five_bus_train",
]


def test_shipped_profiles_shape_and_peak():
    mild = load_profile("mild")
    agg = load_profile("aggressive")
    assert len(mild) == 24 and len(agg) == 24
    assert mild[19] == max(mild) == 1.5
    assert agg[19] == max(agg) == 3.0
    for h in range(4):
        assert mild[h] == 0.4


def test_aggressive_dominates_mild_hourly():
    mild = load_profile("mild")
    agg = load_profile("aggressive")
    assert all(a >= m for m, a in zip(mild, agg))


def test_profile_parsing_tolerates_comments(tmp_path):
    rows = ["hour,lambda", "# comment line"]
    rows += [f"{h}, {0.5 + 0.01 * h}" for h in range(24)]
    p = tmp_path / "flat.csv"
    p.write_text("\n".join(rows) + "\n")
    prof = load_profile(p)
    assert prof[0] == 0.5
    assert prof[23] == pytest.approx(0.73)


def test_profile_missing_hour_rejected(tmp_path):
    rows = ["hour,lambda"] + [f"{h},1.0" for h in range(23)]
    p = tmp_path / "short.csv"
    p.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError, match="0..23"):
        load_profile(p)


def test_profile_negative_rejected(tmp_path):
    rows = ["hour,lambda"] + [f"{h},1.0" for h in range(23)] + ["23,-0.1"]
    p = tmp_path / "neg.csv"
    p.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError):
        load_profile(p)


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_profile_non_finite_rejected(tmp_path, bad):
    rows = ["hour,lambda"] + [f"{h},1.0" for h in range(23)] + [f"23,{bad}"]
    p = tmp_path / "odd.csv"
    p.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError, match="odd.csv.*finite"):
        load_profile(p)


def test_profile_repeated_hour_names_file_and_line(tmp_path):
    rows = ["hour,lambda"] + [f"{h},1.0" for h in range(24)]
    rows.insert(9, "5,9.0")
    p = tmp_path / "twice.csv"
    p.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError, match=r"twice\.csv:10: hour 5 is listed twice"):
        load_profile(p)


def test_profile_row_with_extra_field_names_file_and_line(tmp_path):
    rows = ["hour,lambda"] + [f"{h},1.0" for h in range(24)]
    rows[6] = "5,1.0,0.3"
    p = tmp_path / "wide.csv"
    p.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError, match=r"wide\.csv:7: expected `hour,lambda`"):
        load_profile(p)


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_scenarios_load(name):
    sc = load_scenario(name)
    assert sc.name == name
    assert len(sc.profile) == 24
    assert sc.v2g_window == (6, 23)
    feeder_hubs = {h.bus for h in sc.feeder.hubs}
    assert set(sc.hub_buses) <= feeder_hubs


def test_single_hub_mild_fields():
    sc = load_scenario("single_hub_mild")
    assert sc.feeder_name == "ieee34_equiv"
    assert sc.hub_buses == ("890",)
    assert sc.nonconvergence_penalty == -1000.0
    assert (sc.lambda_min, sc.lambda_max) == (0.1, 4.0)
    assert sc.fleet.ev_count == 30
    assert sc.fleet.eta_inv == 0.96
    assert sc.fleet.capacity_kwh == 75.0
    assert sc.fleet.availability[0] == 0.85
    assert sc.fleet.availability[10] == 0.50
    assert sc.droop.deadband_pu == 0.02
    assert sc.droop.fixed_point is False


def test_hubs_all_expands_in_feeder_order():
    sc = load_scenario("multi_hub_mild")
    assert sc.hub_buses == tuple(h.bus for h in sc.feeder.hubs)
    assert len(sc.hub_buses) == 5


def _write_scenario(tmp_path, body):
    p = tmp_path / "case.ini"
    p.write_text(body)
    return p


BASE_INI = """
[scenario]
feeder = two_bus
profile = mild
hubs = 2
"""


def test_minimal_scenario_defaults(tmp_path):
    sc = load_scenario(_write_scenario(tmp_path, BASE_INI))
    assert sc.episode_len == 100
    assert sc.seed == 0
    assert sc.fleet.ev_count == 30
    assert sc.fleet.availability == (1.0,) * 24
    assert sc.fleet == FleetSpec()
    assert sc.droop == DroopCurve()


def test_inline_profile_values(tmp_path):
    vals = " ".join(["1.25"] * 24)
    body = f"[scenario]\nfeeder = two_bus\nprofile_values = {vals}\n"
    sc = load_scenario(_write_scenario(tmp_path, body))
    assert sc.profile == (1.25,) * 24
    assert sc.profile_name == "inline"


@pytest.mark.parametrize(
    "body, fragment",
    [
        ("[fleet]\nev_count = 3\n", "scenario"),
        ("[scenario]\nprofile = mild\n", "feeder"),
        ("[scenario]\nfeeder = two_bus\n", "profile"),
        (BASE_INI.replace("hubs = 2", "hubs = 99"), "hubs"),
        (BASE_INI.replace("hubs = 2", "hubs = 1"), r"case\.ini: \[scenario\] hubs not on feeder"),
        (BASE_INI.replace("hubs = 2", "hubs ="), r"case\.ini: \[scenario\] needs at least one"),
        (BASE_INI + "phase = 3\n", "phase"),
        (BASE_INI + "lambda_min = 2.0\nlambda_max = 1.0\n", "lambda"),
        (BASE_INI + "lambda_mode = hourly\n", "lambda_mode"),
        (BASE_INI + "v2g_window = 23 6\n", "v2g_window"),
        (
            "[scenario]\nfeeder = two_bus\nprofile_values = 1.0 1.0\n",
            r"case\.ini: \[scenario\] profile needs 24 hourly multipliers, got 2",
        ),
        *(
            ("[scenario]\nfeeder = two_bus\nprofile_values = " + " ".join(["1.0"] * 23 + [bad]),
             r"case\.ini: \[scenario\] profile_values: load multipliers must be finite")
            for bad in ("nan", "-0.5", "inf")
        ),
        (BASE_INI + "[fleet]\navailability = 0.5 0.5 0.5\n", "availability"),
        (BASE_INI + "[fleet]\navailability = 1.5\n", "availability"),
        (BASE_INI + "[fleet]\nsoc_init = 0.9 0.2\n", "soc_init"),
        (BASE_INI + "[fleet]\ncapacity_kwh = 0\n", "capacity_kwh"),
        (BASE_INI + "[fleet]\nc_rate = -0.5\n", "c_rate"),
        (BASE_INI + "[fleet]\nsoh_init = 0\n", "soh_init"),
        (BASE_INI + "[fleet]\nsoh_init = 1.2\n", "soh_init"),
        (BASE_INI + "[fleet]\neta_inv = 0\n", "eta_inv"),
        *(
            (BASE_INI + f"[fleet]\n{key} = {bad}\n", key)
            for key in ("cycle_coeff", "calendar_coeff")
            for bad in ("nan", "inf", "-inf", "-1e-6")
        ),
        *(
            (BASE_INI + f"[fleet]\n{key} = {bad}\n", key)
            for key in ("capacity_kwh", "c_rate")
            for bad in ("inf", "nan")
        ),
        (BASE_INI + "[fleet]\neta_inv = nan\n", "eta_inv"),
        (BASE_INI + "lambda_max = inf\n", "lambda_max"),
        (BASE_INI + "episode_len = 0\n", "episode_len"),
        (BASE_INI + "episode_len = -5\n", "episode_len"),
        (BASE_INI + "seed = -1\n", r"case\.ini: \[scenario\] seed must be an int >= 0, not -1"),
        (BASE_INI + "nonconvergence_penalty = nan\n", "nonconvergence_penalty"),
        (BASE_INI + "[droop]\ndeadband = 0.12\n", "deadband"),
        (BASE_INI + "[droop]\nv_sat_high = 0.99\n", "saturation"),
        (
            scenario_path("multi_hub_mild").read_text().replace(
                "[fleet]\nev_count = 120", "[fleets]\nev_count = 120"),
            r"case\.ini: unknown section \[fleets\]",
        ),
        (BASE_INI + "lamda_max = 2.0\n", r"\[scenario\] unknown key 'lamda_max'"),
        (BASE_INI + "[droop]\nfixed_point = maybe\n", r"\[droop\] fixed_point"),
        ("[DEFAULT]\nev_count = 3\n" + BASE_INI, r"\[DEFAULT\] key 'ev_count'"),
        # INI syntax errors; a % is text, not an interpolation
        (BASE_INI + "hubs = 2\n", r"case\.ini: .*option 'hubs' in section 'scenario' already"),
        (BASE_INI + "[scenario]\nseed = 3\n", r"case\.ini: .*section 'scenario' already"),
        ("seed = 3\n" + BASE_INI, r"case\.ini: .*no section headers"),
        (BASE_INI + "lambda_max = 2%\n", r"case\.ini: \[scenario\] lambda_max: .*'2%'"),
    ],
)
def test_malformed_scenarios_rejected(tmp_path, body, fragment):
    with pytest.raises(ValueError, match=fragment):
        load_scenario(_write_scenario(tmp_path, body))


@pytest.mark.parametrize("hubs, repeated", [
    ("890 890", "['890']"),
    ("890, 844, 890", "['890']"),
    ("844 890 844 890", "['844', '890']"),
])
def test_repeated_hub_bus_rejected(tmp_path, hubs, repeated):
    """A repeated hub gets two action rows, and the solve would keep only one."""
    body = scenario_path("single_hub_mild").read_text().replace("hubs = 890", f"hubs = {hubs}")
    with pytest.raises(ValueError, match=r"case\.ini: \[scenario\] hub buses listed more "
                                         r"than once: " + re.escape(repeated)):
        load_scenario(_write_scenario(tmp_path, body))
    sc = load_scenario("multi_hub_mild")
    with pytest.raises(ValueError, match=r"more than once: \['890'\]"):
        dataclasses.replace(sc, hub_buses=("890", "844", "890"))


@pytest.mark.parametrize("bad", [2.5, True, -1])
def test_fleet_spec_rejects_a_bad_ev_count(bad):
    """A float or a bool is no EV count (a file's key is parsed by `int`)."""
    with pytest.raises(ValueError, match=re.escape(f"ev_count must be an int >= 0, not {bad!r}")):
        FleetSpec(ev_count=bad)


def test_build_fleets_split_and_ranges():
    sc = load_scenario("multi_hub_mild")
    fleets = build_fleets(sc, 3)
    assert len(fleets) == len(sc.hub_buses)
    assert sum(f.soc.size for f in fleets) == 120
    for f in fleets:
        assert f.soc.size == 24
        assert sorted(f.order) == list(range(24))
        for soc, soh in zip(f.soc, f.soh):
            assert 0.2 <= soc <= 0.9
            assert soh == 0.95
        assert f.spec is sc.fleet


def test_build_fleets_carry_the_scenario_aging():
    sc = load_scenario("multi_hub_mild")
    sc = dataclasses.replace(
        sc, fleet=dataclasses.replace(sc.fleet, cycle_coeff=2e-5, calendar_coeff=3e-7)
    )
    for f in build_fleets(sc, 3):
        assert f.spec is sc.fleet


def test_build_fleets_remainder_goes_to_first_hubs():
    sc = load_scenario("multi_hub_mild")
    sc = dataclasses.replace(
        sc,
        hub_buses=sc.hub_buses[:2],
        fleet=dataclasses.replace(sc.fleet, ev_count=7),
    )
    fleets = build_fleets(sc, 0)
    assert [f.soc.size for f in fleets] == [4, 3]


def test_build_fleets_deterministic_and_seed_sensitive():
    sc = load_scenario("single_hub_mild")
    a = build_fleets(sc, 11)[0]
    b = build_fleets(sc, 11)[0]
    c = build_fleets(sc, 12)[0]
    assert a.soc.tolist() == b.soc.tolist()
    assert a.order.tolist() == b.order.tolist()
    assert a.soc.tolist() != c.soc.tolist()


def test_build_fleets_accepts_seed_sequence():
    sc = load_scenario("single_hub_mild")
    a = build_fleets(sc, np.random.SeedSequence(5))[0]
    b = build_fleets(sc, np.random.SeedSequence(5))[0]
    assert a.soc.tolist() == b.soc.tolist()
