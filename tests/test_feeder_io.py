import dataclasses

import pytest

from voltfleet.grid import (
    Bus,
    FeederFormatError,
    FeederTopologyError,
    Hub,
    Line,
    LoadPoint,
    build_feeder,
    load_feeder,
)

GOOD = """\
# two-bus toy feeder
[system]
base_mva 2.5
[buses]
src   24.9  1
load  24.9  0
[lines]
src, load, 30.0, 20.0
[loads]
load  500  250
[hubs]
load  500  400
"""


def test_parse_round_trip():
    feeder = load_feeder(GOOD)
    assert feeder.bus_ids == ("src", "load")
    assert feeder.base_mva == 2.5
    assert feeder.buses[0].is_slack and not feeder.buses[1].is_slack
    assert feeder.buses[1].base_kv == 24.9
    ln = feeder.lines[0]
    assert (ln.from_bus, ln.to_bus, ln.resistance_ohm, ln.reactance_ohm) == (
        "src", "load", 30.0, 20.0,
    )
    assert feeder.loads[0] == LoadPoint("load", 500.0, 250.0)
    assert feeder.hubs == (Hub("load", 500.0, 400.0),)


def test_base_mva_defaults_to_one():
    text = GOOD.replace("[system]\nbase_mva 2.5\n", "")
    assert load_feeder(text).base_mva == 1.0


def test_comments_and_separators_tolerated():
    text = "[buses]\na 1.0 1 # slack\nb 1.0 0\n[lines]\na,b,0.1,0.2\n"
    feeder = load_feeder(text)
    assert len(feeder.buses) == 2
    assert feeder.lines[0].reactance_ohm == 0.2


@pytest.mark.parametrize(
    "text, lineno, fragment",
    [
        ("[nope]\n", 1, "unknown section"),
        ("a 1.0 1\n", 1, "before any section"),
        ("[buses]\na 1.0\n", 2, "3 fields"),
        ("[buses]\na x 1\n", 2, "expected a number"),
        ("[buses]\na 1.0 maybe\n", 2, "0/1 flag"),
        ("[buses\n", 1, "unterminated"),
        ("[lines]\na b 0.1\n", 2, "4 fields"),
    ],
)
def test_malformed_records_carry_line_numbers(text, lineno, fragment):
    with pytest.raises(FeederFormatError) as err:
        load_feeder(text)
    assert f"line {lineno}" in str(err.value)
    assert fragment in str(err.value)


@pytest.mark.parametrize(
    "old, new, lineno, field",
    [
        ("base_mva 2.5", "base_mva nan", 3, "base_mva"),
        ("src   24.9  1", "src   inf  1", 5, "base_kv"),
        ("src, load, 30.0, 20.0", "src, load, nan, 20.0", 8, "r_ohm"),
        ("src, load, 30.0, 20.0", "src, load, 30.0, -inf", 8, "x_ohm"),
        ("load  500  250", "load  inf  250", 10, "p_kw"),
        ("load  500  250", "load  500  NaN", 10, "q_kvar"),
        ("load  500  400", "load  nan  400", 12, "p_max_kw"),
        ("load  500  400", "load  500  Infinity", 12, "q_max_kvar"),
    ],
)
def test_non_finite_values_name_line_and_field(old, new, lineno, field):
    assert old in GOOD
    with pytest.raises(FeederFormatError, match=f"line {lineno}: {field}: expected a finite"):
        load_feeder(GOOD.replace(old, new))


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "buses, line, load, hub, base_mva",
    [
        ((24.9, 24.9), (NAN, 20.0), (500.0, 250.0), (500.0, 400.0), 1.0),
        ((24.9, 24.9), (30.0, NAN), (500.0, 250.0), (500.0, 400.0), 1.0),
        ((24.9, 24.9), (30.0, 20.0), (INF, 250.0), (500.0, 400.0), 1.0),
        ((24.9, 24.9), (30.0, 20.0), (500.0, -INF), (500.0, 400.0), 1.0),
        ((24.9, 24.9), (30.0, 20.0), (500.0, 250.0), (NAN, 400.0), 1.0),
        ((24.9, 24.9), (30.0, 20.0), (500.0, 250.0), (500.0, INF), 1.0),
        ((24.9, 24.9), (30.0, 20.0), (500.0, 250.0), (500.0, 400.0), NAN),
        ((24.9, 24.9), (30.0, 20.0), (500.0, 250.0), (500.0, 400.0), INF),
        ((NAN, 24.9), (30.0, 20.0), (500.0, 250.0), (500.0, 400.0), 1.0),
    ],
)
def test_build_feeder_rejects_non_finite_values(buses, line, load, hub, base_mva):
    with pytest.raises(ValueError, match="finite"):
        build_feeder(
            buses=[Bus("src", buses[0], is_slack=True), Bus("load", buses[1])],
            lines=[Line("src", "load", *line)],
            loads=[LoadPoint("load", *load)],
            hubs=[Hub("load", *hub)],
            base_mva=base_mva,
        )


def test_error_line_number_points_at_offender():
    text = "[buses]\na 1.0 1\nb 1.0 0\nbad-record\n"
    with pytest.raises(FeederFormatError) as err:
        load_feeder(text)
    assert "line 4" in str(err.value)


@pytest.mark.parametrize(
    "mutate, exc",
    [
        (lambda t: t.replace("src   24.9  1", "src   24.9  1\nsrc 24.9 0"), FeederTopologyError),
        (lambda t: t.replace("src   24.9  1", "src   24.9  0"), FeederTopologyError),
        (lambda t: t.replace("load  24.9  0", "load  24.9  1"), FeederTopologyError),
        (lambda t: t.replace("src, load, 30.0, 20.0", "src, src, 30.0, 20.0"), FeederTopologyError),
        (lambda t: t.replace("src, load, 30.0, 20.0", "src, ghost, 30.0, 20.0"), FeederTopologyError),
        (lambda t: t.replace("[loads]\nload  500  250", "[loads]\nghost 500 250"), FeederTopologyError),
        (lambda t: t.replace("src, load, 30.0, 20.0", "src, load, 0, 0"), ValueError),
        (lambda t: t.replace("load  500  400", "load  500  -400"), ValueError),
    ],
)
def test_structural_errors_surface(mutate, exc):
    with pytest.raises(exc):
        load_feeder(mutate(GOOD))


def test_line_count_must_match_tree():
    # extra edge closes a cycle: caught by the N-1 count
    text = GOOD + "[lines]\nsrc load 1 1\n"
    with pytest.raises(FeederTopologyError):
        load_feeder(text)


def test_disconnected_bus_rejected():
    with pytest.raises(FeederTopologyError):
        build_feeder(
            buses=[Bus("a", 1.0, is_slack=True), Bus("b", 1.0), Bus("c", 1.0)],
            lines=[Line("a", "b", 0.1, 0.1), Line("a", "b", 0.2, 0.2)],
            loads=[],
            hubs=[],
        )


def test_duplicate_hub_rejected():
    with pytest.raises(FeederTopologyError):
        build_feeder(
            buses=[Bus("a", 1.0, is_slack=True), Bus("b", 1.0)],
            lines=[Line("a", "b", 0.1, 0.1)],
            loads=[],
            hubs=[Hub("b", 100.0, 100.0), Hub("b", 100.0, 100.0)],
        )


def test_bus_and_slack_index_follow_the_buses():
    feeder = build_feeder(
        buses=[Bus("b", 1.0), Bus("a", 1.0, is_slack=True), Bus("c", 1.0)],
        lines=[Line("a", "b", 0.1, 0.1), Line("a", "c", 0.2, 0.2)],
        loads=[],
        hubs=[],
    )
    assert [feeder.bus_index(b) for b in ("b", "a", "c")] == [0, 1, 2]
    assert feeder.slack_index == 1
    with pytest.raises(KeyError, match="unknown bus 'zz'"):
        feeder.bus_index("zz")
    # derived from the buses, so a copy with other buses is not stale
    moved = dataclasses.replace(feeder, buses=feeder.buses[::-1])
    assert [moved.bus_index(b) for b in ("c", "a", "b")] == [0, 1, 2]
    assert moved.slack_index == 1 and feeder.slack_index == 1
    moved = dataclasses.replace(feeder, buses=feeder.buses[1:] + feeder.buses[:1])
    assert moved.slack_index == 0 and moved.bus_index("b") == 2


def test_shipped_feeders_load():
    from voltfleet.resources import feeder_path

    for name in ("two_bus", "five_bus_train", "ieee34_equiv"):
        from voltfleet.grid import load_feeder_file

        feeder = load_feeder_file(feeder_path(name))
        assert len(feeder.lines) == len(feeder.buses) - 1


def test_ieee34_equiv_shape():
    from voltfleet.grid import load_feeder_file
    from voltfleet.resources import feeder_path

    feeder = load_feeder_file(feeder_path("ieee34_equiv"))
    assert len(feeder.buses) == 34
    assert sorted(h.bus for h in feeder.hubs) == ["830", "832", "844", "860", "890"]
    for hub in feeder.hubs:
        assert (hub.p_max_kw, hub.q_max_kvar) == (500.0, 400.0)
    # base operating point carries ~1.8 MW / 1.0 MVAr of load
    p = sum(lp.p_base_kw for lp in feeder.loads)
    q = sum(lp.q_base_kvar for lp in feeder.loads)
    assert p == pytest.approx(1800.0, rel=0.01)
    assert q == pytest.approx(1000.0, rel=0.01)
