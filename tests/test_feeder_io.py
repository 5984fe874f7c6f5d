import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from test_power_flow import random_case

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


def test_hub_at_the_slack_bus_rejected():
    with pytest.raises(FeederTopologyError, match="slack bus 'src'"):
        load_feeder(GOOD.replace("[hubs]\nload  500  400", "[hubs]\nsrc  500  400"))


def test_second_base_mva_line_rejected():
    text = GOOD.replace("base_mva 2.5", "base_mva 1.0\nbase_mva 2.0")
    with pytest.raises(FeederFormatError, match="line 4: base_mva given twice"):
        load_feeder(text)


# The format as this test reads it, written out independently of the parser:
# each record section's record name, its fields' error labels in column order,
# and the columns that hold a number or a flag (the others are bus ids).
FORMAT = {
    "buses": ("bus", ("id", "base_kv", "slack"), {1: "number", 2: "flag"}),
    "lines": ("line", ("from", "to", "r_ohm", "x_ohm"), {2: "number", 3: "number"}),
    "loads": ("load", ("bus", "p_kw", "q_kvar"), {1: "number", 2: "number"}),
    "hubs": ("hub", ("bus", "p_max_kw", "q_max_kvar"), {1: "number", 2: "number"}),
}


def _rows(feeder, rnd):
    flag = {True: ("1", "true", "yes", "True", "YES"), False: ("0", "false", "no", "No")}
    return {
        "buses": [(b.id, repr(b.base_kv), rnd.choice(flag[b.is_slack])) for b in feeder.buses],
        "lines": [(ln.from_bus, ln.to_bus, repr(ln.resistance_ohm), repr(ln.reactance_ohm))
                  for ln in feeder.lines],
        "loads": [(lp.bus, repr(lp.p_base_kw), repr(lp.q_base_kvar)) for lp in feeder.loads],
        "hubs": [(h.bus, repr(h.p_max_kw), repr(h.q_max_kvar)) for h in feeder.hubs],
    }


def write_feeder(feeder, rnd):
    """(file lines, [(section, fields, line index)] per record) for a Feeder.

    Separators, comments, blank lines, header case and section order are
    drawn from `rnd`; a section may come in two blocks. Floats are written
    by repr, so they read back exactly.
    """
    lines: list[str] = []
    where = []

    def noise():
        for _ in range(rnd.randrange(3)):
            lines.append(rnd.choice(("", "   ", "# a comment", "  #", "\t# x, y [z]")))

    def header(name):
        cased = "".join(c.upper() if rnd.random() < 0.3 else c for c in name)
        pad = " " * rnd.randrange(2)
        lines.append(f"{pad}[{pad}{cased}{pad}]" + rnd.choice(("", "  # section")))

    parts = {}
    for name, recs in _rows(feeder, rnd).items():
        cut = rnd.randrange(len(recs) + 1) if rnd.random() < 0.3 else len(recs)
        parts[name] = [recs[:cut], recs[cut:]]
    blocks = [name for name in parts for _ in range(2)]
    rnd.shuffle(blocks)
    if feeder.base_mva != 1.0 or rnd.random() < 0.5:
        blocks.insert(rnd.randrange(len(blocks) + 1), "system")
    noise()
    for name in blocks:
        header(name)
        recs = parts[name].pop(0) if name in parts else None
        if recs is None:
            key = "".join(c.upper() if rnd.random() < 0.3 else c for c in "base_mva")
            lines.append(f"{key} {feeder.base_mva!r}")
        for fields in recs or ():
            noise()
            sep = rnd.choice((" ", "\t", ",", ", ", " , ", "   "))
            where.append((name, list(fields), len(lines)))
            lines.append(rnd.choice(("", " ")) + sep.join(fields) + rnd.choice(("", " # note")))
    noise()
    return lines, where


def _text(lines, rnd):
    return rnd.choice(("\n", "\r\n")).join(lines) + rnd.choice(("", "\n"))


feeders_to_write = st.builds(
    lambda seed, n: random_case(np.random.default_rng(seed), n, 1.0)[0],
    st.integers(0, 2**32 - 1),
    st.integers(2, 12),
)


@settings(max_examples=60, deadline=None)
@given(feeders_to_write, st.randoms(use_true_random=False))
def test_written_feeders_read_back_equal(feeder, rnd):
    lines, _ = write_feeder(feeder, rnd)
    assert load_feeder(_text(lines, rnd)) == feeder


@settings(max_examples=120, deadline=None)
@given(feeders_to_write, st.randoms(use_true_random=False), st.data())
def test_corrupt_field_names_its_line_and_label(feeder, rnd, data):
    lines, where = write_feeder(feeder, rnd)
    section, fields, at = data.draw(st.sampled_from(where))
    record, labels, kinds = FORMAT[section]
    how = data.draw(st.sampled_from(("drop", "add", "value")))
    if how == "value":
        col = data.draw(st.sampled_from(sorted(kinds)))
        if kinds[col] == "flag":
            bad = data.draw(st.sampled_from(("2", "-1", "0.5", "maybe", "y", "nan")))
            expect = f"{labels[col]} flag: expected a 0/1 flag"
        else:
            bad = data.draw(st.sampled_from(("abc", "1.0.0", "--1", "nan", "NaN", "inf",
                                             "-inf", "1e999")))
            finite = bad.lower() in ("nan", "inf", "-inf", "1e999")
            expect = f"{labels[col]}: expected a {'finite ' if finite else ''}number"
        fields[col] = bad
    elif how == "drop":
        del fields[data.draw(st.integers(0, len(fields) - 1))]
        expect = f"{record} record needs {len(labels)} fields ({' '.join(labels)}), got {len(fields)}"
    else:
        fields.insert(data.draw(st.integers(0, len(fields))), "7")
        expect = f"{record} record needs {len(labels)} fields ({' '.join(labels)}), got {len(fields)}"
    lines[at] = " ".join(fields)
    with pytest.raises(FeederFormatError) as err:
        load_feeder(_text(lines, rnd))
    assert str(err.value).startswith(f"line {at + 1}: ")
    assert expect in str(err.value)


def _is_tree(n, edges):
    """Union-find: n - 1 edges of which none closes a cycle span n buses."""
    root = list(range(n))

    def find(i):
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        root[ra] = rb
    return len(edges) == n - 1


@st.composite
def bus_graphs(draw):
    """n buses, a slack, and n - 1 lines: a random tree, often with one end moved."""
    n = draw(st.integers(1, 10))
    order = draw(st.permutations(range(n)))
    edges = [(order[draw(st.integers(0, i - 1))], order[i]) for i in range(1, n)]
    if edges and draw(st.booleans()):
        k = draw(st.integers(0, len(edges) - 1))
        end = draw(st.integers(0, n - 1))
        edges[k] = (edges[k][0], end) if draw(st.booleans()) else (end, edges[k][1])
    edges = [e[::-1] if draw(st.booleans()) else e for e in draw(st.permutations(edges))]
    return n, draw(st.integers(0, n - 1)), edges


@settings(max_examples=300, deadline=None)
@given(bus_graphs())
def test_build_feeder_accepts_exactly_the_trees(graph):
    n, slack, edges = graph
    buses = [Bus(f"n{i}", 1.0, is_slack=i == slack) for i in range(n)]
    lines = [Line(f"n{a}", f"n{b}", 0.1, 0.2) for a, b in edges]
    if _is_tree(n, edges):
        feeder = build_feeder(buses, lines, [], [])
        # each line feeds the end farther from the slack: one path row per bus
        path = feeder.network.path_impedance
        assert not path[slack].any() and np.count_nonzero(np.diag(path)) == n - 1
    else:
        with pytest.raises(FeederTopologyError):
            build_feeder(buses, lines, [], [])
