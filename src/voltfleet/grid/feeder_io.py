"""Feeder file parsing.

Format: line-oriented sections `[buses]`, `[lines]`, `[loads]`, `[hubs]`,
optional `[system]` with one `base_mva` line (default 1.0). Fields are
whitespace- or comma-separated, `#` starts a comment, section names ignore
case. The table `_RECORDS` is the format's single definition: each record
section's fields, in column order, with their error labels and conversions.
Slack flags read 1/true/yes or 0/false/no. Example::

    [system]
    base_mva 1.0
    [buses]
    # id  base_kv  slack
    1   24.9  1
    2   24.9  0
    [lines]
    # from  to  r_ohm  x_ohm
    1  2  30.0  20.0
    [loads]
    # bus  p_kw  q_kvar
    2  500  250
    [hubs]
    # bus  p_max_kw  q_max_kvar
    2  500  400
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import NoReturn

from .model import Bus, Feeder, Hub, Line, LoadPoint, build_feeder


class FeederFormatError(ValueError):
    """Malformed feeder file; message carries the offending line number."""


def _fail(lineno: int, msg: str) -> NoReturn:
    raise FeederFormatError(f"line {lineno}: {msg}")


def _fields(raw: str) -> list[str]:
    return raw.replace(",", " ").split()


def _number(tok: str, lineno: int, what: str) -> float:
    try:
        value = float(tok)
    except ValueError:
        _fail(lineno, f"{what}: expected a number, got {tok!r}")
    if not math.isfinite(value):
        _fail(lineno, f"{what}: expected a finite number, got {tok!r}")
    return value


def _flag(tok: str, lineno: int, what: str) -> bool:
    low = tok.lower()
    if low in ("1", "true", "yes"):
        return True
    if low in ("0", "false", "no"):
        return False
    _fail(lineno, f"{what} flag: expected a 0/1 flag, got {tok!r}")


# The format's single definition: each record section, in `build_feeder`'s
# order, with its record class, its name in errors and its fields in column
# order (the class's field order) as (error label, conversion). A field without
# a conversion is a bus id and stays a string.
_RECORDS = {
    "buses": (Bus, "bus", (("id", None), ("base_kv", _number), ("slack", _flag))),
    "lines": (Line, "line", (("from", None), ("to", None), ("r_ohm", _number),
                             ("x_ohm", _number))),
    "loads": (LoadPoint, "load", (("bus", None), ("p_kw", _number), ("q_kvar", _number))),
    "hubs": (Hub, "hub", (("bus", None), ("p_max_kw", _number), ("q_max_kvar", _number))),
}
_SECTIONS = ("system", *_RECORDS)


def load_feeder(text: str) -> Feeder:
    """Parse feeder-file contents into a validated Feeder."""
    records: dict[str, list] = {name: [] for name in _RECORDS}
    base_mva = 1.0
    base_mva_line = 0

    section: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        if body.startswith("["):
            if not body.endswith("]"):
                _fail(lineno, f"unterminated section header {body!r}")
            name = body[1:-1].strip().lower()
            if name not in _SECTIONS:
                _fail(lineno, f"unknown section [{name}]")
            section = name
            if name in _RECORDS:
                cls, record, fields = _RECORDS[name]
                out = records[name]
                converted = [(i, label, convert)
                             for i, (label, convert) in enumerate(fields) if convert]
            continue
        if section is None:
            _fail(lineno, "record before any section header")

        toks = _fields(body)
        if section == "system":
            if len(toks) != 2 or toks[0].lower() != "base_mva":
                _fail(lineno, "expected: base_mva <value>")
            if base_mva_line:
                _fail(lineno, f"base_mva given twice (first on line {base_mva_line})")
            base_mva = _number(toks[1], lineno, "base_mva")
            base_mva_line = lineno
            continue
        if len(toks) != len(fields):
            labels = " ".join(label for label, _ in fields)
            _fail(lineno, f"{record} record needs {len(fields)} fields ({labels}), got {len(toks)}")
        for i, label, convert in converted:
            toks[i] = convert(toks[i], lineno, label)
        out.append(cls(*toks))

    return build_feeder(*records.values(), base_mva=base_mva)


def load_feeder_file(path: str | Path) -> Feeder:
    return load_feeder(Path(path).read_text())
