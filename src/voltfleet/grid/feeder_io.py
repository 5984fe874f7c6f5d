"""Feeder file parsing.

Format: line-oriented sections `[buses]`, `[lines]`, `[loads]`, `[hubs]`,
optional `[system]`. Fields whitespace- or comma-separated, `#` starts a
comment. Example::

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

from .model import Bus, Feeder, Hub, Line, LoadPoint, build_feeder

_SECTIONS = ("system", "buses", "lines", "loads", "hubs")


class FeederFormatError(ValueError):
    """Malformed feeder file; message carries the offending line number."""


def _fail(lineno: int, msg: str) -> None:
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
    _fail(lineno, f"{what}: expected a 0/1 flag, got {tok!r}")
    raise AssertionError


def load_feeder(text: str) -> Feeder:
    """Parse feeder-file contents into a validated Feeder."""
    buses: list[Bus] = []
    lines: list[Line] = []
    loads: list[LoadPoint] = []
    hubs: list[Hub] = []
    base_mva = 1.0

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
            continue
        if section is None:
            _fail(lineno, "record before any section header")

        toks = _fields(body)
        if section == "system":
            if len(toks) != 2 or toks[0].lower() != "base_mva":
                _fail(lineno, "expected: base_mva <value>")
            base_mva = _number(toks[1], lineno, "base_mva")
        elif section == "buses":
            if len(toks) != 3:
                _fail(lineno, f"bus record needs 3 fields (id base_kv slack), got {len(toks)}")
            buses.append(
                Bus(
                    id=toks[0],
                    base_kv=_number(toks[1], lineno, "base_kv"),
                    is_slack=_flag(toks[2], lineno, "slack flag"),
                )
            )
        elif section == "lines":
            if len(toks) != 4:
                _fail(lineno, f"line record needs 4 fields (from to r_ohm x_ohm), got {len(toks)}")
            lines.append(
                Line(
                    from_bus=toks[0],
                    to_bus=toks[1],
                    resistance_ohm=_number(toks[2], lineno, "r_ohm"),
                    reactance_ohm=_number(toks[3], lineno, "x_ohm"),
                )
            )
        elif section == "loads":
            if len(toks) != 3:
                _fail(lineno, f"load record needs 3 fields (bus p_kw q_kvar), got {len(toks)}")
            loads.append(
                LoadPoint(
                    bus=toks[0],
                    p_base_kw=_number(toks[1], lineno, "p_kw"),
                    q_base_kvar=_number(toks[2], lineno, "q_kvar"),
                )
            )
        elif section == "hubs":
            if len(toks) != 3:
                _fail(lineno, f"hub record needs 3 fields (bus p_max_kw q_max_kvar), got {len(toks)}")
            hubs.append(
                Hub(
                    bus=toks[0],
                    p_max_kw=_number(toks[1], lineno, "p_max_kw"),
                    q_max_kvar=_number(toks[2], lineno, "q_max_kvar"),
                )
            )

    return build_feeder(buses, lines, loads, hubs, base_mva=base_mva)


def load_feeder_file(path: str | Path) -> Feeder:
    return load_feeder(Path(path).read_text())
