"""Daily load-multiplier profiles (24 hourly values), shipped as CSV."""

from __future__ import annotations

import math
from pathlib import Path

from .resources import profile_path


def load_profile(name_or_path: str | Path) -> tuple[float, ...]:
    """24 hourly multipliers from a `hour,lambda` CSV; `#` comments allowed."""
    path = profile_path(str(name_or_path))
    values: dict[int, float] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body or body.lower().startswith("hour"):
            continue
        try:
            hour_tok, lam_tok = body.replace(",", " ").split()
            values[int(hour_tok)] = float(lam_tok)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: expected `hour,lambda`, got {raw!r}") from exc
    if sorted(values) != list(range(24)):
        raise ValueError(f"profile {name_or_path!r} must define hours 0..23 exactly")
    return check_multipliers(tuple(values[h] for h in range(24)), f"profile {name_or_path!r}")


def check_multipliers(lams: tuple[float, ...], where: str) -> tuple[float, ...]:
    """`lams` when every one is finite and >= 0, else a ValueError naming `where`."""
    bad = [l for l in lams if not 0.0 <= l < math.inf]
    if bad:
        raise ValueError(f"{where}: load multipliers must be finite and >= 0, got {bad[0]}")
    return lams

