"""Daily load-multiplier profiles (24 hourly values), shipped as CSV."""

from __future__ import annotations

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
    lams = tuple(values[h] for h in range(24))
    if any(l < 0 for l in lams):
        raise ValueError("load multipliers must be >= 0")
    return lams

