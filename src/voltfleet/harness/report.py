"""Plain-text report and per-run CSV output for evaluation days.

The report body is a pure function of the run records: reruns with the
same seed produce byte-identical bodies. Anything time-dependent (the
creation timestamp) lives in the manifest sidecar, never in the body.
"""

from __future__ import annotations

import hashlib
import json
from datetime import datetime, timezone
from pathlib import Path

from .. import __version__
from .evaluate import RunResult

_TABLE_COLUMNS = (
    "scenario",
    "controller",
    "profile",
    "v_mean",
    "v_min",
    "v_max",
    "viol_hours",
    "nonconv",
    "reward",
)


def _fmt(x, spec: str = ".6f") -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return format(x, spec)
    return str(x)


def hourly_csv(run: RunResult) -> str:
    """hour, v stats, then (p_kw, q_kvar, rho) per hub, then fleet columns."""
    hub_order = list(run.hours[0].hub_p_kw) if run.hours else []
    header = ["hour", "v_mean", "v_min", "v_max"]
    for bus in hub_order:
        header += [f"{bus}_p_kw", f"{bus}_q_kvar", f"{bus}_rho"]
    header += ["soc_mean", "ev_count"]
    lines = [",".join(header)]
    # one format call per row; each float field renders as _fmt renders a float
    row = "{},{:.6f},{:.6f},{:.6f}" + ",{:.3f},{:.3f},{:.6f}" * len(hub_order) + ",{},{}"
    for rec in run.hours:
        cells = [rec.hour, rec.v_mean, rec.v_min, rec.v_max]
        for bus in hub_order:
            cells += (rec.hub_p_kw[bus], rec.hub_q_kvar[bus], rec.hub_rho[bus])
        cells += (_fmt(rec.soc_mean), rec.ev_count)
        lines.append(row.format(*cells))
    return "\n".join(lines) + "\n"


def run_filename(run: RunResult) -> str:
    suffix = "_ev" if run.ev_constrained else ""
    return f"{run.scenario}_{run.controller}{suffix}.csv"


def build_report(runs: list[RunResult]) -> str:
    return _report_body(runs, [hourly_csv(r) for r in runs])


def _report_body(runs: list[RunResult], csvs: list[str]) -> str:
    """The report of `runs`, given each run's hourly CSV text in order."""
    if not runs:
        raise ValueError("no runs to report")
    feeders = {r.feeder for r in runs}
    if len(feeders) > 1:
        raise ValueError(f"refusing to mix feeders in one report: {sorted(feeders)}")

    rows = []
    for r in runs:
        m = r.metrics
        rows.append(
            (
                r.scenario,
                r.label,
                r.profile,
                _fmt(m.v_mean, ".5f"),
                _fmt(m.v_min, ".5f"),
                _fmt(m.v_max, ".5f"),
                str(m.violation_hours),
                str(m.nonconverged_hours),
                _fmt(r.total_reward, ".2f"),
            )
        )
    widths = [
        max(len(_TABLE_COLUMNS[i]), *(len(row[i]) for row in rows))
        for i in range(len(_TABLE_COLUMNS))
    ]
    def line(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()

    digest = hashlib.sha256("".join(csvs).encode()).hexdigest()
    seeds = sorted({r.seed for r in runs})

    out = [
        f"feeder: {runs[0].feeder}",
        "",
        line(_TABLE_COLUMNS),
        line(tuple("-" * w for w in widths)),
    ]
    out += [line(row) for row in rows]
    out += [
        "",
        f"seeds: {' '.join(str(s) for s in seeds)}",
        f"version: {__version__}",
        f"hourly_data_sha256: {digest}",
    ]
    return "\n".join(out) + "\n"


def write_report(runs: list[RunResult], out_dir: str | Path) -> dict[str, Path]:
    """Write report.txt, one CSV per run and a manifest.json sidecar."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}

    csvs = [hourly_csv(r) for r in runs]
    body = _report_body(runs, csvs)
    report_path = out / "report.txt"
    report_path.write_text(body)
    paths["report"] = report_path

    hashes = {"report.txt": hashlib.sha256(body.encode()).hexdigest()}
    for run, text in zip(runs, csvs):
        name = run_filename(run)
        (out / name).write_text(text)
        paths[name] = out / name
        hashes[name] = hashlib.sha256(text.encode()).hexdigest()

    manifest = {
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "version": __version__,
        "feeder": runs[0].feeder,
        "runs": [
            {
                "scenario": r.scenario,
                "controller": r.label,
                "seed": r.seed,
                "file": run_filename(r),
            }
            for r in runs
        ],
        "sha256": hashes,
    }
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
    paths["manifest"] = manifest_path
    return paths
