"""Write pins.json: the eval_34bus outputs every benchmark run is checked against.

    python3 perfbench/make_pins.py

It runs one eval_34bus sweep at the scenarios' own seeds and records the
sha256 of each report body and hourly CSV of the shipped configurations,
and the figures of each droop_fp day with the tolerance they are held to.
Pins are only rewritten when the program's outputs are meant to change.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

TOLERANCE = {"v_pu": 1e-6, "kw": 0.05, "reward": 1e-3}


def main() -> None:
    w = workloads.Eval34Bus(None)
    w.setup()
    pins = {"seed": "each scenario's own", "report_sha256": {}, "hourly_csv_sha256": {},
            "droop_fp": {}, "droop_fp_tolerance": TOLERANCE}
    shipped = {d[0] for d in workloads.DAYS[:4]}
    for _ in w.tasks:
        name, label, payload = w.op()
        if label == "report":
            pins["report_sha256"][name] = workloads.sha256(payload)
        elif label in shipped:
            pins["hourly_csv_sha256"][f"{name}/{label}"] = workloads.sha256(
                workloads._hourly_csv_unwrapped(payload))
        else:
            pins["droop_fp"][name] = workloads.fp_summary(payload)
    workloads.PINS_PATH.write_text(json.dumps(pins, indent=1) + "\n")


if __name__ == "__main__":
    main()
