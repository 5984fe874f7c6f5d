"""Print the seconds a fresh interpreter needs to get a workload ready.

    python3 perfbench/probe_setup.py <workload> <seed>

The clock starts before voltfleet (and so numpy) is imported and stops
once the workload's scenarios and feeders are loaded and its env (and
agent) are built. run.py starts this script in a new process for each
sample of cold_setup_s, a detail metric that, unlike setup_s, includes
the import.
"""

from time import perf_counter

START = perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

w = workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]))
w.setup()
print(perf_counter() - START)
