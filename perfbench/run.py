"""voltfleet benchmark: one seeded workload per run, checked, timed, optionally traced.

    python3 perfbench/run.py --workload train_5bus --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory and nowhere else. Standard output carries a detail
record (machine, checks, counters, every metric the workload defines)
and, as its last line, the summary: ``correct``, ``attempted``, ``failed``
and the metrics named in BENCHMARK.json. ``--trace 0`` times the
workload for ``--seconds`` and reports the end-to-end metrics.
``--trace 1`` runs a fixed amount of the same work twice from the same
seed, a plain copy and a copy with every layer wrapped, block by block in
turn, and reports the per-layer metrics of the traced copy and the
traced-minus-plain time as tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench_state"

SETUP_PER_SECOND = 4  # in-process set-ups behind setup_s, per second of operation time
COLD_PROBES = 4  # fresh interpreters behind cold_setup_s, after a discarded one
# operations of one fixed pass in a --trace 1 run, per second of --seconds
PASS_OPS_PER_SECOND = {"train_5bus": 8, "rollout_34bus": 150, "eval_34bus": 4}
MAX_FAILURES = 100  # a loop stops early once this many operations have failed


def _import_package():
    """Import voltfleet from this checkout's src, or exit with code 2."""
    sys.path.insert(0, str(SRC))
    try:
        import voltfleet
    except ImportError as exc:
        print(f"perfbench: cannot import voltfleet from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if Path(voltfleet.__file__).resolve().parent != SRC / "voltfleet":
        print(f"perfbench: voltfleet imported from {voltfleet.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


# ---- machine record ------------------------------------------------------

def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded, read through its own API."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({ln.split()[-1] for ln in maps.splitlines() if "openblas" in ln.lower()
                   and ln.split()[-1].startswith("/")})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def tree_sha256(root: Path) -> str:
    """sha256 over the files under root, so non-git checkouts are named."""
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def machine_record() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    threads = _blas_threads()
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_threads_within_nproc": threads is None or threads <= nproc,
        "git_commit": _git_commit(),
        "source_sha256": tree_sha256(SRC / "voltfleet"),
    }


# ---- timing --------------------------------------------------------------

def time_setup(W, seed: int) -> float:
    """Seconds one set-up of the workload takes in this process.

    It loads the scenarios and feeders and builds the env (and agent)
    from scratch. A collection first keeps earlier garbage out of its time.
    """
    gc.collect()
    start = perf_counter()
    W(seed).setup()
    return perf_counter() - start


def measure_cold_setup(workload: str, seed: int) -> list[float]:
    """Set-up times of fresh interpreters, import included.

    The first, which may compile, is dropped.
    """
    cmd = [sys.executable, str(HERE / "probe_setup.py"), workload, str(seed)]
    times = []
    for _ in range(COLD_PROBES + 1):
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
                             check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times[1:]


class Pass:
    """Operation times and failures of one loop over a workload."""

    def __init__(self):
        self.times: list[float] = []
        self.errors: list[str] = []  # one per failed operation

    @property
    def attempted(self) -> int:
        return len(self.times)

    def extend(self, other: "Pass") -> None:
        self.times += other.times
        self.errors += other.errors


def run_ops(w, count: int) -> Pass:
    """Closed loop: each operation starts after the last was timed and checked.

    Stops after `count` operations. Checks run between operations,
    outside the timed region.
    """
    p = Pass()
    while p.attempted < count and len(p.errors) < MAX_FAILURES:
        start = perf_counter()
        try:
            out = w.op()
        except Exception as exc:  # a failed operation is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
            out = None
        else:
            error = None
        elapsed = perf_counter() - start
        p.times.append(elapsed)
        if error is None:
            error = w.check(out)
        if error is not None:
            p.errors.append(error)
    return p


def _blocks(p: Pass, w) -> list[list[float]]:
    n = w.ops_per_block
    return [p.times[i:i + n] for i in range(0, p.attempted - n + 1, n)]


def steps_per_s(p: Pass, w) -> float:
    """Env steps per second of operation time, over whole blocks.

    A total over the run, not a median of blocks: the machine's speed
    drifts within a run, and the total averages the drift out, where a
    median or a minimum picks one phase of it.
    """
    blocks = _blocks(p, w)
    return w.steps_per_block * len(blocks) / sum(map(sum, blocks))


def eval_detail(p: Pass, w) -> dict[str, tuple[float, str]]:
    """Mean day time per controller over sweeps and scenarios, report and sweep time."""
    means = [statistics.fmean(col) for col in zip(*_blocks(p, w))]
    by_label: dict[str, list[float]] = {}
    for (_, label, *_rest), t in zip(w.tasks, means):
        by_label.setdefault(label, []).append(t)
    m = {f"day_ms.{label}": (1e3 * statistics.fmean(v), "ms")
         for label, v in by_label.items() if label != "report"}
    m["report_ms"] = (1e3 * statistics.fmean(by_label["report"]), "ms")
    m["sweep_s"] = (sum(means), "s")
    return m


# ---- determinism ---------------------------------------------------------

DETERMINISM_KEYS = (
    "powerflow.solves", "powerflow.iterations", "powerflow.nonconverged",
    "env.steps", "env.clamp_events", "env.degenerate_resets", "env.nonconverged_steps",
    "droop.fp_solves", "fleet.allocate_calls", "fleet.shortfall_hub_hours", "agent.updates",
)


def compare_with_earlier(key: str, record: dict) -> list[str]:
    """Differences from an earlier run of the same code, workload, seed and size.

    The first run stores its record under .perfbench_state; later runs
    compare against it. A checkout that cannot be written is only read.
    """
    path = STATE / "determinism.json"
    try:
        known = json.loads(path.read_text()) if path.is_file() else {}
    except (OSError, ValueError):
        known = {}
    earlier = known.get(key)
    if earlier is None:
        known[key] = record
        try:
            STATE.mkdir(exist_ok=True)
            tmp = path.with_suffix(".tmp")
            tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
            os.replace(tmp, path)
        except OSError:
            pass
        return []
    return [f"{k}: {earlier.get(k)} earlier, {v} now" for k, v in record.items()
            if earlier.get(k) != v]


def write_spans(workload: str, seed: int, spans: list[list]) -> str | None:
    path = STATE / f"spans-{workload}-seed{seed}.json"
    try:
        STATE.mkdir(exist_ok=True)
        path.write_text(json.dumps(spans))
    except OSError:
        return None
    return str(path.relative_to(ROOT))


# ---- runs ----------------------------------------------------------------

def run_plain(args, workloads) -> tuple[dict, dict, list[str], int]:
    """The workload timed for --seconds, untraced, with set-up samples.

    Operations run in whole blocks until --seconds of operation time are
    measured. Between blocks, outside the timed region, the workload is
    set up afresh SETUP_PER_SECOND times per measured second, so the
    set-up samples span the same stretch of the machine's drifting speed
    as the operations.
    """
    W = workloads.WORKLOADS[args.workload]
    cold = measure_cold_setup(args.workload, args.seed)
    errors: list[str] = []
    attempted = 0
    if W is workloads.Eval34Bus:  # one untimed sweep against the pins
        pinned = W(None)
        pinned.setup()
        ref = run_ops(pinned, count=pinned.ops_per_block)
        errors += ref.errors
        attempted += ref.attempted
    w = W(args.seed)
    w.setup()
    w.warmup()
    first = run_ops(w, count=w.ops_per_block)  # warms the process: checked, not timed
    p = Pass()
    setup: list[float] = []
    while sum(p.times) < args.seconds and len(p.errors) < MAX_FAILURES:
        p.extend(run_ops(w, count=w.ops_per_block))
        while len(setup) < SETUP_PER_SECOND * sum(p.times):
            setup.append(time_setup(W, args.seed))
    more, facts = w.finish()
    errors += first.errors + p.errors + more
    attempted += first.attempted + p.attempted
    metrics = {
        "steps_per_s": (steps_per_s(p, w), "1/s"),
        "setup_s": (statistics.median(setup), "s"),
    }
    named = dict(metrics)
    named["ops"] = (attempted, "count")
    named["ops_failed"] = (len(errors), "count")
    named["measured_s"] = (sum(p.times), "s")
    named["cold_setup_s"] = (statistics.median(cold), "s")
    if W is workloads.Eval34Bus:
        named.update(eval_detail(p, w))
    detail = {"setup_s_samples": setup,
              "cold_setup_s_samples": cold,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
              "outputs": facts}
    return metrics, detail, errors, attempted


def run_traced(args, workloads, tracer_mod) -> tuple[dict, dict, list[str], int]:
    """The same fixed work twice from the same seed, plain and traced.

    A discarded block warms the process first. The two copies then run
    block by block in turn, so a change in machine speed during the run
    falls on both, and the tracer is installed only around the traced
    copy's blocks.
    """
    W = workloads.WORKLOADS[args.workload]
    tracer = tracer_mod.Tracer()
    warm = W(args.seed)
    warm.setup()
    warm.warmup()
    run_ops(warm, count=warm.ops_per_block)

    plain, traced = W(args.seed), W(args.seed)
    plain.setup()
    plain.warmup()
    with tracer:
        traced.setup()
    traced.warmup()
    block = plain.ops_per_block
    wanted = round(PASS_OPS_PER_SECOND[args.workload] * args.seconds)
    blocks = max(1, wanted // block)
    p_plain, p_traced = Pass(), Pass()
    for _ in range(blocks):
        p_plain.extend(run_ops(plain, count=block))
        with tracer:
            p_traced.extend(run_ops(traced, count=block))

    errors = p_plain.errors + p_traced.errors
    facts = []
    for w in (plain, traced):
        more, f = w.finish()
        errors += more
        facts.append(f)
    # the parameter checksum is informational: reported, never gated
    params = [f.pop("param_sha256", None) for f in facts]
    if facts[0] != facts[1]:
        errors.append(f"plain and traced passes disagree: {facts[0]} vs {facts[1]}")
    wall = sum(p_traced.times)
    metrics = tracer_mod.layer_metrics(tracer.spans, wall)
    metrics["trace.overhead_frac"] = (wall / sum(p_plain.times) - 1.0, "ratio")

    record = {k: metrics[k][0] for k in DETERMINISM_KEYS}
    record.update(facts[1])
    # counters are compared only between runs of the same program and benchmark
    key = (f"{args.workload}|seed={args.seed}|ops={p_traced.attempted}"
           f"|{tree_sha256(SRC / 'voltfleet')}|{tree_sha256(HERE)}")
    drift = compare_with_earlier(key, record)
    errors += [f"determinism: {d}" for d in drift]
    detail = {
        "pass_ops": p_traced.attempted,
        "determinism": {"counters": record, "differs_from_earlier_run": drift},
        "param_sha256": {"plain": params[0], "traced": params[1]},
        "spans_file": write_spans(args.workload, args.seed, tracer.spans),
        "span_count": len(tracer.spans),
    }
    return metrics, detail, errors, p_plain.attempted + p_traced.attempted


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_package()
    import tracer as tracer_mod
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    machine = machine_record()
    if args.trace:
        metrics, detail, errors, attempted = run_traced(args, workloads, tracer_mod)
    else:
        metrics, detail, errors, attempted = run_plain(args, workloads)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine, "errors": errors[:20], **detail}
    print(json.dumps(report, sort_keys=False))
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
