"""Checks on the benchmark itself: complete tracing and a power balance that bites."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import numpy as np  # noqa: E402

import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import voltfleet  # noqa: E402
import workloads  # noqa: E402
from voltfleet.grid import DEFAULT_TOLERANCE_PU  # noqa: E402


def _traced_pass(w, ops: int):
    t = tracer_mod.Tracer()
    with t:
        w.setup()
        w.warmup()
        p = run.run_ops(w, count=ops)
    assert p.errors == []
    return tracer_mod.layer_metrics(t.spans, sum(p.times))


def test_traced_eval_sees_every_solve_binding():
    """Two solves per env step (observation and controlled) plus fixed-point ones.

    The env and the evaluate module each hold their own reference to
    solve_power_flow, and the harness package shadows the evaluate module;
    a solve missed by the wrappers would break the count.
    """
    sweep = len(workloads.SCENARIOS_34) * (len(workloads.DAYS) + 1)  # days and a report
    m = _traced_pass(workloads.Eval34Bus(None), ops=sweep)
    steps = m["env.steps"][0]
    assert steps == 24 * len(workloads.SCENARIOS_34) * len(workloads.DAYS)
    assert m["droop.fp_solves"][0] > 0
    assert m["powerflow.solves"][0] == 2 * steps + m["droop.fp_solves"][0]
    assert m["harness.evaluate_ms"][0] > 0 and m["fleet.allocate_calls"][0] > 0


def test_traced_rollout_counts_resamples_and_the_first_reset():
    m = _traced_pass(workloads.Rollout34Bus(3), ops=200)
    assert m["env.steps"][0] == 200
    expected = 2 * 200 + m["env.degenerate_resets"][0] + 1  # +1: reset in warmup
    assert m["powerflow.solves"][0] == expected


def _bindings() -> dict[str, object]:
    evaluate_module = sys.modules["voltfleet.harness.evaluate"]
    return {
        "voltfleet.solve_power_flow": voltfleet.solve_power_flow,
        "voltfleet.env.solve_power_flow": voltfleet.env.solve_power_flow,
        "evaluate module solve_power_flow": evaluate_module.solve_power_flow,
        "voltfleet.harness.evaluate": voltfleet.harness.evaluate,
        "V2GEnv.step": voltfleet.env.V2GEnv.step,
    }


def test_uninstall_restores_every_binding():
    before = _bindings()
    with tracer_mod.Tracer():
        during = _bindings()
    assert all(during[k] is not before[k] for k in before)
    assert _bindings() == before


def test_power_balance_accepts_solutions_and_rejects_a_perturbed_one():
    w = workloads.Rollout34Bus(5)
    w.setup()
    w.warmup()
    for _ in range(50):
        res = w.op()
        assert w.check(res) is None
    info = res.info
    sol = info["solution"]
    assert sol.converged
    exact = w.balance.mismatch(info["lambda"], info["delivered"], sol.v_pu, sol.angle_rad)
    assert exact <= DEFAULT_TOLERANCE_PU
    v = sol.v_pu.copy()
    v[len(v) // 2] += 1e-5
    off = w.balance.mismatch(info["lambda"], info["delivered"], v, sol.angle_rad)
    assert off > 100 * DEFAULT_TOLERANCE_PU
    assert np.isfinite(off)
