"""Spans around the public calls of each voltfleet layer, installed from outside.

Nothing in the package is edited: `Tracer.install()` swaps wrappers in for
the layer functions and methods, and `uninstall()` puts the originals back.
A module-level function is wrapped at every binding of it in every loaded
``voltfleet`` module, found by identity, because each consumer holds its own
reference (``voltfleet.env.solve_power_flow``, the ``evaluate`` module's copy,
the package re-exports). Each wrapper remembers which module's binding it
replaced, so callers can be told apart: the only caller of the ``evaluate``
module's ``solve_power_flow`` is fixed-point droop.

A span is ``[name, origin, start, end, parent, extra]``; ``extra`` is what
the target's observer read from the call, such as the iteration count of a
solve. Spans stay in memory until the pass ends.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
from time import perf_counter

import numpy as np

NAME, ORIGIN, START, END, PARENT, EXTRA = range(6)
# the binding of solve_power_flow that only fixed-point droop calls
FP_ORIGIN = "voltfleet.harness.evaluate"


def _solve_extra(args, kwargs, result):
    return (result.iterations, result.converged)


def _allocate_extra(args, kwargs, result):
    p_req, q_req = args[0], args[1]
    return (math.hypot(p_req, q_req), math.hypot(result.p_sup_kw, result.q_sup_kvar),
            result.rho)


def _step_extra(args, kwargs, result):
    env, info = args[0], result.info
    train = env.config.mode == "train"
    lo, hi = env.config.v2g_window
    active = train or lo <= info["hour"] < hi
    return (env.config.phase, active, int(info["clamped"]), bool(info["converged"]), train)


def _reset_extra(args, kwargs, result):
    return args[0].config.mode == "train"


def _evaluate_extra(args, kwargs, result):
    scenario = args[0]
    label = result.controller
    if label == "droop" and scenario.droop.fixed_point:
        label = "droop_fp"
    return label + ("_ev" if result.ev_constrained else "")


# (span name, module, attribute, class name or None, observer)
TARGETS = (
    ("feeder_io.load_feeder_file", "voltfleet.grid.feeder_io", "load_feeder_file", None, None),
    ("scenario.load_scenario", "voltfleet.scenario", "load_scenario", None, None),
    ("scenario.build_fleets", "voltfleet.scenario", "build_fleets", None, None),
    ("powerflow.solve", "voltfleet.grid.powerflow", "solve_power_flow", None, _solve_extra),
    ("fleet.allocate", "voltfleet.fleet", "allocate", None, _allocate_extra),
    ("fleet.mark_availability", "voltfleet.fleet", "mark_availability", None, None),
    ("droop.control", "voltfleet.droop", "droop_control", None, None),
    ("env.step", "voltfleet.env", "step", "V2GEnv", _step_extra),
    ("env.reset", "voltfleet.env", "reset", "V2GEnv", _reset_extra),
    ("agent.update", "voltfleet.sac.agent", "update", "SacAgent", None),
    ("agent.act", "voltfleet.sac.agent", "act", "SacAgent", None),
    ("agent.adam", "voltfleet.sac.agent", "step", "Adam", None),
    ("agent.sample", "voltfleet.sac.nets", "sample", "GaussianPolicy", None),
    ("agent.q_forward", "voltfleet.sac.nets", "forward", "QNetwork", None),
    ("agent.q_forward_np", "voltfleet.sac.nets", "forward_np", "QNetwork", None),
    ("agent.backward", "voltfleet.sac.tensor", "backward", "Tensor", None),
    ("replay.add", "voltfleet.sac.replay", "add", "ReplayBuffer", None),
    ("replay.sample", "voltfleet.sac.replay", "sample", "ReplayBuffer", None),
    ("harness.evaluate", "voltfleet.harness.evaluate", "evaluate", None, _evaluate_extra),
    ("harness.build_report", "voltfleet.harness.report", "build_report", None, None),
    ("harness.hourly_csv", "voltfleet.harness.report", "hourly_csv", None, None),
)


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, origin: str, fn, observe):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, origin, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                span[START] = start
                stack.pop()
            if observe is not None:
                span[EXTRA] = observe(args, kwargs, result)
            return result

        return traced

    def install(self) -> "Tracer":
        if self._undo:
            raise RuntimeError("tracer already installed")
        importlib.import_module("voltfleet.harness")  # load every consumer first
        loaded = [(n, m) for n, m in list(sys.modules.items())
                  if m is not None and (n == "voltfleet" or n.startswith("voltfleet."))]
        for name, mod_name, attr, cls_name, observe in TARGETS:
            owner = sys.modules[mod_name]
            if cls_name is not None:
                cls = getattr(owner, cls_name)
                fn = cls.__dict__[attr]
                self._set(cls, attr, self._wrap(name, mod_name, fn, observe))
                continue
            fn = getattr(owner, attr)
            for holder_name, holder in loaded:
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        self._set(holder, key, self._wrap(name, holder_name, fn, observe))
        return self

    def _set(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)
        self._stack.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def layer_metrics(spans: list[list], wall_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer figures from one pass's spans; `wall_s` is the pass's timed wall."""
    dur = [s[END] - s[START] for s in spans]
    child_sum = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child_sum[s[PARENT]] += dur[i]

    def of(name, origin=None):
        return [i for i, s in enumerate(spans)
                if s[NAME] == name and (origin is None or s[ORIGIN] == origin)]

    def busy(idx):
        return float(sum(dur[i] for i in idx))

    m: dict[str, tuple[float, str]] = {}

    parse = of("feeder_io.load_feeder_file")
    m["feeder_io.parse_ms"] = (1e3 * _pct([dur[i] for i in parse], 50), "ms")
    m["scenario.load_ms"] = (1e3 * _pct([dur[i] for i in of("scenario.load_scenario")], 50), "ms")
    m["scenario.build_fleets_ms"] = (
        1e3 * _pct([dur[i] for i in of("scenario.build_fleets")], 50), "ms")

    solves = of("powerflow.solve")
    fp_solves = of("powerflow.solve", FP_ORIGIN)
    iters = [spans[i][EXTRA][0] for i in solves]
    solve_us = [1e6 * dur[i] for i in solves]
    pf_busy = busy(solves)
    m["powerflow.solves"] = (len(solves), "count")
    m["powerflow.iterations"] = (sum(iters), "count")
    m["powerflow.iters_per_solve"] = (_mean(iters), "count")
    m["powerflow.nonconverged"] = (sum(1 for i in solves if not spans[i][EXTRA][1]), "count")
    m["powerflow.solve_us.p50"] = (_pct(solve_us, 50), "us")
    m["powerflow.solve_us.p99"] = (_pct(solve_us, 99), "us")
    m["powerflow.busy_s"] = (pf_busy, "s")
    m["powerflow.share"] = (pf_busy / wall_s if wall_s > 0 else 0.0, "ratio")

    alloc = of("fleet.allocate")
    # fleet spans not nested in another fleet span (allocate marks availability)
    fleet_top = [i for i, s in enumerate(spans) if s[NAME].startswith("fleet.")
                 and (s[PARENT] < 0 or not spans[s[PARENT]][NAME].startswith("fleet."))]
    requested = sum(spans[i][EXTRA][0] for i in alloc)
    delivered = sum(spans[i][EXTRA][1] for i in alloc)
    m["fleet.allocate_calls"] = (len(alloc), "count")
    m["fleet.allocate_us.p50"] = (_pct([1e6 * dur[i] for i in alloc], 50), "us")
    m["fleet.mark_availability_us"] = (
        _pct([1e6 * dur[i] for i in of("fleet.mark_availability")], 50), "us")
    m["fleet.busy_s"] = (busy(fleet_top), "s")
    m["fleet.shortfall_hub_hours"] = (sum(1 for i in alloc if spans[i][EXTRA][2] < 1.0), "count")
    m["fleet.delivered_over_requested"] = (delivered / requested if requested > 0 else 0.0,
                                           "ratio")

    control = of("droop.control")
    fp_per_hour = _fp_solves_per_active_hour(spans)
    m["droop.control_calls"] = (len(control), "count")
    m["droop.control_us"] = (_pct([1e6 * dur[i] for i in control], 50), "us")
    m["droop.fp_solves"] = (len(fp_solves), "count")
    m["droop.fp_solves_per_active_hour"] = (fp_per_hour, "count")
    m["droop.busy_s"] = (busy(control) + busy(fp_solves), "s")

    steps = of("env.step")
    for phase in (1, 2):
        us = [1e6 * dur[i] for i in steps if spans[i][EXTRA][0] == phase]
        m[f"env.step_us.phase{phase}.p50"] = (_pct(us, 50), "us")
    resets = of("env.reset")
    env_spans = steps + resets
    m["env.reset_us"] = (_pct([1e6 * dur[i] for i in resets], 50), "us")
    m["env.self_s"] = (float(sum(dur[i] - child_sum[i] for i in env_spans)), "s")
    m["env.steps"] = (len(steps), "count")
    m["env.clamp_events"] = (sum(spans[i][EXTRA][2] for i in steps), "count")
    m["env.nonconverged_steps"] = (sum(1 for i in steps if not spans[i][EXTRA][3]), "count")
    # in train mode every non-converged solve inside the env is either a
    # step's controlled solve or a rejected loading draw (a resample)
    train_env = {i for i in env_spans
                 if (spans[i][EXTRA][4] if spans[i][NAME] == "env.step" else spans[i][EXTRA])}
    failed_in_train = sum(1 for i in solves if spans[i][PARENT] in train_env
                          and not spans[i][EXTRA][1])
    failed_train_steps = sum(1 for i in steps if i in train_env and not spans[i][EXTRA][3])
    m["env.degenerate_resets"] = (failed_in_train - failed_train_steps, "count")

    updates = of("agent.update")
    parts = _update_parts(spans, dur, updates)
    update_ms = [1e3 * dur[i] for i in updates]
    m["agent.updates"] = (len(updates), "count")
    m["agent.update_ms.p50"] = (_pct(update_ms, 50), "ms")
    m["agent.update_ms.p99"] = (_pct(update_ms, 99), "ms")
    m["agent.act_us"] = (_pct([1e6 * dur[i] for i in of("agent.act")], 50), "us")
    for part in ("target", "forward", "backward", "adam", "other"):
        m[f"agent.update.{part}_ms"] = (_pct([1e3 * p[part] for p in parts], 50), "ms")
    m["agent.update_share"] = (busy(updates) / wall_s if wall_s > 0 else 0.0, "ratio")

    m["replay.sample_us"] = (_pct([1e6 * dur[i] for i in of("replay.sample")], 50), "us")
    m["replay.add_us"] = (_pct([1e6 * dur[i] for i in of("replay.add")], 50), "us")

    days = of("harness.evaluate")
    m["harness.evaluate_ms"] = (1e3 * _mean([dur[i] for i in days]), "ms")
    m["harness.build_report_ms"] = (
        1e3 * _pct([dur[i] for i in of("harness.build_report")], 50), "ms")
    m["harness.hourly_csv_ms"] = (1e3 * _pct([dur[i] for i in of("harness.hourly_csv")], 50),
                                  "ms")
    m["fleet.ev_gap_share"] = (_ev_gap_share(spans, dur, days, fleet_top), "ratio")
    return m


def _update_parts(spans, dur, updates) -> list[dict[str, float]]:
    children: dict[int, list[int]] = {i: [] for i in updates}
    for j, s in enumerate(spans):
        if s[PARENT] in children:
            children[s[PARENT]].append(j)
    out = []
    for i in updates:
        part = {"target": 0.0, "forward": 0.0, "backward": 0.0, "adam": 0.0}
        seen_sample = False
        for j in children[i]:
            name = spans[j][NAME]
            if name == "agent.sample":
                part["forward" if seen_sample else "target"] += dur[j]
                seen_sample = True
            elif name == "agent.q_forward_np":
                part["target"] += dur[j]
            elif name == "agent.q_forward":
                part["forward"] += dur[j]
            elif name == "agent.backward":
                part["backward"] += dur[j]
            elif name == "agent.adam":
                part["adam"] += dur[j]
        part["other"] = dur[i] - sum(part.values())
        out.append(part)
    return out


def _fp_solves_per_active_hour(spans) -> float:
    """Fixed-point solves per V2G-window hour of the days that ran them.

    Fixed-point droop runs while the controller picks the hour's action,
    so its solves fall between the previous env step and the step they
    feed; they are charged to that step's hour.
    """
    solves = active_hours = pending = 0
    for s in spans:
        if s[NAME] == "powerflow.solve" and s[ORIGIN] == FP_ORIGIN:
            pending += 1
        elif s[NAME] == "env.step":
            if s[EXTRA][1] and pending:
                solves += pending
                active_hours += 1
            pending = 0
    return solves / active_hours if active_hours else 0.0


def _ev_gap_share(spans, dur, days, fleet_top) -> float:
    """Fleet time per EV day over the gap between EV and phase-1 day time."""
    by_label: dict[str, list[int]] = {}
    for i in days:
        by_label.setdefault(spans[i][EXTRA], []).append(i)
    ev = by_label.get("none_ev", []) + by_label.get("droop_ev", [])
    plain = by_label.get("none", []) + by_label.get("droop", [])
    gap = _mean([dur[i] for i in ev]) - _mean([dur[i] for i in plain])
    if not ev or not plain or gap <= 0:
        return 0.0
    ev_set = set(ev)
    fleet_in_ev = sum(dur[j] for j in fleet_top if _ancestor_in(spans, j, ev_set))
    return (fleet_in_ev / len(ev)) / gap


def _ancestor_in(spans, j, targets: set[int]) -> bool:
    p = spans[j][PARENT]
    while p >= 0:
        if p in targets:
            return True
        p = spans[p][PARENT]
    return False
