"""The benchmark's three seeded workloads and the checks on their outputs.

Each workload is one caller in a closed loop: `op()` performs one operation
and returns only when it is done, and the next operation starts after the
previous one has been checked. `setup()` loads the scenarios and feeders
and builds the env (and agent): what a user waits for before the first
operation, import aside. `warmup()` is untimed preparation, the env's
first reset included, whose cost depends on the seed's random loading.
`check()` runs outside the timed region and returns an error message, or
None when the operation's outputs are right.

The seed is the only input the benchmark chooses: it seeds the env, the
agent, the random actions and the EV fleet draws.

Calls into voltfleet go through module attributes (``harness.evaluate``,
not a name imported here), so the tracer's wrappers see them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from voltfleet import env as env_mod
from voltfleet import grid, harness, sac, scenario
# checks hash CSVs through this binding, which the tracer leaves alone, so
# only the operations' own calls show in the harness layer
from voltfleet.harness.report import hourly_csv as _hourly_csv_unwrapped

HERE = Path(__file__).resolve().parent
PINS_PATH = HERE / "pins.json"

SCENARIOS_34 = ("single_hub_mild", "single_hub_aggressive", "multi_hub_mild",
                "multi_hub_aggressive")
# (label, controller, ev_constrained, fixed_point); the first four are the
# shipped configurations whose report body is pinned
DAYS = (
    ("none", "none", False, False),
    ("droop", "droop", False, False),
    ("none_ev", "none", True, False),
    ("droop_ev", "droop", True, False),
    ("droop_fp", "droop", False, True),
)
WARMUP_STEPS = 256


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def param_sha256(agent) -> str:
    """sha256 over every parameter array of the agent, in checkpoint order."""
    h = hashlib.sha256()
    for key, t in sorted(agent._param_map().items()):
        h.update(key.encode())
        h.update(np.ascontiguousarray(t.data).tobytes())
    return h.hexdigest()


class Train5Bus:
    """SAC training on five_bus_train as `voltfleet train` runs it.

    One operation is one post-warmup step: act, env step, replay add,
    replay sample and one update (batch 256, 256x256 MLPs).
    """

    name = "train_5bus"
    ops_per_block = steps_per_block = 10

    def __init__(self, seed: int):
        self.seed = seed
        self.updates = 0

    def setup(self) -> None:
        sc = scenario.load_scenario("five_bus_train")
        cfg = env_mod.config_from_scenario(sc, mode="train", phase=1)
        self.env = env_mod.V2GEnv(cfg, seed=self.seed)
        self.agent = sac.SacAgent(self.env.observation_size, self.env.action_size,
                                  seed=self.seed, config=sac.SacConfig())

    def warmup(self) -> None:
        """Uniform random actions fill the replay buffer, as train() does."""
        self.obs = self.env.reset()
        rng = np.random.default_rng(self.seed)
        for _ in range(WARMUP_STEPS):
            a = rng.uniform(-1.0, 1.0, self.agent.act_dim)
            self._store(a)

    def _store(self, a) -> None:
        res = self.env.step(a)
        self.agent.replay.add(self.obs, a, res.reward, res.observation, res.done)
        self.obs = self.env.reset() if res.done else res.observation

    def op(self):
        self._store(self.agent.act(self.obs))
        batch = self.agent.replay.sample(self.agent.config.batch_size)
        stats = self.agent.update(batch)
        self.updates += 1
        return stats

    def check(self, stats) -> str | None:
        bad = [k for k, v in stats.items() if not math.isfinite(v)]
        return f"non-finite {bad} at update {self.updates}" if bad else None

    def finish(self) -> tuple[list[str], dict]:
        errors = []
        if self.agent.updates != self.updates:
            errors.append(f"agent.updates {self.agent.updates} != {self.updates} calls")
        return errors, {"updates": self.agent.updates, "param_sha256": param_sha256(self.agent)}


class Rollout34Bus:
    """Training-mode env rollout on multi_hub_aggressive with random actions.

    One operation is one env step plus its ReplayBuffer.add, and the reset
    that follows when the episode ends: what `train` does during warmup.
    """

    name = "rollout_34bus"
    ops_per_block = steps_per_block = 100

    def __init__(self, seed: int):
        self.seed = seed
        self._digest = hashlib.sha256()

    def setup(self) -> None:
        self.scenario = scenario.load_scenario("multi_hub_aggressive")
        cfg = env_mod.config_from_scenario(self.scenario, mode="train", phase=1)
        k_env, k_act, k_replay = np.random.SeedSequence(self.seed).spawn(3)
        self.env = env_mod.V2GEnv(cfg, seed=k_env)
        self.rng = np.random.default_rng(k_act)
        self.replay = sac.ReplayBuffer(self.env.observation_size, self.env.action_size,
                                       rng=np.random.default_rng(k_replay))
        self.balance = PowerBalance(self.scenario.feeder)

    def warmup(self) -> None:
        self.obs = self.env.reset()

    def op(self):
        a = self.rng.uniform(-1.0, 1.0, self.env.action_size)
        res = self.env.step(a)
        self.replay.add(self.obs, a, res.reward, res.observation, res.done)
        self.obs = self.env.reset() if res.done else res.observation
        return res

    def check(self, res) -> str | None:
        info = res.info
        self._digest.update(np.float64(res.reward).tobytes())
        self._digest.update(res.observation.tobytes())
        if not info["converged"]:
            if res.reward != self.scenario.nonconvergence_penalty:
                return f"non-converged step scored {res.reward}, not the penalty"
            return None
        sol = info["solution"]
        worst = self.balance.mismatch(info["lambda"], info["delivered"], sol.v_pu,
                                      sol.angle_rad)
        if not worst <= grid.DEFAULT_TOLERANCE_PU + self.balance.rounding_pu:
            return f"converged step has power mismatch {worst:.3e} pu"
        return None

    def finish(self) -> tuple[list[str], dict]:
        return [], {"outputs_sha256": self._digest.hexdigest()}


class PowerBalance:
    """Complex power mismatch of a solution, rebuilt from the feeder's lines.

    Independent of the solver: it takes V from the reported magnitudes and
    angles, forms each line's current from its end voltages and impedance,
    and compares the power each bus sends into its lines with the loads
    less the hub injections.
    """

    def __init__(self, feeder):
        n = len(feeder.buses)
        index = {b.id: i for i, b in enumerate(feeder.buses)}
        depth = self._depths(feeder, index)
        self.a = np.array([index[ln.from_bus] for ln in feeder.lines])
        self.b = np.array([index[ln.to_bus] for ln in feeder.lines])
        self.y = np.empty(len(feeder.lines), dtype=complex)
        for k, ln in enumerate(feeder.lines):
            child = max(self.a[k], self.b[k], key=lambda i: depth[i])
            z_base = feeder.buses[child].base_kv ** 2 / feeder.base_mva
            self.y[k] = z_base / complex(ln.resistance_ohm, ln.reactance_ohm)
        self.n = n
        self.index = index
        self.s_base_kw = feeder.base_mva * 1000.0
        self.base_load = np.zeros(n, dtype=complex)
        for lp in feeder.loads:
            self.base_load[index[lp.bus]] += complex(lp.p_base_kw, lp.q_base_kvar)
        self.load_buses = np.array([i for i, b in enumerate(feeder.buses) if not b.is_slack])
        # V rebuilt from |V| and angle is off by a few eps relative at each end
        # of a line, so its current by up to about 8 eps |y| (the two ends plus
        # the difference and product roundings); a bus's power by that summed
        # over its lines. Converged solves differ from the reported mismatch
        # by well under this.
        y_sum = np.zeros(n)
        np.add.at(y_sum, self.a, np.abs(self.y))
        np.add.at(y_sum, self.b, np.abs(self.y))
        self.rounding_pu = 8 * np.finfo(float).eps * float(y_sum.max())

    @staticmethod
    def _depths(feeder, index) -> list[int]:
        nbrs: dict[int, list[int]] = {i: [] for i in index.values()}
        for ln in feeder.lines:
            a, b = index[ln.from_bus], index[ln.to_bus]
            nbrs[a].append(b)
            nbrs[b].append(a)
        root = next(i for i, b in enumerate(feeder.buses) if b.is_slack)
        depth = [-1] * len(index)
        depth[root] = 0
        queue = [root]
        for u in queue:
            for v in nbrs[u]:
                if depth[v] < 0:
                    depth[v] = depth[u] + 1
                    queue.append(v)
        return depth

    def mismatch(self, lam, injections, v_pu, angle_rad) -> float:
        s_net = lam * self.base_load
        for bus, (p, q) in injections.items():
            s_net[self.index[bus]] -= complex(p, q)
        s_net /= self.s_base_kw
        v = v_pu * np.exp(1j * angle_rad)
        i_line = (v[self.a] - v[self.b]) * self.y
        i_out = np.zeros(self.n, dtype=complex)
        np.add.at(i_out, self.a, i_line)
        np.add.at(i_out, self.b, -i_line)
        s_out = v * np.conj(i_out)  # power each bus sends into its lines
        return float(np.max(np.abs(s_out + s_net)[self.load_buses]))


class Eval34Bus:
    """Evaluation days over the four 34-bus scenarios, then their reports.

    One sweep is, per scenario, the days in DAYS followed by one report
    operation: build_report over the four shipped-configuration days and
    hourly_csv for all five. Days and reports are the operations.

    With seed None every day runs at its scenario's own seed, and the
    report bodies and hourly CSVs must equal the pins. With any other
    seed each must repeat, byte for byte, what the first sweep produced.
    A droop_fp day must match its pinned figures within the pinned
    tolerance at every seed, since phase-1 days do not depend on it.
    """

    name = "eval_34bus"

    def __init__(self, seed: int | None):
        self.seed = seed

    def setup(self) -> None:
        self.scenarios = [scenario.load_scenario(n) for n in SCENARIOS_34]
        self.tasks = []
        for sc in self.scenarios:
            fp = dataclasses.replace(sc, droop=dataclasses.replace(sc.droop, fixed_point=True))
            for label, ctrl, ev, use_fp in DAYS:
                self.tasks.append((sc.name, label, fp if use_fp else sc, ctrl, ev))
            self.tasks.append((sc.name, "report", None, None, None))
        self.ops_per_block = len(self.tasks)
        self.steps_per_block = 24 * len(self.scenarios) * len(DAYS)
        self._next = 0
        self._runs: dict[tuple[str, str], object] = {}
        self.pins = json.loads(PINS_PATH.read_text()) if PINS_PATH.exists() else None
        self.reference: dict[str, str] = {}
        if self.seed is None and self.pins is not None:
            self.reference.update(self.pins["hourly_csv_sha256"])
            self.reference.update(
                {f"{n}/report": s for n, s in self.pins["report_sha256"].items()})

    def warmup(self) -> None:
        pass

    def op(self):
        name, label, sc, ctrl, ev = self.tasks[self._next]
        self._next = (self._next + 1) % len(self.tasks)
        if label == "report":
            runs = [self._runs[(name, d[0])] for d in DAYS]
            body = harness.build_report(runs[:4])
            for r in runs:
                harness.hourly_csv(r)
            return name, label, body
        run = harness.evaluate(sc, controller=ctrl, ev_constrained=ev, seed=self.seed)
        self._runs[(name, label)] = run
        return name, label, run

    def check(self, out) -> str | None:
        name, label, payload = out
        key = f"{name}/{label}"
        if self.pins is None:
            return f"{PINS_PATH.name} is missing"
        # the report body carries a sha256 over its days' hourly CSVs
        text = payload if label == "report" else _hourly_csv_unwrapped(payload)
        got = sha256(text)
        if got != self.reference.setdefault(key, got):
            want = "its pin" if self.seed is None else "the first sweep"
            return f"{key}: output differs from {want}"
        if label == "droop_fp":
            return _compare_fp(self.pins["droop_fp"][name], fp_summary(payload),
                               self.pins["droop_fp_tolerance"], key)
        return None

    def finish(self) -> tuple[list[str], dict]:
        return [], {"outputs_sha256": sha256(json.dumps(self.reference, sort_keys=True))}


def fp_summary(run) -> dict:
    """The figures of a droop_fp day that the pins hold."""
    m = run.metrics
    return {
        "v_mean": m.v_mean, "v_min": m.v_min, "v_max": m.v_max,
        "violation_hours": m.violation_hours, "nonconverged_hours": m.nonconverged_hours,
        "total_reward": run.total_reward,
        "hour_v_min": [h.v_min for h in run.hours],
        "hour_hub_p_kw": [sum(h.hub_p_kw.values()) for h in run.hours],
        "hour_hub_q_kvar": [sum(h.hub_q_kvar.values()) for h in run.hours],
    }


def _compare_fp(pinned: dict, got: dict, tol: dict, key: str) -> str | None:
    for field, want in pinned.items():
        have = got[field]
        if field.endswith("_hours"):
            ok = have == want
        else:
            t = tol["kw"] if "kw" in field or "kvar" in field else (
                tol["reward"] if field == "total_reward" else tol["v_pu"])
            ok = np.allclose(have, want, rtol=0.0, atol=t)
        if not ok:
            return f"{key}: {field} off its pinned value"
    return None


WORKLOADS = {w.name: w for w in (Train5Bus, Rollout34Bus, Eval34Bus)}
