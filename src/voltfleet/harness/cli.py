"""Command line entry points: train, eval, report, validate-feeder."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from ..env import EnvConfig, V2GEnv
from ..grid import load_feeder_file
from ..sac import SacAgent, SacConfig
from ..sac.train import divergence_dump_beside, train as sac_train
from ..scenario import load_scenario
from .evaluate import CONTROLLERS, evaluate
from .report import build_report, write_report


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="voltfleet",
        description="V2G hub dispatch experiments on radial feeders",
    )
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train a SAC policy on a scenario")
    t.add_argument("--scenario", required=True)
    t.add_argument("--steps", type=int, default=20000)
    t.add_argument("--warmup", type=int, default=1000)
    t.add_argument("--out", required=True, help="checkpoint path (.npz)")
    t.add_argument("--seed", type=int, default=None, help="override scenario seed")
    t.add_argument("--log-csv", default=None, help="write training history here")

    e = sub.add_parser("eval", help="run one scenario day under controllers")
    e.add_argument("--scenario", required=True)
    e.add_argument(
        "--controllers", nargs="+", default=["none"], choices=CONTROLLERS
    )
    e.add_argument("--policy", default=None, help="checkpoint for the rl controller")
    e.add_argument("--ev-constrained", action="store_true",
                   help="route hub power through the finite EV fleet")
    e.add_argument("--out-dir", default=None,
                   help="write report + CSVs here instead of stdout")
    e.add_argument("--seed", type=int, default=None)

    r = sub.add_parser("report", help="evaluate scenario batch and write a report")
    r.add_argument("--scenarios", nargs="+", required=True)
    r.add_argument(
        "--controllers", nargs="+", default=["none", "droop"], choices=CONTROLLERS
    )
    r.add_argument("--policy", default=None)
    r.add_argument("--ev-constrained", action="store_true")
    r.add_argument("--out-dir", required=True)
    r.add_argument("--seed", type=int, default=None)

    v = sub.add_parser("validate-feeder", help="parse and check a feeder file")
    v.add_argument("path")
    return p


def _run_batch(scenario_names, controllers, policy, ev_constrained, seed):
    # evaluate() checks the policy's sizes against each scenario
    agent = None if policy is None else SacAgent.restore(policy)
    runs = []
    for name in scenario_names:
        scenario = load_scenario(name)
        for ctrl in controllers:
            if ctrl == "rl" and agent is None:
                raise ValueError("--policy is required for the rl controller")
            runs.append(
                evaluate(
                    scenario,
                    controller=ctrl,
                    agent=agent,
                    ev_constrained=ev_constrained,
                    seed=seed,
                )
            )
    return runs


def _cmd_train(args) -> int:
    scenario = load_scenario(args.scenario)
    seed = scenario.seed if args.seed is None else args.seed
    env = V2GEnv(EnvConfig(scenario, mode="train"), seed=seed)
    agent = SacAgent(env.observation_size, env.action_size, seed=seed,
                     config=SacConfig())
    result = sac_train(
        env,
        agent,
        total_steps=args.steps,
        warmup=args.warmup,
        csv_path=args.log_csv,
        seed=seed,
        dump_path=divergence_dump_beside(args.out),
    )
    agent.save(args.out)
    summary = {
        "scenario": scenario.name,
        "steps": result.steps,
        "seed": seed,
        "checkpoint": str(args.out),
        "final_reward_mean": result.history[-1]["reward_mean"] if result.history else None,
    }
    print(json.dumps(summary))
    return 0


def _cmd_eval(args) -> int:
    runs = _run_batch(
        [args.scenario], args.controllers, args.policy, args.ev_constrained, args.seed
    )
    if args.out_dir is None:
        sys.stdout.write(build_report(runs))
    else:
        paths = write_report(runs, args.out_dir)
        print(json.dumps({"written": sorted(str(p) for p in paths.values())}))
    return 0


def _cmd_report(args) -> int:
    runs = _run_batch(
        args.scenarios, args.controllers, args.policy, args.ev_constrained, args.seed
    )
    paths = write_report(runs, args.out_dir)
    print(json.dumps({"written": sorted(str(p) for p in paths.values())}))
    return 0


def _cmd_validate(args) -> int:
    feeder = load_feeder_file(args.path)
    info = {
        "path": str(Path(args.path)),
        "buses": len(feeder.buses),
        "lines": len(feeder.lines),
        "loads": len(feeder.loads),
        "hubs": sorted(h.bus for h in feeder.hubs),
        "base_mva": feeder.base_mva,
        "total_p_kw": round(sum(l.p_base_kw for l in feeder.loads), 3),
        "total_q_kvar": round(sum(l.q_base_kvar for l in feeder.loads), 3),
    }
    print(json.dumps(info))
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "eval": _cmd_eval,
    "report": _cmd_report,
    "validate-feeder": _cmd_validate,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except Exception as exc:  # machine-readable failure on stderr
        print(
            json.dumps({"error": str(exc), "kind": type(exc).__name__}),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
