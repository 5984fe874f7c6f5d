import dataclasses
import hashlib
import importlib
import json
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import voltfleet.fleet as fleet_module
import voltfleet.droop as droop_module
from voltfleet.droop import FP_TOL_KW, droop_control, fixed_point_setpoints
from voltfleet.grid import PowerFlowSolution, solve_power_flow, solve_power_flows
from voltfleet.harness.cli import main
from voltfleet.harness.evaluate import HourRecord, evaluate
from voltfleet.harness.metrics import compute_metrics
from voltfleet.harness.report import build_report, hourly_csv, run_filename, write_report
from voltfleet.env import V2GEnv, config_from_scenario
from voltfleet.resources import feeder_path, scenario_path
from voltfleet.sac import SacAgent, SacConfig
from voltfleet.scenario import load_scenario


def record(hour, v_mean, converged=True):
    return HourRecord(
        hour=hour, lam=1.0, converged=converged, obs_converged=True,
        v_mean=v_mean, v_min=v_mean, v_max=v_mean, reward=0.0,
        hub_p_kw={"2": 0.0}, hub_q_kvar={"2": 0.0}, hub_rho={"2": 1.0},
        soc_mean=None, ev_count=0,
    )


def test_metrics_mean_min_max_and_violations():
    recs = [record(0, 1.00), record(1, 0.96), record(2, 0.94), record(3, 0.90)]
    m = compute_metrics(recs)
    assert m.v_mean == pytest.approx(0.95)
    assert m.v_min == 0.90
    assert m.v_max == 1.00
    assert m.violation_hours == 2
    assert m.nonconverged_hours == 0
    assert m.hours == 4


def test_metrics_skip_nonconverged_hours():
    recs = [record(0, 1.0), record(1, float("nan"), converged=False), record(2, 0.98)]
    m = compute_metrics(recs)
    assert m.v_mean == pytest.approx(0.99)
    assert m.nonconverged_hours == 1
    assert m.violation_hours == 0
    assert m.hours == 3


def test_metrics_all_nonconverged_is_nan():
    m = compute_metrics([record(0, float("nan"), converged=False)])
    assert np.isnan(m.v_mean) and np.isnan(m.v_min)
    assert m.nonconverged_hours == 1


@pytest.fixture(scope="module")
def five_bus_scenario():
    return load_scenario("five_bus_train")


@pytest.fixture(scope="module")
def mild_scenario():
    return load_scenario("single_hub_mild")


def test_uncontrolled_run_shape(five_bus_scenario):
    run = evaluate(five_bus_scenario, "none")
    assert [r.hour for r in run.hours] == list(range(24))
    assert run.total_reward == pytest.approx(sum(r.reward for r in run.hours))
    assert all(r.hub_p_kw["5"] == 0.0 for r in run.hours)
    assert run.metrics.hours == 24
    assert run.label == "none"


def test_droop_delivers_at_sag_hours(mild_scenario):
    run = evaluate(mild_scenario, "droop")
    base = evaluate(mild_scenario, "none")
    peak = max(run.hours, key=lambda r: r.lam)
    assert peak.hub_p_kw["890"] > 0.0
    assert peak.hub_q_kvar["890"] > 0.0
    assert run.metrics.violation_hours < base.metrics.violation_hours


def test_window_hours_have_zero_delivery(mild_scenario):
    run = evaluate(mild_scenario, "droop")
    for r in run.hours:
        if not 6 <= r.hour < 23:
            assert r.hub_p_kw["890"] == 0.0
            assert r.hub_q_kvar["890"] == 0.0


def test_fleet_draw_shared_across_controllers(mild_scenario):
    a = evaluate(mild_scenario, "none", ev_constrained=True)
    b = evaluate(mild_scenario, "droop", ev_constrained=True)
    assert a.hours[0].soc_mean == b.hours[0].soc_mean
    assert a.hours[0].ev_count == b.hours[0].ev_count
    # and a different seed draws a different fleet
    c = evaluate(mild_scenario, "none", ev_constrained=True, seed=1234)
    assert c.hours[0].soc_mean != a.hours[0].soc_mean


def test_ev_constrained_run_tracks_soc(mild_scenario):
    run = evaluate(mild_scenario, "droop", ev_constrained=True)
    socs = [r.soc_mean for r in run.hours]
    assert all(s is not None for s in socs)
    assert min(socs) < socs[0]  # the fleet actually discharges
    assert any(r.hub_rho["890"] < 1.0 for r in run.hours)


@pytest.mark.parametrize("k", [0, 2, 4])
def test_only_the_starved_hub_scales_its_delivery(k, monkeypatch):
    """Ample fleets everywhere but hub k, which has no EVs; every hub asks
    for half its rating in the V2G window. Only hub k's rho drops."""
    sc = load_scenario("multi_hub_mild")
    sc = dataclasses.replace(
        sc, fleet=dataclasses.replace(sc.fleet, capacity_kwh=2000.0, c_rate=1.0)
    )
    eval_module = importlib.import_module("voltfleet.harness.evaluate")
    build = eval_module.build_fleets

    def starving_k(scenario, seed_seq):
        fleets = list(build(scenario, seed_seq))
        fleets[k] = fleet_module.FleetState(soc=[], soh=[])
        return tuple(fleets)

    monkeypatch.setattr(eval_module, "build_fleets", starving_k)
    n_act = 2 * len(sc.hub_buses)
    agent = SimpleNamespace(
        obs_dim=len(sc.feeder.buses), act_dim=n_act,
        act=lambda obs, deterministic: np.full(n_act, 0.5),
    )
    run = evaluate(sc, "rl", agent=agent, ev_constrained=True)
    lo, hi = sc.v2g_window
    for r in run.hours:
        starved = {b for b, rho in r.hub_rho.items() if rho < 1.0}
        assert starved == ({sc.hub_buses[k]} if lo <= r.hour < hi else set())
        assert list(r.hub_rho) == list(sc.hub_buses)


def _marking_snapshot(env, hour):
    """The EV columns as read by marking each fleet's availability first."""
    socs, count = [], 0
    for fleet in env.fleets:
        fleet_module.mark_availability(fleet, hour)
        socs.append(float(np.mean(fleet.soc)) * fleet.soc.size)
        count += int(fleet.available.sum())
    return sum(socs) / sum(f.soc.size for f in env.fleets), count


@pytest.mark.parametrize("name", ["multi_hub_mild", "single_hub_aggressive"])
def test_fleet_snapshot_reads_without_marking(name, monkeypatch):
    sc = load_scenario(name)
    got = evaluate(sc, "droop", ev_constrained=True)
    eval_module = importlib.import_module("voltfleet.harness.evaluate")
    monkeypatch.setattr(eval_module, "_fleet_snapshot", _marking_snapshot)
    want = evaluate(sc, "droop", ev_constrained=True)
    assert [(r.ev_count, r.soc_mean) for r in got.hours] == [
        (r.ev_count, r.soc_mean) for r in want.hours
    ]
    assert got.hours == want.hours


def test_availability_marked_once_per_hub_hour(monkeypatch):
    sc = load_scenario("multi_hub_mild")
    marked = []
    mark = fleet_module.mark_availability
    monkeypatch.setattr(
        fleet_module, "mark_availability",
        lambda fleet, hour: marked.append((id(fleet), hour)) or mark(fleet, hour),
    )
    evaluate(sc, "droop", ev_constrained=True)
    assert len(marked) == 24 * len(sc.hub_buses)
    assert len(set(marked)) == len(marked)


@pytest.mark.parametrize(
    "name",
    ["five_bus_train", "single_hub_mild", "single_hub_aggressive",
     "multi_hub_mild", "multi_hub_aggressive"],
)
def test_shipped_days_act_on_converged_observations(name):
    run = evaluate(load_scenario(name), "droop")
    assert all(r.obs_converged for r in run.hours)


def test_nonconverged_observations_are_flagged():
    sc = load_scenario("single_hub_aggressive")
    sc = dataclasses.replace(sc, profile=tuple(3.0 * lam for lam in sc.profile))
    run = evaluate(sc, "none")
    flags = [r.obs_converged for r in run.hours]
    assert not all(flags)
    # with no control the scored solve is the observed one
    assert flags == [r.converged for r in run.hours]
    assert "obs_converged" not in hourly_csv(run)


def test_rl_controller_with_fresh_agent(five_bus_scenario):
    agent = SacAgent(5, 2, seed=0)
    run = evaluate(five_bus_scenario, "rl", agent=agent)
    assert run.metrics.hours == 24
    with pytest.raises(ValueError, match="agent"):
        evaluate(five_bus_scenario, "rl")
    with pytest.raises(ValueError, match="controller"):
        evaluate(five_bus_scenario, "pid")


@pytest.mark.parametrize(
    "name, obs_dim, act_dim, sizes",
    [
        ("multi_hub_mild", 34, 2, "34 bus voltages and gives 2 actions; scenario "
         "multi_hub_mild has 34 buses and needs 10 actions"),
        ("single_hub_mild", 5, 2, "5 bus voltages and gives 2 actions; scenario "
         "single_hub_mild has 34 buses and needs 2 actions"),
    ],
)
def test_rl_rejects_a_policy_of_another_size_before_the_day(name, obs_dim, act_dim, sizes,
                                                             monkeypatch):
    def no_step(env, action):
        raise AssertionError("the day started")

    monkeypatch.setattr(V2GEnv, "step", no_step)
    agent = SacAgent(obs_dim, act_dim, seed=0)
    with pytest.raises(ValueError, match=re.escape(sizes)):
        evaluate(load_scenario(name), "rl", agent=agent)


SHIPPED_SCENARIOS = ("five_bus_train", "single_hub_mild", "single_hub_aggressive",
                     "multi_hub_mild", "multi_hub_aggressive")


def _with_fixed_point(sc, fixed_point):
    return dataclasses.replace(sc, droop=dataclasses.replace(sc.droop, fixed_point=fixed_point))


def _window_fixed_points(sc):
    """The env, the loadings of the V2G window's hours and their fixed-point setpoints."""
    env = V2GEnv(config_from_scenario(sc, mode="eval"))
    hours = range(*sc.v2g_window)
    lams = [sc.profile[h] for h in hours]
    observed = [solve_power_flow(sc.feeder, lam) for lam in lams]
    setpoints = fixed_point_setpoints(sc.feeder, lams, observed, env.hub_index, env.ratings,
                                      sc.droop)
    assert setpoints.shape == (len(hours), len(env.hubs), 2)
    return env, lams, setpoints


def _max_residual(sc, env, lams, setpoints):
    """Largest |droop(solve(s)) - s| over the hours, each solved alone; all must converge."""
    worst = 0.0
    for lam, s in zip(lams, setpoints):
        sol = solve_power_flow(sc.feeder, lam, env.hub_index, s)
        assert sol.converged, lam
        worst = max(worst, np.abs(droop_control(sol, env.hub_index, env.ratings, sc.droop)
                                  - s).max())
    return worst


def test_fixed_point_droop_self_consistent(five_bus_scenario):
    sc = _with_fixed_point(five_bus_scenario, True)
    env, lams, setpoints = _window_fixed_points(sc)
    assert len(env.hubs) == 1
    assert setpoints.any()  # some window hour injects
    assert _max_residual(sc, env, lams, setpoints) <= FP_TOL_KW

    run = evaluate(sc, "droop")
    assert run.metrics.nonconverged_hours == 0


def test_fixed_point_rounds_build_no_solution_and_no_phasor(monkeypatch):
    """The rounds run on one phasor iterate: the observed solves give the
    only exp, and no PowerFlowSolution is made."""
    sc = _with_fixed_point(load_scenario("multi_hub_aggressive"), True)
    _, _, want = _window_fixed_points(sc)
    exps, made = [], []

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def exp(self, x):
            exps.append(np.shape(x))
            return np.exp(x)

    init = PowerFlowSolution.__init__
    monkeypatch.setattr(droop_module, "np", CountingNumpy())
    monkeypatch.setattr(PowerFlowSolution, "__init__",
                        lambda self, *a, **kw: made.append(1) or init(self, *a, **kw))
    _, lams, setpoints = _window_fixed_points(sc)
    assert not made  # the observed solves are the network's kept ones
    assert exps == [(len(lams), len(sc.feeder.buses))]
    assert setpoints.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", SHIPPED_SCENARIOS)
def test_fixed_point_days_solve_only_the_window(name, monkeypatch):
    """Closed hours get the uncontrolled day's records; no batched solve reaches them."""
    sc = _with_fixed_point(load_scenario(name), True)
    batches = []

    def recording(feeder, lams, *args):
        batches.append(list(lams))
        return solve_power_flows(feeder, lams, *args)

    monkeypatch.setattr(droop_module, "solve_power_flows", recording)
    lo, hi = sc.v2g_window
    window_lams = [sc.profile[h] for h in range(lo, hi)]
    for ev in (False, True):
        batches.clear()
        fp = evaluate(sc, "droop", ev_constrained=ev)
        assert batches and batches[0] == window_lams
        for lams in batches[1:]:  # each round solves a subset of the hours before it
            it = iter(window_lams)
            assert all(lam in it for lam in lams)
        none = evaluate(sc, "none", ev_constrained=ev)
        # with EVs, the hours after the window carry the fleet the window drained
        closed = range(lo) if ev else [*range(lo), *range(hi, 24)]
        for h in closed:
            assert repr(fp.hours[h]) == repr(none.hours[h]), (h, ev)
        assert any(fp.hours[h].hub_p_kw != none.hours[h].hub_p_kw for h in range(lo, hi))


# ---- report and CSV ---------------------------------------------------


def test_hourly_csv_schema(five_bus_scenario):
    run = evaluate(five_bus_scenario, "none")
    lines = hourly_csv(run).strip().splitlines()
    header = lines[0].split(",")
    assert header == [
        "hour", "v_mean", "v_min", "v_max",
        "5_p_kw", "5_q_kvar", "5_rho", "soc_mean", "ev_count",
    ]
    assert len(lines) == 25
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[-1] == "0"
    assert first[-2] == ""  # no fleet in phase 1


def test_report_bodies_are_reproducible(five_bus_scenario):
    runs1 = [evaluate(five_bus_scenario, c) for c in ("none", "droop")]
    runs2 = [evaluate(five_bus_scenario, c) for c in ("none", "droop")]
    body1 = build_report(runs1)
    body2 = build_report(runs2)
    assert body1 == body2
    assert "version:" in body1
    assert "hourly_data_sha256:" in body1
    assert "seeds: 0" in body1


@pytest.mark.parametrize("ev_constrained", [False, True])
@pytest.mark.parametrize("controller", ["none", "droop", "rl"])
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_report_and_csv_deterministic_over_seeds(five_bus_scenario, seed, controller,
                                                 ev_constrained):
    agent = None
    if controller == "rl":  # untrained, so the policy's forward runs in eval
        agent = SacAgent(5, 2, seed=seed)

    def run():
        return evaluate(five_bus_scenario, controller, agent=agent,
                        ev_constrained=ev_constrained, seed=seed)

    first, second = run(), run()
    assert hourly_csv(first).encode() == hourly_csv(second).encode()
    assert build_report([first]).encode() == build_report([second]).encode()


def test_report_refuses_mixed_feeders(five_bus_scenario, mild_scenario):
    runs = [evaluate(five_bus_scenario, "none"), evaluate(mild_scenario, "none")]
    with pytest.raises(ValueError, match="mix"):
        build_report(runs)


def test_write_report_files_and_manifest(tmp_path, five_bus_scenario):
    runs = [
        evaluate(five_bus_scenario, "none"),
        evaluate(five_bus_scenario, "droop", ev_constrained=True),
    ]
    paths = write_report(runs, tmp_path / "out")
    body = paths["report"].read_text()
    assert "created" not in body  # timestamps live in the manifest only
    manifest = json.loads(paths["manifest"].read_text())
    assert "created_utc" in manifest
    assert manifest["sha256"]["report.txt"]
    names = {run_filename(r) for r in runs}
    assert names == {"five_bus_train_none.csv", "five_bus_train_droop_ev.csv"}
    for n in names:
        assert (tmp_path / "out" / n).exists()


def test_write_report_byte_identical_across_dirs(tmp_path, five_bus_scenario):
    runs_a = [evaluate(five_bus_scenario, "droop")]
    runs_b = [evaluate(five_bus_scenario, "droop")]
    pa = write_report(runs_a, tmp_path / "a")
    pb = write_report(runs_b, tmp_path / "b")
    assert pa["report"].read_bytes() == pb["report"].read_bytes()
    name = run_filename(runs_a[0])
    assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


# ---- command line -----------------------------------------------------


def test_cli_validate_feeder_ok(capsys):
    rc = main(["validate-feeder", str(feeder_path("ieee34_equiv"))])
    assert rc == 0
    info = json.loads(capsys.readouterr().out)
    assert info["buses"] == 34
    assert info["hubs"] == ["830", "832", "844", "860", "890"]


def test_cli_validate_feeder_error(tmp_path, capsys):
    bad = tmp_path / "bad.feeder"
    bad.write_text("[buses]\n1 11.0 slack\n[lines]\n1 2 1.0 1.0\n")
    rc = main(["validate-feeder", str(bad)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert "kind" in err and "error" in err


def test_cli_eval_to_stdout(capsys):
    rc = main(["eval", "--scenario", "five_bus_train", "--controllers", "none", "droop"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "controller" in out and "viol_hours" in out
    assert "droop" in out


def test_cli_eval_rl_requires_policy(capsys):
    rc = main(["eval", "--scenario", "five_bus_train", "--controllers", "rl"])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert "policy" in err["error"]


def test_cli_report_writes_batch(tmp_path, capsys):
    rc = main([
        "report",
        "--scenarios", "single_hub_mild", "multi_hub_mild",
        "--controllers", "none",
        "--out-dir", str(tmp_path / "rep"),
    ])
    assert rc == 0
    written = json.loads(capsys.readouterr().out)["written"]
    assert any(p.endswith("report.txt") for p in written)
    assert (tmp_path / "rep" / "single_hub_mild_none.csv").exists()
    assert (tmp_path / "rep" / "multi_hub_mild_none.csv").exists()


@pytest.mark.parametrize("command, scenarios, controllers, repeated", [
    ("report", ["single_hub_mild", "single_hub_mild"], ["droop"], "scenario"),
    ("report", ["single_hub_mild"], ["droop", "none", "droop"], "controller"),
    # a name and a path to the same file load one scenario name
    ("report", ["single_hub_mild", str(scenario_path("single_hub_mild"))], ["none"],
     "scenario"),
    ("eval", ["single_hub_mild"], ["none", "none"], "controller"),
], ids=["scenario", "controller", "name_and_path", "eval_controller"])
def test_cli_rejects_a_repeated_run_before_any_day(tmp_path, capsys, monkeypatch,
                                                   command, scenarios, controllers, repeated):
    days = []
    monkeypatch.setattr("voltfleet.harness.cli.evaluate", lambda *a, **kw: days.append(a))
    flag = "--scenarios" if command == "report" else "--scenario"
    rc = main([command, flag, *scenarios, "--controllers", *controllers,
               "--out-dir", str(tmp_path / "rep")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "ValueError"
    assert f"each {repeated} may be given once" in err["error"]
    assert days == []
    assert not (tmp_path / "rep").exists()


def test_cli_rejects_a_negative_seed_before_any_day(capsys, monkeypatch):
    days = []
    monkeypatch.setattr("voltfleet.harness.cli.evaluate", lambda *a, **kw: days.append(a))
    rc = main(["eval", "--scenario", "five_bus_train", "--seed", "-1", "--ev-constrained"])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "ValueError"
    assert "--seed must be >= 0, not -1" in err["error"]
    assert days == []


def test_cli_policy_dimension_mismatch(tmp_path, capsys):
    ckpt = tmp_path / "p5.npz"
    SacAgent(5, 2, seed=0).save(ckpt)
    rc = main([
        "eval", "--scenario", "single_hub_mild",
        "--controllers", "rl", "--policy", str(ckpt),
    ])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert "34" in err["error"]


def test_cli_train_smoke(tmp_path, capsys):
    ckpt = tmp_path / "ck.npz"
    rc = main([
        "train", "--scenario", "five_bus_train",
        "--steps", "60", "--warmup", "20",
        "--out", str(ckpt), "--seed", "5",
    ])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["steps"] == 60
    assert ckpt.exists()
    agent = SacAgent.restore(ckpt)
    assert agent.obs_dim == 5


@pytest.mark.parametrize("flag", ["--steps", "--warmup"])
def test_cli_train_rejects_a_negative_count_before_any_step(tmp_path, capsys, flag):
    ckpt = tmp_path / "ck.npz"
    rc = main([
        "train", "--scenario", "five_bus_train", "--steps", "3", "--warmup", "0",
        flag, "-5", "--out", str(ckpt), "--seed", "5",
    ])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "ValueError"
    assert "must be >= 0, not -5" in err["error"]
    assert not ckpt.exists()


# ---- byte-identity pins of the shipped 34-bus days -------------------

PINS = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "pins.json").read_text()
)
# (label, controller, ev_constrained): the days a pinned report body covers
PINNED_DAYS = (
    ("none", "none", False),
    ("droop", "droop", False),
    ("none_ev", "none", True),
    ("droop_ev", "droop", True),
)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(PINS["report_sha256"]))
def test_shipped_days_match_their_pins(name):
    """Hourly CSVs and the report body at the scenario's own seed, byte for byte."""
    sc = load_scenario(name)
    runs = []
    for label, controller, ev in PINNED_DAYS:
        run = evaluate(sc, controller, ev_constrained=ev)
        assert _sha256(hourly_csv(run)) == PINS["hourly_csv_sha256"][f"{name}/{label}"], label
        runs.append(run)
    assert _sha256(build_report(runs)) == PINS["report_sha256"][name]


@pytest.mark.parametrize("name", SHIPPED_SCENARIOS)
def test_days_on_a_warmed_feeder_match_days_on_a_fresh_one(name):
    """The feeder keeps its no-injection solves across days; no record may show it."""
    warmed = load_scenario(name)
    for seed in (0, 3):
        for controller, fixed_point in (("none", False), ("droop", False), ("droop", True)):
            for ev in (False, True):
                run = evaluate(_with_fixed_point(warmed, fixed_point), controller,
                               ev_constrained=ev, seed=seed)
                fresh = evaluate(_with_fixed_point(load_scenario(name), fixed_point),
                                 controller, ev_constrained=ev, seed=seed)
                # repr spells every float exactly, NaN included
                assert repr(run.hours) == repr(fresh.hours), (seed, controller, fixed_point, ev)
                assert repr(run.total_reward) == repr(fresh.total_reward)
    assert warmed.feeder.network.no_injection


def _fp_figures(run):
    """The figures of a fixed-point day that `PINS["droop_fp"]` holds."""
    m = run.metrics
    return {
        "v_mean": m.v_mean, "v_min": m.v_min, "v_max": m.v_max,
        "violation_hours": m.violation_hours, "nonconverged_hours": m.nonconverged_hours,
        "total_reward": run.total_reward,
        "hour_v_min": [h.v_min for h in run.hours],
        "hour_hub_p_kw": [sum(h.hub_p_kw.values()) for h in run.hours],
        "hour_hub_q_kvar": [sum(h.hub_q_kvar.values()) for h in run.hours],
    }


@pytest.mark.parametrize("name", sorted(PINS["droop_fp"]))
def test_fixed_point_days_match_their_pinned_figures(name):
    """Fixed-point figures move only in their last bits, so they are held to tolerances."""
    run = evaluate(_with_fixed_point(load_scenario(name), True), "droop")
    got, tol = _fp_figures(run), PINS["droop_fp_tolerance"]
    assert set(got) == set(PINS["droop_fp"][name])
    for field, want in PINS["droop_fp"][name].items():
        if field.endswith("_hours"):
            assert got[field] == want, field
            continue
        if field == "total_reward":
            atol = tol["reward"]
        elif "kw" in field or "kvar" in field:
            atol = tol["kw"]
        else:
            atol = tol["v_pu"]
        np.testing.assert_allclose(got[field], want, rtol=0.0, atol=atol, err_msg=field)


@pytest.mark.parametrize("name", sorted(PINS["droop_fp"]))
def test_fixed_point_setpoints_reproduce_themselves(name):
    """Every window hour's final setpoint s meets |droop(solve(s)) - s| <= FP_TOL_KW."""
    sc = _with_fixed_point(load_scenario(name), True)
    env, lams, setpoints = _window_fixed_points(sc)
    assert _max_residual(sc, env, lams, setpoints) <= FP_TOL_KW
    assert setpoints.any()
