import dataclasses
import importlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import voltfleet.fleet as fleet_module
from voltfleet.droop import DroopCurve, droop_control
from voltfleet.grid import scale_loads, solve_power_flow
from voltfleet.harness.cli import main
from voltfleet.harness.evaluate import HourRecord, _droop_action, evaluate
from voltfleet.harness.metrics import compute_metrics
from voltfleet.harness.report import build_report, hourly_csv, run_filename, write_report
from voltfleet.env import V2GEnv, config_from_scenario
from voltfleet.resources import feeder_path
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


def _marking_snapshot(env, hour):
    """The EV columns as read by marking each fleet's availability first."""
    socs, count = [], 0
    for fleet in env.fleets.values():
        fleet_module.mark_availability(fleet, hour)
        socs.append(float(np.mean(fleet.soc)) * fleet.soc.size)
        count += int(fleet.available.sum())
    return sum(socs) / sum(f.soc.size for f in env.fleets.values()), count


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


def test_fixed_point_droop_self_consistent(five_bus_scenario):
    sc = dataclasses.replace(
        five_bus_scenario,
        droop=dataclasses.replace(five_bus_scenario.droop, fixed_point=True),
    )
    env = V2GEnv(config_from_scenario(sc, mode="eval"))
    env.reset()
    action = _droop_action(env, sc)
    hub = env.hubs[0]
    setpoint = (action[0] * hub.p_max_kw, action[1] * hub.q_max_kvar)
    demands = scale_loads(sc.feeder, env.current_lambda)
    sol = solve_power_flow(sc.feeder, demands, hub_injections={hub.bus: setpoint})
    again = droop_control(env.hubs, sol, DroopCurve())[hub.bus]
    assert again[0] == pytest.approx(setpoint[0], abs=0.5)  # kW scale
    assert again[1] == pytest.approx(setpoint[1], abs=0.5)

    run = evaluate(sc, "droop")
    assert run.metrics.nonconverged_hours == 0


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
