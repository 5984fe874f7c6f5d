import numpy as np
import pytest

from voltfleet.droop import DroopCurve, droop_control, droop_output
from voltfleet.grid import Hub, PowerFlowSolution

CURVE = DroopCurve()


@pytest.mark.parametrize(
    "v, expected",
    [
        (1.00, 0.0),
        (0.98, 0.0),    # deadband edge
        (1.02, 0.0),
        (1.015, 0.0),
        (0.94, 0.5),    # midpoint of the 0.98 -> 0.90 ramp
        (0.90, 1.0),    # saturation
        (0.86, 1.0),    # clamped beyond saturation
        (1.06, -0.5),   # midpoint of 1.02 -> 1.10
        (1.10, -1.0),
        (1.20, -1.0),
    ],
)
def test_curve_points(v, expected):
    assert droop_output(CURVE, v) == pytest.approx(expected, abs=1e-12)


def test_continuity_on_dense_grid():
    vs = np.linspace(0.85, 1.15, 6001)
    outs = np.array([droop_output(CURVE, float(v)) for v in vs])
    assert np.max(np.abs(np.diff(outs))) < 1.0 / 60  # no jumps at breakpoints


def test_odd_symmetry_about_nominal():
    for d in np.linspace(0.0, 0.10, 101):
        lo = droop_output(CURVE, 1.0 - d)
        hi = droop_output(CURVE, 1.0 + d)
        assert lo == pytest.approx(-hi, abs=1e-12)


def test_output_range_bounded():
    rng = np.random.default_rng(3)
    for v in rng.uniform(0.5, 1.5, 500):
        assert -1.0 <= droop_output(CURVE, float(v)) <= 1.0


def test_invalid_curve_rejected():
    with pytest.raises(ValueError):
        DroopCurve(deadband_pu=0.12)  # wider than the saturation band
    with pytest.raises(ValueError):
        DroopCurve(v_sat_low_pu=1.01)


def _solution(bus_ids, voltages):
    v = np.asarray(voltages, dtype=float)
    return PowerFlowSolution(
        bus_ids=tuple(bus_ids),
        v_pu=v,
        angle_rad=np.zeros_like(v),
        converged=True,
        iterations=1,
        max_mismatch_pu=0.0,
    )


def test_droop_control_scales_to_ratings():
    hubs = [Hub("a", 500.0, 400.0), Hub("b", 500.0, 400.0)]
    sol = _solution(["slack", "a", "b"], [1.0, 0.90, 1.0])
    setpoints = droop_control(hubs, sol)
    assert setpoints["a"] == pytest.approx((500.0, 400.0), abs=1e-9)
    assert setpoints["b"] == (0.0, 0.0)


def test_droop_is_local_per_hub():
    hubs = [Hub("a", 500.0, 400.0), Hub("b", 500.0, 400.0)]
    base = _solution(["a", "b", "c"], [0.93, 0.97, 1.0])
    moved = _solution(["a", "b", "c"], [0.93, 0.97, 0.85])  # other bus swings
    assert droop_control(hubs, base) == droop_control(hubs, moved)
    # permuting which hub sags swaps the outputs, nothing else
    swapped = _solution(["a", "b", "c"], [0.97, 0.93, 1.0])
    sp, sw = droop_control(hubs, base), droop_control(hubs, swapped)
    assert sp["a"] == sw["b"] and sp["b"] == sw["a"]
