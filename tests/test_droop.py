import numpy as np
import pytest

from voltfleet.droop import DroopCurve, droop_control, droop_output
from voltfleet.grid import PowerFlowSolution

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
    with pytest.raises(ValueError, match="deadband"):
        DroopCurve(v_sat_high_pu=1.01)  # the swell ramp would fall, not rise
    with pytest.raises(ValueError, match="deadband"):
        DroopCurve(v_sat_high_pu=1.02)  # the swell ramp would have no width


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


RATINGS = np.array([[500.0, 400.0], [500.0, 400.0]])


def test_droop_control_scales_to_ratings():
    sol = _solution(["slack", "a", "b"], [1.0, 0.90, 1.0])
    setpoints = droop_control(sol, np.array([1, 2]), RATINGS, DroopCurve())
    assert setpoints[0].tolist() == pytest.approx([500.0, 400.0], abs=1e-9)
    assert setpoints[1].tolist() == [0.0, 0.0]


def test_droop_is_local_per_hub():
    hubs = np.array([0, 1])  # buses a and b
    base = _solution(["a", "b", "c"], [0.93, 0.97, 1.0])
    moved = _solution(["a", "b", "c"], [0.93, 0.97, 0.85])  # other bus swings
    curve = DroopCurve()
    assert np.array_equal(droop_control(base, hubs, RATINGS, curve),
                          droop_control(moved, hubs, RATINGS, curve))
    # permuting which hub sags swaps the outputs, nothing else
    swapped = _solution(["a", "b", "c"], [0.97, 0.93, 1.0])
    sp, sw = droop_control(base, hubs, RATINGS, curve), droop_control(swapped, hubs, RATINGS, curve)
    assert np.array_equal(sp[0], sw[1]) and np.array_equal(sp[1], sw[0])


def _piecewise(curve, v):
    """The curve one voltage at a time, branch by branch."""
    lo_edge = 1.0 - curve.deadband_pu
    hi_edge = 1.0 + curve.deadband_pu
    if lo_edge <= v <= hi_edge:
        return 0.0
    if v < lo_edge:
        return min((lo_edge - v) / (lo_edge - curve.v_sat_low_pu), 1.0)
    return -min((v - hi_edge) / (curve.v_sat_high_pu - hi_edge), 1.0)


def _clipped_ramps(curve, v):
    """The curve as one numpy expression over an array: sag ramp minus swell ramp."""
    lo_edge = 1.0 - curve.deadband_pu
    hi_edge = 1.0 + curve.deadband_pu
    with np.errstate(over="ignore"):
        sag = ((lo_edge - v) / (lo_edge - curve.v_sat_low_pu)).clip(0.0, 1.0)
        swell = ((v - hi_edge) / (curve.v_sat_high_pu - hi_edge)).clip(0.0, 1.0)
    return sag - swell


def _edges(curve):
    """Each breakpoint of the curve with its neighbouring floats."""
    points = (1.0 - curve.deadband_pu, 1.0 + curve.deadband_pu, 1.0,
              curve.v_sat_low_pu, curve.v_sat_high_pu)
    return [x for p in points for x in (np.nextafter(p, 0.0), p, np.nextafter(p, 2.0))]


@pytest.mark.parametrize("curve", [CURVE, DroopCurve(0.05, 0.85, 1.2), DroopCurve(0.001, 0.99, 1.002)])
def test_droop_output_on_an_array_has_the_bits_of_the_branches(curve):
    finite = np.concatenate([np.linspace(0.85, 1.15, 6001), _edges(curve),
                             [0.9, 0.98, 1.02, 1.1, 0.5, 2.0, 5e-324, 1e308, np.inf]])
    outs = droop_output(curve, finite)
    assert outs.shape == finite.shape
    want = np.array([_piecewise(curve, float(v)) for v in finite])
    assert outs.tobytes() == want.tobytes()
    assert not np.signbit(outs[outs == 0.0]).any()  # every zero is +0.0
    # NaN has no branch; the array expression's NaN, sign and payload kept
    odd = np.concatenate([finite, [np.nan, -np.nan, np.float64(np.nan) * -1.5]]).reshape(-1, 4)
    assert droop_output(curve, odd).tobytes() == _clipped_ramps(curve, odd).tobytes()
    for v in odd.ravel()[-24:]:
        one = droop_output(curve, float(v))
        assert isinstance(one, float)
        assert np.float64(one).tobytes() == _clipped_ramps(curve, v).tobytes()
    for bad in (0.0, -0.0, -1.0, -np.inf):
        with pytest.raises(ValueError, match="positive"):
            droop_output(curve, np.array([1.0, bad]))
        with pytest.raises(ValueError, match="positive"):
            droop_output(curve, bad)
