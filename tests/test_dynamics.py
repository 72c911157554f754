"""Trajectory integrator: exact cases, convergence order, equivariance."""

import math

import numpy as np
import pytest

from normalshift.errors import (
    IntegrationAborted,
    NormalShiftError,
    ZeroSpeedError,
)
from normalshift.expr import parse
from normalshift import fields
from normalshift.dynamics import (
    _check_speed,
    integrate_batch,
    rk4,
    write_csv,
    write_trajectory_csv,
)
from normalshift.fields import DerivedAB, ForceField, HWPair
from normalshift.geometry import CoveringManifold, MetricSpec, deck_apply

EUC2 = MetricSpec(2)


def hw_force(W, h="1", n=2, metric=None):
    m = metric or MetricSpec(n)
    return ForceField(HWPair(parse(W), parse(h), n), m), m


def test_free_motion_is_straight_line():
    ff = ForceField((parse("0"), parse("0")), EUC2)
    times, x, _ = integrate_batch(ff, (0.0, 0.0), (1.0, 0.0), 1.0, 1e-2)
    assert x[-1] == pytest.approx([1.0, 0.0], abs=1e-14)
    assert np.max(np.abs(x[:, 1])) == 0.0
    # strictly increasing uniform time stamps
    gaps = np.diff(times)
    assert np.max(np.abs(gaps - 1e-2)) < 1e-12


@pytest.mark.parametrize("T,dt,match", [
    (1.0, 0.0, "step must be positive"),
    (1.0, -1e-2, "step must be positive"),
    (-1.0, 1e-2, "duration must be >= 0"),
    # unchecked, NaN failed in the step count, an infinite T overflowed
    # it and an infinite dt returned the initial layer alone
    (1.0, math.nan, "step must be positive and finite, got dt=nan"),
    (1.0, math.inf, "step must be positive and finite, got dt=inf"),
    (math.nan, 1e-2, "duration must be >= 0 and finite, got T=nan"),
    (math.inf, 1e-2, "duration must be >= 0 and finite, got T=inf"),
    # each finite, but the step count overflowed int()
    (1e308, 1e-3, r"span 1e\+308 / step 0\.001 is not finite"),
    (1.0, 5e-324, r"span 1\.0 / step 5e-324 is not finite"),
])
def test_step_and_duration_are_checked(T, dt, match):
    ff = ForceField((parse("0"), parse("0")), EUC2)
    with pytest.raises(NormalShiftError, match=match):
        integrate_batch(ff, (0.0, 0.0), (1.0, 0.0), T, dt)


def test_store_every_is_checked():
    # unchecked, 0 raised ZeroDivisionError after the first step
    ff = ForceField((parse("0"), parse("0")), EUC2)
    with pytest.raises(NormalShiftError, match="store_every must be >= 1, "
                                               "got 0$"):
        integrate_batch(ff, (0.0, 0.0), (1.0, 0.0), 1.0, 1e-2,
                        store_every=0)


def test_unit_thrust_speed_growth():
    # F = N gives dv/dt = 1 along a straight ray: v(T) = 1 + T
    ff, _ = hw_force("v")
    _, _, xdot = integrate_batch(ff, (0.0, 0.0), (1.0, 0.0), 1.0, 1e-3)
    assert np.linalg.norm(xdot[-1]) == pytest.approx(2.0, abs=1e-8)


def test_convergence_order_is_four():
    # curved trajectories (transverse gradient) so RK4 has genuine error
    ff, _ = hw_force("v*exp(0.5*x1)")
    x0, xdot0 = (0.0, 0.0), (0.6, 0.8)
    ends = []
    for dt in (0.2, 0.1, 0.05):
        ends.append(integrate_batch(ff, x0, xdot0, 2.0, dt)[1][-1])
    ref = integrate_batch(ff, x0, xdot0, 2.0, 0.002)[1][-1]
    e1 = np.linalg.norm(ends[0] - ref)
    e2 = np.linalg.norm(ends[1] - ref)
    e3 = np.linalg.norm(ends[2] - ref)
    order12 = math.log2(e1 / e2)
    order23 = math.log2(e2 / e3)
    assert 3.7 <= order12 <= 4.3
    assert 3.7 <= order23 <= 4.3


def test_rk4_step_is_the_degree_four_taylor_polynomial():
    # on y' = lam y one classical RK4 step multiplies y by the Taylor
    # polynomial of exp(z) to degree 4, z = lam h; y is a two-array tuple
    lam, h = -1.3, 0.3
    z = lam * h
    y = (np.array([1.0, -2.0, 0.25]), np.array(0.5))
    stages = []

    def rate(stage, y):
        stages.append(stage)
        return tuple(lam * a for a in y)

    out = rk4(rate, y, h)
    assert stages == [0, 1, 1, 2]
    factor = 1.0 + z + z ** 2 / 2 + z ** 3 / 6 + z ** 4 / 24
    for a, b in zip(out, y):
        assert np.shape(a) == np.shape(b)
        np.testing.assert_allclose(a, b * factor, rtol=1e-15, atol=0.0)


def test_non_finite_state_aborts_and_names_the_lane():
    # F = (exp(800 x1), 0) overflows within the first step from x1 = 0.7;
    # the run must stop there instead of returning inf
    ff = ForceField((parse("exp(800*x1)"), parse("0")), EUC2)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(IntegrationAborted,
                           match=r"step 1 .*non-finite; the step started "
                                 r"at x=\(0\.7, 0\.0\)") as exc:
            integrate_batch(ff, (0.7, 0.0), (1.0, 0.5), 0.01, 1e-3)
        assert exc.value.step == 1
        assert np.all(np.isfinite(exc.value.partial[1]))
        # in a batch the lane that failed is named with its own point
        with pytest.raises(IntegrationAborted,
                           match=r"in lane \(1,\); the step started at "
                                 r"x=\(0\.7, 0\.0\)"):
            integrate_batch(ff, [[0.0, 0.0], [0.7, 0.0]],
                            [[1.0, 0.5], [1.0, 0.5]], 0.01, 1e-3)


def test_time_reversal_of_free_motion():
    ff = ForceField((parse("0"), parse("0")), EUC2)
    _, x, xdot = integrate_batch(ff, (0.2, -0.4), (0.7, 1.1), 1.0, 1e-2)
    _, back, _ = integrate_batch(ff, x[-1], -xdot[-1], 1.0, 1e-2)
    assert back[-1] == pytest.approx([0.2, -0.4], abs=1e-9)


def test_deck_equivariance():
    # field independent of position; metric euclidean; translation in x1
    ff, m = hw_force("v")
    man = CoveringManifold(m, ((2 * math.pi, 0.0),))
    x0, xdot0 = np.array([0.1, 0.3]), (1.0, 0.5)
    _, x1, xd1 = integrate_batch(ff, x0, xdot0, 1.0, 1e-2)
    _, x2, xd2 = integrate_batch(ff, deck_apply(man, "g1", x0), xdot0,
                                 1.0, 1e-2)
    diff = x2 - (x1 + np.array([2 * math.pi, 0.0]))
    assert np.max(np.abs(diff)) < 1e-12
    assert np.max(np.abs(xd2 - xd1)) < 1e-12


def test_speed_collapse_aborts_with_partial():
    # constant deceleration along the ray: speed hits zero at t = 0.5
    ff, _ = hw_force("v", h="-1")
    with pytest.raises(IntegrationAborted) as exc:
        integrate_batch(ff, (0.0, 0.0), (0.5, 0.0), 1.0, 1e-3)
    err = exc.value
    assert err.partial is not None
    assert 0.0 < err.time < 1.0
    times, xs, _ = err.partial
    assert len(times) == len(xs)


def test_speed_collapse_names_the_failing_lane():
    # the velocity at k = 1 is zero: the first failing state is (0, 1),
    # whose point is x[0]
    x = np.array([[[0.1, 0.2]], [[0.3, 0.4]], [[0.5, 0.6]]])
    xdot = np.array([[[1.0, 0.0], [0.0, 0.0]]])
    with pytest.raises(ZeroSpeedError,
                       match=r"state \(0, 1\) at x=\(0\.1, 0\.2\)"):
        _check_speed(EUC2, x, xdot)


def test_one_lane_speed_collapse_names_no_index():
    # one lane has no index to name, as in the non-finite state check
    with pytest.raises(ZeroSpeedError) as exc:
        _check_speed(EUC2, np.array([0.1, 0.2]), np.array([0.0, 0.0]))
    assert str(exc.value).endswith("mid-integration (x=(0.1, 0.2))")


def test_curved_metric_straight_geodesic_check():
    # zero force on a conformal metric: the geodesic equation is exercised;
    # cross-check one step against a tiny-step reference
    m = MetricSpec(2, kind="conformal", conformal=parse("0.3*x1"))
    ff = ForceField((parse("0"), parse("0")), m)
    coarse = integrate_batch(ff, (0.0, 0.0), (1.0, 0.2), 0.5, 0.5 / 8)[1]
    fine = integrate_batch(ff, (0.0, 0.0), (1.0, 0.2), 0.5, 0.5 / 256)[1]
    assert coarse[-1] == pytest.approx(fine[-1], abs=1e-6)


def test_trajectory_csv_format(tmp_path):
    ff, m = hw_force("v")
    times, x, xdot = integrate_batch(ff, (0.0, 0.0), (1.0, 0.0), 0.1, 1e-2)
    out = tmp_path / "traj.csv"
    speeds = write_trajectory_csv(out, m, times, x, xdot)
    lines = out.read_text().splitlines()
    assert lines[0] == "t,x1,x2,xdot1,xdot2,speed"
    assert len(lines) == 1 + len(times)
    # full double precision round-trips
    row = lines[5].split(",")
    assert float(row[0]) == times[4]
    assert float(row[1]) == x[4][0]
    # the speed column is the one returned
    assert [float(r.split(",")[-1]) for r in lines[1:]] == speeds.tolist()


def test_csv_blocks_match_per_value_format(tmp_path, monkeypatch):
    # blocks longer than the formatting chunk are split across chunks
    monkeypatch.setattr(fields, "BATCH_POINTS", 3)
    rng = np.random.default_rng(5)
    blocks = [np.column_stack([np.arange(7), rng.normal(size=(7, 2))]),
              np.empty((0, 3)),
              np.array([[7, -0.0, 5e-324], [8, np.inf, np.nan]])]
    out = tmp_path / "table.csv"
    write_csv(out, ["i", "a", "b"], blocks, int_cols=1)
    rows = np.concatenate(blocks)
    expected = "i,a,b\n" + "".join(
        f"{int(r[0])},{format(r[1], '.17g')},{format(r[2], '.17g')}\n"
        for r in rows)
    assert out.read_text() == expected


def test_csv_bytes_do_not_depend_on_the_chunk(tmp_path, monkeypatch):
    table = np.random.default_rng(8).normal(size=(fields.BATCH_POINTS + 5, 2))
    whole, chunked = tmp_path / "whole.csv", tmp_path / "chunked.csv"
    write_csv(whole, ["a", "b"], [table])
    monkeypatch.setattr(fields, "BATCH_POINTS", 3)
    write_csv(chunked, ["a", "b"], [table])
    assert chunked.read_bytes() == whole.read_bytes()
