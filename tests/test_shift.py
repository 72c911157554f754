"""Normal-shift construction: nu solve, shift families, orthogonality."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from normalshift import fields, shift
from normalshift.errors import CompatibilityError, PathError, PositivityError
from normalshift.expr import parse
from normalshift.fields import ABFields, DerivedAB, ForceField, HWPair
from normalshift.geometry import (
    CoveringManifold,
    Hypersurface,
    MetricSpec,
    base_node_index,
    surface_grid,
)
from normalshift.pfaff import PathSpec
from normalshift.shift import (
    NuField,
    _solve_nu_grid,
    loop_closure_defect,
    normal_shift,
    orthogonality_defect,
    solve_nu,
    write_shift_family_csv,
)

EUC2 = MetricSpec(2)
EUC3 = MetricSpec(3)


def ab(a, b):
    return ABFields(parse(a), tuple(parse(c) for c in b))


def circle(nodes=256):
    return Hypersurface(
        dimension=2,
        parametrization=(parse("cos(u1)"), parse("sin(u1)")),
        ranges=((0.0, 2 * math.pi),),
        grid=(nodes,),
        base_point=(0.0,),
        closed=(True,),
        orientation=1,
    )


def sphere(nodes=(32, 17), margin=0.15):
    # orientation -1 makes the normal point outward for this
    # (azimuth, polar) parametrization
    return Hypersurface(
        dimension=3,
        parametrization=(parse("sin(u2)*cos(u1)"),
                         parse("sin(u2)*sin(u1)"),
                         parse("cos(u2)")),
        ranges=((0.0, 2 * math.pi), (margin, math.pi - margin)),
        grid=nodes,
        base_point=(0.0, math.pi / 2),
        closed=(True, False),
        orientation=-1,
    )


def vertical_line(nodes=9):
    return Hypersurface(
        dimension=2,
        parametrization=(parse("0"), parse("u1")),
        ranges=((-1.0, 1.0),),
        grid=(nodes,),
        base_point=(0.0,),
        closed=(False,),
        orientation=1,
    )


# --- nu solve -------------------------------------------------------------------------

def test_nu_constant_for_zero_b():
    out = solve_nu(circle(64), ab("1", ("0", "0")), EUC2, 2.0, du=1e-2)
    assert np.array_equal(out.values, np.full(64, 2.0))
    assert out.mixed_path_defect == 0.0


def test_nu_closed_form_on_sphere():
    # d nu = -nu/2 dx1 restricted to the surface:
    # nu(u) = nu0 * exp(-(x1(u) - 1)/2), nu0 anchored at x = (1, 0, 0)
    s = sphere()
    data = ab("1", ("-0.5*v", "0", "0"))
    out = solve_nu(s, data, EUC3, 1.0, du=5e-3)
    sg = surface_grid(s, EUC3)
    expected = np.exp(-0.5 * (sg.points[..., 0] - 1.0))
    assert np.max(np.abs(out.values - expected)) < 1e-9
    assert out.mixed_path_defect < 1e-10
    base = base_node_index(s)
    assert out.values[base] == 1.0  # exact normalization at the base node


def test_nu_unaffected_when_b_misses_surface_direction():
    # the line x1 = 0 never moves along x1, and b2 = 0
    out = solve_nu(vertical_line(), ab("1", ("-0.5*v", "0")), EUC2, 1.5,
                   du=1e-2)
    assert np.max(np.abs(out.values - 1.5)) < 1e-14


def test_nu_positivity_guard():
    with pytest.raises(PositivityError):
        NuField(circle(8), np.zeros(8), (0,), 1.0, 0.0)


def test_nu_requires_positive_datum():
    with pytest.raises(PositivityError):
        solve_nu(circle(16), ab("1", ("0", "0")), EUC2, -1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_nu_inputs_reject_nan_and_inf(bad):
    with pytest.raises(PositivityError, match=f"got {bad}$"):
        NuField(circle(8), np.full(8, bad), (0,), 1.0, 0.0)
    with pytest.raises(PositivityError, match=f"got {bad}$"):
        solve_nu(circle(16), ab("1", ("0", "0")), EUC2, bad)


def test_nu_sweep_leaving_positive_axis_names_the_axis():
    # d nu/du = -1 along the line: nu = 0.895 - u reaches 0 at u = 0.895,
    # the midpoint stage of the step [0.89, 0.9]
    with pytest.raises(PositivityError, match=r"axis 1 near u_1=0\.895\b"):
        solve_nu(vertical_line(), ab("1", ("0", "-1")), EUC2, 0.895,
                 du=1e-2)


# --- batched nu solve ----------------------------------------------------------------

def test_nu_solve_evaluates_geometry_once_per_grid_interval(monkeypatch):
    calls = []
    embed = shift.embed_with_tangents

    def counted(s, u):
        calls.append(np.shape(u))
        return embed(s, u)

    monkeypatch.setattr(shift, "embed_with_tangents", counted)
    s = sphere((16, 9))
    solve_nu(s, DerivedAB(HWPair(parse("v*exp(0.3*x1)"), parse("1"), 3)),
             EUC3, 1.0, du=1e-2)
    # the reversed solve sweeps axis 2 from the base node, then axis 1 over
    # every node; the forward solve reuses the axis-1 line through the
    # base node and sweeps axis 2 only
    n1, n2 = s.grid
    assert 0 < len(calls) <= (n2 - 1) + (n1 - 1) + (n2 - 1)


def test_forward_solve_starts_from_the_reversed_solves_line():
    # b is not closed, so the two staircase orders disagree off the line
    s = sphere((16, 9))
    data = ab("1", ("0.3*x2*v", "0", "0.1*v"))
    fwd = _solve_nu_grid(s, data, 1.0, 1e-2, [0, 1])
    rev = _solve_nu_grid(s, data, 1.0, 1e-2, [1, 0])
    line = (slice(None),) + base_node_index(s)[1:]
    # the same path from the same nu0, on 1 lane here and on 9 in rev
    np.testing.assert_allclose(fwd[line], rev[line], rtol=1e-12, atol=0)
    start = np.full_like(rev, np.nan)
    start[line] = rev[line]
    shared = _solve_nu_grid(s, data, 1.0, 1e-2, [0, 1], start)
    out = solve_nu(s, data, EUC3, 1.0, du=1e-2, compat_tol=np.inf)
    assert np.array_equal(out.values, shared)
    assert out.mixed_path_defect == np.max(np.abs(shared - rev)) > 1e-3
    np.testing.assert_allclose(out.values, fwd, rtol=1e-12, atol=0)


def test_nu_sweep_batches_are_bounded(monkeypatch):
    # a coarse grid and a fine du: a grid interval takes 63 RK4 steps
    calls = []
    embed = shift.embed_with_tangents

    def counted(s, u):
        calls.append(np.shape(u))
        return embed(s, u)

    s = sphere((6, 5))
    data = DerivedAB(HWPair(parse("v*exp(0.3*x1)"), parse("1"), 3))
    whole = solve_nu(s, data, EUC3, 1.0, du=2e-2)
    monkeypatch.setattr(shift, "embed_with_tangents", counted)
    monkeypatch.setattr(fields, "BATCH_POINTS", 10)
    split = solve_nu(s, data, EUC3, 1.0, du=2e-2)
    # (steps, 3) + lanes + (k,): at most 10 stage points, or one step
    # when 3 stages x 5 or 6 lanes alone exceed the cap
    points = [int(np.prod(shape[:-1])) for shape in calls]
    assert max(points) > 10
    assert all(p <= 10 or shape[0] == 1 for p, shape in zip(points, calls))
    assert max(shape[0] for shape in calls) == 3  # 1-lane sweeps: 3 steps
    np.testing.assert_allclose(split.values, whole.values, rtol=1e-12,
                               atol=0)
    assert abs(split.mixed_path_defect - whole.mixed_path_defect) < 1e-12


def sphere_patch(base):
    u1 = np.linspace(0.0, 0.6, 7)
    u2 = np.linspace(1.2, 1.8, 6)
    return Hypersurface(
        dimension=3,
        parametrization=(parse("sin(u2)*cos(u1)"),
                         parse("sin(u2)*sin(u1)"),
                         parse("cos(u2)")),
        ranges=((0.0, 0.6), (1.2, 1.8)),
        grid=(7, 6),
        base_point=(float(u1[base[0]]), float(u2[base[1]])),
        closed=(False, False),
        orientation=-1,
    )


@settings(max_examples=20, deadline=None)
@given(coef=st.tuples(*[st.floats(-1.0, 1.0)] * 3),
       base=st.tuples(st.integers(0, 6), st.integers(0, 5)),
       nu0=st.floats(0.5, 2.0))
def test_nu_is_a_level_set_of_W(coef, base, nu0):
    # closed data W = v exp(c . x): nu keeps W(x(u), nu(u)) at its base value
    s = sphere_patch(base)
    w_expr = "v*exp(" + "+".join(f"({c!r})*x{i + 1}"
                                 for i, c in enumerate(coef)) + ")"
    pair = HWPair(parse(w_expr), parse("1"), 3)
    out = solve_nu(s, DerivedAB(pair), EUC3, nu0, du=5e-3)
    pts = surface_grid(s, EUC3).points
    level = out.values * np.exp(pts @ np.array(coef))
    target = nu0 * np.exp(pts[out.base_index] @ np.array(coef))
    assert np.max(np.abs(level / target - 1.0)) < 1e-9
    assert out.mixed_path_defect < 1e-10


# --- shift families -------------------------------------------------------------------

def radial_circle_family(nodes=256, dt=1e-3, t_max=0.5):
    # unit thrust along the velocity: radial rays with speed 1 + t
    s = circle(nodes)
    pair = HWPair(parse("v"), parse("1"), 2)
    force = ForceField(pair, EUC2)
    nu = solve_nu(s, DerivedAB(pair), EUC2, 1.0, du=1e-2)
    return s, normal_shift(s, nu, force, EUC2, t_max, dt, store_every=50)


def test_radial_circle_shift_geometry():
    s, fam = radial_circle_family()
    # layer t: circle of radius 1 + t + t^2/2
    t = fam.times[-1]
    radii = np.linalg.norm(fam.x[-1], axis=-1)
    expected = 1.0 + t + 0.5 * t * t
    assert np.max(np.abs(radii - expected)) < 1e-8
    speeds = np.linalg.norm(fam.xdot[-1], axis=-1)
    assert np.max(np.abs(speeds - (1.0 + t))) < 1e-8


def test_radial_circle_orthogonality():
    s, fam = radial_circle_family()
    per_layer = orthogonality_defect(fam)
    assert np.max(per_layer) < 1e-6


def test_initial_layer_exact():
    s, fam = radial_circle_family(nodes=64, t_max=0.2)
    per_layer = orthogonality_defect(fam)
    assert per_layer[0] < 1e-10
    assert np.max(np.abs(fam.x[0] - surface_grid(s, EUC2).points)) < 1e-12


def test_free_motion_translates_surface():
    s = vertical_line(17)
    force = ForceField((parse("0"), parse("0")), EUC2)
    nu = solve_nu(s, ab("1", ("0", "0")), EUC2, 1.0, du=1e-2)
    fam = normal_shift(s, nu, force, EUC2, 0.4, 1e-2, store_every=10)
    # the line moves rigidly along its unit normal (1, 0)
    assert np.max(np.abs(fam.x[-1][..., 0] - 0.4)) < 1e-12
    assert np.max(np.abs(fam.x[-1][..., 1]
                         - surface_grid(s, EUC2).points[..., 1])) < 1e-12
    per_layer = orthogonality_defect(fam)
    assert np.max(per_layer) < 1e-12


@pytest.mark.parametrize("radius", [1e-6, 1e6])
def test_orthogonality_gate_does_not_depend_on_scale(radius):
    # free radial motion of a circle: every layer is a concentric circle
    s = Hypersurface(
        dimension=2,
        parametrization=(parse(f"{radius!r}*cos(u1)"),
                         parse(f"{radius!r}*sin(u1)")),
        ranges=((0.0, 2 * math.pi),),
        grid=(64,),
        base_point=(0.0,),
        closed=(True,),
    )
    force = ForceField((parse("0"), parse("0")), EUC2)
    nu = solve_nu(s, ab("1", ("0", "0")), EUC2, 1.0, du=1e-2)
    fam = normal_shift(s, nu, force, EUC2, 0.1, 1e-2, store_every=5)
    assert np.max(orthogonality_defect(fam)) < 1e-10


def test_zero_duration_family():
    s, fam = radial_circle_family(nodes=32, t_max=0.0)
    assert len(fam.times) == 1
    assert orthogonality_defect(fam)[0] < 1e-10


def test_aborted_family_reports_partial():
    from normalshift.errors import IntegrationAborted
    # decelerating thrust: every node's speed hits zero around t = 1
    s = circle(16)
    pair = HWPair(parse("v"), parse("-1"), 2)
    force = ForceField(pair, EUC2)
    nu = solve_nu(s, DerivedAB(pair), EUC2, 1.0, du=1e-2)
    with pytest.raises(IntegrationAborted) as exc:
        normal_shift(s, nu, force, EUC2, 1.5, 1e-2, store_every=10)
    assert exc.value.partial is not None
    assert "partial" in str(exc.value)


def test_constant_force_is_not_normal():
    s = circle(128)
    force = ForceField((parse("1"), parse("0")), EUC2)
    nu = solve_nu(s, ab("1", ("0", "0")), EUC2, 1.0, du=1e-2)
    fam = normal_shift(s, nu, force, EUC2, 0.5, 1e-2, store_every=10)
    per_layer = orthogonality_defect(fam)
    assert per_layer[-1] > 1e-3


def test_shift_family_csv(tmp_path):
    s, fam = radial_circle_family(nodes=16, t_max=0.1)
    orthogonality_defect(fam)
    fam.x[0, 3, 0] = -0.0
    fam.xdot[1, 5, 1] = 5e-324
    fam.node_defects[-1, 7] = 1e300
    fam.node_defects[0, 2] = np.nan
    out = tmp_path / "family.csv"
    write_shift_family_csv(out, fam)
    # reference: one row per (layer, node), each value through format()
    lines = ["i1,t,x1,x2,xdot1,xdot2,nu,defect"]
    for li, t in enumerate(fam.times):
        for node in range(16):
            row = [t, *fam.x[li, node], *fam.xdot[li, node],
                   fam.nu.values[node], fam.node_defects[li, node]]
            lines.append(",".join([str(node)] + [format(float(val), ".17g")
                                                 for val in row]))
    data = out.read_bytes()
    assert data == ("\n".join(lines) + "\n").encode()
    for special in (b",-0,", b"e-324,", b"e+300\n", b",nan\n"):
        assert special in data


# --- loop closure -------------------------------------------------------------------------

CYL = CoveringManifold(EUC2, ((2 * math.pi, 0.0),))


def x1_loop():
    return PathSpec.polyline([(0.0, 0.0), (2 * math.pi, 0.0)])


def test_loop_closure_trivial():
    assert loop_closure_defect(x1_loop(), ab("1", ("0", "0")), 1.0,
                               manifold=CYL) == 0.0


def test_loop_closure_cylinder_closed_form():
    d = loop_closure_defect(x1_loop(), ab("1", ("-0.5*v", "0")), 1.0,
                            dt=1e-3, manifold=CYL)
    assert d == pytest.approx(abs(math.exp(-math.pi) - 1.0), rel=1e-9)


def test_loop_closure_contractible_loop():
    square = PathSpec.polyline([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0),
                                (0.0, 1.0), (0.0, 0.0)])
    derived = DerivedAB(HWPair(parse("v*exp(0.5*x1-0.3*x2)"), parse("1"), 2))
    assert loop_closure_defect(square, derived, 1.0, dt=1e-3) < 1e-8


def test_loop_closure_rejects_open_path():
    open_path = PathSpec.polyline([(0.0, 0.0), (1.0, 0.0)])
    with pytest.raises(PathError):
        loop_closure_defect(open_path, ab("1", ("0", "0")), 1.0,
                            manifold=CYL)


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_loop_closure_check_does_not_depend_on_scale(scale):
    # one period of a cylinder, starting at x1 = 1e8 * scale: the end
    # point carries the rounding of that coordinate
    period = 2 * math.pi * scale
    cyl = CoveringManifold(EUC2, ((period, 0.0),))
    start = 1e8 * scale
    zero = ab("1", ("0", "0"))
    loop = PathSpec.polyline([(start, 0.0), (start + period, 0.0)])
    assert loop_closure_defect(loop, zero, 1.0, dt=0.1 * scale,
                               manifold=cyl) == 0.0
    short = PathSpec.polyline([(start, 0.0), (start + 1.25 * period, 0.0)])
    with pytest.raises(PathError):
        loop_closure_defect(short, zero, 1.0, dt=0.1 * scale, manifold=cyl)
    # closed in the chart (no deck generators) at the same scale
    flat = CoveringManifold(EUC2)
    square = PathSpec.polyline([(start, 0.0), (start + scale, 0.0),
                                (start, scale), (start, 0.0)])
    assert loop_closure_defect(square, zero, 1.0, dt=0.1 * scale,
                               manifold=flat) == 0.0
    corner = PathSpec.polyline([(start, 0.0), (start + scale, 0.0),
                                (start, scale)])
    with pytest.raises(PathError):
        loop_closure_defect(corner, zero, 1.0, dt=0.1 * scale, manifold=flat)


def test_ellipsoid_shift_is_normal():
    theta = np.linspace(0.15, math.pi - 0.15, 25)
    base_theta = float(theta[np.argmin(np.abs(theta - math.pi / 2))])
    ell = Hypersurface(
        dimension=3,
        parametrization=(parse("1.3*sin(u2)*cos(u1)"),
                         parse("sin(u2)*sin(u1)"),
                         parse("0.8*cos(u2)")),
        ranges=((0.0, 2 * math.pi), (0.15, math.pi - 0.15)),
        grid=(48, 25),
        base_point=(0.0, base_theta),
        closed=(True, False),
        orientation=-1,
    )
    pair = HWPair(parse("v*exp(0.2*x1)"), parse("1"), 3)
    nu = solve_nu(ell, DerivedAB(pair), EUC3, 1.0, du=1e-2)
    fam = normal_shift(ell, nu, ForceField(pair, EUC3), EUC3, 0.3, 1e-3,
                       store_every=60)
    per_layer = orthogonality_defect(fam)
    # tangent-estimation floor at this grid is ~1e-4; a non-normal launch
    # sits orders of magnitude above (see the constant-force control)
    assert per_layer[0] < 1e-10
    assert np.max(per_layer) < 5e-4
    assert nu.mixed_path_defect < 1e-10


# --- compatibility audit -------------------------------------------------------------------

def test_mixed_path_audit_flags_non_closed_b():
    # b = (x2, 0) is not closed; staircase orders disagree on a 2-surface
    patch = Hypersurface(
        dimension=3,
        parametrization=(parse("u1"), parse("u2"), parse("0")),
        ranges=((0.0, 1.0), (0.0, 1.0)),
        grid=(9, 9),
        base_point=(0.0, 0.0),
        closed=(False, False),
        orientation=1,
    )
    with pytest.raises(CompatibilityError):
        solve_nu(patch, ab("1", ("x2", "0", "0")), EUC3, 1.0, du=1e-2,
                 compat_tol=1e-6)
