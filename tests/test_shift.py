"""Normal-shift construction: nu solve, shift families, orthogonality."""

import math

import numpy as np
import pytest

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


def test_nu_sweep_leaving_positive_axis_names_the_axis():
    # d nu/du = -1 along the line: nu = 0.895 - u reaches 0 at u = 0.895,
    # the midpoint stage of the step [0.89, 0.9]
    with pytest.raises(PositivityError, match=r"axis 1 near u_1=0\.895\b"):
        solve_nu(vertical_line(), ab("1", ("0", "-1")), EUC2, 0.895,
                 du=1e-2)


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
    out = tmp_path / "family.csv"
    write_shift_family_csv(out, fam)
    lines = out.read_text().splitlines()
    assert lines[0] == "i1,t,x1,x2,xdot1,xdot2,nu,defect"
    assert len(lines) == 1 + len(fam.times) * 16


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
