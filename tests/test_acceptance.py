"""Acceptance suite: every gate at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
"""

import filecmp
import math
from pathlib import Path

import numpy as np
import pytest

from builders import ab, hw
from normalshift.cli import main as cli_main
from normalshift.expr import parse
from normalshift.fields import (
    DerivedAB,
    ForceField,
    closedness_residual,
    normalizing_residual,
)
from normalshift.geometry import (
    CoveringManifold,
    Hypersurface,
    MetricSpec,
    surface_grid,
)
from normalshift.pfaff import (
    AdmissibleF,
    PathSpec,
    continue_V,
    extract_h,
    f_norm_estimate,
    gauge_transform,
    monodromy,
    path_independence_defect,
)
from normalshift.shift import (
    NuField,
    loop_closure_defect,
    normal_shift,
    orthogonality_defect,
    solve_nu,
)
from reference_force import force_ab, force_hw

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
EUC2 = MetricSpec(2)
EUC3 = MetricSpec(3)
CYLINDER = CoveringManifold(EUC2, ((2 * math.pi, 0.0),))


def announce(num, label):
    print(f"ACCEPTANCE {num:02d} {label}: PASS")


FIVE_PAIRS = [
    (hw("v"), EUC2),
    (hw("v*exp(0.5*x1)"), EUC2),
    (hw("v+0.3*x2"), EUC2),
    (hw("v*exp(0.5*x1)", h="w^2"), EUC2),
    (hw("v+0.3*x2"),
     MetricSpec(2, kind="conformal", conformal=parse("0.2*x1"))),
]


def random_states(seed, count, n=2):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(count, n))
    xdot = rng.uniform(-1.5, 1.5, size=(count, n))
    xdot[np.linalg.norm(xdot, axis=1) < 0.3] += 1.0
    return x, xdot


def sphere_surface(grid=(64, 32), margin=0.15):
    theta = np.linspace(margin, math.pi - margin, grid[1])
    base_theta = float(theta[np.argmin(np.abs(theta - math.pi / 2))])
    return Hypersurface(
        dimension=3,
        parametrization=(parse("sin(u2)*cos(u1)"),
                         parse("sin(u2)*sin(u1)"),
                         parse("cos(u2)")),
        ranges=((0.0, 2 * math.pi), (margin, math.pi - margin)),
        grid=grid,
        base_point=(0.0, base_theta),
        closed=(True, False),
        orientation=-1,
    )


def test_01_force_equivalence():
    for pair, metric in FIVE_PAIRS:
        x, xdot = random_states(101, 50)
        f_direct = force_hw(pair, metric, x, xdot)
        f_converted = force_ab(DerivedAB(pair), metric, x, xdot)
        worst = float(np.max(np.abs(f_direct - f_converted)))
        assert worst < 1e-12, f"discrepancy {worst:.3e} for W={pair.W}"
    announce(1, "force equivalence across presentations")


def test_02_pde_residuals():
    axis = np.linspace(-1.0, 1.0, 10)
    mesh = np.meshgrid(axis, axis, indexing="ij")
    x = np.stack([m.ravel() for m in mesh], axis=-1)
    v = np.linspace(0.5, 2.5, 10)
    for pair, _ in FIVE_PAIRS:
        derived = DerivedAB(pair)
        closed = np.max(np.abs(
            closedness_residual(derived.jet(x[:, None, :], v[None, :]))))
        normal = np.max(np.abs(
            normalizing_residual(derived.jet(x[:, None, :], v[None, :]))))
        assert closed < 1e-10, f"closedness {closed:.3e} for W={pair.W}"
        assert normal < 1e-10, f"normalizing {normal:.3e} for W={pair.W}"
    broken = ab("1", ("-0.5*v", "0"))
    flagged = np.max(np.abs(
        normalizing_residual(broken.jet(x[:, None, :], v[None, :]))))
    assert abs(flagged - 0.5) <= 1e-12
    announce(2, "defining-equation residuals and broken-pair flag")


def test_03_continuation_oracle_and_order():
    decay = ab("1", ("-0.5*v", "0"))
    seg = PathSpec.polyline([(0.0, 0.0), (1.0, 0.0)])
    exact = math.exp(-0.5)
    got = continue_V(decay, seg, 1.0, dt=1e-3).end_V
    assert abs(got - exact) / exact < 1e-8
    errs = [abs(continue_V(decay, seg, 1.0, dt=dt).end_V - exact)
            for dt in (0.25, 0.125, 0.0625)]
    for coarse, fine in zip(errs, errs[1:]):
        order = math.log2(coarse / fine)
        assert 3.7 <= order <= 4.3, f"observed order {order:.3f}"
    announce(3, "continuation closed-form oracle and RK4 order")


def test_04_vw_matches_finite_differences():
    rng = np.random.default_rng(404)
    eps = 1e-5
    for case in range(20):
        c = [float(v) for v in rng.uniform(-0.4, 0.4, size=3)]
        pair = hw(f"v*exp({c[0]!r}*x1+({c[1]!r})*x2+({c[2]!r})*x1*x2)")
        derived = DerivedAB(pair)
        target = rng.uniform(-0.8, 0.8, size=2)
        path = PathSpec.polyline([(0.0, 0.0), tuple(target)])
        w0 = float(rng.uniform(0.5, 2.0))
        tr = continue_V(derived, path, np.array([w0 - eps, w0, w0 + eps]),
                        dt=2e-3)
        fd = (tr.end_V[2] - tr.end_V[0]) / (2 * eps)
        vw = tr.end_Vw[1]
        assert vw > 0.0
        assert abs(vw - fd) / abs(fd) < 1e-5, \
            f"case {case}: vw {vw!r} vs fd {fd!r}"
    announce(4, "datum derivative against finite differences")


def test_05_path_independence():
    derived = DerivedAB(hw("v*exp(0.5*x1)"))
    l_path = PathSpec.polyline([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)])
    direct = PathSpec.polyline([(0.0, 0.0), (1.0, 1.0)])
    assert path_independence_defect(
        derived, continue_V(derived, l_path, 1.0, dt=1e-3), direct,
        dt=1e-3) < 1e-8
    curl = ab("1", ("x2", "0"))
    assert path_independence_defect(
        curl, continue_V(curl, direct, 1.0, dt=1e-3), l_path, dt=1e-3) > 1e-3
    announce(5, "path independence for closed data, dependence for curl")


def test_06_monodromy_cylinder():
    decay = ab("1", ("-0.5*v", "0"))
    w_grid = np.logspace(-1, 1, 10)
    rho = monodromy(decay, CYLINDER, "g1", (0.0, 0.0), w_grid, dt=1e-2)
    scale = math.exp(math.pi)
    assert np.max(np.abs(rho.rho / w_grid - scale)) / scale < 1e-6
    rho_sq = monodromy(decay, CYLINDER, "g1 g1", (0.0, 0.0), w_grid,
                       dt=1e-2)
    inside = w_grid[rho.rho <= w_grid[-1]]
    assert len(inside) >= 3
    assert np.max(np.abs(rho(rho(inside)) - rho_sq(inside))) < 1e-8
    rho_id = monodromy(decay, CYLINDER, "", (0.0, 0.0), w_grid, dt=1e-2)
    assert np.max(np.abs(rho_id.rho - w_grid)) < 1e-10
    announce(6, "monodromy scale, composition, identity word")


def test_07_gauge_action():
    pair = hw("v*exp(0.5*x1)")
    moved = gauge_transform(pair, parse(f"{math.exp(math.pi)!r}*w"))
    x, xdot = random_states(707, 20)
    worst = float(np.max(np.abs(force_hw(moved, EUC2, x, xdot)
                                - force_hw(pair, EUC2, x, xdot))))
    assert worst < 1e-9, f"gauge discrepancy {worst:.3e}"
    announce(7, "gauge transformation preserves the force")


def test_08_h_extraction_round_trip():
    v_grid = np.linspace(0.5, 2.0, 20)
    unit = extract_h(DerivedAB(hw("v*exp(0.5*x1)")), (0.0, 0.0), v_grid)
    assert np.max(np.abs(unit.h - 1.0)) < 1e-8
    assert unit.consistency_defect < 1e-7
    square = extract_h(DerivedAB(hw("v", h="w^2")), (0.0, 0.0), v_grid)
    assert np.max(np.abs(square.h - v_grid ** 2)) < 1e-8
    assert square.consistency_defect < 1e-7
    announce(8, "one-variable factor recovered from (a, b)")


def sphere_family(grid, dt, t_max=0.5, store_every=None, nu0=1.0):
    surface = sphere_surface(grid)
    pair = hw("v*exp(0.3*x1)", n=3)
    derived = DerivedAB(pair)
    nu = solve_nu(surface, derived, nu0, du=1e-2)
    force = ForceField(pair, EUC3)
    nsteps = int(round(t_max / dt))
    store = store_every or max(1, nsteps // 10)
    fam = normal_shift(nu, force, t_max, dt,
                       store_every=store)
    return fam, orthogonality_defect(fam)


def test_09a_sphere_orthogonality_gate():
    fam, per_layer = sphere_family((64, 32), 1e-3, store_every=50)
    assert per_layer[0] < 1e-10, f"initial layer defect {per_layer[0]:.3e}"
    worst = float(np.max(per_layer))
    assert worst < 1e-5, (
        f"orthogonality defect {worst:.3e} exceeds 1e-5 somewhere in "
        f"{len(per_layer)} stored layers")
    announce(9, "sphere shift orthogonality gate (64x32, dt=1e-3)")


def test_09b_convergence_rates():
    # dt rate: triplet differences cancel the tangent-estimation floor
    defects_dt = [sphere_family((64, 32), 0.5 / n, store_every=n)[1][-1]
                  for n in (64, 128, 256)]
    num = defects_dt[0] - defects_dt[1]
    den = defects_dt[1] - defects_dt[2]
    rate_dt = math.log2(abs(num / den))
    assert rate_dt >= 3.5, f"dt rate {rate_dt:.2f}"
    # du rate: grid refinement at fixed dt
    defects_du = [sphere_family(g, 2e-3, store_every=250)[1][-1]
                  for g in ((16, 8), (32, 16), (64, 32))]
    rate_du = math.log2((defects_du[0] - defects_du[1])
                        / (defects_du[1] - defects_du[2]))
    assert rate_du >= 1.8, f"du rate {rate_du:.2f}"
    announce(9, f"convergence rates dt {rate_dt:.2f}, du {rate_du:.2f}")


def test_09c_negative_control():
    surface = sphere_surface((64, 32))
    force = ForceField((parse("1"), parse("0"), parse("0")), EUC3)
    sg = surface_grid(surface, EUC3)
    nu = NuField(surface, np.ones(sg.points.shape[:-1]), 0.0)
    fam = normal_shift(nu, force, 0.5, 1e-3, store_every=250)
    per_layer = orthogonality_defect(fam)
    assert per_layer[-1] > 1e-3, f"control defect {per_layer[-1]:.3e}"
    announce(9, "constant-force control detected as non-normal")


def test_10_loop_closure_dichotomy():
    loop = PathSpec.polyline([(0.0, 0.0), (2 * math.pi, 0.0)])
    for c in (0.1, 0.5):
        data = ab("1", (f"-{c}*v", "0"))
        got = loop_closure_defect(loop, data, 1.0, dt=1e-3,
                                  manifold=CYLINDER)
        want = abs(math.exp(-c * 2 * math.pi) - 1.0)
        assert abs(got - want) / want < 1e-6, f"c={c}: {got!r} vs {want!r}"
    flat = loop_closure_defect(loop, ab("1", ("0", "0")), 1.0, dt=1e-3,
                               manifold=CYLINDER)
    assert flat < 1e-10
    announce(10, "loop closure defect dichotomy on the cylinder")


def test_11_fnorm():
    decay = ab("1", ("-0.5*v", "0"))
    grid_x = [(x1, x2) for x1 in (-1.0, 0.0, 1.0) for x2 in (-1.0, 1.0)]
    est = f_norm_estimate(decay, AdmissibleF(parse("v")), EUC2, grid_x,
                          np.linspace(0.2, 5.0, 9))
    assert est.value == 0.5
    assert not est.boundary_suspicion
    est2 = f_norm_estimate(decay, AdmissibleF(parse("v*v")), EUC2, grid_x,
                           np.linspace(0.2, 5.0, 9))
    assert est2.boundary_suspicion
    assert est2.argmax_v == pytest.approx(0.2)
    announce(11, "f-norm estimate exact value and divergence suspicion")


def test_12_determinism(tmp_path):
    jobs = [("gauge", "gauge_scale.toml",
             ["report.txt"]),
            ("monodromy", "cylinder_monodromy.toml",
             ["report.txt", "monodromy.csv"]),
            ("shift", "circle_shift.toml",
             ["report.txt", "shift_family.csv"]),
            ("check", "check_consistent.toml",
             ["report.txt"])]
    for command, scenario, files in jobs:
        out1 = tmp_path / f"{command}_1"
        out2 = tmp_path / f"{command}_2"
        for out in (out1, out2):
            code = cli_main([command, "--config",
                             str(SCENARIOS / scenario), "--out", str(out)])
            assert code == 0, f"{command} on {scenario} exited {code}"
        match, mismatch, errors = filecmp.cmpfiles(out1, out2, files,
                                                   shallow=False)
        assert mismatch == [] and errors == [], \
            f"{command}: outputs differ {mismatch or errors}"
    announce(12, "scenario reruns are byte-identical")
