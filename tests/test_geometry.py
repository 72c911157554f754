"""Metric evaluation, connection coefficients, deck maps, surface frames."""

import math
import random

import numpy as np
import pytest

from normalshift.errors import DeckInvarianceError, FrameError, MetricError
from normalshift.expr import parse
from normalshift.geometry import (
    CoveringManifold,
    Hypersurface,
    MetricSpec,
    christoffel,
    deck_apply,
    grid_axes,
    inverse_metric_at,
    metric_at,
    parse_word,
    surface_frame,
    surface_grid,
)

EUC2 = MetricSpec(2)
EUC3 = MetricSpec(3)


def conformal(n, lam):
    return MetricSpec(n, kind="conformal", conformal=parse(lam))


def circle(orientation=1, nodes=16, radius=1.0):
    return Hypersurface(
        dimension=2,
        parametrization=(parse(f"{radius!r}*cos(u1)"),
                         parse(f"{radius!r}*sin(u1)")),
        ranges=((0.0, 2 * math.pi),),
        grid=(nodes,),
        base_point=(0.0,),
        closed=(True,),
        orientation=orientation,
    )


def sphere(nodes=(16, 9), margin=0.15, radius=1.0):
    return Hypersurface(
        dimension=3,
        parametrization=(parse(f"{radius!r}*sin(u2)*cos(u1)"),
                         parse(f"{radius!r}*sin(u2)*sin(u1)"),
                         parse(f"{radius!r}*cos(u2)")),
        ranges=((0.0, 2 * math.pi), (margin, math.pi - margin)),
        grid=nodes,
        base_point=(0.0, math.pi / 2),
        closed=(True, False),
        orientation=1,
    )


# --- metric -------------------------------------------------------------------

def test_metric_euclidean_identity():
    assert np.array_equal(metric_at(EUC2, [3.0, -1.0]), np.eye(2))


def test_metric_conformal_values():
    m = conformal(2, "x1")
    assert metric_at(m, [0.0, 0.0]) == pytest.approx(np.eye(2))
    # e^{2*1} * I at x1=1
    assert metric_at(m, [1.0, 0.0]) == pytest.approx(math.e ** 2 * np.eye(2))


def test_metric_batched():
    m = conformal(2, "x1")
    pts = np.array([[0.0, 0.0], [1.0, 0.0]])
    g = metric_at(m, pts)
    assert g.shape == (2, 2, 2)
    assert g[1] == pytest.approx(math.e ** 2 * np.eye(2))


def test_explicit_metric_and_pd_check():
    ok = MetricSpec(2, kind="explicit",
                    entries=((parse("2"), parse("0")),
                             (parse("0"), parse("1+x1^2"))))
    g = metric_at(ok, [1.0, 0.0])
    assert g == pytest.approx(np.diag([2.0, 2.0]))
    bad = MetricSpec(2, kind="explicit",
                     entries=((parse("1"), parse("0")),
                              (parse("0"), parse("x1"))))
    with pytest.raises(MetricError) as exc:
        metric_at(bad, [-1.0, 0.0])
    assert "minor 2" in str(exc.value)


def test_explicit_metric_requires_symmetry():
    with pytest.raises(MetricError):
        MetricSpec(2, kind="explicit",
                   entries=((parse("1"), parse("x1")),
                            (parse("x2"), parse("1"))))


# --- christoffel ----------------------------------------------------------------

def test_christoffel_euclidean_zero():
    gamma = christoffel(EUC3, [0.3, 0.1, -2.0])
    assert np.array_equal(gamma, np.zeros((3, 3, 3)))


def test_christoffel_conformal_oracle():
    # hand formula for g = e^{2 lam} delta:
    #   Gamma^k_ij = d_j lam delta^k_i + d_i lam delta^k_j - d^k lam delta_ij
    lam = parse("0.3*x1+0.1*x2^2")
    m = conformal(2, "0.3*x1+0.1*x2^2")
    x = np.array([0.7, -0.4])
    dlam = np.array([0.3, 0.2 * x[1]])
    expected = np.zeros((2, 2, 2))
    for k in range(2):
        for i in range(2):
            for j in range(2):
                expected[k, i, j] = (dlam[j] * (k == i) + dlam[i] * (k == j)
                                     - dlam[k] * (i == j))
    gamma = christoffel(m, x)
    assert gamma == pytest.approx(expected, abs=1e-14)
    # the worked subcase: Gamma^1_11 equals d_1 lam
    assert gamma[0, 0, 0] == pytest.approx(0.3, abs=1e-14)


def test_christoffel_symmetric_lower_indices():
    m = conformal(3, "0.2*x1*x3+sin(x2)")
    gamma = christoffel(m, [0.2, 0.4, -0.5])
    assert np.array_equal(gamma, np.swapaxes(gamma, 1, 2))


def test_christoffel_matches_finite_differences():
    rng = random.Random(11)
    for _ in range(5):
        a, b, c = (round(rng.uniform(-0.4, 0.4), 3) for _ in range(3))
        m = conformal(2, f"{a}*x1+{b}*x2+{c}*x1*x2")
        x = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1)])
        h = 1e-6
        dg = np.zeros((2, 2, 2))
        for l in range(2):
            xp, xm = x.copy(), x.copy()
            xp[l] += h
            xm[l] -= h
            dg[:, :, l] = (metric_at(m, xp) - metric_at(m, xm)) / (2 * h)
        ginv = np.linalg.inv(metric_at(m, x))
        expected = np.zeros((2, 2, 2))
        for k in range(2):
            for i in range(2):
                for j in range(2):
                    expected[k, i, j] = 0.5 * sum(
                        ginv[k, l] * (dg[j, l, i] + dg[i, l, j] - dg[i, j, l])
                        for l in range(2))
        assert christoffel(m, x) == pytest.approx(expected, abs=1e-6)


# --- index raising/lowering -----------------------------------------------------

def test_raise_then_lower_roundtrip():
    # lowering with g after raising with g^-1 (and the reverse) is the
    # identity
    m = conformal(2, "0.5*x1-0.2*x2")
    x = np.array([0.3, 0.8])
    g, ginv = metric_at(m, x), inverse_metric_at(m, x)
    assert np.allclose(g @ ginv, np.eye(2), atol=1e-12)
    assert np.allclose(ginv @ g, np.eye(2), atol=1e-12)


# --- deck transformations --------------------------------------------------------

def test_deck_apply_words():
    man = CoveringManifold(EUC2, ((2 * math.pi, 0.0), (0.0, 1.0)))
    x = np.array([0.5, 0.25])
    assert np.array_equal(deck_apply(man, "", x), x)
    assert deck_apply(man, "g1", x) == pytest.approx([0.5 + 2 * math.pi, 0.25])
    assert np.array_equal(deck_apply(man, "g1 g1^-1", x), x)
    assert deck_apply(man, "g1^2*g2^-3", x) == pytest.approx(
        [0.5 + 4 * math.pi, 0.25 - 3.0])


def test_deck_generators_must_preserve_metric():
    # e^{2 x1} is not periodic in x1, so an x1-translation is rejected
    with pytest.raises(DeckInvarianceError):
        CoveringManifold(conformal(2, "x1"), ((1.0, 0.0),))
    # but a translation along x2 preserves it
    CoveringManifold(conformal(2, "x1"), ((0.0, 2.0),))


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_deck_metric_check_does_not_depend_on_scale(scale):
    # g_11 = scale * (2 + sin(x1)) is 2*pi-periodic up to rounding
    def metric(g11):
        zero, g22 = parse("0"), parse(repr(scale))
        return MetricSpec(2, kind="explicit",
                          entries=((parse(g11), zero), (zero, g22)))

    CoveringManifold(metric(f"{scale!r}*(2+sin(x1))"), ((2 * math.pi, 0.0),))
    with pytest.raises(DeckInvarianceError):
        CoveringManifold(metric(f"{scale!r}*(2+0.1*x1)"),
                         ((2 * math.pi, 0.0),))


def test_parse_word_errors():
    from normalshift.errors import PathError
    with pytest.raises(PathError):
        parse_word("h1", 2)
    with pytest.raises(PathError):
        parse_word("g3", 2)


# --- surface frames ---------------------------------------------------------------

def test_circle_frame_outward():
    x, taus, n = surface_frame(circle(), EUC2, (0.0,))
    assert x == pytest.approx([1.0, 0.0])
    assert taus[0] == pytest.approx([0.0, 1.0])
    assert n == pytest.approx([1.0, 0.0])


def test_circle_frame_inward_orientation():
    _, _, n = surface_frame(circle(orientation=-1), EUC2, (0.0,))
    assert n == pytest.approx([-1.0, 0.0])


def test_sphere_frame():
    _, _, n = surface_frame(sphere(), EUC3, (0.0, math.pi / 2))
    assert np.abs(n) == pytest.approx([1.0, 0.0, 0.0], abs=1e-12)


def test_conformal_normal_normalization():
    # circle in metric e^{2 x1}: at u=0 the euclidean normal is (1,0) and
    # g(n,n)=1 forces n = e^{-1}(1,0)
    m = conformal(2, "x1")
    _, _, n = surface_frame(circle(), m, (0.0,))
    assert n == pytest.approx([math.exp(-1.0), 0.0], abs=1e-12)


def test_surface_grid_frame_invariants():
    m = conformal(3, "0.2*x1")
    sg = surface_grid(sphere(), m)
    g = metric_at(m, sg.points)
    # unit normals, orthogonal to every tangent
    nn = np.einsum("...i,...ij,...j->...", sg.normals, g, sg.normals)
    assert np.max(np.abs(nn - 1.0)) < 1e-10
    nt = np.einsum("...i,...ij,...kj->...k", sg.normals, g, sg.tangents)
    assert np.max(np.abs(nt)) < 1e-10
    # continuity: neighbouring normals never flip
    for ax in range(2):
        dots = np.sum(sg.normals * np.roll(sg.normals, -1, axis=ax), axis=-1)
        if ax == 1:
            dots = dots[:, :-1]
        assert np.min(dots) > 0.0


def test_degenerate_frame_detected():
    # embedding collapses the tangent to zero at u1 = 0
    s = Hypersurface(
        dimension=2,
        parametrization=(parse("u1^3"), parse("u1^2")),
        ranges=((-1.0, 1.0),),
        grid=(9,),
        base_point=(0.0,),
        closed=(False,),
    )
    with pytest.raises(FrameError):
        surface_frame(s, EUC2, (0.0,))
    # on a batch the error names the failing node and its own parameter
    u = np.array([[0.5, -0.5, 0.25], [0.75, 0.1, 0.0]])[..., None]
    with pytest.raises(FrameError, match=r"u=\(0\.0,\), node \(1, 2\)"):
        surface_frame(s, EUC2, u)


@pytest.mark.parametrize("radius", [1e-6, 1e6])
def test_frames_do_not_depend_on_scale(radius):
    sg = surface_grid(circle(radius=radius), EUC2)
    assert sg.normals[0] == pytest.approx([1.0, 0.0], abs=1e-12)
    sg = surface_grid(sphere(radius=radius), EUC3)
    # radial unit normals (this parametrization's orientation points inward)
    nn = np.sum(sg.normals * sg.points, axis=-1) / radius
    assert np.abs(nn) == pytest.approx(np.ones(sg.points.shape[:-1]),
                                       abs=1e-12)
    _, _, n = surface_frame(circle(radius=radius), EUC2, (0.0,))
    assert n == pytest.approx([1.0, 0.0], abs=1e-12)


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_collinear_tangents_rejected_at_any_scale(scale):
    # both tangents are (1, 2, 0) * scale
    s = Hypersurface(
        dimension=3,
        parametrization=(parse(f"{scale!r}*(u1 + u2)"),
                         parse(f"{scale!r}*(2*u1 + 2*u2)"),
                         parse("0")),
        ranges=((0.0, 1.0), (0.0, 1.0)),
        grid=(3, 3),
        base_point=(0.0, 0.0),
        closed=(False, False),
    )
    with pytest.raises(FrameError, match="degenerate tangent frame"):
        surface_grid(s, EUC3)


def test_metric_error_names_the_failing_point():
    # g22 = x1 fails at the third of the (3, 1) points only
    m = MetricSpec(2, kind="explicit",
                   entries=((parse("1"), parse("0")),
                            (parse("0"), parse("x1"))))
    x = np.array([[[1.0, 0.0]], [[2.0, 0.0]], [[-1.0, 5.0]]])
    with pytest.raises(MetricError, match=r"x=\(-1\.0, 5\.0\)"):
        metric_at(m, x)


def test_grid_axes_closed_excludes_endpoint():
    axes = grid_axes(circle(nodes=8))
    assert len(axes[0]) == 8
    assert axes[0][0] == 0.0
    assert axes[0][-1] == pytest.approx(2 * math.pi * 7 / 8)
