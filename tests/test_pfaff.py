"""Continuation, inversion, f-norms, monodromy, gauge maps, h extraction."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from normalshift.errors import (
    CompatibilityError,
    ContinuationError,
    DeckInvarianceError,
    PathError,
    PositivityError,
    TableError,
)
from normalshift.expr import parse
from normalshift.fields import ABFields, DerivedAB, HWPair, force_hw
from normalshift.geometry import CoveringManifold, MetricSpec
from normalshift.pfaff import (
    AdmissibleF,
    ClosedFormRho,
    MonodromyMap,
    PathSpec,
    _check_deck_invariance,
    _continue,
    _invert_on_path,
    continue_V,
    extract_h,
    f_norm_estimate,
    _pchip,
    fd_weights,
    gauge_transform,
    invert_V,
    monodromy,
    path_independence_defect,
    straight_path_factory,
)

EUC2 = MetricSpec(2)


def ab(a, b):
    return ABFields(parse(a), tuple(parse(c) for c in b))


def hw(W, h="1", n=2):
    return HWPair(parse(W), parse(h), n)


DECAY = ab("1", ("-0.5*v", "0"))            # db/dx closed, linear in v
ZERO_B = ab("1", ("0", "0"))
CURL = ab("1", ("x2", "0"))                  # not closed

UNIT_SEG = PathSpec.polyline([(0.0, 0.0), (1.0, 0.0)])


# --- continuation ------------------------------------------------------------------

def test_continue_trivial_for_zero_b():
    tr = continue_V(ZERO_B, UNIT_SEG, 2.5, dt=1e-2)
    assert np.max(np.abs(tr.V - 2.5)) == 0.0


def test_continue_closed_form_decay():
    # dV/ds = -V/2 along x1 from 0 to 1:  V(1) = w0 exp(-1/2)
    tr = continue_V(DECAY, UNIT_SEG, 2.0, dt=1e-3)
    assert tr.end_V == pytest.approx(2.0 * math.exp(-0.5), rel=1e-10)


def test_continue_reversal_returns_datum():
    arc = PathSpec.parametric([parse("cos(t)"), parse("sin(t)")],
                              0.0, math.pi / 2, samples=32)
    for path in (UNIT_SEG, arc):
        there = continue_V(DECAY, path, 1.3, dt=1e-3).end_V
        back = continue_V(DECAY, path.reversed(), there, dt=1e-3).end_V
        assert back == pytest.approx(1.3, abs=1e-10)


def test_continue_rk4_order():
    exact = 1.0 * math.exp(-0.5)
    errs = []
    for dt in (0.25, 0.125, 0.0625):
        errs.append(abs(continue_V(DECAY, UNIT_SEG, 1.0, dt=dt).end_V - exact))
    order1 = math.log2(errs[0] / errs[1])
    order2 = math.log2(errs[1] / errs[2])
    assert 3.7 <= order1 <= 4.3
    assert 3.7 <= order2 <= 4.3


def test_continue_batch_of_data():
    w0 = np.array([0.5, 1.0, 2.0, 4.0])
    tr = continue_V(DECAY, UNIT_SEG, w0, dt=1e-3)
    assert tr.end_V == pytest.approx(w0 * math.exp(-0.5), rel=1e-9)


def test_continue_parametric_path():
    # quarter circle from (1,0) to (0,1): integral of b.dx = -0.5 * dx1
    path = PathSpec.parametric([parse("cos(t)"), parse("sin(t)")],
                               0.0, math.pi / 2, samples=32)
    tr = continue_V(DECAY, path, 1.0, dt=1e-3)
    assert tr.end_V == pytest.approx(math.exp(0.5), rel=1e-8)


def test_continuation_leaves_domain():
    # dV/ds = -1/(2V): V^2 = w0^2 - s hits zero before s = 1 for w0 = 0.8
    sink = ab("1", ("-0.5/v", "0"))
    with pytest.raises(ContinuationError):
        continue_V(sink, UNIT_SEG, 0.8, dt=1e-3)


def test_continuation_error_names_the_failing_lane():
    # two paths in one batch; only the one at x2 = 5 sees b != 0, and its
    # V^2 = 1 - 5 s reaches zero at s = 0.2, where a midpoint stage of the
    # step [0.200, 0.201] leaves the positive axis
    paths = np.array([[(0.0, 0.0), (3.0, 0.0)], [(0.0, 5.0), (3.0, 5.0)]])
    with pytest.raises(ContinuationError,
                       match=r"in lane \(1,\).*, 5\.0\)") as exc:
        _continue(ab("1", ("-0.5*x2/v", "0")), paths, np.ones(2), 1e-3,
                  want_vw=False, store=False)
    assert exc.value.t == pytest.approx(0.2005, abs=1e-12)
    assert exc.value.point == pytest.approx([0.2005, 5.0], abs=1e-12)


def test_stage_values_are_guarded():
    # V dV/du = -1 from V = 0.9: V^2 = 0.81 - 2u dies at u = 0.405.  At
    # dt = 1e-2 a step crosses the zero with negative stage values and
    # lands back on the positive axis (V_end ~ 11.6 unguarded).
    with pytest.raises(ContinuationError,
                       match="left the positive axis") as exc:
        continue_V(ab("1", ("0", "-1/v")),
                   PathSpec.polyline([(0.0, 0.0), (0.0, 1.0)]), 0.9, dt=1e-2)
    assert 0.4 <= exc.value.t <= 0.41


def test_field_failure_names_the_stage_that_failed():
    # sqrt(0.503 - x2) is defined at the step start x2 = 0.5 but not at
    # the midpoint stage x2 = 0.505, which the error names with its own t
    with pytest.raises(ContinuationError,
                       match="field evaluation failed") as exc:
        continue_V(ab("1", ("0", "sqrt(0.503 - x2)")),
                   PathSpec.polyline([(0.0, 0.0), (0.0, 1.0)]), 1.0, dt=1e-2)
    assert exc.value.t == pytest.approx(0.505, abs=1e-12)
    assert exc.value.point == pytest.approx([0.0, 0.505], abs=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize("call", [
    lambda bad: continue_V(DECAY, UNIT_SEG, bad),
    lambda bad: continue_V(DECAY, UNIT_SEG, [1.0, bad]),
    lambda bad: invert_V(DECAY, straight_path_factory((0.0, 0.0)),
                         (1.0, 0.0), bad),
    lambda bad: monodromy(DECAY, CYL, "g1", (0.0, 0.0), [bad, 1.0, 2.0]),
], ids=["datum", "datum_batch", "target", "w_grid"])
def test_positive_axis_inputs_are_checked_before_integrating(call, bad):
    # NaN and inf pass a `<= 0` test; they must be named before any
    # integration starts, not turn up later as a continuation failure
    with np.errstate(all="raise"):
        with pytest.raises(PositivityError,
                           match=f"must be finite and positive, got {bad}$"):
            call(bad)


def test_degenerate_point_path():
    factory = straight_path_factory((0.0, 0.0))
    tr = continue_V(DECAY, factory(np.zeros(2)), 1.7, dt=1e-3)
    assert tr.end_V == 1.7


def test_path_validation():
    with pytest.raises(PathError):
        PathSpec.polyline([(0.0, 0.0), (0.0, 0.0), (1.0, 0.0)])
    with pytest.raises(PathError):
        # overflows to inf within the sampled interval
        PathSpec.parametric([parse("exp(1000*t)"), parse("0")], 0.0, 1.0)
    with pytest.raises(PathError):
        PathSpec.parametric([parse("t"), parse("0")], 1.0, 0.0)


# --- the datum derivative -----------------------------------------------------------

def test_vw_trivial_and_closed_form():
    tr0 = continue_V(ZERO_B, UNIT_SEG, 1.0, dt=1e-2)
    assert np.max(np.abs(tr0.Vw - 1.0)) == 0.0
    tr = continue_V(DECAY, UNIT_SEG, 1.0, dt=1e-3)
    assert tr.end_Vw == pytest.approx(math.exp(-0.5), rel=1e-10)
    assert np.all(tr.Vw > 0.0)


def test_vw_matches_finite_differences():
    eps = 1e-5
    w0 = 1.2
    pair = hw("v*exp(0.4*x1-0.3*x2)")
    derived = DerivedAB(pair)
    path = PathSpec.polyline([(0.0, 0.0), (0.8, 0.5)])
    tr = continue_V(derived, path, w0, dt=2e-3)
    up = continue_V(derived, path, w0 + eps, dt=2e-3).end_V
    dn = continue_V(derived, path, w0 - eps, dt=2e-3).end_V
    fd = (up - dn) / (2 * eps)
    assert tr.end_Vw == pytest.approx(fd, rel=1e-5)


# --- path independence ----------------------------------------------------------------

def test_path_independence_closed_b():
    derived = DerivedAB(hw("v*exp(0.5*x1)"))
    l1 = PathSpec.polyline([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)])
    l2 = PathSpec.polyline([(0.0, 0.0), (0.0, 1.0), (1.0, 1.0)])
    assert path_independence_defect(derived, l1, l2, 1.0, dt=1e-3) < 1e-8


def test_path_dependence_of_curl():
    direct = PathSpec.polyline([(0.0, 0.0), (1.0, 1.0)])
    detour = PathSpec.polyline([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)])
    # direct integrates x2 dx1 = 1/2; the detour gives 0
    d = path_independence_defect(CURL, direct, detour, 1.0, dt=1e-3)
    assert d == pytest.approx(0.5, abs=1e-10)
    assert d > 1e-3


def test_path_independence_requires_shared_endpoints():
    p1 = PathSpec.polyline([(0.0, 0.0), (1.0, 0.0)])
    p2 = PathSpec.polyline([(0.0, 0.0), (0.0, 1.0)])
    with pytest.raises(PathError):
        path_independence_defect(ZERO_B, p1, p2, 1.0)


@pytest.mark.parametrize("radius", [1e-6, 1.0, 1e4, 1e6])
def test_endpoint_check_does_not_depend_on_scale(radius):
    # the half circle ends at (-r, r*sin(pi)) = (-r, 1.2e-16*r)
    r = repr(radius)
    arc = PathSpec.parametric([parse(f"{r}*cos(t)"), parse(f"{r}*sin(t)")],
                              0.0, math.pi)
    dt = 0.1 * max(radius, 1.0)
    chord = PathSpec.polyline([(radius, 0.0), (-radius, 0.0)])
    assert path_independence_defect(ZERO_B, arc, chord, 1.0, dt=dt) == 0.0
    short = PathSpec.polyline([(radius, 0.0), (-0.5 * radius, 0.0)])
    with pytest.raises(PathError):
        path_independence_defect(ZERO_B, arc, short, 1.0, dt=dt)


# --- inversion --------------------------------------------------------------------------

def test_invert_at_base_point_is_identity():
    factory = straight_path_factory((0.0, 0.0))
    for v in (0.3, 1.0, 7.5):
        assert invert_V(DECAY, factory, (0.0, 0.0), v) == pytest.approx(
            v, abs=1e-10)


def test_invert_closed_form():
    # W(x, v) = v e^{x1/2}; at x = (1, 0), v = 1: w = e^{1/2}
    derived = DerivedAB(hw("v*exp(0.5*x1)"))
    factory = straight_path_factory((0.0, 0.0))
    w = invert_V(derived, factory, (1.0, 0.0), 1.0, dt=2e-3)
    assert w == pytest.approx(math.exp(0.5), rel=1e-9)


def test_invert_round_trip():
    derived = DerivedAB(hw("v*exp(0.5*x1)"))
    factory = straight_path_factory((0.0, 0.0))
    x = (0.7, -0.3)
    v_reached = continue_V(derived, factory(np.asarray(x)), 1.4,
                           dt=2e-3).end_V
    w = invert_V(derived, factory, x, float(v_reached), dt=2e-3)
    assert w == pytest.approx(1.4, abs=1e-9)


def test_invert_zero_b_is_identity_at_any_speed():
    factory = straight_path_factory((0.0, 0.0))
    assert invert_V(ZERO_B, factory, (1.0, 0.0), 1e12) == 1e12


def test_invert_unreachable_target():
    # forward values at x = (1, 0) are sqrt(w^2 + 1) >= 1, so no datum
    # reaches v = 0.8: the backward run leaves the positive axis
    factory = straight_path_factory((0.0, 0.0))
    with pytest.raises(ContinuationError):
        invert_V(ab("1", ("0.5/v", "0")), factory, (1.0, 0.0), 0.8)


@settings(max_examples=25, deadline=None)
@given(alpha=st.floats(-1.0, 1.0), beta=st.floats(-1.0, 1.0),
       x1=st.floats(-1.0, 1.0), x2=st.floats(-1.0, 1.0),
       w=st.floats(0.1, 10.0))
def test_invert_round_trip_property(alpha, beta, x1, x2, w):
    # closed data W = v exp(alpha x1 + beta x2), i.e. b = -(alpha, beta) v
    data = ab("1", (f"{-alpha!r}*v", f"{-beta!r}*v"))
    factory = straight_path_factory((0.0, 0.0))
    forward = continue_V(data, factory(np.array([x1, x2])), w, dt=1e-2)
    assert invert_V(data, factory, (x1, x2), float(forward.end_V),
                    dt=1e-2) == pytest.approx(w, rel=1e-9)
    _, w_v = _invert_on_path(data, factory(np.array([x1, x2])),
                             forward.end_V, 1e-2)
    assert w_v * forward.end_Vw == pytest.approx(1.0, rel=1e-12)


@settings(max_examples=12, deadline=None)
@given(alpha=st.floats(-1.0, 1.0), beta=st.floats(-1.0, 1.0),
       points=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
                       min_size=2, max_size=4),
       w0=st.floats(0.5, 2.0))
def test_continuation_round_trip_on_polylines(alpha, beta, points, w0):
    # W = v exp(alpha x1 + beta x2) is constant along the flow, so the
    # forward end is w0 exp(-(alpha, beta) . (end - start)); running back
    # returns w0, and the two datum derivatives are reciprocal
    assume(all(p != q for p, q in zip(points, points[1:])))
    data = ab("1", (f"{-alpha!r}*v", f"{-beta!r}*v"))
    path = PathSpec.polyline(points)
    forward = continue_V(data, path, w0, dt=1e-3)
    delta = np.subtract(points[-1], points[0])
    exact = w0 * math.exp(-(alpha * delta[0] + beta * delta[1]))
    assert forward.end_V == pytest.approx(exact, rel=1e-11)
    back = continue_V(data, path.reversed(), forward.end_V, dt=1e-3)
    assert back.end_V == pytest.approx(w0, rel=1e-11)
    assert forward.end_Vw * back.end_Vw == pytest.approx(1.0, rel=1e-11)


def test_foliation_monotone_in_datum():
    derived = DerivedAB(hw("v*exp(0.5*x1-0.2*x2)"))
    path = PathSpec.polyline([(0.0, 0.0), (0.9, 0.7)])
    w = np.array([0.5, 0.8, 1.0, 1.5, 3.0])
    ends = continue_V(derived, path, w, dt=1e-3).end_V
    assert np.all(np.diff(ends) > 0.0)


# --- f-norm ----------------------------------------------------------------------------

def test_fnorm_zero_field():
    est = f_norm_estimate(ZERO_B, AdmissibleF(parse("v")), EUC2,
                          [(0.0, 0.0), (1.0, 1.0)], [0.5, 1.0, 2.0])
    assert est.value == 0.0


def test_fnorm_constant_ratio_exact():
    grid_x = [(x1, x2) for x1 in (-1.0, 0.0, 1.0) for x2 in (-1.0, 1.0)]
    est = f_norm_estimate(DECAY, AdmissibleF(parse("v")), EUC2,
                          grid_x, np.linspace(0.5, 3.0, 7))
    assert est.value == 0.5
    assert not est.boundary_suspicion


def test_fnorm_boundary_suspicion():
    est = f_norm_estimate(DECAY, AdmissibleF(parse("v*v")), EUC2,
                          [(0.0, 0.0)], np.linspace(0.1, 2.0, 9))
    assert est.value == pytest.approx(0.5 / 0.1)
    assert est.argmax_v == pytest.approx(0.1)
    assert est.boundary_suspicion


def test_admissible_f_requires_positive():
    with pytest.raises(PositivityError):
        AdmissibleF(parse("v-1"))


# --- monodromy ---------------------------------------------------------------------------

CYL = CoveringManifold(EUC2, ((2 * math.pi, 0.0),))
W_GRID = np.logspace(-1, 1, 10)


@pytest.fixture(scope="module")
def rho_g1():
    return monodromy(DECAY, CYL, "g1", (0.0, 0.0), W_GRID, dt=1e-2)


def test_monodromy_identity_for_zero_b():
    rho = monodromy(ZERO_B, CYL, "g1", (0.0, 0.0), W_GRID, dt=1e-2)
    assert np.max(np.abs(rho.rho - W_GRID)) < 1e-10


def test_monodromy_cylinder_closed_form(rho_g1):
    # W(x, v) = v e^{x1/2}; the deck shift by 2*pi multiplies w by e^{pi}
    assert rho_g1.rho / W_GRID == pytest.approx(
        np.full(10, math.exp(math.pi)), rel=1e-6)


def test_monodromy_forward_route_agrees(rho_g1):
    # independent route: continue the datum from p0 to the inverse-shifted
    # point; uniqueness of the continuation gives the same map
    path = PathSpec.polyline([(0.0, 0.0), (-2 * math.pi, 0.0)])
    forward = continue_V(DECAY, path, W_GRID, dt=1e-3).end_V
    assert rho_g1.rho == pytest.approx(forward, rel=1e-7)


def test_monodromy_word_composition(rho_g1):
    rho2 = monodromy(DECAY, CYL, "g1 g1", (0.0, 0.0), W_GRID, dt=1e-2)
    # compose the sampled map with itself where the image stays in range
    inside = W_GRID[rho_g1.rho <= W_GRID[-1]]
    assert len(inside) >= 3
    composed = rho_g1(rho_g1(inside))
    assert composed == pytest.approx(rho2(inside), rel=1e-8, abs=1e-8)


def test_monodromy_empty_word_identity():
    rho = monodromy(DECAY, CYL, "", (0.0, 0.0), W_GRID, dt=1e-2)
    assert np.max(np.abs(rho.rho - W_GRID)) < 1e-10


def test_monodromy_strictly_increasing_and_positive(rho_g1):
    assert np.all(rho_g1.rho > 0.0)
    assert np.all(np.diff(rho_g1.rho) > 0.0)


def test_monodromy_mixed_word_on_torus():
    # two commuting deck translations: the monodromy of a mixed word agrees
    # with the composition of the generator maps in either order
    torus = CoveringManifold(EUC2, ((2 * math.pi, 0.0), (0.0, 2 * math.pi)))
    data = ab("1", ("-0.5*v", "-0.25*v"))  # closed, invariant under both
    w = np.logspace(-2, -1, 5)
    # generator maps sampled over a grid wide enough to hold the images
    wide = np.logspace(-2, 1, 9)
    rho1 = monodromy(data, torus, "g1", (0.0, 0.0), wide, dt=2e-2)
    rho2 = monodromy(data, torus, "g2", (0.0, 0.0), wide, dt=2e-2)
    mixed = monodromy(data, torus, "g1 g2", (0.0, 0.0), w, dt=2e-2)
    scale = math.exp(1.5 * math.pi)
    assert mixed.rho / w == pytest.approx(np.full(5, scale), rel=1e-7)
    assert rho2(rho1(w)) == pytest.approx(mixed.rho, rel=1e-7)
    assert rho1(rho2(w)) == pytest.approx(mixed.rho, rel=1e-7)


def test_monodromy_requires_deck_invariant_b():
    drift = ab("1", ("-0.1*x1*v", "0"))  # not periodic in x1
    with pytest.raises(DeckInvarianceError):
        monodromy(drift, CYL, "g1", (0.0, 0.0), W_GRID)


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_deck_invariance_check_does_not_depend_on_scale(scale):
    # sin(x1 + 2*pi) differs from sin(x1) by rounding only
    p0 = np.array([0.3, -0.2])
    _check_deck_invariance(ab("1", (f"{scale!r}*sin(x1)*v", "0")), CYL,
                           "g1", p0)
    with pytest.raises(DeckInvarianceError):
        _check_deck_invariance(ab("1", (f"{scale!r}*x1*v", "0")), CYL,
                               "g1", p0)


def test_monodromy_map_table_validation():
    with pytest.raises(TableError):
        MonodromyMap("g1", np.array([1.0, 2.0]), np.array([2.0, 1.0]))
    with pytest.raises(TableError):
        MonodromyMap("g1", np.array([1.0, 2.0]), np.array([-1.0, 1.0]))
    good = MonodromyMap("g1", np.array([1.0, 2.0, 4.0]),
                        np.array([2.0, 4.0, 8.0]))
    with pytest.raises(TableError):
        good(8.0)


@pytest.mark.parametrize("w, rho", [
    ([1.0], [2.0]),                       # one node
    ([1.0, 2.0], [np.nan, 3.0]),          # NaN rho
    ([1.0, np.inf], [1.0, 2.0]),          # infinite w
    ([1.0, 2.0, 3.0], [1.0, 2.0]),        # lengths differ
    ([[1.0, 2.0]], [[1.0, 2.0]]),         # not 1-D
    ([-1.0, 0.5, 2.0], [1.0, 2.0, 3.0]),  # w off the positive axis
])
def test_monodromy_map_rejects_bad_tables_at_construction(w, rho):
    with pytest.raises(TableError, match="monodromy table 'g7'"):
        MonodromyMap("g7", np.array(w), np.array(rho))


def test_monodromy_map_values_unchanged():
    # reference values from the eagerly built interpolants (PCHIP of the
    # table, and of its fourth-order node derivatives)
    w = np.array([0.5, 0.8, 1.0, 1.7, 2.5, 4.0])
    rho = MonodromyMap("g1", w, w ** 2 + 0.3 * w)
    q = np.array([0.5, 0.65, 1.3, 2.0, 3.9, 4.0])
    assert rho(q) == pytest.approx(
        [0.4, 0.6200227272727273, 2.097569172174303, 4.585967472760755,
         16.380039563262685, 17.2], rel=1e-14)
    assert rho.derivative(q) == pytest.approx(
        [1.3000000000000007, 1.6000000000000008, 2.900000000000002,
         4.300000000000002, 8.10000000000001, 8.300000000000011], rel=1e-14)
    assert rho.inverse(np.array([0.4, 1.0, 2.9, 7.0, 17.2])) == \
        pytest.approx([0.5, 0.8627870984100423, 1.5558083303215604, 2.5,
                       4.0], rel=1e-14)
    assert rho(1.3) == pytest.approx(2.097569172174303, rel=1e-14)
    assert rho.derivative(1.3) == pytest.approx(2.900000000000002,
                                                rel=1e-14)
    assert rho.inverse(2.9) == pytest.approx(1.5558083303215604, rel=1e-14)
    two = MonodromyMap("g2", np.array([1.0, 3.0]), np.array([2.0, 5.0]))
    assert two(np.array([1.0, 2.2, 3.0])) == pytest.approx(
        [2.0, 3.8000000000000003, 5.0], rel=1e-14)
    assert two.derivative(2.2) == pytest.approx(1.5, rel=1e-14)
    assert two.inverse(4.0) == pytest.approx(2.3333333333333335, rel=1e-14)


# --- gauge transformations ------------------------------------------------------------

def test_gauge_identity():
    pair = hw("v*exp(0.5*x1)")
    same = gauge_transform(pair, parse("w"))
    rng = np.random.default_rng(1)
    x = rng.uniform(-1, 1, size=(10, 2))
    xd = rng.uniform(0.3, 1.5, size=(10, 2))
    assert force_hw(same, EUC2, x, xd) == pytest.approx(
        force_hw(pair, EUC2, x, xd), abs=1e-14)


def test_gauge_scaling_leaves_force_unchanged():
    pair = hw("v*exp(0.5*x1)")
    scale = math.exp(math.pi)
    moved = gauge_transform(pair, parse(f"{scale!r}*w"))
    rng = np.random.default_rng(2)
    x = rng.uniform(-1, 1, size=(20, 2))
    xd = rng.uniform(-1.5, 1.5, size=(20, 2))
    xd[np.linalg.norm(xd, axis=1) < 0.3] += 1.0
    f0 = force_hw(pair, EUC2, x, xd)
    f1 = force_hw(moved, EUC2, x, xd)
    assert np.max(np.abs(f1 - f0)) < 1e-9
    # h' is the constant scale
    assert moved.h_val(2.0) == pytest.approx(scale, rel=1e-12)


def test_gauge_square_map():
    # rho(w) = w^2 on [1, 4]: h'(w) = 2 sqrt(w)
    pair = hw("v")
    moved = gauge_transform(pair, parse("w^2"))
    for w in (1.0, 2.0, 4.0):
        assert moved.h_val(w) == pytest.approx(2.0 * math.sqrt(w), rel=1e-10)
    rng = np.random.default_rng(3)
    x = rng.uniform(-1, 1, size=(12, 2))
    xd = rng.uniform(0.5, 2.0, size=(12, 2))
    f0 = force_hw(pair, EUC2, x, xd)
    f1 = force_hw(moved, EUC2, x, xd)
    assert np.max(np.abs(f1 - f0)) < 1e-8


def test_gauge_with_sampled_monodromy_map():
    # a sampled linear map: interpolation and derivative stencils are exact
    w = np.logspace(-2, 2, 17)
    rho = MonodromyMap("g1", w, math.exp(math.pi) * w)
    pair = hw("v*exp(0.5*x1)")
    moved = gauge_transform(pair, rho)
    rng = np.random.default_rng(4)
    x = rng.uniform(-0.5, 0.5, size=(10, 2))
    xd = rng.uniform(0.5, 1.5, size=(10, 2))
    f0 = force_hw(pair, EUC2, x, xd)
    f1 = force_hw(moved, EUC2, x, xd)
    assert np.max(np.abs(f1 - f0)) < 1e-7


def test_closed_form_rho_inverse():
    rho = ClosedFormRho(parse("w^2"))
    assert rho.inverse(9.0) == pytest.approx(3.0, rel=1e-12)


def test_closed_form_rho_inverse_far_outside_the_starting_bracket():
    # [1e-8, 1e8] widens at both ends; near 1e200 the bisection midpoint
    # computed as sqrt(lo * hi) would overflow
    rho = ClosedFormRho(parse("2*w"))
    assert rho.inverse(np.array([2e-200, 2.0, 2e200])) == pytest.approx(
        [1e-200, 1.0, 1e200], rel=1e-12)


def test_closed_form_rho_inverse_rejects_unreachable_targets():
    # w/(1+w) stays below 1 and above 0: the bracket widens to the ends of
    # the floats and stops there
    rho = ClosedFormRho(parse("w/(1+w)"))
    with pytest.raises(TableError, match="rho does not reach 1.5"):
        rho.inverse(1.5)
    with pytest.raises(TableError, match="rho does not reach 0.0"):
        rho.inverse(np.array([0.5, 0.0]))


@pytest.mark.parametrize("scale", [1e-9, 1.0, 1e9])
def test_gauge_invariance_does_not_depend_on_scale(scale):
    pair = hw(f"{scale!r}*v*exp(0.3*x1)", "w")
    moved = gauge_transform(pair, parse("2*w"))
    rng = np.random.default_rng(5)
    x = rng.uniform(-1, 1, size=(20, 2))
    xd = rng.uniform(0.3, 1.5, size=(20, 2))
    f0 = force_hw(pair, EUC2, x, xd)
    assert np.max(np.abs(force_hw(moved, EUC2, x, xd) - f0)) < 1e-9


def test_pchip_matches_scipy():
    interpolate = pytest.importorskip("scipy.interpolate")
    rng = np.random.default_rng(8)
    for trial in range(200):
        n = int(rng.integers(2, 31))
        x = np.cumsum(rng.uniform(0.01, 2.0, n))
        if trial % 2:
            y = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3)
        else:
            y = np.cumsum(rng.uniform(0.0, 3.0, n))
        q = np.concatenate([x, rng.uniform(x[0], x[-1], 20)])
        ref = interpolate.PchipInterpolator(x, y, extrapolate=False)(q)
        assert np.max(np.abs(_pchip(x, y)(q) - ref)) \
            <= 1e-14 * np.max(np.abs(y))


# --- finite-difference weights -----------------------------------------------------------

def test_fd_weights_exact_for_polynomials():
    nodes = np.array([0.1, 0.3, 0.9, 2.0, 5.0])
    w = fd_weights(0.9, nodes)
    for poly, dpoly in [(nodes ** 2, 2 * 0.9), (nodes ** 3, 3 * 0.81),
                        (np.ones_like(nodes), 0.0)]:
        assert w @ poly == pytest.approx(dpoly, abs=1e-10)


# --- extraction of h -----------------------------------------------------------------------

def test_extract_h_trivial():
    out = extract_h(ZERO_B, (0.0, 0.0), np.linspace(0.5, 2.0, 8))
    assert out.h == pytest.approx(np.ones(8), abs=1e-14)
    assert out.consistency_defect < 1e-12


def test_extract_h_in_five_dimensions():
    # the consistency check points are the n half-unit axis points and
    # p0 + (1, 1/2, 1/4, ...), for any n
    derived = DerivedAB(hw("v*exp(0.5*x1-0.2*x5)", n=5))
    out = extract_h(derived, np.zeros(5), np.linspace(0.5, 2.0, 8))
    assert len(out.check_points) == 6
    assert out.check_points[-1] == pytest.approx([1.0, 0.5, 0.25, 0.125,
                                                  0.0625])
    assert out.h == pytest.approx(np.ones(8), abs=1e-8)
    assert out.consistency_defect < 1e-7


def test_extract_h_round_trip_unit():
    derived = DerivedAB(hw("v*exp(0.5*x1)"))
    out = extract_h(derived, (0.0, 0.0), np.linspace(0.5, 2.0, 20))
    assert out.h == pytest.approx(np.ones(20), abs=1e-8)
    assert out.consistency_defect < 1e-7


def test_extract_h_round_trip_square():
    derived = DerivedAB(hw("v", h="w^2"))
    v = np.linspace(0.5, 2.0, 20)
    out = extract_h(derived, (0.0, 0.0), v)
    assert out.h == pytest.approx(v ** 2, rel=1e-9)


def test_extract_h_rejects_non_normalizing_data():
    with pytest.raises(CompatibilityError):
        extract_h(DECAY, (0.0, 0.0), np.linspace(0.5, 2.0, 5))
