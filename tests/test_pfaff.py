"""Continuation, inversion, f-norms, monodromy, gauge maps, h extraction."""

import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from builders import ab, hw
from normalshift import fields, pfaff
from normalshift.errors import (
    CompatibilityError,
    ContinuationError,
    DeckInvarianceError,
    NormalShiftError,
    PathError,
    PositivityError,
    TableError,
)
from normalshift.expr import parse
from normalshift.fields import DerivedAB
from normalshift.geometry import CoveringManifold, MetricSpec
from normalshift.pfaff import (
    AdmissibleF,
    ClosedFormRho,
    MonodromyMap,
    PathSpec,
    _check_deck_invariance,
    _continue,
    _invert_on_path,
    _polyline_steps,
    continue_V,
    extract_h,
    f_norm_estimate,
    _pchip,
    fd_weights,
    gauge_transform,
    invert_V,
    monodromy,
    path_independence_defect,
)
from reference_force import JetOnly, force_hw

EUC2 = MetricSpec(2)


DECAY = ab("1", ("-0.5*v", "0"))            # db/dx closed, linear in v
ZERO_B = ab("1", ("0", "0"))
CURL = ab("1", ("x2", "0"))                  # not closed

UNIT_SEG = PathSpec.polyline([(0.0, 0.0), (1.0, 0.0)])


def straight(x):
    """The path `invert_V` takes from the origin to x: the straight chart
    segment, or the point path when x is the origin."""
    x = tuple(x)
    return PathSpec.polyline([(0.0, 0.0), x] if any(x) else [(0.0, 0.0)])


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
                              0.0, math.pi / 2)
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
                               0.0, math.pi / 2)
    tr = continue_V(DECAY, path, 1.0, dt=1e-3)
    assert tr.end_V == pytest.approx(math.exp(0.5), rel=1e-8)


def test_polyline_stage_points_are_segment_fractions():
    # reference: the stage points one step at a time; step j of a segment
    # split into nsub steps of h = 1/nsub has its three stages at
    # p + s*delta for s = j*h, j*h + h/2 and j*h + h
    dt = 0.07
    one = np.array([(0.0, 0.0), (0.3, -0.7), (1.1, 0.2), (-2.0, 0.9)])
    batch = np.stack([one, 1.7 * one[::-1] + 0.1, one + 0.37])
    for pts in (one, batch):
        steps = _polyline_steps(pts, dt)
        for seg in range(pts.shape[-2] - 1):
            p = pts[..., seg, :]
            delta = pts[..., seg + 1, :] - p
            length = float(np.max(np.linalg.norm(
                np.atleast_2d(delta), axis=-1)))
            nsub = max(1, int(round(length / dt)))
            h = 1.0 / nsub
            for j in range(nsub):
                s = j * h
                want = (p + s * delta, p + (s + 0.5 * h) * delta,
                        p + (s + h) * delta)
                step_h, _, _, xs, ds = next(steps)
                assert step_h == h
                assert [x.tobytes() for x in xs] \
                    == [w.tobytes() for w in want]
                assert all(d.tobytes() == delta.tobytes() for d in ds)
        assert next(steps, None) is None


@settings(max_examples=10, deadline=None)
@given(c=st.lists(st.floats(-0.8, 0.8), min_size=4, max_size=4),
       points=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
                       min_size=2, max_size=4),
       w=st.floats(0.5, 2.0), derived=st.booleans())
def test_datum_derivative_leaves_V_unchanged(c, points, w, derived):
    # a run that carries V_w takes b's values from its order-1 jet, one
    # without from order 0; the V it continues is the same to the bit, so
    # path 1's trace from continue_V can serve the independence audit
    assume(all(p != q for p, q in zip(points, points[1:])))
    c0, c1, c2, c3 = (f"({k!r})" for k in c)
    if derived:
        data = DerivedAB(hw(f"(v+{abs(c[0])!r}*v^3)"
                            f"*exp({c1}*x1+{c2}*x2+{c3}*sin(x1*x2))"))
    else:
        data = ab("1", (f"v*({c0}*sin({c1}*x2+v)+{c2})", f"{c3}*v*cos(x1)"))
    path = PathSpec.polyline(points)
    for w0 in (w, np.array([0.5 * w, w, 3.0 * w])):
        with_vw = _continue(data, path, w0, 0.05, want_vw=True, store=True)
        without = _continue(data, path, w0, 0.05, want_vw=False, store=True)
        assert with_vw.V.tobytes() == without.V.tobytes()


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


@pytest.mark.parametrize("V", [np.float64(math.nan), np.array(math.inf),
                               np.float64(0.0), np.array([1.0, 2.0, -1.0])])
def test_stage_guard_names_the_lane_off_the_positive_axis(V):
    x = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
    with pytest.raises(ContinuationError,
                       match="positive axis( in lane \\(2,\\))? at") as exc:
        pfaff._guard_positive(V, 0.25, x[-1] if V.ndim == 0 else x)
    assert ("in lane (2,)" in str(exc.value)) == (V.ndim == 1)
    assert exc.value.point == pytest.approx([0.5, 0.6])
    pfaff._guard_positive(np.float64(1e-300), 0.25, x[0])
    pfaff._guard_positive(np.array([1e-300, 1e300]), 0.25, x[:2])


# --- the compiled rate ---------------------------------------------------------------

PLANE = PathSpec.polyline([(0.0, 0.0), (0.4, -0.3), (0.9, 0.5)])
DERIVED = DerivedAB(hw("v*exp(0.3*x1+0.2*x2)"))


def _runs(data):
    """The bytes of a run with V_w, and the outcome of one without."""
    with_vw = continue_V(data, PLANE, 1.3, dt=1e-2)
    without = path_independence_defect(
        data, with_vw, PathSpec.polyline([(0.0, 0.0), (0.9, 0.5)]), dt=1e-2)
    return with_vw.V.tobytes() + with_vw.Vw.tobytes(), without


@pytest.mark.parametrize("fresh", [
    lambda: ab("1", ("-0.5*v", "0")),
    lambda: DerivedAB(hw("v*exp(0.3*x1+0.2*x2)"))], ids=["ab", "derived"])
def test_rate_compiles_once_per_source_and_want_vw(monkeypatch, fresh):
    data = fresh()
    defined, define = [], fields._Compiler.define

    def counted(self, signature, result):
        defined.append(signature)
        return define(self, signature, result)
    monkeypatch.setattr(fields._Compiler, "define", counted)
    for _ in range(3):
        _runs(data)
        invert_V(data, (0.0, 0.0), (0.9, 0.5), np.array([0.8, 1.6]),
                 dt=1e-2)
    assert defined == ["rate(x, V, d)"] * 2


@pytest.mark.parametrize("data", [DECAY, DERIVED], ids=["ab", "derived"])
def test_sources_pickle_after_a_continuation(data):
    before = _runs(data)
    assert _runs(pickle.loads(pickle.dumps(data))) == before


def test_every_source_compiles_one_rate(monkeypatch):
    # a fresh source of each kind defines one rate per want_vw: inlined
    # for ABFields and DerivedAB data, calling `b_values` or `jet` for a
    # duck type, and `b_values` for a DerivedAB of a gauged pair, where
    # rho = 2w scales W's jet by 2 exactly: the same b, to the bit
    want = {data: _runs(data) for data in (DECAY, DERIVED)}
    plain = _continue(DERIVED, PLANE, 1.3, 1e-2, want_vw=False, store=True)
    defined, define = [], fields._Compiler.define

    def counted(self, signature, result):
        if signature.startswith("rate"):
            defined.append(signature)
        return define(self, signature, result)
    monkeypatch.setattr(fields._Compiler, "define", counted)
    fresh = {DECAY: ab("1", ("-0.5*v", "0")),
             DERIVED: DerivedAB(hw("v*exp(0.3*x1+0.2*x2)"))}
    for data in (DECAY, DERIVED):
        for source in (fresh[data], JetOnly(data)):
            defined.clear()
            assert _runs(source) == want[data]
            assert defined == ["rate(x, V, d)"] * 2
    defined.clear()
    gauged = DerivedAB(gauge_transform(DERIVED.hw, parse("2*w")))
    end = _continue(gauged, PLANE, 1.3, 1e-2, want_vw=False, store=True)
    assert end.V.tobytes() == plain.V.tobytes()
    assert defined == ["rate(x, V, d)"]


def _recorded_tangents(monkeypatch, module):
    """Every path tangent that `module`'s `_rk4_run` receives."""
    seen, run = [], pfaff._rk4_run

    def recording(ab, steps, V, want_vw):
        def looked_at():
            for step in steps:
                seen.extend(step[4])
                yield step
        return run(ab, looked_at(), V, want_vw)
    monkeypatch.setattr(module, "_rk4_run", recording)
    return seen


@pytest.mark.parametrize("path, w0", [
    (PLANE, 1.0), (np.stack([PLANE.sample(), PLANE.sample()[::-1]]),
                   np.ones((3, 2))),
    (PathSpec.parametric([parse("cos(t)"), parse("sin(t)")], 0.0, 1.0), 1.0)],
    ids=["polyline", "polyline_batch", "parametric"])
def test_path_tangents_have_a_unit_stride_last_axis(monkeypatch, path, w0):
    # the compiled rate sums b.d in einsum's order for that layout
    seen = _recorded_tangents(monkeypatch, pfaff)
    _continue(DECAY, path, w0, 1e-2, want_vw=True, store=False)
    assert seen and all(d.strides[-1] == d.itemsize for d in seen)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize("call", [
    lambda bad: continue_V(DECAY, UNIT_SEG, bad),
    lambda bad: continue_V(DECAY, UNIT_SEG, [1.0, bad]),
    lambda bad: invert_V(DECAY, (0.0, 0.0), (1.0, 0.0), bad),
    lambda bad: monodromy(DECAY, CYL, "g1", (0.0, 0.0), [bad, 1.0, 2.0]),
], ids=["datum", "datum_batch", "target", "w_grid"])
def test_positive_axis_inputs_are_checked_before_integrating(call, bad):
    # NaN and inf pass a `<= 0` test; they must be named before any
    # integration starts, not turn up later as a continuation failure
    with np.errstate(all="raise"):
        with pytest.raises(PositivityError,
                           match=f"must be finite and positive, got {bad}$"):
            call(bad)


@pytest.mark.parametrize("dt", [0.0, math.nan, -1e-3, math.inf])
@pytest.mark.parametrize("call", [
    lambda dt: continue_V(DECAY, UNIT_SEG, 1.0, dt=dt),
    lambda dt: path_independence_defect(
        DECAY, continue_V(DECAY, UNIT_SEG, 1.0), UNIT_SEG, dt=dt),
    lambda dt: invert_V(DECAY, (0.0, 0.0), (1.0, 0.0), 1.0, dt=dt),
    lambda dt: monodromy(ab("1", ("0", "0")), CYL, "g1", (0.0, 0.0),
                         [0.5, 1.0, 2.0], dt=dt),
    lambda dt: extract_h(DerivedAB(hw("v*exp(0.3*x1)", "w")), (0.0, 0.0),
                         [1.0, 2.0], dt=dt),
], ids=["continue", "second_path", "invert", "monodromy", "extract_h"])
def test_step_sizes_are_checked_before_integrating(call, dt):
    # unchecked, 0 and NaN fail in the step count, and a negative or
    # infinite dt silently takes one RK4 step per segment
    with np.errstate(all="raise"):
        with pytest.raises(PositivityError, match=re.escape(
                f"step size dt must be finite and positive, got {dt}")):
            call(dt)


@pytest.mark.parametrize("path", [
    UNIT_SEG, PathSpec.parametric([parse("t"), parse("0")], 0.0, 1.0)],
    ids=["polyline", "parametric"])
def test_step_count_overflow_is_named(path):
    # a positive dt whose step count is infinite overflowed int()
    with pytest.raises(NormalShiftError,
                       match=r"span 1\.0 / step 5e-324 is not finite"):
        continue_V(DECAY, path, 1.0, dt=5e-324)


def test_degenerate_point_path():
    tr = continue_V(DECAY, straight(np.zeros(2)), 1.7, dt=1e-3)
    assert tr.end_V == 1.7


def test_path_validation():
    with pytest.raises(PathError):
        PathSpec.polyline([(0.0, 0.0), (0.0, 0.0), (1.0, 0.0)])
    with pytest.raises(PathError):
        # overflows to inf within the sampled interval
        PathSpec.parametric([parse("exp(1000*t)"), parse("0")], 0.0, 1.0)
    with pytest.raises(PathError):
        PathSpec.parametric([parse("t"), parse("0")], 1.0, 0.0)


def test_parametric_path_evaluates_its_curve_in_blocks(monkeypatch):
    # after the start point, one call per fields.BATCH_POINTS // 3 steps,
    # not one per step
    path = PathSpec.parametric([parse("cos(t)"), parse("sin(t)")],
                               0.0, math.pi / 2)
    shapes, evaluate = [], PathSpec._parametric_eval

    def recorded(self, ts):
        shapes.append(np.shape(ts))
        return evaluate(self, ts)
    monkeypatch.setattr(PathSpec, "_parametric_eval", recorded)
    block, steps = fields.BATCH_POINTS // 3, round(math.pi / 2 / 1e-3)
    assert steps > block
    tr = continue_V(DECAY, path, 1.0, dt=1e-3)
    assert shapes == [()] + [(min(block, steps - lo), 3)
                             for lo in range(0, steps, block)]
    assert tr.end_V == pytest.approx(math.exp(0.5), rel=1e-8)


def test_parametric_path_needs_a_component():
    with pytest.raises(PathError, match="at least one component"):
        PathSpec.parametric([], 0.0, 1.0)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_polyline_rejects_non_finite_points(bad):
    # unchecked, the step count overflowed (inf) or failed (NaN) later
    with pytest.raises(PathError, match=re.escape(
            f"polyline point 1 (0.5, {bad}) is not finite")):
        PathSpec.polyline([(0.0, 0.0), (0.5, bad), (1.0, 1.0)])


def test_polyline_rejects_ragged_points():
    with pytest.raises(PathError, match=r"point 1 \(1\.0,\) has 1 "
                                        r"coordinates, point 0 has 2"):
        PathSpec.polyline([(0, 0), (1,)])
    with pytest.raises(PathError, match="point 2 "):
        PathSpec.polyline([(0, 0), (1, 0), (1, 1, 0)])
    with pytest.raises(PathError, match="point 1 "):
        invert_V(DECAY, (0.0, 0.0), (1.0, 0.0, 0.0), 1.0)


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
    assert path_independence_defect(
        derived, continue_V(derived, l1, 1.0, dt=1e-3), l2, dt=1e-3) < 1e-8


def test_path_dependence_of_curl():
    direct = PathSpec.polyline([(0.0, 0.0), (1.0, 1.0)])
    detour = PathSpec.polyline([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)])
    # direct integrates x2 dx1 = 1/2; the detour gives 0
    d = path_independence_defect(CURL, continue_V(CURL, direct, 1.0, dt=1e-3),
                                 detour, dt=1e-3)
    assert d == pytest.approx(0.5, abs=1e-10)
    assert d > 1e-3


def test_path_independence_requires_shared_endpoints():
    p1 = PathSpec.polyline([(0.0, 0.0), (1.0, 0.0)])
    p2 = PathSpec.polyline([(0.0, 0.0), (0.0, 1.0)])
    with pytest.raises(PathError):
        path_independence_defect(ZERO_B, continue_V(ZERO_B, p1, 1.0), p2)


@pytest.mark.parametrize("radius", [1e-6, 1.0, 1e4, 1e6])
def test_endpoint_check_does_not_depend_on_scale(radius):
    # the half circle ends at (-r, r*sin(pi)) = (-r, 1.2e-16*r)
    r = repr(radius)
    arc = PathSpec.parametric([parse(f"{r}*cos(t)"), parse(f"{r}*sin(t)")],
                              0.0, math.pi)
    dt = 0.1 * max(radius, 1.0)
    chord = PathSpec.polyline([(radius, 0.0), (-radius, 0.0)])
    trace = continue_V(ZERO_B, arc, 1.0, dt=dt)
    assert path_independence_defect(ZERO_B, trace, chord, dt=dt) == 0.0
    short = PathSpec.polyline([(radius, 0.0), (-0.5 * radius, 0.0)])
    with pytest.raises(PathError):
        path_independence_defect(ZERO_B, trace, short, dt=dt)


# --- inversion --------------------------------------------------------------------------

def test_invert_at_base_point_is_identity():
    for v in (0.3, 1.0, 7.5):
        assert invert_V(DECAY, (0.0, 0.0), (0.0, 0.0), v) == pytest.approx(
            v, abs=1e-10)


def test_invert_closed_form():
    # W(x, v) = v e^{x1/2}; at x = (1, 0), v = 1: w = e^{1/2}
    derived = DerivedAB(hw("v*exp(0.5*x1)"))
    w = invert_V(derived, (0.0, 0.0), (1.0, 0.0), 1.0, dt=2e-3)
    assert w == pytest.approx(math.exp(0.5), rel=1e-9)


def test_invert_round_trip():
    derived = DerivedAB(hw("v*exp(0.5*x1)"))
    x = (0.7, -0.3)
    v_reached = continue_V(derived, straight(np.asarray(x)), 1.4,
                           dt=2e-3).end_V
    w = invert_V(derived, (0.0, 0.0), x, float(v_reached), dt=2e-3)
    assert w == pytest.approx(1.4, abs=1e-9)


def test_invert_zero_b_is_identity_at_any_speed():
    assert invert_V(ZERO_B, (0.0, 0.0), (1.0, 0.0), 1e12) == 1e12


def test_invert_unreachable_target():
    # forward values at x = (1, 0) are sqrt(w^2 + 1) >= 1, so no datum
    # reaches v = 0.8: the backward run leaves the positive axis
    with pytest.raises(ContinuationError):
        invert_V(ab("1", ("0.5/v", "0")), (0.0, 0.0), (1.0, 0.0), 0.8)


@settings(max_examples=25, deadline=None)
@given(alpha=st.floats(-1.0, 1.0), beta=st.floats(-1.0, 1.0),
       x1=st.floats(-1.0, 1.0), x2=st.floats(-1.0, 1.0),
       w=st.floats(0.1, 10.0))
def test_invert_round_trip_property(alpha, beta, x1, x2, w):
    # closed data W = v exp(alpha x1 + beta x2), i.e. b = -(alpha, beta) v
    data = ab("1", (f"{-alpha!r}*v", f"{-beta!r}*v"))
    forward = continue_V(data, straight(np.array([x1, x2])), w, dt=1e-2)
    assert invert_V(data, (0.0, 0.0), (x1, x2), float(forward.end_V),
                    dt=1e-2) == pytest.approx(w, rel=1e-9)
    _, w_v = _invert_on_path(data, straight(np.array([x1, x2])),
                             forward.end_V, 1e-2, want_vw=True)
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


def test_admissible_f_overflow_is_not_positive_and_silent():
    # the suite turns numpy warnings into errors: the spot check must
    # reject exp's overflow to inf without one
    with pytest.raises(PositivityError, match="not finite and positive"):
        AdmissibleF(parse("exp(1000*v)"))


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


def test_monodromy_rejects_a_short_grid_before_inverting(monkeypatch):
    runs, invert = [], pfaff._invert_on_path
    monkeypatch.setattr(pfaff, "_invert_on_path",
                        lambda *a, **k: runs.append(a) or invert(*a, **k))
    with pytest.raises(TableError, match="^monodromy table 'g1': needs at "
                       "least 2 nodes, got 1$"):
        monodromy(DECAY, CYL, "g1", (0.0, 0.0), [1.0])
    assert runs == []


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


def test_closed_form_inverse_past_overflow():
    # rho(1e8) overflows: the bracket and the bisection take the inf as
    # above the target, without an overflow warning (an error here)
    rho = ClosedFormRho(parse("exp(w) - 1 + w"))
    w = np.array([0.5, 3.0, 20.0])
    assert rho(rho.inverse(rho(w))) == pytest.approx(rho(w), rel=1e-14)


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


def test_derived_data_of_a_gauged_pair_has_no_second_order_jet():
    # V_w and the residuals read W's second-order jet, which needs rho'';
    # V alone reads the first-order jet, which a gauged pair gives
    gauged = DerivedAB(gauge_transform(hw("v*exp(0.3*x1)", "w"),
                                       parse("2*w")))
    with pytest.raises(ContinuationError, match="no second-order jet") as exc:
        continue_V(gauged, UNIT_SEG, 1.0)
    assert type(exc.value.__cause__) is TableError
    with pytest.raises(TableError, match="no second-order jet"):
        extract_h(gauged, (0.0, 0.0), [1.0, 2.0])
    assert invert_V(gauged, (0.0, 0.0), (1.0, 0.0), 1.0, dt=1e-2) > 0.0


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


@pytest.mark.parametrize("source", ["w^3/(1+w^2)", "1/(1/w + 1/w^3)"])
def test_closed_form_rho_inverse_stays_near_its_targets(source):
    # the same increasing map of the positive axis, written two ways, is
    # not finite at the far ends of the floats: w^3 and w^2 overflow to
    # inf/inf near 1e308, and w^3 underflows to a zero divisor near 1e-308,
    # so a bracket of [tiny, huge] would fail on targets near 1
    rho = ClosedFormRho(parse(source))
    w = np.array([1e-3, 0.5, 2.0, 1e3])
    assert rho.inverse(rho(w)) == pytest.approx(w, rel=1e-12)


def test_closed_form_inverse_evaluates_rho_once_per_bisection(monkeypatch):
    # a target inside the image of the first bracket [1e-8, 1e8]: one
    # evaluation at each end of the bracket, then one per bisection
    rho = ClosedFormRho(parse("w^2"))
    calls = []
    evaluate = pfaff.eval_tuple

    def counted(exprs, *args):
        calls.append(exprs)
        return evaluate(exprs, *args)

    monkeypatch.setattr(pfaff, "eval_tuple", counted)
    assert rho.inverse(9.0) == pytest.approx(3.0, rel=2.0 ** -52)
    assert calls == [(rho.expr,)] * 82


# increasing maps of the positive axis whose float evaluation is
# monotone too, steep ones included
_INCREASING = ["w", "3*w", "w^2", "w + 0.5*w^3", "sqrt(w)", "log(1 + w)",
               "w^40", "exp(3*w)", "exp(w) - 1 + w"]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_INCREASING), st.floats(min_value=-3.0, max_value=2.0),
       st.floats(min_value=0.5, max_value=2.0))
def test_closed_form_inverse_ends_on_adjacent_floats(source, exponent,
                                                      scale):
    # the result w and its neighbouring floats bracket the target
    rho = ClosedFormRho(parse(source))
    y = rho(10.0 ** exponent) * scale
    assume(rho(1e-8) <= y)  # below it, the bracket would widen to tiny
    w = rho.inverse(y)
    assert rho(np.nextafter(w, 0.0)) <= y <= rho(np.nextafter(w, np.inf))


def test_parametric_second_path():
    # the quarter circle from (1, 0) to (0, 1) against the chord: its
    # end() and sample() give the endpoint check, and the closed decay
    # field ends at the same V on both
    chord = PathSpec.polyline([(1.0, 0.0), (0.0, 1.0)])
    trace = continue_V(DECAY, chord, 1.0, dt=1e-3)
    arc = PathSpec.parametric((parse("cos(t)"), parse("sin(t)")), 0.0,
                              math.pi / 2)
    assert arc.end() == pytest.approx([0.0, 1.0], abs=1e-16)
    assert arc.sample().shape == (pfaff.PARAMETRIC_SAMPLES, 2)
    assert path_independence_defect(DECAY, trace, arc, dt=1e-3) < 1e-12
    assert trace.end_V == pytest.approx(math.exp(0.5), rel=1e-12)
    half = PathSpec.parametric((parse("cos(t)"), parse("sin(t)")), 0.0,
                               math.pi)
    with pytest.raises(PathError, match="do not share start and end"):
        path_independence_defect(DECAY, trace, half, dt=1e-3)


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
