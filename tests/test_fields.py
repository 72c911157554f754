"""Force presentations, conversions between them, and PDE residuals."""

import math
import pickle

import numpy as np
import pytest

from builders import ab, hw
from normalshift import fields
from normalshift.errors import (
    DomainEvalError,
    FrameError,
    VanishingDerivativeError,
    ZeroSpeedError,
    first_bad,
)
from normalshift.expr import parse
from normalshift.fields import (
    ABFields,
    DerivedAB,
    ForceField,
    HWPair,
    _guard_wv,
    _state_eval,
    closedness_residual,
    collinearity_defect,
    normalizing_residual,
)
from normalshift.geometry import MetricSpec
from normalshift.pfaff import PathSpec, continue_V, gauge_transform
from reference_force import (
    ABOnly,
    _raise_force,
    _velocity_frame,
    force_ab,
    force_hw,
    reference_force,
)

EUC2 = MetricSpec(2)
CONFORMAL = MetricSpec(2, kind="conformal", conformal=parse("0.2*x2"))
EXPLICIT = MetricSpec(2, kind="explicit", entries=(
    (parse("1+x1^2"), parse("0.1*x2")), (parse("0.1*x2"), parse("2"))))


def collinearity(src, w_expr, x, v):
    """collinearity_defect of a source against W = w_expr at (x, v)."""
    w_jet2 = HWPair(w_expr, parse("1"), src.dimension).w_jet2(x, v)
    return collinearity_defect(src.jet(x, v), w_jet2)


def force_from_one_form(w_expr, m, x, xdot):
    """Force written directly through the components of the exact one-form
    omega = dW (the unit-h case):

        F_k = N_k / omega_{n+1} - v * sum_i (omega_i / omega_{n+1})
                                          * (2 N^i N_k - d^i_k)

    An arithmetic route independent of `force_hw`: the oracle for it."""
    n = np.shape(x)[-1]
    v, n_up, n_low, g = _velocity_frame(m, x, xdot)
    omega = _state_eval((w_expr,), n, x, v, 1)[1][..., 0]
    last = omega[..., -1]
    _guard_wv(last, x, v)
    quot = omega[..., :-1] / last[..., None]
    corr = (2.0 * np.einsum("...i,...i->...", quot, n_up)[..., None] * n_low
            - quot)
    f_low = n_low / last[..., None] - v[..., None] * corr
    return _raise_force(f_low, g)


def rand_states(rng, n, count, lo=-1.0, hi=1.0):
    x = rng.uniform(lo, hi, size=(count, n))
    xdot = rng.uniform(-2.0, 2.0, size=(count, n))
    # keep speeds clearly positive
    xdot[np.linalg.norm(xdot, axis=1) < 0.3] += 1.0
    return x, xdot


# --- conversions -----------------------------------------------------------------

# b_i = -(dW/dx^i)/(dW/dv) and a = h(W)/(dW/dv), computed by DerivedAB

def test_b_from_W_no_position_dependence():
    b = DerivedAB(hw("v")).b_values([0.3, -0.2], 1.7)
    assert b == pytest.approx([0.0, 0.0])


def test_b_from_W_hand_value():
    # grad_x W = (0.5 v e^{x1/2}, 0), W_v = e^{x1/2} -> b = (-0.5, 0) at v=1
    b = DerivedAB(hw("v*exp(0.5*x1)")).b_values([0.0, 0.0], 1.0)
    assert b == pytest.approx([-0.5, 0.0], abs=1e-15)


def test_b_from_W_linear_case():
    b = DerivedAB(hw("v+0.3*x2")).b_values([0.7, -0.4], 2.0)
    assert b == pytest.approx([0.0, -0.3], abs=1e-15)


def test_a_from_hW_values():
    for W, h, x, v, want in (("v", "1", [0.1, 0.2], 1.5, 1.0),
                             ("v*exp(0.5*x1)", "1", [0.0, 0.0], 1.0, 1.0),
                             ("v", "w^2", [0.0, 0.0], 3.0, 9.0)):
        a, _ = DerivedAB(hw(W, h=h)).ab_values(x, v)
        assert a == pytest.approx(want)


def test_vanishing_wv_is_an_error():
    # W = x1 has no speed dependence at all
    derived = DerivedAB(hw("x1"))
    for values in (derived.b_values, derived.ab_values):
        with pytest.raises(VanishingDerivativeError):
            values([0.5, 0.5], 1.0)


def test_first_bad_indexes_the_broadcast_grid():
    x = np.arange(6.0).reshape(3, 1, 2)
    v = np.array([[10.0, 20.0]])
    mask = np.zeros((3, 2), dtype=bool)
    mask[1, 1] = True
    lane, (pt, vv) = first_bad(mask, x, v[..., None])
    assert lane == (1, 1)
    assert pt.tolist() == [2.0, 3.0] and vv.tolist() == [20.0]
    assert first_bad(np.array(True), [1.0, 2.0])[0] == ()


def test_vanishing_wv_names_the_failing_lane():
    # W_v = v - x1 vanishes only at lane (1, 1) of the (3, 1) x (1, 2)
    # grid, whose flat index 3 is past the three x rows
    x = np.array([[[0.3, 0.0]], [[0.7, 0.0]], [[0.9, 1.0]]])
    v = np.array([[0.5, 0.7]])
    with pytest.raises(VanishingDerivativeError,
                       match=r"x=\(0\.7, 0\.0\), v=0\.7"):
        DerivedAB(hw("0.5*v^2 - x1*v")).b_values(x, v)


def test_zero_speed_names_the_failing_lane():
    # the velocity at k = 1 is zero: the first failing lane is (0, 1),
    # whose point is x[0] (flat index 1 would name x[1])
    x = np.array([[[0.1, 0.2]], [[0.3, 0.4]], [[0.5, 0.6]]])
    xdot = np.array([[[1.0, 0.0], [0.0, 0.0]]])
    with pytest.raises(ZeroSpeedError, match=r"x=\(0\.1, 0\.2\)"):
        force_hw(hw("v"), EUC2, x, xdot)


# --- forces -----------------------------------------------------------------------

def test_force_hw_unit_thrust():
    f = force_hw(hw("v"), EUC2, [0.0, 0.0], [0.0, 2.0])
    assert f == pytest.approx([0.0, 1.0], abs=1e-15)


def test_force_hw_hand_values():
    pair = hw("v*exp(0.5*x1)")
    f = force_hw(pair, EUC2, [0.0, 0.0], [1.0, 0.0])
    assert f == pytest.approx([0.5, 0.0], abs=1e-14)
    f2 = force_hw(pair, EUC2, [0.0, 0.0], [0.0, 1.0])
    assert f2 == pytest.approx([0.5, 1.0], abs=1e-14)


def test_force_ab_matches_hand_values():
    f = force_ab(ab("1", ("0", "0")), EUC2, [0.0, 0.0], [0.0, 2.0])
    assert f == pytest.approx([0.0, 1.0], abs=1e-15)
    f2 = force_ab(ab("1", ("-0.5*v", "0")), EUC2, [0.0, 0.0], [1.0, 0.0])
    assert f2 == pytest.approx([0.5, 0.0], abs=1e-14)


def test_force_equivalence_between_presentations():
    rng = np.random.default_rng(42)
    pair = hw("v*exp(0.5*x1)")
    derived = DerivedAB(pair)
    x, xdot = rand_states(rng, 2, 20)
    f1 = ForceField(pair, EUC2)(x, xdot)
    f2 = ForceField(derived, EUC2)(x, xdot)
    assert np.max(np.abs(f1 - f2)) < 1e-12


def test_force_equivalence_conformal_metric():
    m = MetricSpec(2, kind="conformal", conformal=parse("0.2*x2"))
    rng = np.random.default_rng(7)
    pair = hw("v+0.3*x2", h="w^2")
    x, xdot = rand_states(rng, 2, 20)
    f1 = ForceField(pair, m)(x, xdot)
    f2 = ForceField(DerivedAB(pair), m)(x, xdot)
    assert np.max(np.abs(f1 - f2)) < 1e-12


def test_derived_force_evaluates_one_jet_of_W(monkeypatch):
    pair = hw("v*exp(0.3*x1)", h="w")
    seen = []
    evaluate = fields.eval_tuple

    def counted(exprs, env, wrt, order):
        (e,) = exprs
        seen.append(("W" if e is pair.W else "h", order))
        return evaluate(exprs, env, wrt, order)

    monkeypatch.setattr(fields, "eval_tuple", counted)
    ForceField(DerivedAB(pair), EUC2)([0.1, 0.2], [1.0, 0.5])
    assert seen == [("W", 1), ("h", 0)]


def test_ab_force_evaluates_one_tuple(monkeypatch):
    src = ab("2+v*x2", ("-0.5*v", "0.3*x1*v"))
    seen = []
    evaluate = fields.eval_tuple

    def counted(exprs, env, wrt, order):
        seen.append((exprs, order))
        return evaluate(exprs, env, wrt, order)

    monkeypatch.setattr(fields, "eval_tuple", counted)
    x, xdot = rand_states(np.random.default_rng(5), 2, 30)
    force_ab(src, EUC2, x, xdot)
    assert seen == [((src.a,) + src.b, 0)]


@pytest.mark.parametrize("x,v", [
    ([0.3, -0.7], 1.3),
    (np.linspace(-1.0, 1.0, 6).reshape(3, 1, 2), np.array([[0.5, 1.0, 2.5]])),
])
def test_ab_values_are_the_components_bitwise(x, v):
    src = ab("2+v*x2", ("-0.5*v", "0.3*x1*v"))
    a, b = src.ab_values(x, v)
    a_alone = _state_eval((src.a,), 2, x, v, 0)[0][..., 0]
    assert a.shape == a_alone.shape and a.tobytes() == a_alone.tobytes()
    b_alone = src.b_values(x, v)
    assert b.shape == b_alone.shape and b.tobytes() == b_alone.tobytes()


def test_ab_values_raise_the_error_of_a_first():
    # both a and b leave their domain at x = (-1, -1)
    src = ab("log(x1)", ("sqrt(x2)", "0"))
    with pytest.raises(DomainEvalError, match=r"'log\(x1\)'$"):
        src.ab_values([-1.0, -1.0], 1.0)
    with pytest.raises(DomainEvalError, match=r"'sqrt\(x2\)'$"):
        src.ab_values([1.0, -1.0], 1.0)


@pytest.mark.parametrize("m", [
    EUC2, MetricSpec(2, kind="conformal", conformal=parse("0.2*x2"))])
def test_derived_force_matches_separate_a_and_b_bitwise(m):
    class Separate(ABOnly):
        """a and b from their own calls, one jet of W each."""

        def ab_values(self, x, v):
            return self.src.ab_values(x, v)[0], self.src.b_values(x, v)

    derived = DerivedAB(hw("v*exp(0.5*x1+0.2*x2)", h="w^2"))
    x, xdot = rand_states(np.random.default_rng(17), 2, 40)
    assert ForceField(derived, m)(x, xdot).tobytes() \
        == ForceField(Separate(derived), m)(x, xdot).tobytes()


def test_unit_h_one_form_route_agrees():
    rng = np.random.default_rng(3)
    x, xdot = rand_states(rng, 2, 20)
    pair = hw("v*exp(0.5*x1)")
    f1 = force_hw(pair, EUC2, x, xdot)
    f2 = force_from_one_form(parse("v*exp(0.5*x1)"), EUC2, x, xdot)
    assert np.max(np.abs(f1 - f2)) < 1e-12


def test_one_form_route_names_the_failing_state():
    # dW/dv = x1 - 0.5 vanishes at the second state only
    x = np.array([[0.1, 0.2], [0.5, 0.3]])
    xdot = np.array([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(VanishingDerivativeError,
                       match=r"x=\(0\.5, 0\.3\), v=1\.0"):
        force_from_one_form(parse("v*(x1 - 0.5)"), EUC2, x, xdot)


def test_force_parallel_to_velocity_when_b_zero():
    rng = np.random.default_rng(11)
    x, xdot = rand_states(rng, 2, 20)
    f = force_ab(ab("2+v", ("0", "0")), EUC2, x, xdot)
    n = xdot / np.linalg.norm(xdot, axis=1, keepdims=True)
    ortho = f - np.sum(f * n, axis=1, keepdims=True) * n
    assert np.max(np.abs(ortho)) < 1e-12


def test_zero_speed_rejected():
    with pytest.raises(ZeroSpeedError):
        force_hw(hw("v"), EUC2, [0.0, 0.0], [0.0, 0.0])


@pytest.mark.parametrize("source", [
    hw("v", n=3), ab("1", ("0", "0", "0")), (parse("1"),) * 3])
def test_force_rejects_a_source_of_another_dimension(source):
    with pytest.raises(FrameError, match=r"dimension 3 .* dimension 2$"):
        ForceField(source, EUC2)


def test_custom_force_allows_zero_speed():
    ff = ForceField((parse("1"), parse("0")), EUC2)
    assert ff([0.0, 0.0], [0.0, 0.0]) == pytest.approx([1.0, 0.0])


# --- the dot product and the compiled force --------------------------------------

def _operand(rng, shape, n, strided):
    """Values of magnitude 1e-12..1e12 with +0.0 and -0.0 mixed in.  A
    strided operand is a view whose batch axes are strided, as the b of
    `ab_values` is; its last axis keeps unit stride, as every operand of
    a force does (np.einsum sums a strided last axis in another order)."""
    full = shape + (n + 1,)
    a = rng.standard_normal(full) * 10.0 ** rng.uniform(-12, 12, full)
    a[rng.random(full) < 0.2] = 0.0
    a[rng.random(full) < 0.2] = -0.0
    return a[..., 1:] if strided else np.ascontiguousarray(a[..., 1:])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("shape", [(), (1,), (7,), (2048,), (64, 32)])
def test_dot_sums_as_einsum_bitwise(n, shape):
    rng = np.random.default_rng(n)
    for strided in [(False, False), (True, False), (True, True)]:
        a, b = (_operand(rng, shape, n, s) for s in strided)
        for lhs in (a, -a, np.zeros_like(a), -np.zeros_like(a)):
            want = np.asarray(np.einsum("...i,...i->...", lhs, b))
            got = np.asarray(fields._dot(fields._columns(lhs),
                                         fields._columns(b)))
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


STATES = (np.array([[0.3, -0.2], [1.0, 0.5]]),
          np.array([[0.7, 1.1], [-0.4, 0.2]]))


def test_force_compiles_once(monkeypatch):
    defined, define = [], fields._Compiler.define

    def counted(self, signature, result):
        defined.append(signature)
        return define(self, signature, result)
    monkeypatch.setattr(fields._Compiler, "define", counted)
    ff = ForceField(hw("v*exp(0.3*x1)", h="w"), EUC2)
    for _ in range(100):
        f = ff(*STATES)
    assert defined == ["force(x, xdot)"]
    assert f.tobytes() == force_hw(ff.source, EUC2, *STATES).tobytes()


def test_called_force_pickles():
    for ff in (ForceField(hw("v*exp(0.3*x1)", h="w"), EUC2),
               ForceField(gauge_transform(hw("v*exp(0.3*x1)", h="w"),
                                          parse("2*w")), CONFORMAL)):
        f = ff(*STATES)
        assert pickle.loads(pickle.dumps(ff))(*STATES).tobytes() \
            == f.tobytes()


@pytest.mark.parametrize("metric", [EUC2, CONFORMAL, EXPLICIT],
                         ids=["euclidean", "conformal", "explicit"])
@pytest.mark.parametrize("source", [
    hw("v*exp(0.3*x1)", h="w"),
    ab("1+v", ("0.1*x2", "-v")),
    DerivedAB(hw("v*exp(0.3*x1)", h="w^2")),
    gauge_transform(hw("v*exp(0.3*x1)", h="w"), parse("2*w+w^3")),
    DerivedAB(gauge_transform(hw("v*exp(0.3*x1)"), parse("2*w"))),
    ABOnly(ab("1+v", ("0.1*x2", "-v"))),
    (parse("x1*v"), parse("xdot1")),
    (parse("xdot2^2"), parse("-x1*xdot1"))],
    ids=["hw", "ab", "derived", "gauged", "derived-gauged", "ab-only",
         "custom", "custom-without-v"])
def test_every_source_compiles_one_force(monkeypatch, source, metric):
    defined, define = [], fields._Compiler.define

    def counted(self, signature, result):
        defined.append(signature)
        return define(self, signature, result)
    monkeypatch.setattr(fields._Compiler, "define", counted)
    ff = ForceField(source, metric)
    f = [ff(*STATES) for _ in range(3)][-1]
    assert defined.count("force(x, xdot)") == 1
    assert f.tobytes() == reference_force(source, metric, *STATES).tobytes()


# --- residuals ----------------------------------------------------------------------

def test_continuation_of_derived_data_does_not_evaluate_h(monkeypatch):
    def refuse(self, w):
        raise AssertionError("h evaluated")

    monkeypatch.setattr(HWPair, "h_jet1", refuse)
    monkeypatch.setattr(HWPair, "h_val", refuse)
    # b = -W_x / W_v = (-v/2, 0), so V = w exp(-x1/2) and V_w = exp(-x1/2)
    trace = continue_V(DerivedAB(hw("v*exp(0.5*x1)", h="w^2")),
                       PathSpec.polyline([(0.0, 0.0), (1.0, 0.0)]), 1.0)
    assert trace.end_V == pytest.approx(math.exp(-0.5), rel=1e-10)
    assert trace.end_Vw == pytest.approx(math.exp(-0.5), rel=1e-10)


def test_closedness_zero_for_derived_b():
    rng = np.random.default_rng(5)
    derived = DerivedAB(hw("v*exp(0.5*x1+0.2*x2)", h="w^2"))
    x = rng.uniform(-1, 1, size=(30, 2))
    v = rng.uniform(0.5, 2.0, size=30)
    r = closedness_residual(derived.jet(x, v))
    assert np.max(np.abs(r)) < 1e-10


def test_closedness_nonzero_for_curl():
    r = closedness_residual(ab("1", ("x2", "0")).jet([0.4, 0.9], 1.0))
    assert r[0, 1] == pytest.approx(1.0, abs=1e-14)
    assert r[1, 0] == pytest.approx(-1.0, abs=1e-14)


def test_closedness_trivial_zero():
    r = closedness_residual(ab("1", ("0", "0")).jet([0.0, 0.0], 1.0))
    assert np.array_equal(r, np.zeros((2, 2)))


def test_normalizing_zero_for_derived_pair():
    rng = np.random.default_rng(17)
    derived = DerivedAB(hw("v*exp(0.5*x1)", h="w^2"))
    x = rng.uniform(-1, 1, size=(30, 2))
    v = rng.uniform(0.5, 2.0, size=30)
    r = normalizing_residual(derived.jet(x, v))
    assert np.max(np.abs(r)) < 1e-10


def test_normalizing_flags_broken_pair():
    r = normalizing_residual(ab("1", ("-0.5*v", "0")).jet([0.2, 0.4],
                                                          1.3))
    assert r[0] == pytest.approx(0.5, abs=1e-12)
    assert r[1] == 0.0


def test_normalizing_trivial_zero():
    r = normalizing_residual(ab("1", ("0", "0")).jet([0.0, 0.0], 1.0))
    assert np.array_equal(r, np.zeros(2))


def test_collinearity_consistent_pair():
    pair = hw("v*exp(0.5*x1)")
    derived = DerivedAB(pair)
    d = collinearity(derived, parse("v*exp(0.5*x1)"), [0.3, -0.6], 1.2)
    assert d < 1e-9


def test_collinearity_detects_violation():
    # a = x1 does not normalize W = v: the product gradient points along
    # x1 while dW points along v
    d = collinearity(ab("x1", ("0", "0")), parse("v"), [1.0, 0.0], 1.0)
    assert d == pytest.approx(1.0, abs=1e-12)
    assert d > 0.1


def test_collinearity_constant_product_counts_as_collinear():
    d = collinearity(ab("2", ("0", "0")), parse("v"), [0.5, 0.5], 1.0)
    assert d == 0.0


@pytest.mark.parametrize("points", [5, 6, 60])
def test_collinearity_of_consistent_data_on_any_grid(points):
    # check_consistent.toml's data: a * W_v = h = 1, so d(a * W_v) = 0 and
    # rounding leaves ~1e-16 of it on grids off the 5-point lattice
    axis = np.linspace(-1.0, 1.0, points)
    x = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1)
    x = x.reshape(-1, 2)[:, None, :]
    v = np.linspace(0.5, 2.0, 5)[None, :]
    d = collinearity(DerivedAB(hw("v*exp(0.5*x1)")),
                     parse("v*exp(0.5*x1)"), x, v)
    assert np.max(d) == 0.0


def test_collinearity_of_non_collinear_pair_is_order_one():
    # a * W_v = (1 + x2) e^{x1/2} has a dx2 part that dW lacks; at the
    # origin with v = 1 the defect is sqrt(0.96)
    a = ab("1 + x2", ("0", "0"))
    w = parse("v*exp(0.5*x1)")
    assert collinearity(a, w, [0.0, 0.0], 1.0) == pytest.approx(
        math.sqrt(0.96), rel=1e-12)
    axis = np.linspace(-1.0, 1.0, 6)
    x = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1)
    d = collinearity(a, w, x.reshape(-1, 2)[:, None, :],
                     np.linspace(0.5, 2.0, 5)[None, :])
    assert np.min(d) > 0.1


def test_ab_components_may_only_use_position_and_speed():
    # velocity enters only through the speed variable v
    from normalshift.errors import FrameError
    with pytest.raises(FrameError):
        ab("1", ("xdot1", "0"))
    with pytest.raises(FrameError):
        ABFields(parse("u1"), (parse("0"), parse("0")))


def test_ab_needs_a_b_component():
    with pytest.raises(FrameError, match="at least one component"):
        ABFields(parse("1"), ())
