"""Property-based invariants of the paper's force (hypothesis): the (h, W)
and (a, b) presentations give the same force, a monotone
reparametrization of W (a gauge transformation) leaves it unchanged,
(a, b) derived from any (h, W) is closed and normalized, and the
compiled force of every source on every metric kind is the reference
force's, as the compiled continuation rate is the reference rate's and
the compiled `DerivedAB` readers are the array-math quotient's."""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from test_expr_properties import _div_tree, _leaving, _tree

from normalshift.errors import (
    DomainEvalError,
    TableError,
    VanishingDerivativeError,
    ZeroSpeedError,
)
from normalshift.expr import parse
from normalshift.fields import (
    ABFields,
    DerivedAB,
    ForceField,
    HWPair,
    closedness_residual,
    continuation_rate,
    normalizing_residual,
    velocity_names,
)
from normalshift.geometry import MetricSpec, coordinate_names, state_names
from normalshift.pfaff import gauge_transform
from reference_force import (
    ABOnly,
    JetOnly,
    derived_ab_values,
    derived_b_values,
    derived_jet,
    force_ab,
    force_hw,
    reference_force,
    reference_rate,
)

EUC2 = MetricSpec(2)
_const = st.floats(min_value=0.1, max_value=2.0).map(
    lambda c: repr(round(c, 3)))


def _trees(names):
    """Expression source over `names` and small constants, bounded on
    bounded arguments (no exp, no division)."""
    return st.recursive(
        st.one_of(st.sampled_from(names), _const),
        lambda inner: st.one_of(
            st.tuples(inner, st.sampled_from("+-*"), inner).map(
                lambda t: f"({t[0]}){t[1]}({t[2]})"),
            st.tuples(st.sampled_from(["sin", "cos", "tanh"]), inner).map(
                lambda t: f"{t[0]}({t[1]})"),
        ),
        max_leaves=6,
    )


# g(v) positive and strictly increasing for v > 0
_speed_factor = st.one_of(
    st.just("v"), st.just("log(1 + v)"), st.just("sqrt(v)"),
    _const.map(lambda c: f"(v + {c}*v^3)"),
    _const.map(lambda c: f"(exp({c}*v) - 1 + v)"),
)
# W = g(v) e^{sin T1(x)} + e^{sin T2(x)}: positive, with W_v > 0
_W = st.tuples(_speed_factor, _trees(("x1", "x2")), _trees(("x1", "x2"))).map(
    lambda t: f"{t[0]}*exp(sin({t[1]})) + exp(sin({t[2]}))")
# monotone maps of the positive axis onto itself
_rho = st.one_of(
    _const.map(lambda c: f"{c}*w"),
    _const.map(lambda c: f"w + {c}*w^3"),
    _const.map(lambda c: f"exp({c}*w) - 1 + w"),
    _const.map(lambda c: f"w + {c}*w*tanh(w)"),
)
_seed = st.integers(min_value=0, max_value=2 ** 32 - 1)


def _states(seed, count=16):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.5, 1.5, size=(count, 2))
    xdot = rng.uniform(-1.5, 1.5, size=(count, 2))
    xdot[np.linalg.norm(xdot, axis=1) < 0.3] += 1.0
    return x, xdot


def _term_scale(pair, x, xdot):
    """|a| + 3 v |b| per state: bounds each term of the force
    F = a N + v (2 (b.N) N - b) on a euclidean metric."""
    v = np.linalg.norm(xdot, axis=-1)
    a, b = DerivedAB(pair).ab_values(x, v)
    return np.abs(a) + 3.0 * v * np.linalg.norm(b, axis=-1)


@given(_W, _trees(("w",)), _seed)
@settings(max_examples=25, deadline=None)
def test_hw_and_ab_presentations_give_one_force(W, h, seed):
    pair = HWPair(parse(W), parse(h), 2)
    x, xdot = _states(seed)
    f_hw = force_hw(pair, EUC2, x, xdot)
    f_ab = force_ab(DerivedAB(pair), EUC2, x, xdot)
    err = np.linalg.norm(f_hw - f_ab, axis=-1)
    assert np.all(err <= 1e-12 * _term_scale(pair, x, xdot))


@given(_W, _trees(("w",)), _rho, _seed)
@settings(max_examples=25, deadline=None)
def test_force_is_gauge_invariant(W, h, rho, seed):
    pair = HWPair(parse(W), parse(h), 2)
    x, xdot = _states(seed)
    f0 = force_hw(pair, EUC2, x, xdot)
    f1 = force_hw(gauge_transform(pair, parse(rho)), EUC2, x, xdot)
    err = np.linalg.norm(f1 - f0, axis=-1)
    assert err.max() <= 1e-9 * _term_scale(pair, x, xdot).max()


@given(_W, _trees(("w",)), _seed)
@settings(max_examples=25, deadline=None)
def test_derived_data_is_closed_and_normalized(W, h, seed):
    # each residual entry vanishes to rounding: bounded by 1e-12 times
    # the sum of the absolute values of the terms it sums
    x, xdot = _states(seed)
    jet = DerivedAB(HWPair(parse(W), parse(h), 2)).jet(
        x, np.linalg.norm(xdot, axis=-1))
    (a, ax, av), (b, bx, bv) = jet
    half = np.abs(bx) + np.abs(b[..., None, :] * bv[..., :, None])
    closed = half + np.swapaxes(half, -1, -2)
    normal = np.abs(ax) + np.abs(b * av[..., None]) + np.abs(bv * a[..., None])
    assert np.all(np.abs(closedness_residual(jet)) <= 1e-12 * closed)
    assert np.all(np.abs(normalizing_residual(jet)) <= 1e-12 * normal)


# --- the compiled force against its reference ------------------------------------

# batch shapes of x and xdot: equal, or broadcast against each other
_BATCHES = [((), ()), ((1,), (1,)), ((7,), (7,)), ((64, 32), (64, 32)),
            ((7,), ()), ((), (7,)), ((1,), (7,)), ((64, 1), (32,))]


def _sources(W, h, component, n):
    """(h, W) pairs and (a, b) fields of dimension n from source strategies."""
    return st.one_of(
        st.tuples(W, h).map(lambda t: HWPair(parse(t[0]), parse(t[1]), n)),
        st.lists(component, min_size=n + 1, max_size=n + 1).map(
            lambda c: ABFields(parse(c[0]), tuple(map(parse, c[1:])))))


def _valid_W(n):
    # W_v = g'(v) e^{sin T1} + g(v) e^{sin T1} cos(T1) dT1/dv
    return st.tuples(_speed_factor, _trees(state_names(n)),
                     _trees(coordinate_names(n))).map(
        lambda t: f"{t[0]}*exp(sin({t[1]}))+{t[2]}")


def _valid(n):
    return _sources(_valid_W(n), _trees(("w",)),
                    st.one_of(_trees(state_names(n)), _tree), n)


def _failing(n):
    """Sources that leave their domain (on every lane, or where they divide
    by zero), W with a zero or tiny W_v, and h that leaves its domain."""
    names, xs = state_names(n), coordinate_names(n)
    ok = st.one_of(_trees(names), _tree)
    W = st.one_of(_leaving, _trees(xs),
                  _trees(xs).map(lambda s: f"1e-11*v+{s}"))
    h = st.sampled_from(["log(w-w-1)", "sqrt(w-w-1)", "1/(w-w)", "log(w)"])
    return st.one_of(
        _sources(W, _trees(("w",)), st.one_of(_leaving, _div_tree, ok), n),
        _sources(_valid_W(n), h, _leaving, n))


def _custom(n, failing=False):
    """Custom components F1..Fn, with or without v; failing ones may leave
    their domain as `_failing`'s components do, at rest by dividing by v."""
    moving = coordinate_names(n) + velocity_names(n)
    ok = st.one_of(_trees(moving + ("v",)), _trees(moving))
    component = st.one_of(_leaving, _div_tree, ok) if failing else ok
    return st.lists(component, min_size=n, max_size=n).map(
        lambda c: tuple(map(parse, c)))


def _outcome(force, *args):
    """The force's bytes and shape, or the type and message it raised."""
    try:
        with np.errstate(all="ignore"):
            f = force(*args)
    except Exception as err:  # noqa: BLE001 - compared, not handled
        return type(err), str(err)
    return f.shape, f.tobytes()


def _metric(n, kind):
    """A metric of each kind, positive definite on the sampled states."""
    if kind == "conformal":
        return MetricSpec(n, kind="conformal", conformal=parse("0.2*x2"))
    if kind == "explicit":
        return MetricSpec(n, kind="explicit", entries=tuple(
            tuple(parse(f"2+sin(x{i + 1})" if i == j else "0.1*cos(x1)")
                  for j in range(n)) for i in range(n)))
    return MetricSpec(n)


def _wrap(source, wrapper):
    """`source` as `DerivedAB` data, gauge-transformed, or seen only
    through `ab_values`; an (a, b) source has no (h, W) wrapper, and
    custom components none."""
    if type(source) is tuple:
        return source
    pair = isinstance(source, HWPair)
    if wrapper == "derived" and pair:
        return DerivedAB(source)
    if wrapper == "gauge" and pair:
        return gauge_transform(source, parse("w+0.5*w^3"))
    if wrapper == "ab-only":
        return ABOnly(DerivedAB(source) if pair else source)
    return source


def _case(source, batches, seed, stop, metric="euclidean", wrapper="none"):
    """The outcomes of the compiled force and the reference force on
    random states; with `stop`, the last lane of xdot is at rest."""
    n = len(source) if type(source) is tuple else source.dimension
    source = _wrap(source, wrapper)
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.5, 1.5, batches[0] + (n,))
    xdot = rng.uniform(-1.5, 1.5, batches[1] + (n,))
    if stop:
        xdot.reshape(-1, n)[-1] = 0.0
    metric = _metric(n, metric)
    return (_outcome(ForceField(source, metric), x, xdot),
            _outcome(reference_force, source, metric, x, xdot))


_METRIC_KINDS = st.sampled_from(["euclidean", "conformal", "explicit"])
_WRAPPERS = st.sampled_from(["none", "derived", "gauge", "ab-only"])


@pytest.mark.parametrize("n", [2, 3])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_compiled_force_is_the_reference_bitwise(n, data):
    source = data.draw(st.one_of(_valid(n), _custom(n)))
    # custom components also at rest
    stop = type(source) is tuple and data.draw(st.booleans())
    compiled, reference = _case(source, data.draw(st.sampled_from(_BATCHES)),
                                data.draw(_seed), stop,
                                data.draw(_METRIC_KINDS), data.draw(_WRAPPERS))
    assert compiled == reference


@pytest.mark.parametrize("n", [2, 3])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_compiled_force_fails_as_the_reference(n, data):
    compiled, reference = _case(data.draw(st.one_of(_failing(n),
                                                    _custom(n, True))),
                                data.draw(st.sampled_from(_BATCHES)),
                                data.draw(_seed), data.draw(st.booleans()),
                                data.draw(_METRIC_KINDS), data.draw(_WRAPPERS))
    assert compiled == reference


@pytest.mark.parametrize("source, stop, error", [
    (HWPair(parse("v*log(x1-x1-1)"), parse("1"), 2), False, DomainEvalError),
    (HWPair(parse("v*exp(x1)"), parse("log(w-w-1)"), 2), False,
     DomainEvalError),
    (HWPair(parse("1e-11*v+x1"), parse("w"), 3), False,
     VanishingDerivativeError),
    (HWPair(parse("x1*x2"), parse("w"), 2), False, VanishingDerivativeError),
    (HWPair(parse("x1"), parse("log(w-w-1)"), 2), False,
     VanishingDerivativeError),
    (ABFields(parse("sqrt(v-v-1)"), (parse("1/(v-v)"), parse("0"))), False,
     DomainEvalError),
    (ABFields(parse("1"), (parse("v"), parse("1/(v-v)"))), False,
     DomainEvalError),
    (HWPair(parse("v*log(x1-x1-1)"), parse("1"), 2), True, ZeroSpeedError),
    ((parse("xdot1"), parse("x1/v")), True, DomainEvalError)])
@pytest.mark.parametrize("batches", [((), ()), ((7,), (7,)), ((1,), (7,))])
def test_compiled_force_raises_the_reference_error(source, stop, error,
                                                  batches):
    compiled, reference = _case(source, batches, 0, stop)
    assert compiled == reference
    assert compiled[0] is error


@pytest.mark.parametrize("source", [
    HWPair(parse("v+0.5*v^3"), parse("1"), 2),
    ABFields(parse("x1^3"), (parse("v^3"), parse("x2^2"))),
    HWPair(parse("v"), parse("w^3+w"), 2),
    (parse("x1^3*v^2"), parse("xdot1^3-xdot2^2")),
    HWPair(parse("v*(2+x1*x2)^2+(v+sin(x1))^3"), parse("(1+w)^-2"), 2),
    ABFields(parse("(x1-v)^3"), (parse("(v*x2)^-1"), parse("exp(x2)^2"))),
    (parse("(x1+v)^3"), parse("(xdot1*x2+2)^-2"))],
    ids=["W", "ab", "h", "custom", "W-h-compound", "ab-compound",
         "custom-compound"])
def test_one_lane_integer_powers_are_the_reference_bitwise(source):
    # numpy's ** gives a float64 scalar other bits than an array in about
    # 2% of values, and a one-lane kernel computes on float64 scalars: it
    # powers each base as an array, so one lane is its lane in a batch
    rng = np.random.default_rng(2)
    for kind in ("euclidean", "conformal", "explicit"):
        metric = _metric(2, kind)
        force = ForceField(source, metric)
        for x, xdot in rng.uniform(-1.5, 1.5, (400, 2, 2)):
            one = force(x, xdot).tobytes()
            assert one == reference_force(source, metric, x, xdot).tobytes()
            assert one == force(x[None], xdot[None])[0].tobytes()


def test_structurally_zero_entry_keeps_its_sign():
    # W_x2 = 0 enters as q_2 = 0.0 / W_v = -0.0, and F_2 = -0.0 - v (-0.0
    # - q_2) shows its sign: F_2 is -0.0, where q_2 = +0.0 would give +0.0
    source = HWPair(parse("-v*exp(x1)"), parse("1"), 2)
    x, xdot = np.array([0.3, 0.2]), np.array([-1.0, 0.0])
    f = ForceField(source, EUC2)(x, xdot)
    assert f.tobytes() == force_hw(source, EUC2, x, xdot).tobytes()
    assert f[1] == 0.0 and np.signbit(f[1])


# --- the compiled continuation rate against its reference -----------------------

# (x's batch, V's batch): one lane, and 25 lanes that V shares with x,
# adds to x (as `extract_h` batches its targets), or takes from x
_RATE_LANES = [((), ()), ((25,), (25,)), ((5,), (5, 5)), ((25,), ())]


def _rate_outcome(rate, *args):
    """Each output's type, shape and bytes, or the type and message the
    rate raised."""
    try:
        with np.errstate(all="ignore"):
            out = rate(*args)
    except Exception as err:  # noqa: BLE001 - compared, not handled
        return type(err), str(err)
    return [(type(r), r.shape, r.tobytes()) for r in out]


@pytest.mark.parametrize("want_vw", [False, True])
@pytest.mark.parametrize("n", [2, 3])
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_compiled_rate_is_the_reference_bitwise(n, want_vw, data):
    source = data.draw(st.one_of(_valid(n), _failing(n)))
    wrapper = data.draw(st.sampled_from(["none", "gauge", "jet-only"]))
    if isinstance(source, HWPair):  # rho = 2w: a pair that is not inlined
        source = DerivedAB(gauge_transform(source, parse("2*w"))
                           if wrapper == "gauge" else source)
    if wrapper == "jet-only":
        source = JetOnly(source)
    lanes = data.draw(st.sampled_from(_RATE_LANES))
    rng = np.random.default_rng(data.draw(_seed))
    x, d = rng.uniform(-1.5, 1.5, (2,) + lanes[0] + (n,))
    V = rng.uniform(0.2, 2.0, lanes[1])
    if not lanes[1] and data.draw(st.booleans()):
        V = V[()]  # one lane's V is a 0-d array first, then a float64
    compiled = continuation_rate(source, want_vw)
    assert compiled.__name__ == "rate"  # `_compile_rate`'s, for every source
    reference = partial(reference_rate, source, want_vw)
    outcome = _rate_outcome(compiled, x, V, d)
    assert outcome == _rate_outcome(reference, x, V, d)
    if lanes == ((), ()) and type(outcome) is list:  # one lane: scalars
        assert {kind for kind, _, _ in outcome} == {np.float64}


# --- the compiled (a, b) of an (h, W) pair against its array math ------------------

# each reader's outputs, flat, and the oracle's on the pair
_READERS = {
    "b_values": (lambda d, x, v: (d.b_values(x, v),),
                 lambda hw, x, v: (derived_b_values(hw, x, v),)),
    "ab_values": (lambda d, x, v: d.ab_values(x, v), derived_ab_values),
    "jet": (lambda d, x, v: sum(d.jet(x, v), ()),
            lambda hw, x, v: sum(derived_jet(hw, hw.w_jet2(x, v)), ()))}


@pytest.mark.parametrize("n", [2, 3])
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_derived_readers_are_the_oracle_bitwise(n, data):
    pair = data.draw(st.one_of(_valid(n), _failing(n)).filter(
        lambda source: isinstance(source, HWPair)))
    gauged = data.draw(st.booleans())
    if gauged:  # read through `w_jet1` and `h_val`, and no `w_jet2`
        pair = gauge_transform(pair, parse("2*w"))
    lanes = data.draw(st.sampled_from([((), ()), ((25,), (25,))]))
    rng = np.random.default_rng(data.draw(_seed))
    x = rng.uniform(-1.5, 1.5, lanes[0] + (n,))
    v = rng.uniform(0.2, 2.0, lanes[1])
    for reader, (compiled, oracle) in _READERS.items():
        outcome = _rate_outcome(compiled, DerivedAB(pair), x, v)
        assert outcome == _rate_outcome(oracle, pair, x, v), reader
        if gauged and reader == "jet":
            assert outcome[0] is TableError
