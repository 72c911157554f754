"""Property-based invariants of the paper's force (hypothesis): the (h, W)
and (a, b) presentations give the same force, and a monotone
reparametrization of W (a gauge transformation) leaves it unchanged."""

import numpy as np
from hypothesis import given, settings, strategies as st

from normalshift.expr import parse
from normalshift.fields import DerivedAB, HWPair, force_ab, force_hw
from normalshift.geometry import MetricSpec
from normalshift.pfaff import gauge_transform

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
