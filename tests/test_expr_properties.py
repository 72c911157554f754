"""Property-based invariants of the expression DSL (hypothesis)."""

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st

from normalshift.errors import DomainEvalError
from normalshift.expr import eval_tuple, parse, taylor_eval

VARS = ("x1", "x2", "v")

# source-level expression trees over smooth functions
_leaf = st.one_of(
    st.sampled_from(VARS),
    st.floats(min_value=0.1, max_value=3.0).map(lambda f: repr(round(f, 3))),
)


def _trees(ops):
    return st.recursive(
        _leaf,
        lambda inner: st.one_of(
            st.tuples(inner, st.sampled_from(ops), inner).map(
                lambda t: f"({t[0]}){t[1]}({t[2]})"),
            st.tuples(st.sampled_from(["sin", "cos", "tanh", "exp"]),
                      inner).map(lambda t: f"{t[0]}(0.5*({t[1]}))"),
            inner.map(lambda s: f"-({s})"),
        ),
        max_leaves=12,
    )


_tree = _trees("+-*")  # total functions
# a product or quotient at the root, where the cross terms meet; may
# divide by zero
_div_tree = st.tuples(_trees("+-*/"), st.sampled_from("*/"),
                      _trees("+-*/")).map(lambda t: f"({t[0]}){t[1]}({t[2]})")
_env = st.fixed_dictionaries({
    "x1": st.floats(min_value=-1.5, max_value=1.5),
    "x2": st.floats(min_value=-1.5, max_value=1.5),
    "v": st.floats(min_value=0.2, max_value=2.0),
})


@given(_tree)
@settings(max_examples=150, deadline=None)
def test_roundtrip_is_identity(src):
    e = parse(src)
    again = parse(e.unparse())
    assert again.ast == e.ast
    assert again.free_vars == e.free_vars


@given(_div_tree, st.integers(min_value=0, max_value=2 ** 32 - 1))
@example("(x2*v)*(1.411/(x2*(x1-v)))", 0)  # asymmetric when the cross
@example("(x1*v)/(x2*(x1-v))", 0)          # pair was summed term by term
@settings(max_examples=300, deadline=None)
def test_hessian_symmetry_bitwise(src, seed):
    # the raw array the program uses, on a batch of 64 random states
    rng = np.random.default_rng(seed)
    env = {"x1": rng.uniform(-1.5, 1.5, 64), "x2": rng.uniform(-1.5, 1.5, 64),
           "v": rng.uniform(0.2, 2.0, 64)}
    try:
        _, _, hess = taylor_eval(parse(src), env, VARS, order=2)
    except DomainEvalError:
        assume(False)
    assert np.array_equal(hess, np.swapaxes(hess, -1, -2), equal_nan=True)


@given(_tree, _tree, _env,
       st.floats(min_value=-2, max_value=2),
       st.floats(min_value=-2, max_value=2))
@settings(max_examples=100, deadline=None)
def test_differentiation_is_linear(s1, s2, env, alpha, beta):
    combo = parse(f"({alpha!r})*({s1})+({beta!r})*({s2})")
    vals, grads, hesss = eval_tuple((parse(s1), parse(s2), combo), env,
                                    VARS, 2)
    for part in (vals, grads, hesss):
        want = alpha * part[..., 0] + beta * part[..., 1]
        got = part[..., 2]
        assert np.all(np.abs(got - want)
                      <= 1e-12 * np.maximum(1.0, np.abs(want)))


@given(_tree, _env)
@settings(max_examples=100, deadline=None)
def test_gradient_matches_finite_differences(src, env):
    e = parse(src)
    _, grad, _ = taylor_eval(e, env, VARS, order=1)
    h = 1e-5
    for i, name in enumerate(VARS):
        up = dict(env); up[name] = env[name] + h
        dn = dict(env); dn[name] = env[name] - h
        fd = (taylor_eval(e, up, (), 0)[0]
              - taylor_eval(e, dn, (), 0)[0]) / (2 * h)
        assert abs(grad[i] - fd) <= 1e-5 * max(1.0, abs(fd))
