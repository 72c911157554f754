"""Property-based invariants of the expression DSL (hypothesis)."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from normalshift.errors import (
    DomainEvalError,
    ExprSyntaxError,
    UnboundVariableError,
)
from normalshift.expr import FUNCTION_ARITY, eval_tuple, parse

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


# text over the DSL's ASCII alphabet, a character or a whole word at a time
_ascii_text = st.lists(st.one_of(
    st.sampled_from("0123456789.eE+-*/^(),_ \tx$"),
    st.sampled_from(sorted(FUNCTION_ARITY) + ["x1", "v", "1e999"]),
), max_size=14).map("".join)


@given(_ascii_text)
@example("1e999")  # an overflowing literal, whose value is inf
@example("-1e400^x1")
@settings(max_examples=300, deadline=None)
def test_text_round_trips_or_is_a_syntax_error(src):
    try:
        e = parse(src)
    except ExprSyntaxError:
        return
    again = parse(e.unparse())
    assert again.ast == e.ast
    assert again.free_vars == e.free_vars


@given(_div_tree, st.integers(min_value=0, max_value=2 ** 32 - 1))
@example("(x2*v)*(1.411/(x2*(x1-v)))", 0)  # asymmetric when the cross
@example("(x1*v)/(x2*(x1-v))", 0)          # pair was summed term by term
@example("(x1)*(exp(0.5*(-((x1)/(x2)))))", 0)  # exp overflows on a lane
@settings(max_examples=300, deadline=None)
def test_hessian_symmetry_bitwise(src, seed):
    # the raw array the program uses, on a batch of 64 random states;
    # symmetric also where an entry overflows to inf or nan
    rng = np.random.default_rng(seed)
    env = {"x1": rng.uniform(-1.5, 1.5, 64), "x2": rng.uniform(-1.5, 1.5, 64),
           "v": rng.uniform(0.2, 2.0, 64)}
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            hess = eval_tuple((parse(src),), env, VARS, 2)[2][..., 0]
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
    _, grad, _ = eval_tuple((e,), env, VARS, 1)
    h = 1e-5
    for i, name in enumerate(VARS):
        up = dict(env); up[name] = env[name] + h
        dn = dict(env); dn[name] = env[name] - h
        fd = (eval_tuple((e,), up, (), 0)[0][0]
              - eval_tuple((e,), dn, (), 0)[0][0]) / (2 * h)
        assert abs(grad[i, 0] - fd) <= 1e-5 * max(1.0, abs(fd))


# --- tuples -----------------------------------------------------------------------

# a constant, a variable or a tree; all of them share the variables VARS
_component = st.one_of(_leaf, _tree)
# leaves its domain in its last factor, on every lane: the tree is total
_leaving = st.tuples(_tree, st.sampled_from([
    "log(x1-x1-1)", "1/(v-v)", "sqrt(x2-x2-0.5)", "(x1-x1-2)^0.5",
])).map(lambda t: f"({t[0]})*({t[1]})")
# bound arrays of different shapes, which broadcast to (2, 3)
_SHAPES = [(), (3,), (2, 1), (1, 3), (2, 3)]
_batch_env = st.tuples(
    st.sampled_from(_SHAPES), st.sampled_from(_SHAPES),
    st.sampled_from(_SHAPES), st.integers(min_value=0, max_value=2 ** 32 - 1),
).map(lambda t: {
    name: np.random.default_rng(t[3]).uniform(lo, hi, shape)
    for name, lo, hi, shape in zip(VARS, (-1.5, -1.5, 0.2), (1.5, 1.5, 2.0),
                                   t[:3])})


def _error(exprs, env, order):
    """The error's type and message, the same for 0-d arrays and scalars."""
    outcomes = set()
    for bound in (env, _scalars(env)):
        with pytest.raises((DomainEvalError, UnboundVariableError)) as exc:
            eval_tuple(exprs, bound, VARS, order)
        outcomes.add((type(exc.value), str(exc.value)))
    (outcome,) = outcomes
    return outcome


def _scalars(env):
    """`env` with its 0-d arrays bound as float64 scalars."""
    return {name: value[()] for name, value in env.items()}


@given(st.lists(_component, min_size=1, max_size=4), st.booleans(),
       _batch_env)
@settings(max_examples=60, deadline=None)
def test_tuple_is_its_components_bitwise(srcs, repeat, env):
    # the one function of a tuple computes each component as the function
    # of that component alone does, also when the tuple repeats one
    exprs = tuple(map(parse, srcs))
    exprs += exprs[:1] if repeat else ()
    batch = np.broadcast_shapes(*map(np.shape, env.values()))
    with np.errstate(all="ignore"):
        for order in (0, 1, 2):
            whole = eval_tuple(exprs, env, VARS, order)
            assert whole[0].shape == batch + (len(exprs),)
            for got, want in zip(eval_tuple(exprs, _scalars(env), VARS,
                                            order), whole):
                assert (got is None and want is None) \
                    or got.tobytes() == want.tobytes()
            for i, e in enumerate(exprs):
                alone = eval_tuple((e,), env, VARS, order)
                for got, want in zip(whole, alone):
                    assert (got is None) == (want is None)
                    if want is not None:
                        assert got[..., i].tobytes() == want[..., 0].tobytes()


@given(st.lists(_component, min_size=1, max_size=3), _leaving,
       st.lists(st.one_of(_component, _leaving), max_size=2), _batch_env)
@settings(max_examples=60, deadline=None)
def test_tuple_raises_as_its_first_leaving_component(before, leaving, after,
                                                     env):
    exprs = tuple(map(parse, before + [leaving] + after))
    with np.errstate(all="ignore"):
        for order in (0, 1, 2):
            assert _error(exprs, env, order) \
                == _error((exprs[len(before)],), env, order)


@given(_component, _leaving, _leaving, _batch_env)
@settings(max_examples=40, deadline=None)
def test_unbound_variable_is_reported_in_component_order(good, first, src,
                                                         env):
    # y is unbound, and read after its component has left its domain
    unbound = parse(f"({src})+y")
    first = parse(first)
    message = "variable 'y' is not bound in the environment"
    with np.errstate(all="ignore"):
        for order in (0, 1, 2):
            for exprs in ((unbound,), (parse(good), unbound)):
                assert _error(exprs, env, order) \
                    == (UnboundVariableError, message)
            assert _error((first, unbound), env, order) \
                == _error((first,), env, order)
