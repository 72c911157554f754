"""Expression DSL: parsing, round-trips, exact derivatives vs oracles."""

import math
import random

import numpy as np
import pytest

from normalshift.errors import (
    ArityError,
    DomainEvalError,
    ExprSyntaxError,
    UnboundVariableError,
    UnknownFunctionError,
)
from normalshift.expr import (
    BinOp,
    Call,
    FieldExpr,
    Neg,
    Num,
    Var,
    eval_tuple,
    parse,
    taylor_eval,
)


# --- parsing ----------------------------------------------------------------

def test_parse_atom_variable():
    e = parse("v")
    assert e.ast == Var("v")
    assert e.free_vars == ("v",)


def test_parse_product_with_call():
    e = parse("v*exp(0.5*x1)")
    expected = BinOp("*", Var("v"),
                     Call("exp", (BinOp("*", Num(0.5), Var("x1")),)))
    assert e.ast == expected
    assert e.free_vars == ("v", "x1")


def test_parse_error_reports_offset():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("1+*2")
    assert exc.value.offset == 2
    assert exc.value.expected  # non-empty expected-token set


def test_parse_unknown_function():
    with pytest.raises(UnknownFunctionError):
        parse("foo(x1)")


def test_parse_arity_mismatch():
    with pytest.raises(ArityError):
        parse("pow(x1)")
    with pytest.raises(ArityError):
        parse("exp(x1, x2)")


def test_function_requires_parentheses():
    with pytest.raises(ExprSyntaxError):
        parse("exp x1")


def test_precedence_and_associativity():
    # ^ above */ above +-, all left-associative
    assert parse("1+2*3").ast == BinOp("+", Num(1.0),
                                       BinOp("*", Num(2.0), Num(3.0)))
    assert parse("2^3^2").ast == BinOp("^", BinOp("^", Num(2.0), Num(3.0)),
                                       Num(2.0))
    assert taylor_eval(parse("2^3^2"), {}, (), 0)[0] == 64.0
    # unary minus binds tighter than ^
    assert taylor_eval(parse("-2^2"), {}, (), 0)[0] == 4.0
    assert taylor_eval(parse("2^-2"), {}, (), 0)[0] == 0.25
    assert taylor_eval(parse("1-2-3"), {}, (), 0)[0] == -4.0


def _random_tree(rng, depth, vars_):
    roll = rng.random()
    if depth <= 0 or roll < 0.25:
        if rng.random() < 0.5:
            return repr(round(rng.uniform(0.2, 3.0), 3))
        return rng.choice(vars_)
    if roll < 0.75:
        op = rng.choice(["+", "-", "*"])
        return (f"({_random_tree(rng, depth - 1, vars_)}){op}"
                f"({_random_tree(rng, depth - 1, vars_)})")
    fn = rng.choice(["sin", "cos", "tanh", "exp"])
    return f"{fn}(0.5*({_random_tree(rng, depth - 1, vars_)}))"


def test_roundtrip_stability_random_trees():
    # parse -> unparse -> reparse is the identity on the tree
    rng = random.Random(20240404)
    for _ in range(200):
        src = _random_tree(rng, 4, ["x1", "x2", "v"])
        e = parse(src)
        again = parse(e.unparse())
        assert again.ast == e.ast, src
        assert again.free_vars == e.free_vars


def test_roundtrip_edge_spellings():
    for src in ["-x1^2", "2^-3", "a-(b-c)", "-(x1*x2)", "--x1",
                "x1/(x2/v)", "pow(x1+1.0,2.0)", "abs(-x1)"]:
        e = parse(src)
        assert parse(e.unparse()).ast == e.ast, src


# --- jets vs hand-derived oracle ---------------------------------------------

def jet(e, env, wrt):
    """(value, gradient (k,), Hessian (k, k)) of one expression at a point."""
    val, grad, hess = eval_tuple((e,), env, wrt, 2)
    return val[0], grad[:, 0], hess[:, :, 0]


def test_eval_jet_hand_symbolic():
    # d/dv [v e^{x1/2}] = e^{x1/2}; d/dx1 = v e^{x1/2}/2; d2/dx1dv = e^{x1/2}/2
    e = parse("v*exp(0.5*x1)")
    val, grad, hess = jet(e, {"x1": 0.0, "v": 2.0}, ["x1", "v"])
    assert val == pytest.approx(2.0, abs=1e-15)
    assert grad[1] == pytest.approx(1.0, abs=1e-15)
    assert grad[0] == pytest.approx(1.0, abs=1e-15)
    assert hess[0, 1] == pytest.approx(0.5, abs=1e-15)


def test_eval_jet_identity():
    val, grad, hess = jet(parse("v"), {"v": 3.0}, ["v"])
    assert val == 3.0
    assert grad[0] == 1.0
    assert hess[0, 0] == 0.0


def _fd_grad(e, env, name, h=1e-5):
    up = dict(env); up[name] = env[name] + h
    dn = dict(env); dn[name] = env[name] - h
    return (taylor_eval(e, up, (), 0)[0]
            - taylor_eval(e, dn, (), 0)[0]) / (2 * h)


def _fd_hess(e, env, p, q, h=1e-5):
    up = dict(env); up[q] = env[q] + h
    dn = dict(env); dn[q] = env[q] - h
    return (_fd_grad(e, up, p, h) - _fd_grad(e, dn, p, h)) / (2 * h)


def test_random_polynomial_grad_matches_fd():
    rng = random.Random(7)
    for _ in range(20):
        coeffs = [round(rng.uniform(-2, 2), 3) for _ in range(4)]
        src = (f"{coeffs[0]}+({coeffs[1]})*x1+({coeffs[2]})*x1*x2"
               f"+({coeffs[3]})*x2^3")
        e = parse(src)
        env = {"x1": rng.uniform(-1, 1), "x2": rng.uniform(-1, 1)}
        _, grad, _ = jet(e, env, ["x1", "x2"])
        for i, name in enumerate(("x1", "x2")):
            fd = _fd_grad(e, env, name)
            assert abs(grad[i] - fd) <= 1e-6 * max(1.0, abs(fd))


def test_hundred_random_trees_grad_hess_match_fd():
    rng = random.Random(123)
    checked = 0
    while checked < 100:
        src = _random_tree(rng, 3, ["x1", "x2"])
        e = parse(src)
        if not e.free_vars:
            continue
        env = {"x1": rng.uniform(-1.5, 1.5), "x2": rng.uniform(-1.5, 1.5)}
        _, grad, hess = jet(e, env, ["x1", "x2"])
        for i, name in enumerate(("x1", "x2")):
            fd = _fd_grad(e, env, name)
            assert abs(grad[i] - fd) <= 1e-5 * max(1.0, abs(fd)), src
        for (i, p), (j, q) in [((0, "x1"), (0, "x1")), ((0, "x1"), (1, "x2")),
                               ((1, "x2"), (1, "x2"))]:
            fd = _fd_hess(e, env, p, q)
            assert abs(hess[i, j] - fd) <= 1e-4 * max(1.0, abs(fd)), src
        checked += 1


def test_differentiation_is_linear():
    rng = random.Random(99)
    for _ in range(25):
        s1 = _random_tree(rng, 3, ["x1", "v"])
        s2 = _random_tree(rng, 3, ["x1", "v"])
        alpha = round(rng.uniform(-2, 2), 4)
        beta = round(rng.uniform(-2, 2), 4)
        combo = parse(f"({alpha})*({s1})+({beta})*({s2})")
        e1, e2 = parse(s1), parse(s2)
        env = {"x1": rng.uniform(-1, 1), "v": rng.uniform(0.5, 2.0)}
        jc = jet(combo, env, ["x1", "v"])
        j1 = jet(e1, env, ["x1", "v"])
        j2 = jet(e2, env, ["x1", "v"])
        for c, p1, p2 in zip(jc, j1, j2):
            want = alpha * p1 + beta * p2
            assert c == pytest.approx(want, abs=1e-12, rel=1e-12)


def test_hessian_symmetry_is_exact():
    rng = random.Random(5)
    for _ in range(50):
        src = _random_tree(rng, 4, ["x1", "x2", "v"])
        e = parse(src)
        env = {"x1": 0.3, "x2": -0.7, "v": 1.3}
        _, _, hess = jet(e, env, ["x1", "x2", "v"])
        assert np.array_equal(hess, hess.T)  # bitwise equal


def test_eval_tuple_broadcasts_and_stacks():
    # constants broadcast to the batch of the binding; components stack on
    # a trailing axis, bit for bit as `taylor_eval` computes each one
    env = {"x1": np.array([0.0, 1.0, 2.0]), "v": np.array([[1.0], [2.0]])}
    exprs = (parse("v*exp(0.5*x1)"), parse("2"), parse("x1/v"))
    val, grad, hess = eval_tuple(exprs, env, ("x1", "v"), 1)
    assert val.shape == (2, 3, 3)
    assert grad.shape == (2, 3, 2, 3)
    assert hess is None
    for i, e in enumerate(exprs):
        v, g, _ = taylor_eval(e, env, ("x1", "v"), order=1)
        assert np.array_equal(val[..., i], np.broadcast_to(v, (2, 3)))
        assert np.array_equal(grad[..., i], np.broadcast_to(g, (2, 3, 2)))
    val0, grad0, hess0 = eval_tuple(exprs, env, ("x1", "v"), 0)
    assert np.array_equal(val0, val)
    assert grad0 is None and hess0 is None
    hess2 = eval_tuple(exprs, env, ("x1", "v"), 2)[2]
    assert hess2.shape == (2, 3, 2, 2, 3)
    # a single expression is not stacked, but is broadcast the same way
    one = eval_tuple((parse("2"),), env, ("x1", "v"), 1)
    assert np.array_equal(one[0], np.full((2, 3, 1), 2.0))
    assert np.array_equal(one[1], np.zeros((2, 3, 2, 1)))
    # more bound values than one np.broadcast call takes
    wide = dict(env, **{f"y{i}": 1.0 for i in range(70)})
    assert np.array_equal(eval_tuple(exprs, wide, (), 0)[0], val0)


# --- domains and errors -------------------------------------------------------

def test_integer_exponent_allows_negative_base():
    assert taylor_eval(parse("(-2.0)^3"), {}, (), 0)[0] == -8.0
    assert taylor_eval(parse("x1^2"), {"x1": -3.0}, (), 0)[0] == 9.0
    _, grad, hess = jet(parse("x1^3"), {"x1": -2.0}, ["x1"])
    assert grad[0] == 12.0
    assert hess[0, 0] == -12.0


def test_non_integer_exponent_needs_positive_base():
    assert taylor_eval(parse("4^0.5"), {}, (), 0)[0] == pytest.approx(2.0)
    with pytest.raises(DomainEvalError):
        taylor_eval(parse("(-4.0)^0.5"), {}, (), 0)[0]
    with pytest.raises(DomainEvalError):
        taylor_eval(parse("pow(x1, 0.5)"), {"x1": -1.0}, (), 0)[0]


def test_domain_errors_report_subexpression():
    with pytest.raises(DomainEvalError) as exc:
        taylor_eval(parse("1+log(x1-2)"), {"x1": 1.0}, (), 0)[0]
    assert "log" in str(exc.value)
    with pytest.raises(DomainEvalError):
        taylor_eval(parse("sqrt(-x1)"), {"x1": 1.0}, (), 0)[0]
    with pytest.raises(DomainEvalError):
        taylor_eval(parse("1/x1"), {"x1": 0.0}, (), 0)[0]


def test_unbound_variable():
    with pytest.raises(UnboundVariableError):
        taylor_eval(parse("x1+x2"), {"x1": 1.0}, (), 0)[0]


def test_vectorized_environment():
    e = parse("v*exp(0.5*x1)")
    x1 = np.array([0.0, 1.0, 2.0])
    v = np.array([2.0, 1.0, 1.0])
    val, grad, _ = taylor_eval(e, {"x1": x1, "v": v}, ["x1", "v"], order=1)
    assert val == pytest.approx(v * np.exp(0.5 * x1))
    assert grad[:, 1] == pytest.approx(np.exp(0.5 * x1))
    assert grad[:, 0] == pytest.approx(0.5 * v * np.exp(0.5 * x1))


def test_wrt_not_free_gives_zero_derivative():
    val, grad, hess = jet(parse("0"), {"x1": 1.0, "v": 2.0}, ["x1", "v"])
    assert val == 0.0
    assert np.array_equal(grad, [0.0, 0.0])
    assert np.array_equal(hess, np.zeros((2, 2)))
