"""Expression DSL: parsing, round-trips, exact derivatives vs oracles."""

import dataclasses
import math
import pickle
import random

import numpy as np
import pytest

from normalshift import expr
from normalshift.errors import (
    ArityError,
    DomainEvalError,
    ExprSyntaxError,
    FrameError,
    MetricError,
    NormalShiftError,
    PathError,
    PositivityError,
    ScenarioError,
    TableError,
    UnboundVariableError,
    UnknownFunctionError,
)
from normalshift.expr import (
    FUNCTION_ARITY,
    UNARY_RULES,
    BinOp,
    Call,
    FieldExpr,
    Neg,
    Num,
    Var,
    eval_tuple,
    parse,
)
from normalshift.fields import ABFields, ForceField, HWPair
from normalshift.geometry import CoveringManifold, Hypersurface, MetricSpec
from normalshift.pfaff import AdmissibleF, ClosedFormRho, PathSpec
from normalshift.scenario import validate_run


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


ATOM = ("a number", "a variable", "'('", "'-'", "a function call")


@pytest.mark.parametrize("src,error,message,offset,expected", [
    ("", ExprSyntaxError, "empty expression", 0, ATOM),
    ("  \t", ExprSyntaxError, "empty expression", 0, ATOM),
    ("x1 $ 2", ExprSyntaxError, "unexpected character '$'", 3, ()),
    ("½", ExprSyntaxError, "unexpected character '½'", 0, ()),
    ("1.2.3", ExprSyntaxError, "malformed number '1.2.3'", 0, ()),
    ("x+1..", ExprSyntaxError, "malformed number '1..'", 2, ()),
    ("1+*2", ExprSyntaxError, "syntax error: found '*'", 2, ATOM),
    ("2*", ExprSyntaxError, "syntax error: found end of input", 2, ATOM),
    ("-", ExprSyntaxError, "syntax error: found end of input", 1, ATOM),
    ("(1+2", ExprSyntaxError, "syntax error: found end of input", 4,
     ("')'",)),
    ("exp(x1 2", ExprSyntaxError, "syntax error: found number '2.0'", 7,
     ("')'",)),
    ("exp x1", ExprSyntaxError,
     "syntax error: function 'exp' requires parentheses, found 'x1'", 4,
     ("'('",)),
    ("sin", ExprSyntaxError, "syntax error: function 'sin' requires "
     "parentheses, found end of input", 3, ("'('",)),
    ("1+foo(x1)", UnknownFunctionError, "unknown function 'foo'", 2, ()),
    ("x1 (2)", UnknownFunctionError, "unknown function 'x1'", 0, ()),
    ("pow(x1)", ArityError, "function 'pow' takes 2 argument(s), got 1", 0,
     ()),
    ("exp(x1, x2)", ArityError, "function 'exp' takes 1 argument(s), got 2",
     0, ()),
    ("1 2", ExprSyntaxError, "syntax error: trailing input number '2.0'", 2,
     ()),
    ("x)", ExprSyntaxError, "syntax error: trailing input ')'", 1, ()),
    ("a,b", ExprSyntaxError, "syntax error: trailing input ','", 1, ()),
])
def test_every_parse_error_path(src, error, message, offset, expected):
    with pytest.raises(ExprSyntaxError) as exc:
        parse(src)
    assert type(exc.value) is error
    suffix = f" (expected {', '.join(expected)})" if expected else ""
    assert str(exc.value) == f"{message} at offset {offset}{suffix}"
    assert (exc.value.offset, exc.value.expected) == (offset, expected)


def test_non_decimal_numeral_is_an_unexpected_character():
    # "²" is a digit to str.isdigit but not a decimal digit, so it starts
    # no number; inside an identifier it is a letter-like character
    with pytest.raises(ExprSyntaxError,
                       match=r"^unexpected character '²' at offset 2$"):
        parse("1+²")
    assert parse("x²").free_vars == ("x²",)


DEEP = expr.MAX_DEPTH
TOO_DEEP = f"expression nested deeper than {DEEP} levels"


@pytest.mark.parametrize("src", [
    "pow(" * DEEP + "x" + ",1)" * DEEP,  # the most compiler frames a level
    "+".join(["x"] * (DEEP + 1)),         # a sum leans left
    "-" * DEEP + "x",
], ids=["pow", "sum", "minus"])
def test_tree_at_the_depth_bound_compiles_and_round_trips(src):
    e = parse(src)
    vals, _, hess = eval_tuple((e,), {"x": np.array([0.5, 2.0])}, ("x",), 2)
    assert hess.shape == (2, 1, 1, 1) and np.isfinite(vals).all()
    again = parse(e.unparse())
    assert again == e and again.free_vars == e.free_vars


@pytest.mark.parametrize("src,offset", [
    ("+".join(["x"] * (DEEP + 2)), 2 * DEEP + 1),  # at the last "+"
    ("+".join(["x"] * 400), 2 * DEEP + 1),
    ("-" * 993 + "x", DEEP),
    ("(" * 497 + "x" + ")" * 497, DEEP),
    ("2^(" * 250 + "x" + ")" * 250, 3 * DEEP + 2),
    ("exp(" * 330 + "x" + ")" * 330, 4 * DEEP + 3),
], ids=["sum", "long-sum", "minus", "parens", "power", "exp"])
def test_past_the_depth_bound_is_a_syntax_error(src, offset):
    # the token that crosses the bound: an operator that makes the tree
    # too deep, or a unary minus or parenthesis opened one too many
    with pytest.raises(ExprSyntaxError) as exc:
        parse(src)
    assert str(exc.value) == f"{TOO_DEEP} at offset {offset}"


def test_precedence_and_associativity():
    # ^ above */ above +-, all left-associative
    assert parse("1+2*3").ast == BinOp("+", Num(1.0),
                                       BinOp("*", Num(2.0), Num(3.0)))
    assert parse("2^3^2").ast == BinOp("^", BinOp("^", Num(2.0), Num(3.0)),
                                       Num(2.0))
    assert jet(parse("2^3^2"), {}, (), 0)[0] == 64.0
    # unary minus binds tighter than ^
    assert jet(parse("-2^2"), {}, (), 0)[0] == 4.0
    assert jet(parse("2^-2"), {}, (), 0)[0] == 0.25
    assert jet(parse("1-2-3"), {}, (), 0)[0] == -4.0


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

def jet(e, env, wrt=(), order=2):
    """`eval_tuple` of the one expression `e` without the expression axis:
    (value, gradient, Hessian) of shapes batch, batch + (k,), batch + (k, k),
    None above `order`."""
    return tuple(None if part is None else part[..., 0]
                 for part in eval_tuple((e,), env, wrt, order))


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
    return (jet(e, up, (), 0)[0] - jet(e, dn, (), 0)[0]) / (2 * h)


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


# One expression per rule of the table, per binary operator and per kind of
# exponent; every argument stays inside its function's domain at RULE_POINT,
# and abs's argument away from 0.
RULE_CASES = [
    "exp(0.7*x1-x2)", "log(x1*x1+x2)", "sin(x1*x2)", "cos(x1+2*x2)",
    "tan(0.5*x1-0.3*x2)", "tanh(x1-x2)", "sqrt(x1+x2*x2)", "abs(x1-1.5*x2)",
    "x1/(x2+2)", "x1*x2-x2/x1+x2",
    "(x1+x2)^0", "(x1+x2)^1", "(x1-x2)^-2", "(x1-2*x2)^3", "(x1+x2)^0.5",
    "x1^x2", "(x1*x2)^(x1-x2)",
    "pow(x1+x2,0)", "pow(x1+x2,1)", "pow(x1-x2,-2)", "pow(x1-2*x2,3)",
    "pow(x1+x2,0.5)", "pow(x1,x2)",
]
RULE_POINT = {"x1": 1.3, "x2": 0.6}


def test_rule_cases_cover_every_function():
    assert set(FUNCTION_ARITY) == set(UNARY_RULES) | {"pow"}
    for name in FUNCTION_ARITY:
        assert any(src.startswith(name + "(") for src in RULE_CASES), name


@pytest.mark.parametrize("src", RULE_CASES)
def test_every_rule_matches_central_differences(src):
    e = parse(src)
    wrt = ("x1", "x2")
    _, grad1, hess1 = jet(e, RULE_POINT, wrt, order=1)
    _, grad, hess = jet(e, RULE_POINT, wrt, order=2)
    assert hess1 is None
    assert np.array_equal(grad1, grad)  # order 1 is order 2's gradient
    for i, p in enumerate(wrt):
        fd = _fd_grad(e, RULE_POINT, p)
        assert abs(grad[i] - fd) <= 1e-6 * max(1.0, abs(fd)), (src, p)
        for j, q in enumerate(wrt):
            fd = _fd_hess(e, RULE_POINT, p, q)
            assert abs(hess[i, j] - fd) <= 1e-4 * max(1.0, abs(fd)), \
                (src, p, q)


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
    # a trailing axis, bit for bit as `eval_tuple` computes each one alone
    env = {"x1": np.array([0.0, 1.0, 2.0]), "v": np.array([[1.0], [2.0]])}
    exprs = (parse("v*exp(0.5*x1)"), parse("2"), parse("x1/v"))
    val, grad, hess = eval_tuple(exprs, env, ("x1", "v"), 1)
    assert val.shape == (2, 3, 3)
    assert grad.shape == (2, 3, 2, 3)
    assert hess is None
    for i, e in enumerate(exprs):
        v, g, _ = jet(e, env, ("x1", "v"), order=1)
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
    assert jet(parse("(-2.0)^3"), {}, (), 0)[0] == -8.0
    assert jet(parse("x1^2"), {"x1": -3.0}, (), 0)[0] == 9.0
    _, grad, hess = jet(parse("x1^3"), {"x1": -2.0}, ["x1"])
    assert grad[0] == 12.0
    assert hess[0, 0] == -12.0


def test_non_integer_exponent_needs_positive_base():
    assert jet(parse("4^0.5"), {}, (), 0)[0] == pytest.approx(2.0)
    with pytest.raises(DomainEvalError):
        jet(parse("(-4.0)^0.5"), {}, (), 0)[0]
    with pytest.raises(DomainEvalError):
        jet(parse("pow(x1, 0.5)"), {"x1": -1.0}, (), 0)[0]


def test_domain_errors_report_subexpression():
    with pytest.raises(DomainEvalError) as exc:
        jet(parse("1+log(x1-2)"), {"x1": 1.0}, (), 0)[0]
    assert "log" in str(exc.value)
    with pytest.raises(DomainEvalError):
        jet(parse("sqrt(-x1)"), {"x1": 1.0}, (), 0)[0]
    with pytest.raises(DomainEvalError):
        jet(parse("1/x1"), {"x1": 0.0}, (), 0)[0]


def test_unbound_variable():
    with pytest.raises(UnboundVariableError):
        jet(parse("x1+x2"), {"x1": 1.0}, (), 0)[0]


def test_vectorized_environment():
    e = parse("v*exp(0.5*x1)")
    x1 = np.array([0.0, 1.0, 2.0])
    v = np.array([2.0, 1.0, 1.0])
    val, grad, _ = jet(e, {"x1": x1, "v": v}, ["x1", "v"], order=1)
    assert val == pytest.approx(v * np.exp(0.5 * x1))
    assert grad[:, 1] == pytest.approx(np.exp(0.5 * x1))
    assert grad[:, 0] == pytest.approx(0.5 * v * np.exp(0.5 * x1))


def test_wrt_not_free_gives_zero_derivative():
    val, grad, hess = jet(parse("0"), {"x1": 1.0, "v": 2.0}, ["x1", "v"])
    assert val == 0.0
    assert np.array_equal(grad, [0.0, 0.0])
    assert np.array_equal(hess, np.zeros((2, 2)))


# --- the compiled evaluator ---------------------------------------------------

def test_variable_names_are_only_keys():
    # a hand-built name need not be an identifier: it is read through env
    names = ("a b", "x'); import os; ('")
    e = FieldExpr(BinOp("*", Var(names[0]), Var(names[1])))
    val, grad, _ = jet(e, {names[0]: 2.0, names[1]: 3.0}, names, 1)
    assert val == 6.0
    assert grad.tolist() == [3.0, 2.0]


def test_infinite_literal_evaluates():
    val, grad, _ = jet(parse("1e999*x1"),
                       {"x1": np.array([1.0, 2.0])}, ("x1",), 1)
    assert val.tolist() == [math.inf, math.inf]
    assert grad[:, 0].tolist() == [math.inf, math.inf]


def test_unknown_call_raises_after_its_argument():
    bad = FieldExpr(Call("foo", (Call("log", (Var("x1"),)),), 3))
    with pytest.raises(DomainEvalError, match="log of non-positive value"):
        jet(bad, {"x1": 0.0}, ("x1",), 1)
    with pytest.raises(UnknownFunctionError,
                       match="unknown function 'foo'") as exc:
        jet(bad, {"x1": 1.0}, ("x1",), 1)
    assert exc.value.offset == 3


@pytest.mark.parametrize("call, error", [
    (Call("pow", (Var("x1"),)), ValueError),
    (Call("exp", ()), IndexError),
])
def test_malformed_call_raises_in_walk_order(call, error):
    # the log guard to the left runs first, as in a walk of the tree
    bad = FieldExpr(BinOp("+", Call("log", (Var("x1"),)), call))
    with pytest.raises(DomainEvalError, match="log of non-positive value"):
        jet(bad, {"x1": 0.0}, ("x1",), 1)
    with pytest.raises(error):
        jet(bad, {"x1": 1.0}, ("x1",), 1)


def test_compiled_cache_is_not_an_input():
    e = parse("v*exp(0.3*x1)")
    jet(e, {"x1": 0.2, "v": 1.5}, ("x1", "v"), 1)
    with pytest.raises(TypeError):
        FieldExpr(e.ast, e.free_vars, e.compiled)
    other = dataclasses.replace(e, ast=parse("x1").ast, free_vars=("x1",))
    assert other.compiled == {}
    assert jet(other, {"x1": 0.2}, ("x1",), 1)[0] == 0.2


def test_structural_zeros_are_positive_zero():
    # -(x1*x2) is linear in x1 and in x2, and does not depend on v; a dense
    # negation of zero columns gave -0.0 here
    env = {"x1": np.array([-1.0, 2.0]), "x2": np.array([3.0, -0.5]),
           "v": 1.0}
    _, grad, hess = jet(parse("-(x1*x2)"), env, ("x1", "x2", "v"), 2)
    for zero in (grad[:, 2], hess[:, 0, 0], hess[:, 1, 1], hess[:, 2, :],
                 hess[:, :, 2]):
        assert zero.tobytes() == np.zeros(zero.shape).tobytes()
    assert hess[:, 0, 1].tolist() == [-1.0, -1.0]


def test_compiles_once_per_wrt_and_order(monkeypatch):
    made = []

    class Counted(expr._Compiler):
        def function(self, ast):
            made.append((self.wrt, self.order))
            return super().function(ast)

    monkeypatch.setattr(expr, "_Compiler", Counted)
    e = parse("v*exp(0.3*x1)")
    env = {"x1": 0.2, "v": 1.5}
    first = jet(e, env, ("x1", "v"), 1)
    again = jet(e, env, ["x1", "v"], 1)
    assert made == [(("x1", "v"), 1)]
    assert all(a.tobytes() == b.tobytes() for a, b in zip(first[:2], again))
    jet(e, env, ("x1", "v"), 2)
    jet(e, env, ("v",), 0)
    jet(e, env, (), 0)  # order 0 does not read wrt
    assert made == [(("x1", "v"), 1), (("x1", "v"), 2), ((), 0)]


def _rich_tree(rng, depth):
    """Source over x1, x2, v using every operator, function and kind of
    exponent; may leave a domain."""
    roll = rng.random()
    if depth <= 0 or roll < 0.2:
        return rng.choice(["x1", "x2", "v", "0.5", "2.0", "0"])
    sub = lambda: _rich_tree(rng, depth - 1)  # noqa: E731
    if roll < 0.55:
        return f"({sub()}){rng.choice('+-*/')}({sub()})"
    if roll < 0.7:
        expo = rng.choice(["0", "1", "2", "3", "-1", "-2", "0.5", "x2"])
        return f"pow({sub()},{expo})"
    if roll < 0.8:
        return f"-({sub()})"
    return f"{rng.choice(sorted(UNARY_RULES))}({sub()})"


def test_orders_agree_bitwise_on_random_trees():
    # each order is its own compiled function: values, gradients and the
    # Hessian's two triangles must still come out of the same arithmetic
    rng = random.Random(2026)
    env = {"x1": np.linspace(-1.5, 1.5, 8), "x2": np.array([[0.7], [-0.3]]),
           "v": 1.3}
    wrt = ("v", "x1", "x2")
    checked = 0
    with np.errstate(all="ignore"):
        while checked < 400:
            e = parse(_rich_tree(rng, 4))
            try:
                v0, _, _ = jet(e, env, wrt, 0)
            except DomainEvalError:
                continue
            v1, g1, _ = jet(e, env, wrt, 1)
            v2, g2, h2 = jet(e, env, wrt, 2)
            assert v0.tobytes() == v1.tobytes() == v2.tobytes()
            assert g1.tobytes() == g2.tobytes()
            assert h2.tobytes() == np.swapaxes(h2, -1, -2).copy().tobytes()
            checked += 1


def test_evaluated_expression_pickles():
    e = parse("v*exp(0.3*x1)")
    env = {"x1": 0.2, "v": 1.5}
    want = jet(e, env, ("x1", "v"), 2)
    again = pickle.loads(pickle.dumps(e))
    assert again == e and again.free_vars == e.free_vars
    for a, b in zip(jet(again, env, ("x1", "v"), 2), want):
        assert a.tobytes() == b.tobytes()


# --- scope ------------------------------------------------------------------

@pytest.mark.parametrize("build,error,what,unknown,allowed", [
    (lambda: HWPair(parse("v*y"), parse("1"), 2), FrameError, "W", ["y"],
     ["x1", "x2", "v"]),
    (lambda: HWPair(parse("v"), parse("x1*w"), 2), FrameError, "h", ["x1"],
     ["w"]),
    (lambda: ABFields(parse("z"), (parse("0"), parse("0"))), FrameError, "a",
     ["z"], ["x1", "x2", "v"]),
    (lambda: ABFields(parse("1"), (parse("0"), parse("w+t"))), FrameError,
     "b2", ["t", "w"], ["x1", "x2", "v"]),
    (lambda: MetricSpec(2, "conformal", parse("x3")), MetricError,
     "conformal factor", ["x3"], ["x1", "x2"]),
    (lambda: MetricSpec(2, "explicit", entries=(
        (parse("1"), parse("v")), (parse("v"), parse("1")))), MetricError,
     "explicit metric entry (1,2)", ["v"], ["x1", "x2"]),
    (lambda: Hypersurface(2, (parse("cos(u1)"), parse("sin(u2)")),
                          ((0.0, 1.0),), (8,), (0.0,), (False,)),
     FrameError, "embedding component x2", ["u2"], ["u1"]),
    (lambda: PathSpec.parametric((parse("t"), parse("s*t")), 0.0, 1.0),
     PathError, "parametric component x2", ["s"], ["t"]),
    (lambda: AdmissibleF(parse("v*w")), PositivityError, "f", ["w"], ["v"]),
    (lambda: ClosedFormRho(parse("2*v")), TableError, "rho", ["v"], ["w"]),
    (lambda: ForceField((parse("1"), parse("xdot3")), MetricSpec(2)),
     FrameError, "F2", ["xdot3"],
     ["x1", "x2", "v", "xdot1", "xdot2"]),
    (lambda: validate_run({"rho": "v*w"}, CoveringManifold(MetricSpec(2))),
     ScenarioError, "run.rho", ["v"], ["w"]),
], ids=["W", "h", "a", "b2", "conformal", "explicit", "surface", "path",
        "f", "rho", "custom", "scenario"])
def test_every_owner_names_its_unknown_variables(build, error, what, unknown,
                                                  allowed):
    # each owner refuses at construction, in its own exception type, an
    # expression reading a variable it does not bind
    with pytest.raises(NormalShiftError) as exc:
        build()
    message = str(exc.value)
    assert type(exc.value) is error
    assert what in message
    assert f"unknown variables {unknown}" in message
    assert f"(allowed: {allowed})" in message
