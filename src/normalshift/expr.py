"""Scalar expression DSL with exact first and second derivatives.

Every user-supplied scalar function (force data, metric conformal factor,
surface parametrization component, speed reparametrization) is a `FieldExpr`
parsed from a small closed grammar:

    expr    = term    { ("+" | "-") term } ;
    term    = factor  { ("*" | "/") factor } ;
    factor  = unary   { "^" unary } ;            (* left-associative *)
    unary   = "-" unary | primary ;
    primary = NUMBER | VARIABLE | FUNCTION "(" expr { "," expr } ")"
            | "(" expr ")" ;

Unary minus binds tighter than "^", so "-x^2" is "(-x)^2" and "2^-3" is
"2^(-3)".  `UNARY_RULES` holds the one-argument functions (exp, log, sin,
cos, tan, tanh, sqrt, abs) with their first and second derivatives; pow
is "^" with two arguments.  A literal integer exponent is valid for any
base; any other exponent needs a positive base at evaluation time.

Evaluation propagates truncated Taylor data (value, gradient, Hessian), so
derivatives are exact up to floating-point rounding — there is no symbolic
rewriting and no finite-difference truncation.  Environments may bind numpy
arrays, in which case everything evaluates elementwise over the batch.
`FieldExpr` is immutable and evaluation is pure, so concurrent use is safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence, Union

import numpy as np

from .errors import (
    ArityError,
    DomainEvalError,
    ExprSyntaxError,
    UnboundVariableError,
    UnknownFunctionError,
)

__all__ = ["FieldExpr", "parse", "bind", "eval_tuple", "taylor_eval"]


# --- AST -------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float
    offset: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Var:
    name: str
    offset: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Neg:
    arg: "Node"
    offset: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    lhs: "Node"
    rhs: "Node"
    offset: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Call:
    fn: str
    args: tuple
    offset: int = field(default=-1, compare=False)


Node = Union[Num, Var, Neg, BinOp, Call]

# (f, f', f'') of each one-argument function, for parser and evaluator
UNARY_RULES = {
    "exp": (np.exp, np.exp, np.exp),
    "log": (np.log, lambda x: 1.0 / x, lambda x: -1.0 / (x * x)),
    "sin": (np.sin, np.cos, lambda x: -np.sin(x)),
    "cos": (np.cos, lambda x: -np.sin(x), lambda x: -np.cos(x)),
    "tan": (np.tan, lambda x: 1.0 + np.tan(x) ** 2,
            lambda x: 2.0 * np.tan(x) * (1.0 + np.tan(x) ** 2)),
    "tanh": (np.tanh, lambda x: 1.0 - np.tanh(x) ** 2,
             lambda x: -2.0 * np.tanh(x) * (1.0 - np.tanh(x) ** 2)),
    "sqrt": (np.sqrt, lambda x: 0.5 / np.sqrt(x),
             lambda x: -0.25 / (x * np.sqrt(x))),
    "abs": (np.abs, np.sign, np.zeros_like),  # convention: sign(0) = 0
}
FUNCTION_ARITY = {**dict.fromkeys(UNARY_RULES, 1), "pow": 2}


@dataclass(frozen=True)
class FieldExpr:
    """Parsed expression plus its free variables in order of first use."""

    ast: Node
    free_vars: tuple = ()

    def unparse(self) -> str:
        return _unparse(self.ast, 0)

    def __str__(self):
        return self.unparse()


# --- tokenizer -------------------------------------------------------------

_OPS = set("+-*/^(),")


def _tokenize(source):
    tokens = []
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        if c in _OPS:
            tokens.append((c, c, i))
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and source[i + 1].isdigit()):
            j = i
            while j < n and (source[j].isdigit() or source[j] == "."):
                j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    j = k
                    while j < n and source[j].isdigit():
                        j += 1
            text = source[i:j]
            try:
                value = float(text)
            except ValueError:
                raise ExprSyntaxError(f"malformed number '{text}'", i) from None
            tokens.append(("num", value, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(("ident", source[i:j], i))
            i = j
            continue
        raise ExprSyntaxError(f"unexpected character '{c}'", i)
    tokens.append(("end", "", n))
    return tokens


# --- recursive-descent parser ----------------------------------------------

_ATOM_EXPECTED = ("a number", "a variable", "'('", "'-'", "a function call")


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.free_vars = {}  # names in order of first use

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, what):
        tok = self.peek()
        if tok[0] != kind:
            raise ExprSyntaxError(
                f"syntax error: found {self._describe(tok)}", tok[2], (what,))
        return self.advance()

    @staticmethod
    def _describe(tok):
        if tok[0] == "end":
            return "end of input"
        if tok[0] == "num":
            return f"number '{tok[1]}'"
        return f"'{tok[1]}'"

    def _left_assoc(self, ops, operand):
        """operand { op operand } for op in ops, folded to the left."""
        node = operand()
        while self.peek()[0] in ops:
            op = self.advance()
            rhs = operand()
            node = BinOp(op[0], node, rhs, op[2])
        return node

    def parse_expr(self):
        return self._left_assoc(("+", "-"), self.parse_term)

    def parse_term(self):
        return self._left_assoc(("*", "/"), self.parse_power)

    def parse_power(self):
        return self._left_assoc(("^",), self.parse_unary)

    def parse_unary(self):
        tok = self.peek()
        if tok[0] == "-":
            self.advance()
            return Neg(self.parse_unary(), tok[2])
        return self.parse_primary()

    def parse_primary(self):
        tok = self.peek()
        if tok[0] == "num":
            self.advance()
            return Num(tok[1], tok[2])
        if tok[0] == "(":
            self.advance()
            node = self.parse_expr()
            self.expect(")", "')'")
            return node
        if tok[0] == "ident":
            self.advance()
            name = tok[1]
            if self.peek()[0] == "(":
                if name not in FUNCTION_ARITY:
                    raise UnknownFunctionError(
                        f"unknown function '{name}'", tok[2])
                self.advance()
                args = [self.parse_expr()]
                while self.peek()[0] == ",":
                    self.advance()
                    args.append(self.parse_expr())
                self.expect(")", "')'")
                if len(args) != FUNCTION_ARITY[name]:
                    raise ArityError(
                        f"function '{name}' takes {FUNCTION_ARITY[name]} "
                        f"argument(s), got {len(args)}", tok[2])
                return Call(name, tuple(args), tok[2])
            if name in FUNCTION_ARITY:
                nxt = self.peek()
                raise ExprSyntaxError(
                    f"syntax error: function '{name}' requires parentheses,"
                    f" found {self._describe(nxt)}", nxt[2], ("'('",))
            self.free_vars.setdefault(name)
            return Var(name, tok[2])
        raise ExprSyntaxError(
            f"syntax error: found {self._describe(tok)}", tok[2],
            _ATOM_EXPECTED)


def parse(source: str) -> FieldExpr:
    """Parse source text into an immutable `FieldExpr`."""
    if not isinstance(source, str) or not source.strip():
        raise ExprSyntaxError("empty expression", 0, _ATOM_EXPECTED)
    parser = _Parser(_tokenize(source))
    ast = parser.parse_expr()
    end = parser.peek()
    if end[0] != "end":
        raise ExprSyntaxError(
            f"syntax error: trailing input {parser._describe(end)}", end[2])
    return FieldExpr(ast, tuple(parser.free_vars))


# --- unparser ---------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 3}
_NEG_PREC = 4


def _unparse(node, parent_prec, right_side=False):
    if isinstance(node, Num):
        return repr(float(node.value))
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        inner = _unparse(node.arg, _NEG_PREC)
        text = "-" + inner
        if parent_prec > _NEG_PREC or (right_side and parent_prec == _NEG_PREC):
            return "(" + text + ")"
        # unary minus as a right operand of any binary operator is fine
        return text
    if isinstance(node, BinOp):
        p = _PREC[node.op]
        lhs = _unparse(node.lhs, p)
        rhs = _unparse(node.rhs, p, right_side=True)
        text = f"{lhs}{node.op}{rhs}"
        if parent_prec > p or (right_side and parent_prec == p):
            return "(" + text + ")"
        return text
    if isinstance(node, Call):
        return node.fn + "(" + ",".join(_unparse(a, 0) for a in node.args) + ")"
    raise TypeError(f"not an AST node: {node!r}")


# --- Taylor-mode evaluation --------------------------------------------------

def _int_exponent(node):
    """Syntactic integer exponent, or None."""
    if isinstance(node, Num) and float(node.value).is_integer():
        return int(node.value)
    if isinstance(node, Neg):
        inner = _int_exponent(node.arg)
        if inner is not None:
            return -inner
    return None


class _Taylor:
    """Evaluate (value, gradient, Hessian) arrays for an AST."""

    def __init__(self, env, names, order):
        self.env = env
        self.names = tuple(names)
        self.k = len(self.names)
        self.order = order

    # Each eval returns (val, grad, hess); grad has trailing axis k,
    # hess trailing axes (k, k); entries may be None below the order.
    def eval(self, node):
        if isinstance(node, Num):
            val = np.asarray(node.value, dtype=float)
            return val, self._zeros(val, 1), self._zeros(val, 2)
        if isinstance(node, Var):
            if node.name not in self.env:
                raise UnboundVariableError(
                    f"variable '{node.name}' is not bound in the environment")
            val = np.asarray(self.env[node.name], dtype=float)
            grad = None
            if self.order >= 1:
                grad = np.zeros(val.shape + (self.k,))
                if node.name in self.names:
                    grad[..., self.names.index(node.name)] = 1.0
            return val, grad, self._zeros(val, 2)
        if isinstance(node, Neg):
            v, g, h = self.eval(node.arg)
            return -v, None if g is None else -g, None if h is None else -h
        if isinstance(node, BinOp):
            return self._binop(node)
        if isinstance(node, Call):
            return self._call(node)
        raise TypeError(f"not an AST node: {node!r}")

    def _zeros(self, val, rank):
        if self.order < rank:
            return None
        return np.zeros(val.shape + (self.k,) * rank)

    def _binop(self, node):
        if node.op == "^":
            n = _int_exponent(node.rhs)
            if n is not None:
                return self._int_power(node, n)
            return self._general_power(node)
        u, ug, uh = self.eval(node.lhs)
        v, vg, vh = self.eval(node.rhs)
        if node.op in ("+", "-"):
            ufunc = np.add if node.op == "+" else np.subtract
            return (ufunc(u, v), None if self.order < 1 else ufunc(ug, vg),
                    None if self.order < 2 else ufunc(uh, vh))
        if node.op == "*":
            return self._mul(u, ug, uh, v, vg, vh)
        if node.op == "/":
            if np.any(v == 0.0):
                raise DomainEvalError("division by zero", _unparse(node, 0))
            return self._div(u, ug, uh, v, vg, vh, node)
        raise TypeError(f"unknown operator {node.op}")

    def _mul(self, u, ug, uh, v, vg, vh):
        val = u * v
        grad = hess = None
        if self.order >= 1:
            grad = ug * v[..., None] + u[..., None] * vg
        if self.order >= 2:
            cross = ug[..., :, None] * vg[..., None, :]
            # the pair is summed first, so the Hessian is bitwise symmetric
            hess = (uh * v[..., None, None] + u[..., None, None] * vh
                    + (cross + np.swapaxes(cross, -1, -2)))
        return val, grad, hess

    def _div(self, u, ug, uh, v, vg, vh, node):
        val = u / v
        grad = hess = None
        if self.order >= 1:
            grad = (ug - val[..., None] * vg) / v[..., None]
        if self.order >= 2:
            cross = grad[..., :, None] * vg[..., None, :]
            hess = (uh - (cross + np.swapaxes(cross, -1, -2))
                    - val[..., None, None] * vh) / v[..., None, None]
        return val, grad, hess

    def _int_power(self, node, n):
        u, ug, uh = self.eval(node.lhs)
        if n < 0 and np.any(u == 0.0):
            raise DomainEvalError(
                "zero base with negative integer exponent", _unparse(node, 0))
        if n == 0:
            one = np.ones_like(np.asarray(u, dtype=float))
            return one, self._zeros(one, 1), self._zeros(one, 2)
        val = u ** n
        grad = hess = None
        if self.order >= 1:
            f1 = n * u ** (n - 1)
            grad = f1[..., None] * ug
        if self.order >= 2:
            f2 = n * (n - 1) * u ** (n - 2) if n != 1 else np.zeros_like(u)
            outer = ug[..., :, None] * ug[..., None, :]
            hess = f2[..., None, None] * outer + f1[..., None, None] * uh
        return val, grad, hess

    def _general_power(self, node):
        u, ug, uh = self.eval(node.lhs)
        if np.any(u <= 0.0):
            raise DomainEvalError(
                "non-integer power of non-positive base", _unparse(node, 0))
        b, bg, bh = self.eval(node.rhs)
        # a^b = exp(b*log a), propagated through the chain rules below
        lg, lgg, lgh = self._chain(*UNARY_RULES["log"], u, ug, uh)
        m, mg, mh = self._mul(b, bg, bh, lg, lgg, lgh)
        return self._chain(*UNARY_RULES["exp"], m, mg, mh)

    def _chain(self, f, f1, f2, u, ug, uh):
        val = f(u)
        grad = hess = None
        if self.order >= 1:
            d1 = np.asarray(f1(u), dtype=float)
            grad = d1[..., None] * ug
        if self.order >= 2:
            d2 = np.asarray(f2(u), dtype=float)
            outer = ug[..., :, None] * ug[..., None, :]
            hess = d2[..., None, None] * outer + d1[..., None, None] * uh
        return np.asarray(val, dtype=float), grad, hess

    def _call(self, node):
        name = node.fn
        if name == "pow":
            base, expo = node.args
            return self._binop(BinOp("^", base, expo, node.offset))
        u, ug, uh = self.eval(node.args[0])
        if name in ("log", "sqrt") and np.any(u <= 0.0):
            raise DomainEvalError(f"{name} of non-positive value",
                                  _unparse(node, 0))
        if name not in UNARY_RULES:
            raise UnknownFunctionError(f"unknown function '{name}'",
                                       node.offset)
        return self._chain(*UNARY_RULES[name], u, ug, uh)


def taylor_eval(e: FieldExpr, env: Mapping[str, object],
                wrt: Sequence[str] = (), order: int = 2):
    """Evaluate `e` with derivative arrays up to `order` (0, 1 or 2).

    `env` values may be scalars or broadcast-compatible numpy arrays.
    Returns (value, gradient, hessian); gradient carries a trailing axis
    over `wrt`, the hessian two.  Entries above `order` are None.
    """
    missing = [name for name in e.free_vars if name not in env]
    if missing:
        raise UnboundVariableError(
            f"variable '{missing[0]}' is not bound in the environment")
    return _Taylor(env, wrt, order).eval(e.ast)


def bind(names, points, **extra):
    """Variable binding: names[i] to points[..., i], plus the keyword
    variables as given."""
    points = np.asarray(points, dtype=float)
    env = {name: points[..., i] for i, name in enumerate(names)}
    env.update(extra)
    return env


def eval_tuple(exprs: Sequence[FieldExpr], env: Mapping[str, object],
               wrt: Sequence[str], order: int):
    """Evaluate every expression of `exprs` on one binding.

    Returns (values, gradients, hessians) of shapes batch + (m,),
    batch + (k, m) and batch + (k, k, m) for m expressions and k = len(wrt),
    where batch is the broadcast shape of the bound values; entries above
    `order` are None.  Constant results are broadcast to the batch.  For a
    single expression the arrays are views of its own (read-only where
    broadcast); otherwise they are new.
    """
    # np.broadcast costs a quarter of np.broadcast_shapes, which shows on
    # one-lane batches, but takes at most 64 arrays
    values = tuple(env.values())
    batch = (np.broadcast(*values).shape if len(values) <= 64
             else np.broadcast_shapes(*map(np.shape, values)))
    shapes = [batch + (len(wrt),) * rank for rank in range(order + 1)]
    if len(exprs) == 1:
        # nothing to stack: views of the expression's own arrays, since a
        # copy would double the peak memory of a wide order-2 call
        parts = taylor_eval(exprs[0], env, wrt, order)
        out = [(p if p.shape == s else np.broadcast_to(p, s))[..., None]
               for p, s in zip(parts, shapes)]
    else:
        out = [np.empty(s + (len(exprs),)) for s in shapes]
        for i, e in enumerate(exprs):
            for arr, part in zip(out, taylor_eval(e, env, wrt, order)):
                arr[..., i] = part
    return tuple(out) + (None,) * (2 - order)
