"""Scalar expression DSL with exact first and second derivatives.

Every user-supplied scalar function (force data, metric conformal factor,
surface parametrization component, speed reparametrization) is a `FieldExpr`
parsed from a small closed grammar:

    expr     = operand { ("+" | "-" | "*" | "/" | "^") operand } ;
    operand  = "-" operand | primary ;
    primary  = NUMBER | VARIABLE | FUNCTION "(" expr { "," expr } ")"
             | "(" expr ")" ;
    NUMBER   = (DIGIT | "." DIGIT) { DIGIT | "." }
               [ ("e" | "E") [ "+" | "-" ] DIGIT { DIGIT } ] ;
    VARIABLE = (LETTER | "_") { LETTER | NUMERAL | "_" } ;

A DIGIT is a decimal digit, a LETTER and a NUMERAL what `str.isalpha` and
`str.isnumeric` accept; a NUMBER must read as a float, a VARIABLE is no
FUNCTION name, and whitespace between tokens is skipped.  `_PREC` is the
one table of binary operator levels ("^" above "*" and "/" above "+" and
"-", all left-associative), read by the parser and the unparser.  Unary
minus binds tighter than "^", so "-x^2" is "(-x)^2" and "2^-3" is
"2^(-3)".  `UNARY_RULES` holds the one-argument functions (exp, log, sin,
cos, tan, tanh, sqrt, abs) with their first and second derivatives; pow
is "^" with two arguments.  A literal integer exponent is valid for any
base; any other exponent needs a positive base at evaluation time.  A
tree nests at most MAX_DEPTH operations, and a token sits inside at most
MAX_DEPTH unary minuses and parentheses; `require_vars` is the one check
that an expression reads only the variables its owner binds.

Evaluation propagates truncated Taylor data (value, gradient, Hessian), so
derivatives are exact up to rounding.  Each (exprs, wrt, order) is compiled
once, on the first expression, into one straight-line numpy function that
writes only the entries a node depends on structurally; the others are +0.0.
Environments may bind numpy arrays, which evaluate elementwise over the
batch.  A `FieldExpr` is immutable but for that cache of functions, and
evaluation is pure, so concurrent use is safe.
"""

from __future__ import annotations

import functools
import re
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

__all__ = ["FieldExpr", "parse", "bind", "eval_tuple"]


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
    # (ids of the tuple's other expressions, wrt, order) -> its function,
    # and (those ids, derived, n, want_vw) -> `fields.continuation_rate`
    compiled: dict = field(default_factory=dict, init=False, compare=False,
                           repr=False)

    def __reduce__(self):  # pickles without the compiled functions
        return FieldExpr, (self.ast, self.free_vars)

    def require_vars(self, allowed, what, error):
        """Self if it reads only variables in `allowed`, else `error` of a
        message naming `what`, the unknown variables and `allowed`."""
        unknown = set(self.free_vars) - set(allowed)
        if unknown:
            raise error(f"{what} uses unknown variables {sorted(unknown)} "
                        f"(allowed: {list(allowed)})")
        return self

    def unparse(self) -> str:
        return _unparse(self.ast, 0)

    def __str__(self):
        return self.unparse()


# --- tokenizer -------------------------------------------------------------

# after whitespace, the first of: a number, a name, an operator, any other
_TOKEN = re.compile(r"""\s*(?:
    (?P<num> \.?\d[\d.]* (?:[eE][+-]?\d+)? )
  | (?P<ident> \w+ )
  | (?P<op> [-+*/^(),] )
  | (?P<other> \S ))""", re.VERBOSE)


def _tokenize(source):
    """(kind, value, offset) of each token, then ("end", "", len(source)),
    where kind is "num", "ident" or the operator character itself."""
    tokens = []
    for m in _TOKEN.finditer(source):
        kind = m.lastgroup
        text, at = m[kind], m.start(kind)
        if kind == "num":
            try:
                tokens.append((kind, float(text), at))
            except ValueError:
                raise ExprSyntaxError(f"malformed number '{text}'", at) \
                    from None
        elif kind == "op":
            tokens.append((text, text, at))
        elif text[0].isalpha() or text[0] == "_":  # \w also has numerals
            tokens.append((kind, text, at))
        else:
            raise ExprSyntaxError(f"unexpected character '{text[0]}'", at)
    tokens.append(("end", "", len(source)))
    return tokens


# --- precedence-climbing parser ---------------------------------------------

# binary operator levels, all left-associative: a right operand binds one
# level above its operator, in the parser and the unparser alike
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 3}
_NEG_PREC = 4  # unary minus binds tighter than any binary operator
_ATOM_EXPECTED = ("a number", "a variable", "'('", "'-'", "a function call")
# operations on a path from the root of the tree to a leaf, and unary
# minuses and parentheses open at once: the compiler takes up to five
# frames per operation (pow(2, pow(2, ...))), which this keeps well
# within the interpreter's recursion limit of 1000
MAX_DEPTH = 150


def _describe(tok):
    kind, value, _ = tok
    return ("end of input" if kind == "end"
            else f"number '{value}'" if kind == "num" else f"'{value}'")


class _Parser:
    def __init__(self, source):
        self.tokens, self.pos = _tokenize(source), 0
        self.free_vars = {}  # names in order of first use
        self.depths = {}  # id(node) -> its tree's depth; a leaf's is 0
        self.open = 0  # unary minuses and parentheses around the token

    def within_bound(self, depth, at):
        if depth > MAX_DEPTH:
            raise ExprSyntaxError(
                f"expression nested deeper than {MAX_DEPTH} levels", at)
        return depth

    def built(self, node, *children):
        """`node`, one level deeper than its deepest child."""
        self.depths[id(node)] = self.within_bound(1 + max(
            self.depths.get(id(c), 0) for c in children), node.offset)
        return node

    def inner(self, tok, level=1):
        """The operand after the unary minus or parenthesis `tok`."""
        self.open = self.within_bound(self.open + 1, tok[2])
        node = self.expr(level)
        self.open -= 1
        return node

    def take(self, kinds, expected=()):
        """The next token, consumed, if its kind is one of `kinds`; else
        None, or given `expected`, the syntax error naming the token."""
        tok = self.tokens[self.pos]
        if tok[0] in kinds:
            self.pos += 1
            return tok
        if expected:
            raise ExprSyntaxError(
                f"syntax error: found {_describe(tok)}", tok[2], expected)
        return None

    def expr(self, level=1):
        """Operands joined by the operators of `_PREC` at `level` and up,
        folded to the left; an operand is a unary minus or a primary."""
        if tok := self.take("-"):
            arg = self.inner(tok, _NEG_PREC)
            node = self.built(Neg(arg, tok[2]), arg)
        else:
            node = self.primary()
        while _PREC.get(self.tokens[self.pos][0], 0) >= level:
            op, _, at = self.take(_PREC)
            rhs = self.expr(_PREC[op] + 1)
            node = self.built(BinOp(op, node, rhs, at), node, rhs)
        return node

    def primary(self):
        tok = kind, value, at = self.take(("num", "ident", "("),
                                          _ATOM_EXPECTED)
        if kind == "num":
            return Num(value, at)
        if kind == "(":
            node = self.inner(tok)
            self.take(")", ("')'",))
            return node
        if paren := self.take("("):
            if value not in FUNCTION_ARITY:
                raise UnknownFunctionError(f"unknown function '{value}'", at)
            args = [self.inner(paren)]
            while self.take(","):
                args.append(self.inner(paren))
            self.take(")", ("')'",))
            if len(args) != FUNCTION_ARITY[value]:
                raise ArityError(
                    f"function '{value}' takes {FUNCTION_ARITY[value]} "
                    f"argument(s), got {len(args)}", at)
            return self.built(Call(value, tuple(args), at), *args)
        if value in FUNCTION_ARITY:
            nxt = self.tokens[self.pos]
            raise ExprSyntaxError(
                f"syntax error: function '{value}' requires parentheses,"
                f" found {_describe(nxt)}", nxt[2], ("'('",))
        self.free_vars.setdefault(value)
        return Var(value, at)


def parse(source: str) -> FieldExpr:
    """Parse source text into an immutable `FieldExpr`."""
    if not isinstance(source, str) or not source.strip():
        raise ExprSyntaxError("empty expression", 0, _ATOM_EXPECTED)
    parser = _Parser(source)
    ast = parser.expr()
    end = parser.tokens[parser.pos]
    if end[0] != "end":
        raise ExprSyntaxError(
            f"syntax error: trailing input {_describe(end)}", end[2])
    return FieldExpr(ast, tuple(parser.free_vars))


# --- unparser ---------------------------------------------------------------

def _unparse(node, level):
    """Source text of `node` as an operand at `level`: parenthesized if
    its own operator binds less tightly."""
    if isinstance(node, Num):
        value = float(node.value)  # inf as a literal that overflows to it
        return "1e999" if value == np.inf else repr(value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Call):
        return node.fn + "(" + ",".join(_unparse(a, 0) for a in node.args) + ")"
    if isinstance(node, Neg):
        own, text = _NEG_PREC, "-" + _unparse(node.arg, _NEG_PREC)
    elif isinstance(node, BinOp):
        own = _PREC[node.op]
        text = (_unparse(node.lhs, own) + node.op
                + _unparse(node.rhs, own + 1))
    else:
        raise TypeError(f"not an AST node: {node!r}")
    return f"({text})" if level > own else text


# --- compiled Taylor-mode evaluation ------------------------------------------

def _int_exponent(node):
    """Syntactic integer exponent, or None."""
    if isinstance(node, Num) and float(node.value).is_integer():
        return int(node.value)
    if isinstance(node, Neg):
        inner = _int_exponent(node.arg)
        if inner is not None:
            return -inner
    return None


# While compiling, a jet is (value, gradient, Hessian): the value is the name
# of a local or a global, the gradient maps a `wrt` index to an entry and the
# Hessian maps a pair i <= j to one.  An absent entry is structurally zero and
# _ONE is a variable's own gradient column.  Each rule keeps the per-entry
# arithmetic and grouping of the dense rule, with the zero terms left out.
_ONE = "1.0"


def _times(a, b):
    if a is None or b is None:
        return None
    return b if a == _ONE else a if b == _ONE else f"({a}*{b})"  # 1.0*x is x


def _plus(a, b):
    return b if a is None else a if b is None else f"({a}+{b})"


def _minus(a, b):
    # 0.0 - b, not -b: the two differ where b is +0.0
    return a if b is None else f"({'0.0' if a is None else a}-{b})"


class _Compiler:
    """Emit one straight-line numpy function of `env` for a tuple of
    expressions, `wrt` and order.  Its source holds only generated names:
    numbers, variable names and messages are globals of the function.
    A variable that `loaded` maps to a generated name reads that name in
    place of `env`, so callers can emit a function of their own around
    the jets (`fields` does, for the force).  On one lane every value is
    a float64 scalar, not a 0-d array: numpy's scalar arithmetic costs a
    fraction of a ufunc call on a 0-d array and gives the same bits, but
    for `**`, which therefore powers its base as an array."""

    def __init__(self, wrt, order):
        self.wrt, self.order = wrt, order
        self.lines, self.keys, self.loaded = [], {}, {}  # by variable name
        self.globals = {"np": np, "asarray": np.asarray}

    def const(self, obj):
        name = f"k{len(self.globals)}"
        self.globals[name] = obj
        return name

    def let(self, expr):
        if expr is None or expr == _ONE or expr.isidentifier():
            return expr
        name = f"t{len(self.lines)}"
        self.lines.append(f"{name} = {expr}")
        return name

    def raise_(self, error, *args, cond=None):  # here, or where cond holds
        stmt = f"raise {self.const(functools.partial(error, *args))}()"
        self.lines.append(stmt if cond is None else f"if {cond}: {stmt}")
        return "None", {}, {}  # a jet for the code after it, never run

    def guard(self, cond, message, node):
        """A DomainEvalError naming `node` where `cond` holds in any lane."""
        self.raise_(lambda: DomainEvalError(message, _unparse(node, 0)),
                    cond=f"({cond}).any()")

    def bound(self, name):  # the global holding name, once checked in env
        if name not in self.keys:
            key = self.keys[name] = self.const(name)
            self.raise_(UnboundVariableError, f"variable '{name}' is not "
                        "bound in the environment", cond=f"{key} not in env")
        return self.keys[name]

    def entries(self, keys, rule):
        return {key: e for key in keys if (e := self.let(rule(key)))}

    def pairs(self, grad):
        keys = sorted(grad) if self.order >= 2 else []
        return [(i, j) for n, i in enumerate(keys) for j in keys[n:]]

    def batch(self, values):
        """`batch`: the broadcast shape of the arrays `values` holds."""
        # np.broadcast is 4x cheaper on one lane but takes at most 64 arrays
        self.lines += [f"values = {values}",
                       "batch = (np.broadcast(*values).shape if len(values)"
                       " <= 64 else np.broadcast_shapes(*map(np.shape, "
                       "values)))"]

    def define(self, signature, result):
        """The function `def signature` with the lines so far as its body."""
        body = "".join(f"    {line}\n" for line in self.lines)
        source = f"def {signature}:\n{body}    return {result}\n"
        exec(compile(source, "<normalshift.expr>", "exec"), self.globals)
        return self.globals[signature.partition("(")[0]]

    def function(self, exprs):
        """Each expression's variable checks and body in turn, then the
        writes of every structurally nonzero entry into the outputs."""
        self.batch("tuple(env.values())")
        jets = []
        for e in exprs:
            for name in e.free_vars:
                self.bound(name)
            jets.append(self.eval(e.ast))
        k, m = len(self.wrt), len(exprs)
        self.lines += [f"vals = np.empty(batch + ({m},))", "g = h = None"] + [
            f"vals[..., {c}] = {val}" for c, (val, _, _) in enumerate(jets)]
        if self.order >= 1:
            self.lines += [f"g = np.zeros(batch + ({k}, {m}))"] + [
                f"g[..., {i}, {c}] = {e}"
                for c, (_, grad, _) in enumerate(jets)
                for i, e in grad.items()]
        if self.order >= 2:  # one entry fills both triangles: symmetric
            self.lines += [f"h = np.zeros(batch + ({k}, {k}, {m}))"] + [
                "".join(f"h[..., {a}, {b}, {c}] = "
                        for a, b in {(i, j), (j, i)}) + e
                for c, (_, _, hess) in enumerate(jets)
                for (i, j), e in hess.items()]
        self.globals["others"] = tuple(exprs[1:])  # keeps keyed ids alive
        return self.define("taylor(env)", "vals, g, h")

    def eval(self, node):  # a malformed hand-built tree raises in walk order
        try:
            return self.jet(node)
        except (TypeError, ValueError, IndexError) as exc:
            return self.raise_(type(exc), *exc.args)

    def jet(self, node):
        if isinstance(node, Num):
            return self.const(np.float64(node.value)), {}, {}
        if isinstance(node, Var):
            name = node.name
            if name not in self.loaded:
                self.loaded[name] = self.let(
                    f"asarray(env[{self.bound(name)}], float)[()]")
            grad = {self.wrt.index(name): _ONE} if name in self.wrt else {}
            return self.loaded[name], grad, {}
        if isinstance(node, Neg):
            u, ug, uh = self.eval(node.arg)
            return (self.let(f"(-{u})"),
                    self.entries(ug, lambda i: f"(-{ug[i]})"),
                    self.entries(uh, lambda p: f"(-{uh[p]})"))
        if isinstance(node, BinOp):
            return self.binop(node)
        if isinstance(node, Call):
            return self.call(node)
        raise TypeError(f"not an AST node: {node!r}")

    def binop(self, node):
        if node.op == "^":
            n = _int_exponent(node.rhs)
            return (self.general_power(node) if n is None
                    else self.int_power(node, n))
        (u, ug, uh), (v, vg, vh) = lhs, rhs = (self.eval(node.lhs),
                                               self.eval(node.rhs))
        if node.op in ("+", "-"):
            join = _plus if node.op == "+" else _minus
            return (self.let(f"({u}{node.op}{v})"),
                    self.entries(sorted(ug.keys() | vg.keys()),
                                 lambda i: join(ug.get(i), vg.get(i))),
                    self.entries(sorted(uh.keys() | vh.keys()),
                                 lambda p: join(uh.get(p), vh.get(p))))
        if node.op == "*":
            return self.mul(*lhs, *rhs)
        if node.op == "/":
            self.guard(f"{v}==0.0", "division by zero", node)
            return self.div(*lhs, *rhs)
        raise TypeError(f"unknown operator {node.op}")

    def mul(self, u, ug, uh, v, vg, vh):
        val = self.let(f"({u}*{v})")
        grad = self.entries(
            sorted(ug.keys() | vg.keys()),
            lambda i: _plus(_times(ug.get(i), v), _times(u, vg.get(i))))
        hess = self.entries(self.pairs(grad), lambda p: _plus(
            _plus(_times(uh.get(p), v), _times(u, vh.get(p))),
            _plus(_times(ug.get(p[0]), vg.get(p[1])),
                  _times(ug.get(p[1]), vg.get(p[0])))))
        return val, grad, hess

    def div(self, u, ug, uh, v, vg, vh):
        val = self.let(f"({u}/{v})")
        over = lambda a: a and f"({a}/{v})"  # noqa: E731
        grad = self.entries(
            sorted(ug.keys() | vg.keys()),
            lambda i: over(_minus(ug.get(i), _times(val, vg.get(i)))))
        hess = self.entries(self.pairs(grad), lambda p: over(_minus(
            _minus(uh.get(p), _plus(_times(grad[p[0]], vg.get(p[1])),
                                    _times(grad[p[1]], vg.get(p[0])))),
            _times(val, vh.get(p)))))
        return val, grad, hess

    def int_power(self, node, n):
        arg = u, _, _ = self.eval(node.lhs)
        if n < 0:
            self.guard(f"{u}==0.0", "zero base with negative integer exponent",
                       node)
        # numpy's ** gives a float64 scalar other bits than an array, so
        # one lane powers its base as an array, as each lane of a batch does
        u = self.let(f"asarray({u}, float)")
        if n == 0:
            return self.let(f"np.ones_like({u})[()]"), {}, {}
        n0, n1, n2, n12 = map(self.const, (n, n - 1, n - 2, n * (n - 1)))
        return self.chain(arg, self.let(f"({u}**{n0})"), f"({n0}*{u}**{n1})",
                          None if n == 1 else f"({n12}*{u}**{n2})")

    def general_power(self, node):
        base = self.eval(node.lhs)
        self.guard(f"{base[0]}<=0.0", "non-integer power of non-positive base",
                   node)
        expo = self.eval(node.rhs)
        # a^b = exp(b*log a), propagated through the chain rules below
        return self.apply("exp", self.mul(*expo, *self.apply("log", base)))

    def call(self, node):
        if node.fn == "pow":
            base, expo = node.args
            return self.binop(BinOp("^", base, expo, node.offset))
        arg = self.eval(node.args[0])
        if node.fn in ("log", "sqrt"):
            self.guard(f"{arg[0]}<=0.0", f"{node.fn} of non-positive value",
                       node)
        if node.fn not in UNARY_RULES:
            return self.raise_(UnknownFunctionError,
                               f"unknown function '{node.fn}'", node.offset)
        return self.apply(node.fn, arg)

    def apply(self, name, arg):
        f, f1, f2 = UNARY_RULES[name]
        val = self.let(f"asarray({self.const(f)}({arg[0]}), float)[()]")
        # f(u) stands in for f'(u) or f''(u) where the table repeats f
        d1 = val if f1 is f else f"{self.const(f1)}({arg[0]})"
        d2 = (None if f2 is np.zeros_like
              else val if f2 is f else f"{self.const(f2)}({arg[0]})")
        return self.chain(arg, val, d1, d2)

    def chain(self, arg, val, d1, d2):
        """The jet of f(u) = val from f'(u) = d1 and f''(u) = d2, each
        emitted only if used; d2 None is a zero second derivative."""
        _, ug, uh = arg
        d1 = self.let(d1) if ug else None
        grad = self.entries(ug, lambda i: _times(d1, ug[i]))
        pairs = self.pairs(grad)
        d2 = self.let(d2) if pairs else None
        hess = self.entries(pairs, lambda p: _plus(
            _times(d2, _times(ug[p[0]], ug[p[1]])), _times(d1, uh.get(p))))
        return val, grad, hess


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

    Returns new (values, gradients, hessians) arrays of shapes batch + (m,),
    batch + (k, m) and batch + (k, k, m) for m expressions and k = len(wrt),
    where batch is the broadcast shape of the bound values; entries above
    `order` are None.  The first call for a tuple, `wrt` and order compiles
    one function for them, cached on the first expression.
    """
    key = (tuple(map(id, exprs[1:])), tuple(wrt) if order else (), order)
    fn = exprs[0].compiled.get(key)
    if fn is None:
        fn = exprs[0].compiled[key] = _Compiler(*key[1:]).function(exprs)
    return fn(env)
