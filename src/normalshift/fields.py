"""Force data in its two presentations and the defining PDE residuals.

A force field of the admitted class can be given either by a pair of
scalar functions (h, W) — W of position and speed, h of one variable —
or by a scalar a and a covector field b, all depending on position and
speed only.  The two are linked pointwise by

    b_i = -(dW/dx^i) / (dW/dv),        a = h(W) / (dW/dv),

and the covariant force components are

    F_k = a*N_k + v * sum_i b_i * (2 N^i N_k - delta^i_k),

with N the g-unit vector along the velocity and v the g-speed.  The class
is closed under these conversions exactly when the closedness equations
(antisymmetrized derivative of b along itself) and the normalizing
equations (coupling a to b) hold.  Both read the first-order jet of
(a, b) that each source gives by `jet(x, v)`, and are exposed here as
pointwise residuals of that jet so that sweeps can audit declared data.

Everything evaluates on batches: position arrays (..., n) and speed or
velocity arrays broadcast along the leading axes.

A `ForceField` on any metric is one straight-line function written by
`_compile_force` alone: that formula compiled with the jet of (h, W) or
(a, b) data, or custom components F^k(x, xdot, v) as given.  It sums with
`_dot`, a zero jet entry still enters as 0.0, and the tests hold it
bitwise to the formula, or the components, evaluated as array math.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property, partial

import numpy as np

from .errors import (
    FrameError,
    VanishingDerivativeError,
    ZeroSpeedError,
    first_bad,
    point_str,
)
from .expr import FieldExpr, _Compiler, bind, eval_tuple
from .geometry import MetricSpec, coordinate_names, metric_at, state_names

__all__ = [
    "HWPair", "ABFields", "DerivedAB", "ForceField",
    "derived_jet",
    "closedness_residual", "normalizing_residual", "collinearity_defect",
]

SPEED_EPS = 1e-12   # structural: unit velocity direction must exist
WV_EPS = 1e-10      # structural: dW/dv sits in denominators
CANCEL_ULPS = 8     # rounding left by a sum that cancels, in ulps of its terms
BATCH_POINTS = 4096  # points per evaluation batch in a grid sweep


def velocity_names(n):  # the velocity in custom force components
    return tuple(f"xdot{i + 1}" for i in range(n))


def _state_eval(exprs, n, x, v, order):
    """`eval_tuple` on the state (x, v), differentiated along x1..xn, v."""
    return eval_tuple(exprs, bind(coordinate_names(n), x, v=v),
                      state_names(n), order)


# --- the (h, W) presentation ---------------------------------------------------

@dataclass(frozen=True, eq=False)
class HWPair:
    """Scalar pair (h, W): W over x1..xn and v, h over w."""

    W: FieldExpr
    h: FieldExpr
    dimension: int

    def __post_init__(self):
        self.W.require_vars(state_names(self.dimension), "W", FrameError)
        self.h.require_vars(("w",), "h", FrameError)

    def w_jet1(self, x, v):
        """(W, dW/dx (..., n), dW/dv), with the dW/dv != 0 guard."""
        val, grad, _ = _state_eval((self.W,), self.dimension, x, v, 1)
        wv = _guard_wv(grad[..., -1, 0], x, v)
        return val[..., 0], grad[..., :-1, 0], wv

    def w_jet2(self, x, v):
        """Adds the second derivatives: (W, Wx, Wv, Wxx, Wxv, Wvv)."""
        val, grad, hess = _state_eval((self.W,), self.dimension, x, v, 2)
        wv = _guard_wv(grad[..., -1, 0], x, v)
        return (val[..., 0], grad[..., :-1, 0], wv, hess[..., :-1, :-1, 0],
                hess[..., :-1, -1, 0], hess[..., -1, -1, 0])

    def h_val(self, w):
        return eval_tuple((self.h,), {"w": w}, (), 0)[0][..., 0]

    def h_jet1(self, w):
        val, grad, _ = eval_tuple((self.h,), {"w": w}, ("w",), 1)
        return val[..., 0], grad[..., 0, 0]


def _guard_wv(wv, x, v):
    bad = np.abs(wv) <= WV_EPS
    if bad.any():
        _, (pt, vv) = first_bad(bad, x, np.asarray(v, dtype=float)[..., None])
        raise VanishingDerivativeError(
            f"dW/dv vanished (|dW/dv| <= {WV_EPS}) at "
            f"x={point_str(pt)}, v={float(vv[0])}")
    return wv


# --- the (a, b) presentation ----------------------------------------------------

@dataclass(frozen=True, eq=False)
class ABFields:
    """Scalar a and covector components b1..bn, functions of x1..xn, v.

    Velocity enters only through the speed variable v, which is what makes
    the data fiberwise spherically symmetric by construction.
    """

    a: FieldExpr
    b: tuple

    @property
    def dimension(self):
        return len(self.b)

    def __post_init__(self):
        if not self.b:
            raise FrameError("b needs at least one component")
        for i, e in enumerate((self.a,) + self.b):
            e.require_vars(state_names(self.dimension), f"b{i}" if i else "a",
                           FrameError)

    def b_values(self, x, v):
        return _state_eval(self.b, self.dimension, x, v, 0)[0]

    def ab_values(self, x, v):
        """(a, b (..., n)) from one evaluation, a's first, so a state
        where both leave their domain raises a's error."""
        f = _state_eval((self.a,) + self.b, self.dimension, x, v, 0)[0]
        return f[..., 0], f[..., 1:]

    def jet(self, x, v):
        """((a, da/dx, da/dv), (b, db/dx, db/dv)) from one evaluation, b's
        first; db/dx[..., i, j] = d b_i / d x^j."""
        f, g, _ = _state_eval(self.b + (self.a,), self.dimension, x, v, 1)
        return ((f[..., -1], g[..., :-1, -1], g[..., -1, -1]),
                (f[..., :-1], np.swapaxes(g[..., :-1, :-1], -1, -2),
                 g[..., -1, :-1]))


class DerivedAB:
    """(a, b) data computed exactly from an (h, W) pair via the quotient
    rules, including the first derivatives needed by the PDE residuals and
    the continuation machinery.  Quacks like `ABFields`."""

    def __init__(self, hw: HWPair):
        self.hw = hw
        self.dimension = hw.dimension

    def b_values(self, x, v):
        W, wx, wv = self.hw.w_jet1(x, v)
        return -wx / wv[..., None]

    def ab_values(self, x, v):  # one order-1 jet of W for both
        W, wx, wv = self.hw.w_jet1(x, v)
        return self.hw.h_val(W) / wv, -wx / wv[..., None]

    def jet(self, x, v):
        """The (a, b) jet of `ABFields.jet` from one order-2 jet of W."""
        return derived_jet(self.hw, self.hw.w_jet2(x, v))


def derived_jet(hw, w_jet2):
    """`DerivedAB(hw).jet` from W's order-2 jet `w_jet2` on the same states."""
    W, wx, wv, wxx, wxv, wvv = w_jet2
    h, hp = hw.h_jet1(W)
    a = h / wv
    ax = (hp[..., None] * wx * wv[..., None] - h[..., None] * wxv) \
        / wv[..., None] ** 2
    av = hp - h * wvv / wv ** 2
    b = -wx / wv[..., None]
    bx = -(wxx * wv[..., None, None]
           - wx[..., :, None] * wxv[..., None, :]) / wv[..., None, None] ** 2
    bv = -(wxv * wv[..., None] - wx * wvv[..., None]) / wv[..., None] ** 2
    return (a, ax, av), (b, bx, bv)


# --- velocity frame and forces ----------------------------------------------------

def _dot(a, b):
    """sum_i a_i b_i of two sequences of n columns, summed as
    np.einsum("...i,...i->...") sums a unit-stride last axis: from 0.0,
    pairwise for n = 3 and 4, and by np.einsum itself for n >= 5."""
    if len(a) >= 5:
        a, b = (np.stack(np.broadcast_arrays(*c), -1) for c in (a, b))
        return np.einsum("...i,...i->...", a, b)
    p = [s * t for s, t in zip(a, b)]
    if len(p) == 4:
        return 0.0 + ((p[0] + p[2]) + (p[1] + p[3]))
    if len(p) == 3:
        return 0.0 + ((p[0] + p[2]) + p[1])
    return 0.0 + (p[0] + p[1] if len(p) == 2 else p[0])


def _columns(a):
    return np.moveaxis(a, -1, 0)


def _guard_speed(v, x):
    slow = v <= SPEED_EPS
    if slow.any():
        _, (pt,) = first_bad(slow, x)
        raise ZeroSpeedError(
            f"velocity modulus <= {SPEED_EPS} at x={point_str(pt)}")


@dataclass(frozen=True, eq=False)
class ForceField:
    """A force source bound to a metric; callable on (x, xdot) batches.
    Its first call compiles the force of its source, of any kind, on its
    metric."""

    source: object  # HWPair-like | ABFields-like | tuple of FieldExprs
    metric: MetricSpec

    def __post_init__(self):
        n = (len(self.source) if self.kind == "custom"
             else self.source.dimension)
        if n != self.metric.dimension:
            raise FrameError(f"force source of dimension {n} on a metric of "
                             f"dimension {self.metric.dimension}")
        for k, e in enumerate(self.source if self.kind == "custom" else ()):
            e.require_vars(state_names(n) + velocity_names(n), f"F{k + 1}",
                           FrameError)

    @cached_property
    def kind(self):
        """The kind of source, inferred from it: "hw", "ab" or "custom"."""
        if hasattr(self.source, "w_jet1"):
            return "hw"
        if hasattr(self.source, "b_values"):
            return "ab"
        return "custom"

    def __reduce__(self):  # pickles without the compiled force
        return ForceField, (self.source, self.metric)

    @cached_property
    def _evaluate(self):
        return _compile_force(self.source, self.metric, self.kind)

    def __call__(self, x, xdot):
        return self._evaluate(x, xdot)


def _compile_force(src, m, kind):
    """The force of a `kind` of source `src` on the metric `m` as one
    function force(x, xdot), column by column.  Custom components read x,
    xdot and, if one reads it, v = sqrt(xdot.g.xdot) at any speed.  An
    `HWPair` and an `ABFields` inline their jets; any other source is
    called through `w_jet1` and `h_val`, or `ab_values`.  Off a euclidean
    metric the paper's force lowers the velocity with `metric_at` and
    `einsum`, and raises the force with `np.linalg.inv` and `einsum`."""
    n, pair = m.dimension, kind == "hw"
    c = _Compiler(state_names(n), 1 if type(src) is HWPair else 0)
    x, xdot = c.let("asarray(x, float)"), c.let("asarray(xdot, float)")
    xs, xdots = ([c.let(f"{a}[..., {i}][()]") for i in range(n)]
                 for a in (x, xdot))
    join, dot = ", ".join, c.const(_dot)
    if kind == "custom":
        c.loaded.update(zip(coordinate_names(n) + velocity_names(n),
                            xs + xdots))
        if any("v" in e.free_vars for e in src):
            g = c.let(f"{c.const(metric_at)}({c.const(m)}, {x})")
            quad = c.const(partial(np.einsum, "...i,...ij,...j->..."))
            c.loaded["v"] = c.let(
                f"asarray(np.sqrt({quad}({xdot}, {g}, {xdot})), float)[()]")
        c.batch(f"[{join(c.loaded.values())}]")
        F = [c.eval(e.ast)[0] for e in src]
        c.lines += [f"F = np.empty(batch + ({n},))"] + [
            f"F[..., {k}] = {f}" for k, f in enumerate(F)]
        return c.define("force(x, xdot)", "F")
    lows = xdots  # the covariant velocity
    if not m.is_euclidean:
        contract = c.const(partial(np.einsum, "...ij,...j->...i"))
        g = c.let(f"{c.const(metric_at)}({c.const(m)}, {x})")
        low = c.let(f"{contract}({g}, {xdot})")
        lows = [c.let(f"{low}[..., {i}][()]") for i in range(n)]
    v = c.let(f"np.sqrt({dot}([{join(xdots)}], [{join(lows)}]))")
    c.lines.append(f"{c.const(_guard_speed)}({v}, {x})")
    unit = [c.let(f"({d}/{v})") for d in xdots]
    lows = unit if m.is_euclidean else [c.let(f"({d}/{v})") for d in lows]
    c.loaded.update(zip(state_names(n), xs + [v]))
    c.batch(f"[{join(xs + [v])}]")
    if type(src) is HWPair:  # W's jet, the |W_v| guard, then h(W)
        W, grad, _ = c.eval(src.W.ast)
        wv = c.let(f"{c.const(_guard_wv)}({grad.get(n, '0.0')}, {x}, {v})")
        c.loaded["w"] = W
        h, wx = c.eval(src.h.ast)[0], [grad.get(i, "0.0") for i in range(n)]
    elif pair:
        k = c.const(src)
        c.lines.append(f"W, Wx, wv = {k}.w_jet1({x}, {v})")
        h, wv = c.let(f"{k}.h_val(W)"), "wv"
        wx = [c.let(f"Wx[..., {i}]") for i in range(n)]
    elif type(src) is ABFields:
        a, *b = [c.eval(e.ast)[0] for e in (src.a,) + src.b]
    else:
        c.lines.append(f"a, B = {c.const(src)}.ab_values({x}, {v})")
        a, b = "a", [c.let(f"B[..., {i}]") for i in range(n)]
    if pair:  # F_k = h N_k / W_v - v (2 (q.N) N_k - q_k), q = W_x / W_v
        # equal entries, such as the structural zeros, share one quotient
        over = cache(lambda e: c.let(f"({e}/{wv})"))
        b, lead = [over(e) for e in wx], f"(({h}*{{}})/{wv})-"
    else:  # F_k = a N_k + v (2 (b.N) N_k - b_k)
        lead = f"({a}*{{}})+"
    twice = c.let(f"(2.0*{dot}([{join(b)}], [{join(unit)}]))")
    c.lines += [f"F = np.empty(batch + ({n},))"] + [
        f"F[..., {k}] = ({lead.format(u)}({v}*(({twice}*{u})-{q})))"
        for k, (u, q) in enumerate(zip(lows, b))]
    if not m.is_euclidean:
        c.lines.append(f"F = {contract}(np.linalg.inv({g}), F)")
    return c.define("force(x, xdot)", "F")


# `_dot`'s order of summing the products {0}..{n-1} from {z}, for n <= 4
_DOT_ORDER = {1: "({z}+{0})", 2: "({z}+({0}+{1}))",
              3: "({z}+(({0}+{2})+{1}))", 4: "({z}+(({0}+{2})+({1}+{3})))"}


def continuation_rate(src, want_vw):
    """The continuation's rate(x, V, d) -> (b.d,), or (b.d, (db/dv).d)
    with want_vw, from `_compile_rate`: for an `ABFields` or a `DerivedAB`
    over an `HWPair`, by exact type, compiled once and kept with the
    compiled functions of b or W, and for any other source, per call."""
    derived = type(src) is DerivedAB and type(src.hw) is HWPair
    if not (derived or type(src) is ABFields):
        return _compile_rate(src, (), want_vw)
    exprs = (src.hw.W,) if derived else src.b
    key = (tuple(map(id, exprs[1:])), derived, src.dimension, want_vw)
    if key not in exprs[0].compiled:
        exprs[0].compiled[key] = _compile_rate(src, exprs, want_vw)
    return exprs[0].compiled[key]


def _compile_rate(src, exprs, want_vw):
    """The rate of `src` as one function: the operations of the array-math
    reference in the tests on its values, so its bits and errors in its
    order (W's domain, |W_v|, then b), and its sums, `_dot`'s for a
    unit-stride d.  It inlines the jets of `exprs`, W's or b's, and
    without them calls `src.b_values`, or `src.jet` with want_vw."""
    n, derived = src.dimension, isinstance(src, DerivedAB) and bool(exprs)
    # W's jet is one order above b's; b's own jet is in v alone
    order = want_vw + derived
    c = _Compiler(state_names(n) if derived else ("v",) * want_vw, order)
    V = c.loaded["v"] = c.let("asarray(V, float)[()]")
    used = set().union(*(e.free_vars for e in exprs))
    c.loaded.update((name, c.let(f"asarray(x[..., {i}], float)[()]"))
                    for i, name in enumerate(coordinate_names(n))
                    if name in used)
    jets = [c.eval(e.ast) for e in exprs]
    if derived:  # b = -W_x / W_v, and db/dv by `derived_jet`'s arithmetic
        _, grad, hess = jets[0]
        wv = c.let(f"{c.const(_guard_wv)}({grad.get(n, '0.0')}, x, {V})")
        wx = [grad.get(i, "0.0") for i in range(n)]
        b = [c.let(f"((-{e})/{wv})") for e in wx]
        wvv = hess.get((n, n), "0.0")
        bv = [f"((-(({hess.get((i, n), '0.0')}*{wv})-({e}*{wvv})))"
              f"/({wv}*{wv}))" for i, e in enumerate(wx)]
    elif exprs:
        b = [val for val, _, _ in jets]
        bv = [grad.get(0, "0.0") for _, grad, _ in jets]
    else:  # a called source, on the stage's own x and V
        k = c.const(src)
        c.lines.append(f"B, _, Bv = {k}.jet(x, V)[1]" if want_vw
                       else f"B = {k}.b_values(x, V)")
        b, bv = ([f"{q}[..., {i}]" for i in range(n)] for q in ("B", "Bv"))
    d = [c.let(f"d[..., {i}]") for i in range(n)]
    # sums from 0.0 * V, +0.0 on V's lanes (the stage inputs are guarded
    # positive), since the reference's b has them even where b reads no V
    zero, dot, join = c.let(f"(0.0*{V})"), c.const(_dot), ", ".join
    sums = [c.let(_DOT_ORDER[n].format(*map("({}*{})".format, q, d), z=zero)
                  if n <= 4 else f"({zero}+{dot}([{join(q)}], [{join(d)}]))")
            for q in ([b, bv] if want_vw else [b])]
    c.globals["others"] = exprs[1:]  # keeps the keyed ids alive
    return c.define("rate(x, V, d)", "".join(f"{r}, " for r in sums))


# --- PDE residuals -----------------------------------------------------------------

def closedness_residual(jet) -> np.ndarray:
    """Antisymmetric R_ij = (d_j + b_j d_v) b_i - (d_i + b_i d_v) b_j from
    a source's `jet(x, v)`; zero exactly when the covector data is closed,
    i.e. when the continuation of the speed parameter is path-independent."""
    b, dx, dv = jet[1]
    full = dx + b[..., None, :] * dv[..., :, None]  # [i, j] = (d_j + b_j d_v) b_i
    return full - np.swapaxes(full, -1, -2)


def normalizing_residual(jet) -> np.ndarray:
    """Vector r_i = (d_i + b_i d_v) a - (d b_i / d v) * a from a source's
    `jet(x, v)`; zero when the scalar a normalizes the covector data."""
    (a, ax, av), (b, _, bv) = jet
    return ax + b * av[..., None] - bv * a[..., None]


def collinearity_defect(jet, w_jet2):
    """Relative non-collinearity of d(a * W_v) with dW, from `jet` and
    `w_jet2`, in the (n+1) coordinate-gradient sense; 0 when parallel.

    A zero gradient of the product counts as collinear, and so does one
    within CANCEL_ULPS of the scale of its summands: each component is a
    sum of two products, and where they cancel exactly (a * W_v constant)
    rounding leaves only that much.  Requires a nonzero dW."""
    (a, ax, av), _ = jet
    _, wx, wv, _, wxv, wvv = w_jet2
    dW = np.concatenate([wx, wv[..., None]], axis=-1)
    # each component of d(a * W_v) is a sum of two products
    first = np.concatenate([ax * wv[..., None], (av * wv)[..., None]], axis=-1)
    second = np.concatenate([a[..., None] * wxv, (a * wvv)[..., None]],
                            axis=-1)
    dprod = first + second
    scale = np.abs(first) + np.abs(second)
    norm_w = np.linalg.norm(dW, axis=-1)
    norm_p = np.linalg.norm(dprod, axis=-1)
    nonzero = norm_p > (CANCEL_ULPS * np.finfo(float).eps
                        * np.linalg.norm(scale, axis=-1))
    unit = dW / norm_w[..., None]
    ortho = dprod - np.einsum("...i,...i->...", dprod, unit)[..., None] * unit
    safe = np.where(nonzero, norm_p, 1.0)
    return np.where(nonzero, np.linalg.norm(ortho, axis=-1) / safe,
                    np.zeros_like(norm_p))
