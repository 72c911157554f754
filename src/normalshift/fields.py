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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    FrameError,
    VanishingDerivativeError,
    ZeroSpeedError,
    first_bad,
    point_str,
)
from .expr import FieldExpr, bind, eval_tuple
from .geometry import MetricSpec, coordinate_names, metric_at

__all__ = [
    "HWPair", "ABFields", "DerivedAB", "ForceField",
    "force_hw", "force_ab",
    "closedness_residual", "normalizing_residual", "collinearity_defect",
]

SPEED_EPS = 1e-12   # structural: unit velocity direction must exist
WV_EPS = 1e-10      # structural: dW/dv sits in denominators
CANCEL_ULPS = 8     # rounding left by a sum that cancels, in ulps of its terms
BATCH_POINTS = 4096  # points per evaluation batch in a grid sweep


def _state_eval(exprs, n, x, v, order):
    """`eval_tuple` on the state (x, v), differentiated along x1..xn, v."""
    names = coordinate_names(n) + ("v",)
    return eval_tuple(exprs, bind(names[:-1], x, v=v), names, order)


# --- the (h, W) presentation ---------------------------------------------------

@dataclass(frozen=True, eq=False)
class HWPair:
    """Scalar pair (h, W): W over x1..xn and v, h over w."""

    W: FieldExpr
    h: FieldExpr
    dimension: int

    def __post_init__(self):
        allowed = set(coordinate_names(self.dimension)) | {"v"}
        extra = set(self.W.free_vars) - allowed
        if extra:
            raise FrameError(f"W uses unknown variables {sorted(extra)}")
        extra = set(self.h.free_vars) - {"w"}
        if extra:
            raise FrameError(f"h must be a function of w only, found "
                             f"{sorted(extra)}")

    def w_jet1(self, x, v):
        """(W, dW/dx (..., n), dW/dv), with the dW/dv != 0 guard."""
        val, grad, _ = _state_eval((self.W,), self.dimension, x, v, 1)
        wv = grad[..., -1, 0]
        _guard_wv(wv, x, v)
        return val[..., 0], grad[..., :-1, 0], wv

    def w_jet2(self, x, v):
        """Adds the second derivatives: (W, Wx, Wv, Wxx, Wxv, Wvv)."""
        val, grad, hess = _state_eval((self.W,), self.dimension, x, v, 2)
        grad, hess = grad[..., 0], hess[..., 0]
        wv = grad[..., -1]
        _guard_wv(wv, x, v)
        return (val[..., 0], grad[..., :-1], wv,
                hess[..., :-1, :-1], hess[..., :-1, -1], hess[..., -1, -1])

    def h_val(self, w):
        return eval_tuple((self.h,), {"w": w}, (), 0)[0][..., 0]

    def h_jet1(self, w):
        val, grad, _ = eval_tuple((self.h,), {"w": w}, ("w",), 1)
        return val[..., 0], grad[..., 0, 0]


def _guard_wv(wv, x, v):
    bad = np.abs(wv) <= WV_EPS
    if np.any(bad):
        _, (pt, vv) = first_bad(bad, x, np.asarray(v, dtype=float)[..., None])
        raise VanishingDerivativeError(
            f"dW/dv vanished (|dW/dv| <= {WV_EPS}) at "
            f"x={point_str(pt)}, v={float(vv[0])}")


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
        allowed = set(coordinate_names(self.dimension)) | {"v"}
        for label, e in [("a", self.a)] + [
                (f"b{i + 1}", c) for i, c in enumerate(self.b)]:
            extra = set(e.free_vars) - allowed
            if extra:
                raise FrameError(
                    f"{label} uses unknown variables {sorted(extra)}")

    def a_values(self, x, v):
        return _state_eval((self.a,), self.dimension, x, v, 0)[0][..., 0]

    def b_values(self, x, v):
        # value-only path: the continuation inner loop lives here
        return _state_eval(self.b, self.dimension, x, v, 0)[0]

    def b_jet(self, x, v):
        """(b (..., n), db/dx (..., n, n) [i, j] = d b_i / d x^j,
        db/dv (..., n))."""
        vals, grad, _ = _state_eval(self.b, self.dimension, x, v, 1)
        return vals, np.swapaxes(grad[..., :-1, :], -1, -2), grad[..., -1, :]

    def jet(self, x, v):
        """((a, da/dx, da/dv), b_jet) from one evaluation, b's first."""
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

    def a_values(self, x, v):
        W, _, wv = self.hw.w_jet1(x, v)
        return self.hw.h_val(W) / wv

    def b_values(self, x, v):
        W, wx, wv = self.hw.w_jet1(x, v)
        return -wx / wv[..., None]

    def b_jet(self, x, v):
        return _quotient_b(*self.hw.w_jet2(x, v))

    def jet(self, x, v):
        """((a, da/dx, da/dv), b_jet) from one order-2 jet of W."""
        W, wx, wv, wxx, wxv, wvv = w2 = self.hw.w_jet2(x, v)
        h, hp = self.hw.h_jet1(W)
        a = h / wv
        ax = (hp[..., None] * wx * wv[..., None] - h[..., None] * wxv) \
            / wv[..., None] ** 2
        av = hp - h * wvv / wv ** 2
        return (a, ax, av), _quotient_b(*w2)


def _quotient_b(W, wx, wv, wxx, wxv, wvv):
    """b_jet of b = -W_x / W_v from W's order-2 jet, by the quotient rule."""
    b = -wx / wv[..., None]
    dx = -(wxx * wv[..., None, None]
           - wx[..., :, None] * wxv[..., None, :]) / wv[..., None, None] ** 2
    dv = -(wxv * wv[..., None] - wx * wvv[..., None]) / wv[..., None] ** 2
    return b, dx, dv


# --- velocity frame and forces ----------------------------------------------------

def _velocity_frame(m: MetricSpec, x, xdot):
    """g-speed, unit direction (contravariant and covariant), and the
    metric matrix (None for a euclidean metric, which lowers nothing)."""
    x = np.asarray(x, dtype=float)
    xdot = np.asarray(xdot, dtype=float)
    if m.is_euclidean:
        g, xdot_low = None, xdot
    else:
        g = metric_at(m, x)
        xdot_low = np.einsum("...ij,...j->...i", g, xdot)
    v2 = np.einsum("...i,...i->...", xdot, xdot_low)
    v = np.sqrt(v2)
    if np.any(v <= SPEED_EPS):
        _, (pt,) = first_bad(v <= SPEED_EPS, x)
        raise ZeroSpeedError(
            f"velocity modulus <= {SPEED_EPS} at x={point_str(pt)}")
    n_up = xdot / v[..., None]
    n_low = xdot_low / v[..., None]
    return v, n_up, n_low, g


def _raise_force(m, x, f_low, g):
    if m.is_euclidean:
        return f_low
    return np.einsum("...ij,...j->...i", np.linalg.inv(g), f_low)


def force_hw(hw, m: MetricSpec, x, xdot) -> np.ndarray:
    """Contravariant force from an (h, W) pair:

        F_k = h(W) N_k / W_v - v * sum_i (W_i / W_v) (2 N^i N_k - d^i_k)

    raised with the inverse metric.  `hw` may be any object exposing
    w_jet1 and h_val (e.g. a gauge-transformed pair)."""
    v, n_up, n_low, g = _velocity_frame(m, x, xdot)
    W, wx, wv = hw.w_jet1(x, v)
    h = hw.h_val(W)
    quot = wx / wv[..., None]
    # sum_i quot_i * (2 N^i N_k - delta^i_k)
    corr = (2.0 * np.einsum("...i,...i->...", quot, n_up)[..., None] * n_low
            - quot)
    f_low = h[..., None] * n_low / wv[..., None] - v[..., None] * corr
    return _raise_force(m, x, f_low, g)


def force_ab(ab, m: MetricSpec, x, xdot) -> np.ndarray:
    """Contravariant force from (a, b) data:

        F_k = a N_k + v * sum_i b_i (2 N^i N_k - d^i_k)
    """
    v, n_up, n_low, g = _velocity_frame(m, x, xdot)
    a = ab.a_values(x, v)
    b = ab.b_values(x, v)
    corr = (2.0 * np.einsum("...i,...i->...", b, n_up)[..., None] * n_low
            - b)
    f_low = a[..., None] * n_low + v[..., None] * corr
    return _raise_force(m, x, f_low, g)


def custom_force(exprs, m: MetricSpec, x, xdot) -> np.ndarray:
    """Contravariant force components given directly as expressions of
    x1..xn, xdot1..xdotn and the g-speed v (zero speed allowed unless an
    expression references v)."""
    x = np.asarray(x, dtype=float)
    xdot = np.asarray(xdot, dtype=float)
    n = x.shape[-1]
    env = bind(coordinate_names(n), x,
               **bind([f"xdot{i + 1}" for i in range(n)], xdot))
    if any("v" in e.free_vars for e in exprs):
        g = metric_at(m, x)
        env["v"] = np.sqrt(np.einsum("...i,...ij,...j->...", xdot, g, xdot))
    return eval_tuple(exprs, env, (), 0)[0]


@dataclass(frozen=True, eq=False)
class ForceField:
    """A force source bound to a metric; callable on (x, xdot) batches."""

    source: object  # HWPair-like | ABFields-like | tuple of FieldExprs
    metric: MetricSpec

    @cached_property
    def kind(self):
        """The kind of source, inferred from it: "hw", "ab" or "custom"."""
        if hasattr(self.source, "w_jet1"):
            return "hw"
        if hasattr(self.source, "b_values"):
            return "ab"
        return "custom"

    def __call__(self, x, xdot):
        if self.kind == "hw":
            return force_hw(self.source, self.metric, x, xdot)
        if self.kind == "ab":
            return force_ab(self.source, self.metric, x, xdot)
        return custom_force(self.source, self.metric, x, xdot)


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
