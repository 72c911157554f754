"""Global integration machinery: continuation of the speed parameter along
paths, its derivative with respect to the initial datum, inversion,
f-norm estimation, monodromy maps induced by deck translations, gauge
transformations of (h, W) pairs, and extraction of the one-variable
factor h.

The central object is the first-order system

    dV/dt = sum_i b_i(x(t), V) dx^i/dt,        V(t0) = w > 0,

integrated along chart paths by fixed-step RK4 (`dynamics.rk4`, given
a rate that guards its own stage inputs).  `fields.continuation_rate`
gives each source's rate as one compiled function, which the tests hold
bit for bit to the rate written out as array math.  A parametric path,
like `shift`'s nu sweep, is stepped by `_curve_steps`, which evaluates
the curve on the stages of a block of steps at once.
The system's derivative with respect to the initial datum,

    V_w(t) = exp( integral of sum_i (db_i/dv)(x, V) dx^i/dt ),

is integrated jointly (in log form), which keeps it positive by
construction and leaves V bitwise as a run without it computes it (b's
values in the jet V_w needs are its order-0 values).  So a run carries V_w
only where its caller reads it, and `path_independence_defect` takes path
1 as the trace `continue_V` made.  The flow runs backward as well as
forward: continued from (x, v) back to p0 along the straight chart
segment, as `invert_V(ab, p0, x, v)` does, it ends at the global scalar
W(x, v) with the normalization W(p0, v) = v, and its V_w there is W_v.

Step counts scale with the chart length of each path segment, so `dt`
means "step per unit chart length" for polylines and "step in the curve
parameter" for parametric paths.

Monotone maps of the positive axis (sampled monodromy maps, closed-form
reparametrizations) are inverted by one routine, `_invert_increasing`:
bisection of log w to adjacent floats.  Sampled maps interpolate their
tables with the monotone piecewise-cubic `_pchip` of Fritsch & Carlson.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import fields
from .errors import (
    CompatibilityError,
    ContinuationError,
    DeckInvarianceError,
    NormalShiftError,
    PathError,
    PositivityError,
    TableError,
    first_bad,
)
from .dynamics import _step_count, rk4
from .expr import FieldExpr, eval_tuple
from .fields import (closedness_residual, continuation_rate,
                     normalizing_residual)
from .geometry import (
    DECK_TOL,
    CoveringManifold,
    MetricSpec,
    deck_apply,
    inverse_metric_at,
    relative_deviation,
)

__all__ = [
    "PathSpec", "ContinuationTrace", "AdmissibleF", "MonodromyMap",
    "ClosedFormRho", "TransformedHW", "FNormEstimate", "ExtractedH",
    "continue_V", "path_independence_defect",
    "invert_V", "f_norm_estimate",
    "monodromy", "gauge_transform", "extract_h",
]


# --- paths -----------------------------------------------------------------------

PARAMETRIC_SAMPLES = 64  # parameters at which a parametric path is sampled


@dataclass(frozen=True, eq=False)
class PathSpec:
    """Chart path: a polyline through given points, or a parametric curve.

    Polylines with a single point are allowed and denote the degenerate
    path (useful at the continuation base point).  Parametric curves are
    sanity-sampled at construction, at PARAMETRIC_SAMPLES parameters:
    components and tangents must stay finite over the parameter interval.
    """

    kind: str  # "polyline" | "parametric"
    points: tuple = ()
    exprs: tuple = ()
    t0: float = 0.0
    t1: float = 1.0

    @staticmethod
    def polyline(points) -> "PathSpec":
        pts = tuple(tuple(float(c) for c in p) for p in points)
        if not pts:
            raise PathError("polyline needs at least one point")
        for i, p in enumerate(pts):
            if len(p) != len(pts[0]):
                raise PathError(f"polyline point {i} {p} has {len(p)} "
                                f"coordinates, point 0 has {len(pts[0])}")
            if not np.isfinite(p).all():
                raise PathError(f"polyline point {i} {p} is not finite")
        for a, b in zip(pts, pts[1:]):
            if max(abs(p - q) for p, q in zip(a, b)) == 0.0:
                raise PathError(f"consecutive polyline points coincide: {a}")
        return PathSpec("polyline", points=pts)

    @staticmethod
    def parametric(exprs, t0, t1) -> "PathSpec":
        exprs = tuple(exprs)
        if not exprs:
            raise PathError("parametric path needs at least one component")
        for i, e in enumerate(exprs):
            e.require_vars(("t",), f"parametric component x{i + 1}", PathError)
        if not t1 > t0:
            raise PathError(f"need t1 > t0, got [{t0}, {t1}]")
        path = PathSpec("parametric", exprs=exprs, t0=float(t0),
                        t1=float(t1))
        ts = np.linspace(t0, t1, PARAMETRIC_SAMPLES)
        with np.errstate(over="ignore", invalid="ignore"):
            x, xd = path._parametric_eval(ts)
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(xd))):
            raise PathError("parametric path has unbounded components or "
                            "tangent on the interval")
        return path

    def start(self):
        if self.kind == "polyline":
            return np.asarray(self.points[0], dtype=float)
        return self._parametric_eval(np.asarray(self.t0))[0]

    def end(self):
        if self.kind == "polyline":
            return np.asarray(self.points[-1], dtype=float)
        return self._parametric_eval(np.asarray(self.t1))[0]

    def sample(self):
        """Polyline points, or the curve at PARAMETRIC_SAMPLES parameters."""
        if self.kind == "polyline":
            return np.asarray(self.points, dtype=float)
        ts = np.linspace(self.t0, self.t1, PARAMETRIC_SAMPLES)
        return self._parametric_eval(ts)[0]

    def reversed(self) -> "PathSpec":
        if self.kind == "polyline":
            return PathSpec("polyline", points=tuple(reversed(self.points)))
        # a parametric curve runs backward from t1 to t0
        return PathSpec("parametric", exprs=self.exprs, t0=self.t1,
                        t1=self.t0)

    def _parametric_eval(self, ts):
        x, xd, _ = eval_tuple(self.exprs, {"t": ts}, ("t",), 1)
        return x, xd[..., 0, :]


# --- continuation core -------------------------------------------------------------

@dataclass(eq=False)
class ContinuationTrace:
    """Samples of the continued parameter along a path."""

    t: np.ndarray          # (L,) cumulative chart-length / curve parameter
    x: np.ndarray          # (L, n)
    V: np.ndarray          # (L,) + lane shape
    Vw: np.ndarray | None  # same shape as V, or None

    @property
    def end_V(self):
        return self.V[-1]

    @property
    def end_Vw(self):
        return None if self.Vw is None else self.Vw[-1]


def require_positive(x, what):
    """x as floats; PositivityError names its first entry off (0, inf)."""
    x = np.asarray(x, dtype=float)
    bad = ~((x > 0.0) & (x < np.inf))
    if bad.any():
        raise PositivityError(
            f"{what} must be finite and positive, got {float(x[bad][0])}")
    return x


def _guard_positive(V, t, x):
    """Raise for the first lane of V off the positive axis, naming that
    lane and its own point among the stage points x (..., n)."""
    if V.ndim == 0 and 0.0 < V < np.inf:  # one lane: no array reduction
        return
    ok = (V > 0.0) & (V < np.inf)   # False for NaN as well
    if np.count_nonzero(ok) < ok.size:  # half the cost of ok.all()
        lane, (point,) = first_bad(~ok, x)
        where = f" in lane {lane}" if lane else ""
        raise ContinuationError(
            "continued parameter left the positive axis" + where, t=t,
            point=point)


def _rk4_run(ab, steps, V, want_vw):
    """Classical RK4 (`dynamics.rk4`) for dV = b(x, V) . dx along a path,
    jointly with d(log V_w) = (db/dv)(x, V) . dx when want_vw.

    `steps` yields (h, t0, t1, xs, ds) per step: the signed step h in the
    path parameter, the parameter at the step's start and end, the stage
    points xs = (start, middle, end) and the path tangents ds at them.
    Yields (t1, end point, V, log V_w or None) after each step.

    Every stage input is guarded, not only the step ends: a step can
    cross a square-root zero of V, where the stages go negative, and land
    back on the positive axis.  The rate guards its own input at stages
    1 and 2; stage 0 is the previous step's end, guarded here."""
    evaluate = continuation_rate(ab, want_vw)
    y = (V, np.zeros_like(V)) if want_vw else (V,)
    for h, t0, t1, xs, ds in steps:
        ts = (t0, 0.5 * (t0 + t1), t1)

        def rate(stage, y):
            x, t = xs[stage], ts[stage]
            if stage:
                _guard_positive(y[0], t, x)
            try:
                return evaluate(x, y[0], ds[stage])
            except NormalShiftError as err:
                # a failed batch names no lane: give the point only when
                # all lanes share it
                raise ContinuationError(
                    f"field evaluation failed: {err}", t=t,
                    point=x if np.ndim(x) == 1 else None) from err

        y = rk4(rate, y, h)
        _guard_positive(y[0], t1, xs[2])
        yield t1, xs[2], y[0], y[1] if want_vw else None


def _polyline_steps(pts, dt):
    """Steps along one polyline (K+1, n), or along a batch of polylines
    (P, K+1, n) whose lanes are the last axis of V.  Each segment takes
    round(length / dt) steps in its own fraction; the path parameter is
    chart length (the longest of a batch).  Step j's stage points are
    p + s * delta at s = j*h, j*h + h/2 and j*h + h, computed for a whole
    segment in one array expression."""
    t = 0.0
    for seg in range(pts.shape[-2] - 1):
        p = pts[..., seg, :]
        delta = pts[..., seg + 1, :] - p
        length = float(np.max(np.linalg.norm(
            np.atleast_2d(delta), axis=-1)))
        nsub = max(1, _step_count(length, dt))
        h = 1.0 / nsub
        dl = length / nsub
        s = np.arange(nsub) * h
        frac = np.stack([s, s + 0.5 * h, s + h], axis=1)
        stages = p + frac.reshape(frac.shape + (1,) * p.ndim) * delta
        for xs in stages:
            yield h, t, t + dl, xs, (delta, delta, delta)
            t += dl


def _curve_steps(curve, s0, s1, ds, block):
    """Steps in a curve parameter from s0 to s1, in either direction (the
    step is signed); `curve` maps the stage parameters (steps, 3) of
    `block` steps at a time to their points and tangents."""
    nsub = max(1, _step_count(abs(s1 - s0), ds))
    h = (s1 - s0) / nsub
    for lo in range(0, nsub, block):
        a = s0 + np.arange(lo, min(lo + block, nsub)) * h
        stages = np.stack([a, a + 0.5 * h, a + h], axis=-1)  # (steps, 3)
        x, tangent = curve(stages)
        yield from zip([h] * len(a), a, stages[:, 2], x, tangent)


def _continue(ab, path, w0, dt, want_vw, store):
    require_positive(dt, "step size dt")
    V = np.array(require_positive(w0, "initial datum"))
    if isinstance(path, PathSpec) and path.kind == "parametric":
        start = (path.t0, path.start())
        steps = _curve_steps(path._parametric_eval, path.t0, path.t1, dt,
                             fields.BATCH_POINTS // 3)
    else:
        pts = np.asarray(path.points if isinstance(path, PathSpec) else path,
                         dtype=float)
        start = (0.0, pts[..., 0, :])
        steps = _polyline_steps(pts, dt)
    run = _rk4_run(ab, steps, V, want_vw)
    rows = [(*start, V, np.zeros_like(V) if want_vw else None)]
    rows += run if store else deque(run, maxlen=1)
    t, x, Vs, logZ = zip(*rows)
    return ContinuationTrace(
        np.asarray(t), np.asarray(x), np.asarray(Vs),
        np.asarray([np.exp(z) for z in logZ]) if want_vw else None)


def continue_V(ab, path: PathSpec, w0, dt=1e-3) -> ContinuationTrace:
    """Continue the positive parameter V from V(start) = w0 along the path.

    Returns the sampled trace including the endpoint value, with the
    datum derivative V_w (always positive) from the same joint
    integration."""
    return _continue(ab, path, w0, dt, want_vw=True, store=True)


def path_independence_defect(ab, trace: ContinuationTrace, path2: PathSpec,
                             dt=1e-3):
    """|V_path1(end) - V_path2(end)|, path 1 given by its trace from
    `continue_V`: path 2 is continued from trace.V[0] and must share both
    endpoints of trace.x (to 1e-12 relative to the paths' coordinates)."""
    require_shared_ends(trace.x, path2)
    v2 = _continue(ab, path2, trace.V[0], dt, want_vw=False, store=False).end_V
    return float(np.max(np.abs(trace.end_V - v2)))


def require_shared_ends(x, path2: PathSpec):
    """PathError unless path2 starts at x[0] and ends at x[-1], the ends
    of a path through the points x (L, n), to 1e-12 relative to both
    paths' coordinates."""
    span = (x, path2.sample())
    if (relative_deviation(x[0], path2.start(), *span) > 1e-12
            or relative_deviation(x[-1], path2.end(), *span) > 1e-12):
        raise PathError("paths do not share start and end points")


# --- inversion: w = W(x, v) ----------------------------------------------------------

def _invert_on_path(ab, path, v_targets, dt, want_vw):
    """(W, W_v) at the path end for each target v, W_v None unless
    want_vw: one continuation run backward from (end, v) to the start.
    Its end value is W and its V_w is W_v.  Batches of polylines
    (P, K, n) take targets (..., P)."""
    back = (path.reversed() if isinstance(path, PathSpec)
            else np.asarray(path, dtype=float)[..., ::-1, :])
    tr = _continue(ab, back, v_targets, dt, want_vw, store=False)
    return tr.end_V, tr.end_Vw


def invert_V(ab, p0, x, v, dt=1e-3):
    """The global scalar W(x, v) under the normalization W(p0, v) = v:
    the datum w with V(x, w) = v, found by running the continuation
    backward from (x, v) to the base point p0 along the straight chart
    segment.  Raises ContinuationError when that run leaves the positive
    axis (no datum reaches v at x)."""
    require_positive(v, "target speed")
    p0, x = tuple(map(float, p0)), tuple(map(float, x))
    path = PathSpec.polyline([p0, x] if x != p0 else [p0])
    w, _ = _invert_on_path(ab, path, v, dt, want_vw=False)
    return float(w) if np.ndim(v) == 0 else w


# --- f-norm ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class AdmissibleF:
    """Positive weight f(v), spot-checked on a log grid.  The antiderivative
    of 1/f is assumed to diverge at both ends of the positive axis, which
    no numerical check can verify."""

    f: FieldExpr

    def __post_init__(self):
        self.f.require_vars(("v",), "f", PositivityError)
        v = np.logspace(-6, 6, 25)
        with np.errstate(over="ignore", invalid="ignore"):
            vals = self.values(v)
        bad = ~((vals > 0.0) & np.isfinite(vals))
        if bad.any():
            raise PositivityError(f"f is not finite and positive at "
                                  f"v={v[np.argmax(bad)]:.3e}")

    def values(self, v):
        return eval_tuple((self.f,), {"v": v}, (), 0)[0][..., 0]


@dataclass(frozen=True)
class FNormEstimate:
    value: float
    argmax_x: tuple
    argmax_v: float
    boundary_suspicion: bool


def f_norm_estimate(ab, f: AdmissibleF, m: MetricSpec, x_grid, v_grid) \
        -> FNormEstimate:
    """Grid maximum of |b|_g / f(v): an explicit lower bound for the
    supremum over all states.  When the maximizer sits at a v-grid edge
    and strictly dominates the interior, the estimate is flagged as a
    divergence suspicion."""
    x = np.asarray(x_grid, dtype=float)
    v = np.asarray(v_grid, dtype=float)
    if x.size == 0 or v.size == 0:
        raise PositivityError("f-norm estimation needs nonempty grids")
    b = ab.b_values(x[:, None, :], v[None, :])          # (M, K, n)
    ginv = inverse_metric_at(m, x)                       # (M, n, n)
    norm_b = np.sqrt(np.einsum("mki,mij,mkj->mk", b, ginv, b))
    ratio = norm_b / f.values(v)[None, :]
    flat = int(np.argmax(ratio))
    mi, ki = np.unravel_index(flat, ratio.shape)
    value = float(ratio[mi, ki])
    suspicion = False
    if len(v) >= 3 and ki in (0, len(v) - 1):
        interior = float(np.max(ratio[:, 1:-1]))
        suspicion = value > interior * (1.0 + 1e-9)
    return FNormEstimate(value, tuple(float(c) for c in x[mi]),
                         float(v[ki]), suspicion)


# --- finite-difference weights on arbitrary nodes --------------------------------------

def fd_weights(z, nodes):
    """Weights for the first derivative at z from the given nodes
    (Fornberg recursion, carried to order 1); exact on polynomials up to
    len(nodes)-1."""
    x = np.asarray(nodes, dtype=float)
    n = len(x)
    c = np.zeros((n, 2))  # columns: value and first-derivative weights
    c1 = 1.0
    c4 = x[0] - z
    c[0, 0] = 1.0
    for i in range(1, n):
        c2 = 1.0
        c5 = c4
        c4 = x[i] - z
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                c[i, 1] = c1 * (c[i - 1, 0] - c5 * c[i - 1, 1]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            c[j, 1] = (c4 * c[j, 1] - c[j, 0]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, 1]


def fd_matrix(nodes, width):
    """Dense first-derivative matrix on the given nodes: `width`-point
    stencils (at most len(nodes)), centered where possible and skewed at
    the edges."""
    m = len(nodes)
    width = min(width, m)
    d = np.zeros((m, m))
    for i in range(m):
        lo = min(max(i - width // 2, 0), m - width)
        d[i, lo:lo + width] = fd_weights(nodes[i], nodes[lo:lo + width])
    return d


# --- monotone maps of the positive axis ---------------------------------------------

def _pchip(x, y):
    """Monotone piecewise-cubic Hermite interpolant of the table (x, y)
    (Fritsch & Carlson, SIAM J. Numer. Anal. 17 (1980) 238-246): interior
    slopes are the weighted harmonic means of the adjacent secants (Fritsch
    & Butland, SIAM J. Sci. Stat. Comput. 5 (1984) 300-304), zero where
    they differ in sign or one vanishes.  Two nodes give the line.  Returns
    the evaluator on [x[0], x[-1]]."""
    h = np.diff(x)
    m = np.diff(y) / h
    d = np.full(len(x), m[0])
    if len(x) > 2:
        w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
        flat = ((np.sign(m[1:]) != np.sign(m[:-1]))
                | (m[1:] == 0.0) | (m[:-1] == 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            mean = 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2))
        d[1:-1] = np.where(flat, 0.0, mean)
        # three-point end slopes (h0, m0 the outer interval), zeroed where
        # their sign differs from m0's, capped at 3 m0 where m changes sign
        h0, h1, m0, m1 = h[[0, -1]], h[[1, -2]], m[[0, -1]], m[[1, -2]]
        end = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        cap = (np.sign(m0) != np.sign(m1)) & (np.abs(end) > 3.0 * np.abs(m0))
        d[[0, -1]] = np.where(np.sign(end) != np.sign(m0), 0.0,
                              np.where(cap, 3.0 * m0, end))
    # the cubic of interval k in s = q - x[k]: c0 + c1 s + c2 s^2 + c3 s^3
    t = (d[:-1] + d[1:] - 2 * m) / h
    c0, c1, c2, c3 = y[:-1], d[:-1], (m - d[:-1]) / h - t, t / h

    def evaluate(q):
        k = np.clip(np.searchsorted(x, q, side="right") - 1, 0, len(h) - 1)
        s = q - x[k]
        return c0[k] + c1[k] * s + c2[k] * (s * s) + c3[k] * (s * s * s)

    return evaluate


def _invert_increasing(f, y, lo, hi):
    """The w in [lo, hi] with f(w) = y, for an increasing f with
    f(lo) <= y <= f(hi) and lo > 0: the geometric mean of two adjacent
    floats that bracket the root, after eighty bisections of log w: 63
    halve the under 2^11 binades of [tiny, huge] to one float's 2^-52."""
    y = np.asarray(y, dtype=float)
    a, b = np.full(y.shape, lo), np.full(y.shape, hi)
    for _ in range(80):
        mid = _geometric_mean(a, b)
        below = np.asarray(f(mid)) < y
        a, b = np.where(below, mid, a), np.where(below, b, mid)
    w = _geometric_mean(a, b)
    return float(w) if np.ndim(y) == 0 else w


def _geometric_mean(a, b):
    """sqrt(a * b) for 0 < a <= b, b normal: a scaled exactly by a power
    of two keeps the product from overflow and underflow, and the result
    is bitwise np.sqrt(a * b) wherever that product is normal."""
    k = (np.frexp(a)[1] + np.frexp(b)[1]) // 2
    return np.ldexp(np.sqrt(np.ldexp(a, -2 * k) * b), k)


# --- monodromy maps ----------------------------------------------------------------------

@dataclass(eq=False)
class MonodromyMap:
    """Sampled map of the continuation parameter induced by a deck word,
    with a monotone (PCHIP) interpolant.  Strictly increasing, from
    positive w to positive values.  The table is validated at
    construction; the interpolants of the map and of its derivative are
    built on first evaluation."""

    word: str
    w: np.ndarray
    rho: np.ndarray

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=float)
        self.rho = np.asarray(self.rho, dtype=float)
        table = f"monodromy table '{self.word}'"
        if self.w.ndim != 1 or self.rho.shape != self.w.shape:
            raise TableError(
                f"{table}: w and rho must be 1-D of equal length, got "
                f"shapes {self.w.shape} and {self.rho.shape}")
        if len(self.w) < 2:
            raise TableError(f"{table}: needs at least 2 nodes, got "
                             f"{len(self.w)}")
        for name, vals in (("w", self.w), ("rho", self.rho)):
            bad = ~((vals > 0.0) & (vals < np.inf))   # NaN as well
            if bad.any():
                node = int(np.argmax(bad))
                raise TableError(f"{table}: {name} is not finite and "
                                 f"positive at node {node} ({vals[node]})")
        if np.any(np.diff(self.w) <= 0.0) or np.any(np.diff(self.rho) <= 0.0):
            raise TableError(f"{table}: w and rho must be strictly "
                             "increasing")

    @cached_property
    def _interp(self):
        return _pchip(self.w, self.rho)

    @cached_property
    def _dinterp(self):
        # the table's derivative at each node from five-point stencils
        return _pchip(self.w, fd_matrix(self.w, 5) @ self.rho)

    def _clip(self, q, nodes):
        """q clipped to [nodes[0], nodes[-1]], which it may overshoot by
        rounding (1e-12 relative) only."""
        q = np.asarray(q, dtype=float)
        bad = (q < nodes[0] * (1 - 1e-12)) | (q > nodes[-1] * (1 + 1e-12))
        if bad.any():
            raise TableError(
                f"monodromy table '{self.word}': {float(q[bad][0])!r} is "
                f"outside the sampled range [{nodes[0]:.6g}, {nodes[-1]:.6g}]")
        return np.clip(q, nodes[0], nodes[-1])

    def __call__(self, w):
        out = self._interp(self._clip(w, self.w))
        return float(out) if np.ndim(w) == 0 else out

    def derivative(self, w):
        out = self._dinterp(self._clip(w, self.w))
        return float(out) if np.ndim(w) == 0 else out

    def inverse(self, y):
        return _invert_increasing(self._interp, self._clip(y, self.rho),
                                  self.w[0], self.w[-1])


def monodromy(ab, manifold: CoveringManifold, word, p0, w_grid,
              dt=1e-3) -> MonodromyMap:
    """Map rho with W(g(p), v) = rho(W(p, v)) for the deck word g.

    Realized through the global scalar: rho(w) = W(g(p0), w), computed by
    inverting the continuation from p0 along the straight cover path.
    The covector data must be invariant under the deck word (spot-checked
    to DECK_TOL relative)."""
    p0 = np.asarray(p0, dtype=float)
    w_grid = require_positive(w_grid, "w grid entry")
    if w_grid.size < 2:
        raise TableError(f"monodromy table '{word}': needs at least 2 "
                         f"nodes, got {w_grid.size}")
    if np.any(np.diff(w_grid) <= 0.0):
        raise TableError("w grid must be increasing")
    target = deck_apply(manifold, word, p0)
    _check_deck_invariance(ab, manifold, word, p0)
    rho = invert_V(ab, p0, target, w_grid, dt=dt)
    return MonodromyMap(str(word), w_grid, np.atleast_1d(rho))


def _check_deck_invariance(ab, manifold, word, p0):
    n = manifold.metric.dimension
    offsets = np.concatenate([np.zeros((1, n)), np.eye(n) * 0.37,
                              np.full((1, n), -0.51)])
    pts = p0[None, :] + offsets
    moved = deck_apply(manifold, word, pts)
    for v in (0.5, 1.0, 2.3):
        err = relative_deviation(ab.b_values(moved, v), ab.b_values(pts, v))
        if err > DECK_TOL:
            raise DeckInvarianceError(
                f"covector data is not invariant under deck word "
                f"'{word}' (max relative deviation {err:.3e} at v={v})")


# --- gauge transformations ------------------------------------------------------------

class ClosedFormRho:
    """Reparametrization of the positive axis given in closed form; exact
    derivatives via the expression jets, inverse by `_invert_increasing`
    on a bracket widened until it encloses the targets."""

    def __init__(self, expr: FieldExpr):
        self.expr = expr.require_vars(("w",), "rho", TableError)

    def __call__(self, w):
        out = eval_tuple((self.expr,), {"w": w}, (), 0)[0][..., 0]
        return float(out) if np.ndim(w) == 0 else out

    def derivative(self, w):
        out = eval_tuple((self.expr,), {"w": w}, ("w",), 1)[1][..., 0, 0]
        return float(out) if np.ndim(w) == 0 else out

    def inverse(self, y):
        """rho^-1 on a bracket that starts at [1e-8, 1e8] and widens by
        that ratio until it encloses every target; raises if it reaches
        the extreme normal floats first (rho misses the target, or is not
        finite there).  A value that overflows to inf lies above every
        target, which is all the bracket and the bisection ask of it."""
        y = np.asarray(y, dtype=float)
        lo, hi = 1e-8, 1e8
        tiny, huge = float(np.finfo(float).tiny), float(np.finfo(float).max)
        while not self(lo) <= np.min(y):
            if lo == tiny:
                raise TableError(f"rho does not reach {float(np.min(y))!r} "
                                 f"for w down to {tiny!r}")
            lo = max(lo * 1e-8, tiny)
        with np.errstate(over="ignore"):
            while not self(hi) >= np.max(y):
                if hi == huge:
                    raise TableError(
                        f"rho does not reach {float(np.max(y))!r} for w up "
                        f"to {huge!r}")
                hi = min(hi * 1e8, huge)
            return _invert_increasing(self, y, lo, hi)


@dataclass(eq=False)
class TransformedHW:
    """Gauge-transformed pair: W' = rho(W), h'(w) = h(rho^-1(w)) *
    rho'(rho^-1(w)).  Exposes `w_jet1` and `h_val`, what a force and the
    values of `DerivedAB` read, so forces evaluate through it unchanged.
    It has no second-order jet of W': that needs rho'', which neither a
    `MonodromyMap` nor a `ClosedFormRho` provides, so `w_jet2` raises."""

    base: object  # HWPair-like
    rho: object   # MonodromyMap | ClosedFormRho

    @property
    def dimension(self):
        return self.base.dimension

    def w_jet1(self, x, v):
        W, wx, wv = self.base.w_jet1(x, v)
        r = np.asarray(self.rho(W))
        rp = np.asarray(self.rho.derivative(W))
        return r, rp[..., None] * wx, rp * wv

    def w_jet2(self, x, v):
        raise TableError("a gauge-transformed pair has no second-order jet "
                         "of W' = rho(W): rho'' is not provided")

    def h_val(self, w):
        """h'(w) = h(y) rho'(y) at y = rho^-1(w).  Forces call it at w =
        rho(W), where h(W) rho'(W) from `w_jet1`'s W would be cheaper, but
        would make `gauge` (the forces of (h, W) and (h', W') agree) partly
        tautological; inverting rho keeps h' independent of W."""
        y = self.rho.inverse(w)
        return np.asarray(self.base.h_val(y)) * np.asarray(
            self.rho.derivative(y))


def gauge_transform(hw, rho) -> TransformedHW:
    """Transformed (h', W') evaluators for a monodromy map or closed-form
    reparametrization; leaves the force field unchanged."""
    if isinstance(rho, FieldExpr):
        rho = ClosedFormRho(rho)
    if not (hasattr(rho, "derivative") and hasattr(rho, "inverse")):
        raise TableError("rho must provide value, derivative and inverse")
    return TransformedHW(hw, rho)


# --- extraction of h ---------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ExtractedH:
    v: np.ndarray
    h: np.ndarray
    consistency_defect: float
    check_points: tuple


def extract_h(ab, p0, v_grid, dt=1e-2):
    """One-variable factor h sampled on v_grid, under the normalization
    W(p0, v) = v (which makes h(v) the value of a at the base point).

    Requires (a, b) to satisfy the closedness and normalizing equations
    (spot-checked).  Consistency of the extraction away from the base
    point - the product a * W_v must equal h(W) everywhere - is verified
    at a handful of chart points through the continuation machinery, and
    the maximal defect is reported."""
    residual_tol = 1e-6
    p0 = np.asarray(p0, dtype=float)
    v_grid = np.asarray(v_grid, dtype=float)
    n = ab.dimension

    spots = p0[None, :] + np.concatenate(
        [np.zeros((1, n)), 0.4 * np.eye(n), -0.3 * np.eye(n)])
    v_spots = np.array([0.7, 1.0, 1.9])
    jet = ab.jet(spots[:, None, :], v_spots[None, :])
    closed = closedness_residual(jet)
    normal = normalizing_residual(jet)
    worst = max(float(np.max(np.abs(closed))), float(np.max(np.abs(normal))))
    if worst > residual_tol:
        raise CompatibilityError(
            f"(a, b) violates the defining equations (residual {worst:.3e} "
            f"> {residual_tol:.1e}); the factor h is ill-defined")

    h_vals = ab.ab_values(p0, v_grid)[0]  # of v_grid's shape

    ends = p0 + np.vstack([0.5 * np.eye(n), 0.5 ** np.arange(n)])
    paths = np.stack([np.broadcast_to(p0, ends.shape), ends], axis=1)
    v_sub = v_grid[:: max(1, len(v_grid) // 4)]
    targets = np.broadcast_to(v_sub[:, None], (len(v_sub), len(ends)))
    w, w_v = _invert_on_path(ab, paths, targets, dt, want_vw=True)
    product = ab.ab_values(ends, targets)[0] * w_v
    h_at_w = ab.ab_values(p0, w)[0]
    defect = float(np.max(np.abs(product - h_at_w)))
    return ExtractedH(v_grid, h_vals, defect, tuple(map(tuple, ends)))
