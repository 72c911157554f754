"""The paper's force and the continuation's rate written out as array
math: the oracles that the compiled `ForceField` kernels and continuation
rates are held to, bit for bit and error for error.

    F_k = a N_k + v * sum_i b_i (2 N^i N_k - delta^i_k)

with N the g-unit vector along the velocity and v the g-speed, lowered
and raised with the metric.  `force_hw` reads an (h, W) pair through
`w_jet1` and `h_val`, `force_ab` reads (a, b) data through `ab_values`;
both sum with `fields._dot`, as the kernels do.  `custom_force`
evaluates custom components with `eval_tuple` on x, xdot and, where one
reads it, the g-speed v, at any speed.  `reference_rate` gives
b.d, and (db/dv).d for V_w: from b alone for `ABFields` data and a
`DerivedAB` over an `HWPair`, where it never evaluates a or h, and from
the source's own `b_values` or `jet` for any other source.
"""

import numpy as np

from normalshift.expr import bind, eval_tuple
from normalshift.fields import (
    ABFields,
    DerivedAB,
    HWPair,
    _columns,
    _dot,
    _guard_speed,
    velocity_names,
)
from normalshift.geometry import MetricSpec, coordinate_names, metric_at


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
    v = np.sqrt(_dot(_columns(xdot), _columns(xdot_low)))
    _guard_speed(v, x)
    n_up = xdot / v[..., None]
    n_low = n_up if g is None else xdot_low / v[..., None]
    return v, n_up, n_low, g


def _raise_force(f_low, g):
    if g is None:  # a euclidean metric
        return f_low
    return np.einsum("...ij,...j->...i", np.linalg.inv(g), f_low)


def force_hw(hw, m: MetricSpec, x, xdot) -> np.ndarray:
    """Contravariant force from an (h, W) pair:

        F_k = h(W) N_k / W_v - v * sum_i (W_i / W_v) (2 N^i N_k - d^i_k)

    raised with the inverse metric.  `hw` may be any object exposing
    w_jet1 and h_val (e.g. a gauge-transformed pair)."""
    v, n_up, n_low, g = _velocity_frame(m, x, xdot)
    W, wx, wv = hw.w_jet1(x, v)
    h, wv = hw.h_val(W)[..., None], wv[..., None]
    quot = wx / wv
    # sum_i quot_i * (2 N^i N_k - delta^i_k)
    corr = (2.0 * _dot(_columns(quot), _columns(n_up))[..., None] * n_low
            - quot)
    f_low = h * n_low / wv - v[..., None] * corr
    return _raise_force(f_low, g)


def force_ab(ab, m: MetricSpec, x, xdot) -> np.ndarray:
    """Contravariant force from (a, b) data:

        F_k = a N_k + v * sum_i b_i (2 N^i N_k - d^i_k)
    """
    v, n_up, n_low, g = _velocity_frame(m, x, xdot)
    a, b = ab.ab_values(x, v)
    corr = 2.0 * _dot(_columns(b), _columns(n_up))[..., None] * n_low - b
    f_low = a[..., None] * n_low + v[..., None] * corr
    return _raise_force(f_low, g)


def custom_force(exprs, m: MetricSpec, x, xdot) -> np.ndarray:
    """Contravariant force components given directly as expressions of
    x1..xn, xdot1..xdotn and the g-speed v (zero speed allowed unless an
    expression references v)."""
    x = np.asarray(x, dtype=float)
    xdot = np.asarray(xdot, dtype=float)
    n = x.shape[-1]
    env = bind(coordinate_names(n), x, **bind(velocity_names(n), xdot))
    if any("v" in e.free_vars for e in exprs):
        g = metric_at(m, x)
        env["v"] = np.sqrt(np.einsum("...i,...ij,...j->...", xdot, g, xdot))
    return eval_tuple(exprs, env, (), 0)[0]


def reference_force(source, m: MetricSpec, x, xdot) -> np.ndarray:
    """`force_hw` of a source with `w_jet1`, `force_ab` of one with
    `b_values`, else `custom_force` of custom components."""
    force = (force_hw if hasattr(source, "w_jet1")
             else force_ab if hasattr(source, "b_values") else custom_force)
    return force(source, m, x, xdot)


def reference_rate(ab, want_vw, x, V, d):
    """dV/dt = b(x, V).d, and d(log V_w)/dt = (db/dv)(x, V).d when
    want_vw, at one continuation stage.  For a `DerivedAB` over an
    `HWPair`, b = -W_x / W_v from W's first-order jet, and db/dv by the
    quotient rule from its second-order jet; for `ABFields`, b's values,
    or its jet in v alone; for any other source, its `b_values`, or b and
    db/dv from its `jet`."""
    if isinstance(ab, DerivedAB) and isinstance(ab.hw, HWPair):
        if not want_vw:
            _, wx, wv = ab.hw.w_jet1(x, V)
            bs = (-wx / wv[..., None],)
        else:
            _, wx, wv, _, wxv, wvv = ab.hw.w_jet2(x, V)
            bs = (-wx / wv[..., None],
                  -(wxv * wv[..., None] - wx * wvv[..., None])
                  / wv[..., None] ** 2)
    elif isinstance(ab, ABFields):
        env = bind(coordinate_names(ab.dimension), x, v=V)
        vals, grad, _ = eval_tuple(ab.b, env, ("v",), int(want_vw))
        bs = (vals, grad[..., 0, :]) if want_vw else (vals,)
    elif want_vw:
        b, _, bv = ab.jet(x, V)[1]
        bs = (b, bv)
    else:
        bs = (ab.b_values(x, V),)
    return tuple(np.einsum("...i,...i->...", b, d) for b in bs)


class ABOnly:
    """A source seen only through `ab_values` and `b_values`: no type the
    force compiler inlines."""

    def __init__(self, src):
        self.src, self.dimension = src, src.dimension

    def ab_values(self, x, v):
        return self.src.ab_values(x, v)

    def b_values(self, x, v):
        return self.src.b_values(x, v)


class JetOnly:
    """A source seen only through `b_values` and `jet`: no type the rate
    compiler inlines."""

    def __init__(self, src):
        self.src, self.dimension = src, src.dimension

    def b_values(self, x, v):
        return self.src.b_values(x, v)

    def jet(self, x, v):
        return self.src.jet(x, v)
