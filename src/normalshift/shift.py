"""Normal-shift construction on hypersurfaces: solve for the launch-speed
function nu on the surface grid, fire one trajectory per node with initial
velocity nu * (unit normal), and measure how perpendicular the shifted
surfaces stay to the trajectories.

nu is continued from the base node along axis-ordered staircase paths in
the parameter domain (RK4 per grid cell); the same solve with the axis
order reversed audits the compatibility of the continuation, and the
maximal discrepancy is reported on the result.  The two solves share the
first-axis line through the base node, which both compute identically:
the reversed solve runs first and the forward solve starts from its line.
A sweep evaluates the embedding on the stage parameters of many RK4 steps
at once (a whole grid interval, up to fields.BATCH_POINTS stage points), so
the RK4 loop evaluates only b.

Orthogonality of a shifted layer is measured against tangents estimated
by finite differences on the node grid, since shifted surfaces have no
closed-form parametrization.  Sixth-order stencils (periodic on closed
axes, skewed at open-axis edges) keep the estimation error well below the
quantity being measured; the t = 0 layer uses the exact parametric
tangents, which do exist there.  A Gram-determinant check monitors grid
collapse instead of assuming the layers stay immersed.

`normal_shift(nu, force, t_max, dt)` reads the surface from nu and the
metric from the force, so neither is given twice.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import fields
from .errors import (
    CompatibilityError,
    ContinuationError,
    FrameError,
    IntegrationAborted,
    NormalShiftError,
    PathError,
    PositivityError,
)
from .dynamics import integrate_batch, write_csv
from .fields import ForceField, _columns, _dot
from .geometry import (
    GRAM_TOL,
    Hypersurface,
    base_node_index,
    embed_with_tangents,
    grid_axes,
    grid_spacings,
    metric_at,
    normalized_gram_det,
    relative_deviation,
    surface_grid,
)
from .pfaff import (PathSpec, _continue, _curve_steps, _rk4_run, fd_matrix,
                    require_positive)

__all__ = ["NuField", "ShiftFamily", "solve_nu", "normal_shift",
           "orthogonality_defect", "loop_closure_defect",
           "write_shift_family_csv"]


# --- launch-speed field -----------------------------------------------------------

@dataclass(eq=False)
class NuField:
    """Positive launch speeds over the surface node grid, solved from the
    value at its base node; carries the mixed-path compatibility defect."""

    surface: Hypersurface
    values: np.ndarray
    mixed_path_defect: float

    def __post_init__(self):
        require_positive(self.values, "nu on the grid")


def _nu_sweep_axis(ab, s: Hypersurface, u_fixed, axis, s_values, nu_start,
                   du):
    """Continue nu along one parameter axis through the given node values.

    u_fixed: (..., k) parameter coordinates of the sweeping lanes (the
    axis-coordinate entry is overwritten); s_values: 1-d increasing or
    decreasing node coordinates starting at the current position;
    nu_start: (...,) starting values.  Returns nu at each node of
    s_values[1:], stacked along a new first axis.

    The stage points of a grid interval depend on the grid only, not on
    nu, so the embedding is evaluated on the (step, stage) parameters of
    many RK4 steps at once, and the RK4 loop evaluates only b.  A batch
    holds at most fields.BATCH_POINTS stage points (or one step's 3 per lane,
    if the lanes alone exceed that), so memory does not grow with
    spacing / du.
    """
    u_fixed = np.asarray(u_fixed, dtype=float)
    lane_axes = (1,) * (u_fixed.ndim - 1)
    lanes = int(np.prod(u_fixed.shape[:-1]))
    block = max(1, fields.BATCH_POINTS // (3 * lanes))  # RK4 steps per batch

    def curve(stages):  # the embedding at the lanes, at (steps, 3) stages
        u = np.broadcast_to(u_fixed, stages.shape + u_fixed.shape).copy()
        u[..., axis] = stages.reshape(stages.shape + lane_axes)
        x, tau = embed_with_tangents(s, u)
        return x, tau[..., axis, :]

    nu = np.array(nu_start, dtype=float)
    out = []
    for s0, s1 in zip(s_values[:-1], s_values[1:]):
        run = _rk4_run(ab, _curve_steps(curve, s0, s1, du, block), nu, False)
        try:
            (_, _, nu, _), = deque(run, maxlen=1)
        except ContinuationError as err:
            if err.__cause__ is not None:  # the field itself failed
                raise
            raise PositivityError(
                f"nu left the positive axis while sweeping parameter "
                f"axis {axis + 1} near u_{axis + 1}={err.t:.6g}") from err
        out.append(nu)
    return out


def _solve_nu_grid(s: Hypersurface, ab, nu0, du, axis_order, start=None):
    """Fill the nu grid by sweeping the axes in the given order.

    `start` is an optional partially filled grid (NaN where not yet
    computed); a sweep whose target nodes are all filled there is
    skipped, and later sweeps start from its values."""
    axes = grid_axes(s)
    base = base_node_index(s)
    shape = tuple(len(a) for a in axes)
    nu = np.full(shape, np.nan) if start is None else np.array(start)
    nu[base] = nu0

    filled = [slice(b, b + 1) for b in base]  # region already computed
    for axis in axis_order:
        coords = axes[axis]
        b = base[axis]
        prefix = tuple(filled)
        filled[axis] = slice(None)
        if not np.isnan(nu[tuple(filled)]).any():
            continue
        lane_shape = nu[prefix].shape
        # lanes: every filled node; sweep this axis in both directions
        mesh = np.meshgrid(*[axes[d][fl] for d, fl in enumerate(prefix)],
                           indexing="ij")
        u_lanes = np.stack(mesh, axis=-1)  # lane_shape + (k,)
        for direction in (+1, -1):
            node_path = coords[b:] if direction > 0 else coords[b::-1]
            if len(node_path) < 2:
                continue
            start_nu = nu[prefix].reshape(lane_shape)
            values = _nu_sweep_axis(ab, s, u_lanes, axis, node_path,
                                    start_nu, du)
            for step, vals in enumerate(values):
                idx = list(prefix)
                idx[axis] = b + direction * (step + 1)
                nu[tuple(idx)] = vals.reshape(nu[tuple(idx)].shape)
    return nu


def solve_nu(s: Hypersurface, ab, nu0, du=1e-2, compat_tol=1e-6) -> NuField:
    """Launch-speed function on the surface: continue

        d nu / d u^k = sum_i b_i(x(u), nu) * dx^i/du^k

    from nu(base) = nu0 to every grid node along axis-ordered staircase
    paths.  A solve with the axis order reversed audits the compatibility;
    its maximal discrepancy must stay below compat_tol (closed covector
    data and trivial surface loops give ~0).

    The reversed solve runs first.  Its last sweep (the first parameter
    axis, over every node) carries the lane through the base node along
    the same path, from the same nu0, as the forward solve's first sweep,
    so the forward solve starts from that line instead of recomputing it."""
    if ab.dimension != s.dimension:
        raise FrameError(f"(a, b) data of dimension {ab.dimension} on a "
                         f"surface in dimension {s.dimension}")
    require_positive(nu0, "nu0")
    require_positive(du, "step size du")
    if not compat_tol >= 0.0:  # inf turns the audit off; NaN would as well
        raise NormalShiftError(f"compat_tol must be >= 0, got {compat_tol}")
    k = s.n_params
    nu = _solve_nu_grid(s, ab, nu0, du, list(range(k))[::-1])
    defect = 0.0
    if k > 1:
        nu_rev = nu
        line = list(base_node_index(s))
        line[0] = slice(None)
        start = np.full_like(nu_rev, np.nan)
        start[tuple(line)] = nu_rev[tuple(line)]
        nu = _solve_nu_grid(s, ab, nu0, du, list(range(k)), start)
        defect = float(np.max(np.abs(nu - nu_rev)))
    if defect > compat_tol:
        raise CompatibilityError(
            f"mixed-path continuation defect {defect:.3e} exceeds "
            f"{compat_tol:.1e}: covector data is not closed on the surface, "
            f"or the surface loop carries a nontrivial twist")
    return NuField(s, nu, defect)


# --- shift families ------------------------------------------------------------------

@dataclass(eq=False)
class ShiftFamily:
    """Per-node trajectories launched normally from the surface, stored at
    a uniform subgrid of time steps (layer 0 is the initial surface).
    The surface is `nu.surface` and the metric `force.metric`."""

    force: ForceField
    nu: NuField
    times: np.ndarray        # (L,)
    x: np.ndarray            # (L,) + grid + (n,)
    xdot: np.ndarray         # (L,) + grid + (n,)
    tangents0: np.ndarray    # grid + (n-1, n): exact tangents of layer 0
    node_defects: np.ndarray | None = field(default=None, init=False)

    @property
    def grid_shape(self):
        return self.x.shape[1:-1]


def normal_shift(nu: NuField, force: ForceField, t_max, dt,
                 store_every=1) -> ShiftFamily:
    """Launch one trajectory per node of nu's surface grid with initial
    state (x(u), nu(u) * unit normal), the normal taken in the force's
    metric, and collect the stored layers."""
    if force.metric.dimension != nu.surface.dimension:
        raise FrameError(
            f"force of dimension {force.metric.dimension} on a surface in "
            f"dimension {nu.surface.dimension}")
    sg = surface_grid(nu.surface, force.metric)
    grid_shape = sg.points.shape[:-1]
    n = nu.surface.dimension
    x0 = sg.points.reshape(-1, n)
    xd0 = (nu.values[..., None] * sg.normals).reshape(-1, n)
    try:
        times, xs, xds = integrate_batch(force, x0, xd0, t_max, dt,
                                         store_every=store_every)
    except IntegrationAborted as err:
        raise IntegrationAborted(
            f"shift family is partial: {err}", partial=err.partial,
            step=err.step, time=err.time) from err
    layers = xs.shape[0]
    return ShiftFamily(
        force, nu, times,
        xs.reshape((layers,) + grid_shape + (n,)),
        xds.reshape((layers,) + grid_shape + (n,)),
        sg.tangents,
    )


# --- orthogonality measurement ---------------------------------------------------------

_CENTRAL_7 = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0


def _axis_tangents(layer_x, axis, spacing, dmat):
    """Tangents along a closed axis (`dmat` None), or an open one's."""
    if dmat is None:
        if layer_x.shape[axis] >= 7:
            shifts, weights = range(-3, 4), _CENTRAL_7
        else:  # coarse closed axis: second-order periodic fallback
            shifts, weights = (-1, 0, 1), np.array([-0.5, 0.0, 0.5])
        total = np.zeros_like(layer_x)
        for shift, wgt in zip(shifts, weights):
            if wgt != 0.0:
                total += wgt * np.roll(layer_x, -shift, axis=axis)
        return total / spacing
    moved = np.moveaxis(layer_x, axis, 0)
    return np.moveaxis(np.tensordot(dmat, moved, axes=(1, 0)), 0, axis)


def orthogonality_defect(fam: ShiftFamily) -> np.ndarray:
    """Per-layer maximum of |g(xdot, tau)| / (|xdot|_g |tau|_g) over nodes
    and tangent directions: the figure of merit for normality.

    Caches the per-(node, layer) defect field on the family for CSV
    output, and raises on grid collapse (degenerate normalized Gram
    determinant)."""
    s = fam.nu.surface
    k = s.n_params
    spacings = grid_spacings(s)
    per_layer = np.zeros(len(fam.times))
    defects = np.zeros((len(fam.times),) + fam.grid_shape)
    # seven-point stencils on each uniform open axis, skewed near the edges
    dmats = [None if wrap else fd_matrix(np.arange(m, dtype=float), 7) / h
             for wrap, m, h in zip(s.closed, fam.grid_shape, spacings)]
    for li in range(len(fam.times)):
        xl = fam.x[li]
        xdl = fam.xdot[li]
        g = metric_at(fam.force.metric, xl)
        taus = [fam.tangents0[..., axis, :] if li == 0
                else _axis_tangents(xl, axis, spacings[axis], dmats[axis])
                for axis in range(k)]
        # checked first: a collapsed layer's tangents would divide by zero
        det = normalized_gram_det(np.stack(taus, axis=-2), g)
        bad = ~(det > GRAM_TOL)
        if np.any(bad):
            node = np.unravel_index(int(np.argmax(bad)), bad.shape)
            raise FrameError(
                f"shifted layer {li} (t={fam.times[li]:.6g}) degenerates at "
                f"node {tuple(int(i) for i in node)}: normalized Gram "
                f"determinant {float(det[node]):.3e}")
        xd_low = np.einsum("...ij,...j->...i", g, xdl)
        speed = np.sqrt(_dot(_columns(xdl), _columns(xd_low)))
        for tau in taus:
            norm_tau = np.sqrt(np.einsum("...i,...ij,...j->...", tau, g, tau))
            defect = np.abs(_dot(_columns(xd_low), _columns(tau))) \
                / (speed * norm_tau)
            defects[li] = np.maximum(defects[li], defect)
        per_layer[li] = float(np.max(defects[li]))
    fam.node_defects = defects
    return per_layer


# --- closure around loops ----------------------------------------------------------------

def loop_closure_defect(loop: PathSpec, ab, nu0, dt=1e-3, manifold=None):
    """|nu_end - nu0| after continuing the launch-speed equation once
    around a loop (closed in the chart, or closed up to a deck translation
    when a covering manifold is supplied; either to 1e-9 relative to the
    loop's coordinates).  No manifold means a chart with no deck
    translations."""
    require_closed_loop(loop, manifold)
    end = _continue(ab, loop, nu0, dt, want_vw=False, store=False).end_V
    return float(np.abs(end - nu0))


def require_closed_loop(loop: PathSpec, manifold=None):
    """PathError unless the loop closes in the chart up to a deck
    translation of `manifold` (with no manifold, in the chart), to 1e-9
    relative to the loop's coordinates."""
    start, end, span = loop.start(), loop.end(), loop.sample()
    gens = np.reshape(manifold.deck_generators if manifold is not None
                      else (), (-1, len(start))).T
    coeff, *_ = np.linalg.lstsq(gens, end - start, rcond=None)
    if relative_deviation(end, start + gens @ np.round(coeff), span) > 1e-9:
        raise PathError("loop is not closed in the chart up to a deck "
                        "translation")


# --- output ---------------------------------------------------------------------------------

def write_shift_family_csv(path, fam: ShiftFamily):
    """One row per (node, stored time): node indices, t, position,
    velocity, nu, and the node's orthogonality defect."""
    if fam.node_defects is None:
        orthogonality_defect(fam)
    k = fam.nu.surface.n_params
    n = fam.nu.surface.dimension
    header = ([f"i{j + 1}" for j in range(k)] + ["t"]
              + [f"x{i + 1}" for i in range(n)]
              + [f"xdot{i + 1}" for i in range(n)] + ["nu", "defect"])
    count = int(np.prod(fam.grid_shape))
    nodes = np.indices(fam.grid_shape).reshape(k, count).T  # row-major
    layers = (np.column_stack([nodes, np.full(count, t),
                               fam.x[li].reshape(count, n),
                               fam.xdot[li].reshape(count, n),
                               fam.nu.values.ravel(),
                               fam.node_defects[li].ravel()])
              for li, t in enumerate(fam.times))
    write_csv(path, header, layers, int_cols=k)
