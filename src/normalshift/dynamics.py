"""Trajectory integration of the second-order system

    d2x^k/dt2 + Gamma^k_ij dx^i/dt dx^j/dt = F^k(x, dx/dt)

by classical fixed-step fourth-order Runge-Kutta on the equivalent
first-order system.  Fixed step keeps convergence-order measurements
clean; the connection term is re-evaluated at every stage so the order
is preserved on curved metrics.  `integrate_batch` is the one
integrator: batches of initial states integrate together with no shared
mutable state, a single trajectory is a batch of one lane, and a step
that leaves any lane non-finite stops the integration.

The metric is the force's own, `ForceField.metric`, and is not given twice.

`rk4` is the package's one RK4 step.  Its callers, here and in `pfaff`
(whose continuation also drives the nu sweep), supply only a rate, and a
rate that needs its stage inputs checked checks them itself.
"""

from __future__ import annotations

import numpy as np

from . import fields
from .errors import (
    IntegrationAborted,
    NormalShiftError,
    ZeroSpeedError,
    first_bad,
    point_str,
)
from .fields import SPEED_EPS, ForceField, _columns, _dot
from .geometry import christoffel, metric_at

__all__ = ["integrate_batch", "write_csv", "write_trajectory_csv"]


def _acceleration(force: ForceField, x, xdot):
    acc = force(x, xdot)
    if not force.metric.is_euclidean:
        gamma = christoffel(force.metric, x)
        acc = acc - np.einsum("...kij,...i,...j->...k", gamma, xdot, xdot)
    return acc


def _step_count(span, step):
    """round(span / step) steps; a NormalShiftError if it is not finite."""
    count = float(span) / float(step)
    if not np.isfinite(count):
        raise NormalShiftError(f"span {span} / step {step} is not finite")
    return round(count)


def rk4(rate, y, h):
    """One classical RK4 step of size h for y' = rate(y), where y is a
    tuple of arrays and rate(stage, y) returns their derivatives.  The
    stages are labelled 0, 1, 1, 2 (the step's start, middle twice, end),
    so a rate can look up stage-dependent data such as path points."""
    def stage(k, c):
        return tuple(a + c * b for a, b in zip(y, k))

    k1 = rate(0, y)
    k2 = rate(1, stage(k1, 0.5 * h))
    k3 = rate(1, stage(k2, 0.5 * h))
    k4 = rate(2, stage(k3, h))
    return tuple(a + (h / 6.0) * (p + 2.0 * q + 2.0 * r + s)
                 for a, p, q, r, s in zip(y, k1, k2, k3, k4))


def rk4_step(force, x, xdot, dt):
    return rk4(lambda _, y: (y[1], _acceleration(force, *y)),
               (x, xdot), dt)


def integrate_batch(force: ForceField, x0, xdot0, T, dt, store_every=1):
    """Integrate a batch of initial states for a duration T.

    Returns (times (L,), X (L, ..., n), XD (L, ..., n)) where layer 0 is
    the initial data and the remaining layers are every `store_every`-th
    step (the final step is always stored).  Raises IntegrationAborted,
    carrying the partial layers, if the force becomes unevaluable or a
    step leaves any lane's state non-finite.
    """
    # each test fails for NaN too
    if not 0.0 < dt < np.inf:
        raise NormalShiftError(f"step must be positive and finite, got "
                               f"dt={dt}")
    if not 0.0 <= T < np.inf:
        raise NormalShiftError(f"duration must be >= 0 and finite, got T={T}")
    if not store_every >= 1:
        raise NormalShiftError(f"store_every must be >= 1, got {store_every}")
    x = np.array(x0, dtype=float)
    xdot = np.array(xdot0, dtype=float)
    nsteps = _step_count(T, dt)
    # each step makes new arrays and nothing writes into them, so the
    # stored layers need no copies
    times, xs, xds = [0.0], [x], [xdot]
    for step in range(nsteps):
        start = x
        try:
            x, xdot = rk4_step(force, x, xdot, dt)
            _check_finite(start, x, xdot)
            if force.kind != "custom":  # hw and ab forces need v > 0
                _check_speed(force.metric, x, xdot)
        except NormalShiftError as err:
            raise IntegrationAborted(
                f"integration aborted at step {step + 1} "
                f"(t={(step + 1) * dt:.6g}): {err}",
                partial=(np.asarray(times), np.asarray(xs), np.asarray(xds)),
                step=step + 1, time=(step + 1) * dt) from err
        if (step + 1) % store_every == 0 or step + 1 == nsteps:
            times.append((step + 1) * dt)
            xs.append(x)
            xds.append(xdot)
    return np.asarray(times), np.asarray(xs), np.asarray(xds)


def _check_finite(start, x, xdot):
    # NaN would also pass the speed check, since nan <= eps is False
    ok = np.isfinite(x) & np.isfinite(xdot)
    if not ok.all():
        lane, (pt,) = first_bad(~ok.all(axis=-1), start)
        where = f" in lane {lane}" if lane else ""
        raise NormalShiftError(f"state became non-finite{where}; the step "
                               f"started at x={point_str(pt)}")


def _check_speed(metric, x, xdot):
    if metric.is_euclidean:
        cols = _columns(xdot)
        v2 = _dot(cols, cols)
    else:
        v2 = np.einsum("...i,...ij,...j->...", xdot, metric_at(metric, x),
                       xdot)
    if (v2 <= SPEED_EPS ** 2).any():
        lane, (pt,) = first_bad(v2 <= SPEED_EPS ** 2, x)
        where = f"state {lane} at " if lane else ""
        raise ZeroSpeedError(
            f"velocity modulus collapsed below {SPEED_EPS} mid-integration "
            f"({where}x={point_str(pt)})")


def write_csv(path, header, blocks, int_cols=0):
    """Write the header line, then the rows of each 2-d block
    (rows, len(header)) in order; the first int_cols columns hold
    integer-valued entries and are written without a decimal point.

    Every other value is written with '%.17g', which gives the same bytes
    as format(x, '.17g'), -0, nan and inf included, so tables round-trip
    every double and reruns are byte-identical.  Rows are formatted
    fields.BATCH_POINTS at a time with one %-template and written as they
    are formatted, so no table is held in memory as one string."""
    row = ",".join(["%d"] * int_cols
                   + ["%.17g"] * (len(header) - int_cols)) + "\n"
    chunk = fields.BATCH_POINTS
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for block in blocks:
            block = np.asarray(block, dtype=float)
            for lo in range(0, len(block), chunk):
                part = block[lo:lo + chunk]
                fh.write(row * len(part) % tuple(part.ravel().tolist()))


def write_trajectory_csv(path, metric, times, x, xdot):
    """Columns t, x1..xn, xdot1..xdotn and the g-speed under `metric`, at
    full double precision, for one trajectory of `integrate_batch`
    (times (L,), x and xdot (L, n)).  Returns the speed column."""
    n = x.shape[-1]
    speeds = np.sqrt(np.einsum("...i,...ij,...j->...", xdot,
                               metric_at(metric, x), xdot))
    header = (["t"] + [f"x{i + 1}" for i in range(n)]
              + [f"xdot{i + 1}" for i in range(n)] + ["speed"])
    write_csv(path, header, [np.column_stack([times, x, xdot, speeds])])
    return speeds
