"""Trajectory integration of the second-order system

    d2x^k/dt2 + Gamma^k_ij dx^i/dt dx^j/dt = F^k(x, dx/dt)

by classical fixed-step fourth-order Runge-Kutta on the equivalent
first-order system.  Fixed step keeps convergence-order measurements
clean; the connection term is re-evaluated at every stage so the order
is preserved on curved metrics.  Batches of initial states integrate
together with no shared mutable state, and a step that leaves any lane
non-finite stops the integration.

`rk4` is the package's one RK4 step.  Its callers, here and in `pfaff`
(whose continuation also drives the nu sweep), supply only a rate, and a
rate that needs its stage inputs checked checks them itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    IntegrationAborted,
    NormalShiftError,
    ZeroSpeedError,
    first_bad,
    point_str,
)
from .fields import SPEED_EPS, ForceField
from .geometry import MetricSpec, christoffel, metric_at

__all__ = ["State", "Trajectory", "integrate", "integrate_batch",
           "write_csv", "write_trajectory_csv"]

CSV_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class State:
    x: tuple
    xdot: tuple
    t: float = 0.0


@dataclass(eq=False)
class Trajectory:
    """States at uniform time steps, with the data that produced them."""

    times: np.ndarray      # (m+1,)
    x: np.ndarray          # (m+1, n)
    xdot: np.ndarray       # (m+1, n)
    force: ForceField
    metric: MetricSpec
    dt: float

    def __len__(self):
        return len(self.times)

    def state(self, i) -> State:
        return State(tuple(self.x[i]), tuple(self.xdot[i]),
                     float(self.times[i]))

    def final_state(self) -> State:
        return self.state(len(self.times) - 1)

    def speeds(self) -> np.ndarray:
        g = metric_at(self.metric, self.x)
        return np.sqrt(np.einsum("...i,...ij,...j->...", self.xdot, g,
                                 self.xdot))


def _acceleration(force: ForceField, metric: MetricSpec, x, xdot):
    acc = force(x, xdot)
    if not metric.is_euclidean:
        gamma = christoffel(metric, x)
        acc = acc - np.einsum("...kij,...i,...j->...k", gamma, xdot, xdot)
    return acc


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


def rk4_step(force, metric, x, xdot, dt):
    return rk4(lambda _, y: (y[1], _acceleration(force, metric, *y)),
               (x, xdot), dt)


def integrate_batch(force: ForceField, metric: MetricSpec, x0, xdot0,
                    T, dt, store_every=1):
    """Integrate a batch of initial states for a duration T.

    Returns (times (L,), X (L, ..., n), XD (L, ..., n)) where layer 0 is
    the initial data and the remaining layers are every `store_every`-th
    step (the final step is always stored).  Raises IntegrationAborted,
    carrying the partial layers, if the force becomes unevaluable or a
    step leaves any lane's state non-finite.
    """
    if dt <= 0.0:
        raise NormalShiftError(f"step must be positive, got dt={dt}")
    if T < 0.0:
        raise NormalShiftError(f"duration must be >= 0, got T={T}")
    x = np.array(x0, dtype=float)
    xdot = np.array(xdot0, dtype=float)
    nsteps = int(round(T / dt))
    times = [0.0]
    xs = [x.copy()]
    xds = [xdot.copy()]
    for step in range(nsteps):
        start = x
        try:
            x, xdot = rk4_step(force, metric, x, xdot, dt)
            _check_finite(start, x, xdot)
            if force.kind != "custom":  # hw and ab forces need v > 0
                _check_speed(metric, x, xdot)
        except NormalShiftError as err:
            raise IntegrationAborted(
                f"integration aborted at step {step + 1} "
                f"(t={(step + 1) * dt:.6g}): {err}",
                partial=(np.asarray(times), np.asarray(xs), np.asarray(xds)),
                step=step + 1, time=(step + 1) * dt) from err
        if (step + 1) % store_every == 0 or step + 1 == nsteps:
            times.append((step + 1) * dt)
            xs.append(x.copy())
            xds.append(xdot.copy())
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
        v2 = np.einsum("...i,...i->...", xdot, xdot)
    else:
        v2 = np.einsum("...i,...ij,...j->...", xdot, metric_at(metric, x),
                       xdot)
    if np.any(v2 <= SPEED_EPS ** 2):
        lane, (pt,) = first_bad(v2 <= SPEED_EPS ** 2, x)
        raise ZeroSpeedError(
            f"velocity modulus collapsed below {SPEED_EPS} mid-integration "
            f"(state {lane} at x={point_str(pt)})")


def integrate(force: ForceField, metric: MetricSpec, s0: State,
              T, dt) -> Trajectory:
    """Single trajectory from s0; every step is stored."""
    times, xs, xds = integrate_batch(force, metric, s0.x, s0.xdot, T, dt,
                                     store_every=1)
    return Trajectory(times + s0.t, xs, xds, force, metric, dt)


def write_csv(path, header, blocks, int_cols=0):
    """Write the header line, then the rows of each 2-d block
    (rows, len(header)) in order; the first int_cols columns hold
    integer-valued entries and are written without a decimal point.

    Every other value is written with '%.17g', which gives the same bytes
    as format(x, '.17g'), -0, nan and inf included, so tables round-trip
    every double and reruns are byte-identical.  Rows are formatted
    CSV_BLOCK_ROWS at a time with one %-template and written as they are
    formatted, so no table is held in memory as one string."""
    row = ",".join(["%d"] * int_cols
                   + ["%.17g"] * (len(header) - int_cols)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for block in blocks:
            block = np.asarray(block, dtype=float)
            for lo in range(0, len(block), CSV_BLOCK_ROWS):
                part = block[lo:lo + CSV_BLOCK_ROWS]
                fh.write(row * len(part) % tuple(part.ravel().tolist()))


def write_trajectory_csv(path, traj: Trajectory):
    """Columns t, x1..xn, xdot1..xdotn, speed at full double precision."""
    n = traj.x.shape[-1]
    speeds = traj.speeds()
    header = (["t"] + [f"x{i + 1}" for i in range(n)]
              + [f"xdot{i + 1}" for i in range(n)] + ["speed"])
    write_csv(path, header, [np.column_stack([traj.times, traj.x,
                                              traj.xdot, speeds])])
