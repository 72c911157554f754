"""Trajectory integration of the second-order system

    d2x^k/dt2 + Gamma^k_ij dx^i/dt dx^j/dt = F^k(x, dx/dt)

by classical fixed-step fourth-order Runge-Kutta on the equivalent
first-order system.  Fixed step keeps convergence-order measurements
clean; the connection term is re-evaluated at every stage so the order
is preserved on curved metrics.  Batches of initial states integrate
together with no shared mutable state.
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
           "write_trajectory_csv"]


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


def rk4_step(force, metric, x, xdot, dt):
    k1x = xdot
    k1v = _acceleration(force, metric, x, xdot)
    k2x = xdot + 0.5 * dt * k1v
    k2v = _acceleration(force, metric, x + 0.5 * dt * k1x, k2x)
    k3x = xdot + 0.5 * dt * k2v
    k3v = _acceleration(force, metric, x + 0.5 * dt * k2x, k3x)
    k4x = xdot + dt * k3v
    k4v = _acceleration(force, metric, x + dt * k3x, k4x)
    x_new = x + (dt / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
    v_new = xdot + (dt / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    return x_new, v_new


def integrate_batch(force: ForceField, metric: MetricSpec, x0, xdot0,
                    T, dt, store_every=1):
    """Integrate a batch of initial states for a duration T.

    Returns (times (L,), X (L, ..., n), XD (L, ..., n)) where layer 0 is
    the initial data and the remaining layers are every `store_every`-th
    step (the final step is always stored).  Raises IntegrationAborted,
    carrying the partial layers, if the force becomes unevaluable.
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
        try:
            x, xdot = rk4_step(force, metric, x, xdot, dt)
            if force.needs_positive_speed:
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


def _check_speed(metric, x, xdot):
    g = metric_at(metric, x)
    v2 = np.einsum("...i,...ij,...j->...", xdot, g, xdot)
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


def write_trajectory_csv(path, traj: Trajectory):
    """Columns t, x1..xn, xdot1..xdotn, speed at full double precision."""
    n = traj.x.shape[-1]
    speeds = traj.speeds()
    header = (["t"] + [f"x{i + 1}" for i in range(n)]
              + [f"xdot{i + 1}" for i in range(n)] + ["speed"])
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(len(traj.times)):
            row = ([traj.times[i]] + list(traj.x[i]) + list(traj.xdot[i])
                   + [speeds[i]])
            fh.write(",".join(f"{val:.17g}" for val in row) + "\n")
