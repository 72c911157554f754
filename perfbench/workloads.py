"""Seeded scenario generation and independent oracles for the benchmark
workloads.

Each workload is a fixed list of CLI runs.  The seed changes the
parameters of the generated scenarios (decay rates, radii, launch speeds,
sweep boxes) but never the amount of work: grid sizes, step sizes and
durations are constants.  Every parameter range below was validated
against the verdict the workload expects (see README.md).

Every run carries an oracle: closed forms derived from the scenario
parameters, independent of the program's own arithmetic, checked against
the files the run wrote.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# The one program defect the benchmark keeps visible on purpose.  On any
# state grid other than the 5-point lattice, consistent `hw` data with a
# constant h gets a false collinearity FAIL: d(a*W_v) is exactly zero,
# but rounding leaves a ~1e-16 gradient, and `fields.collinearity_defect`
# divides it by its own norm, which turns it into an O(1) defect.  The
# mathematically correct verdict is PASS, so these runs count as failed.
COLLINEARITY_DEFECT = "collinearity_false_fail"


@dataclass(frozen=True)
class Check:
    """One oracle comparison: passes when value <= limit."""

    name: str
    value: float
    limit: float

    @property
    def ok(self):
        return bool(self.value <= self.limit)  # NaN fails


@dataclass(frozen=True)
class Run:
    """One CLI invocation of a workload pass."""

    name: str                  # scenario file stem, unique in the workload
    command: str
    config: str                # scenario file text
    exit_code: int             # mathematically correct exit status
    verdict: str               # mathematically correct RESULT line
    oracle: Callable[[str], list] = field(repr=False)
    # Report signature of a recorded program defect this run may show:
    # (defect id, the only METRIC names expected to read FAIL).
    known_defect: tuple | None = None


# --- output parsing --------------------------------------------------------------

def read_report(out_dir):
    """(metrics {name: (value, threshold, verdict)}, info lines, RESULT)."""
    metrics, info, result = {}, [], None
    with open(os.path.join(out_dir, "report.txt")) as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "METRIC":
                metrics[parts[1]] = (float(parts[2]), float(parts[3]),
                                     parts[4])
            elif parts[0] == "INFO":
                info.append(line[5:].strip())
            elif parts[0] == "RESULT":
                result = parts[1]
    return metrics, info, result


def read_table(out_dir, name):
    """(header, rows (m, k)) of a CSV table written by the CLI."""
    path = os.path.join(out_dir, name)
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _info_value(info, key):
    for line in info:
        if line.startswith(key + " "):
            return float(line.split()[1])
    return math.nan


def _rel(a, b):
    """Max relative deviation of a from b."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b) / np.abs(b)))


# --- scenario text -----------------------------------------------------------------

def _num(x):
    return repr(float(x))


def _toml(sections):
    """Scenario text from {section: {key: value}} with pre-rendered values."""
    out = []
    for name, entries in sections.items():
        out.append(f"[{name}]")
        out.extend(f"{k} = {v}" for k, v in entries.items())
        out.append("")
    return "\n".join(out)


def _s(text):
    return f'"{text}"'


def _vec(xs):
    return "[" + ", ".join(map(_num, xs)) + "]"


def _euclid(n, periods=None):
    man = {"dimension": str(n), "metric": _s("euclidean")}
    if periods:
        man["periods"] = periods
    return man


def _decay_ab(c, a="1"):
    """(a, b) with b = (-c*v, 0): W = v*e^{c*x1} up to the choice of a."""
    return {"kind": _s("ab"), "a": _s(a),
            "b": f'[{_s(f"-{_num(c)}*v")}, {_s("0")}]'}


# --- workload: shift -----------------------------------------------------------------

SPHERE_BASE_U2 = 1.5249641872208677   # the grid node nearest the equator


def _sphere(rng):
    # W = v*e^{c*x1}: c = 0.2 passes defect_tol 1e-5, c = 0.4 does not
    # (7.6e-5); [0.05, 0.25] was validated at both ends.
    c = round(rng.uniform(0.05, 0.25), 6)
    text = _toml({
        "manifold": _euclid(3),
        "field": {"kind": _s("hw"), "W": _s(f"v*exp({_num(c)}*x1)"),
                  "h": _s("1")},
        "surface": {
            "parametrization": '["sin(u2)*cos(u1)", "sin(u2)*sin(u1)", '
                               '"cos(u2)"]',
            "ranges": "[[0.0, 6.283185307179586], [0.15, 2.991592653589793]]",
            "grid": "[64, 32]", "closed": "[true, false]",
            "base": f"[0.0, {_num(SPHERE_BASE_U2)}]", "nu0": "1.0",
            "orientation": "-1"},
        "run": {"seed": "0", "t_max": "0.5", "dt": "0.001", "du": "0.01",
                "store_every": "50", "defect_tol": "1e-5"},
    })

    def oracle(out):
        # nu is the level set W(x(u), nu(u)) = W(base, nu0) over the
        # layer-0 surface, which lies on the unit sphere; the base node
        # sits at x1 = sin(u2_base), nu0 = 1.
        _, rows = read_table(out, "shift_family.csv")
        layer0 = rows[rows[:, 2] == 0.0]
        x, nu = layer0[:, 3:6], layer0[:, 9]
        w_level = nu * np.exp(c * x[:, 0])
        return [
            Check("nodes", abs(len(layer0) - 64 * 32), 0),
            Check("unit_sphere", float(np.max(np.abs(
                np.linalg.norm(x, axis=1) - 1.0))), 1e-12),
            Check("W_level_set",
                  _rel(w_level, math.exp(c * math.sin(SPHERE_BASE_U2))),
                  1e-9),
        ]

    return Run("sphere_shift", "shift", text, 0, "PASS", oracle)


def _circle(rng):
    # Unit thrust (W = v, h = 1) moves each node along its normal with
    # speed nu0 + t, so layer radii are R + nu0*t + t^2/2.
    radius = round(rng.uniform(0.5, 2.0), 6)
    nu0 = round(rng.uniform(0.5, 1.5), 6)
    text = _toml({
        "manifold": _euclid(2),
        "field": {"kind": _s("hw"), "W": _s("v"), "h": _s("1")},
        "surface": {
            "parametrization": f'["{_num(radius)}*cos(u1)", '
                               f'"{_num(radius)}*sin(u1)"]',
            "ranges": "[[0.0, 6.283185307179586]]", "grid": "[128]",
            "closed": "[true]", "base": "[0.0]", "nu0": _num(nu0),
            "orientation": "1"},
        "run": {"seed": "0", "t_max": "0.3", "dt": "0.01",
                "store_every": "10", "defect_tol": "1e-6"},
    })

    def oracle(out):
        _, rows = read_table(out, "shift_family.csv")
        t = rows[:, 1]
        r = np.linalg.norm(rows[:, 2:4], axis=1)
        return [
            Check("rows", abs(len(rows) - 128 * 4), 0),
            Check("layer_radius", _rel(r, radius + nu0 * t + 0.5 * t * t),
                  1e-10),
        ]

    return Run("circle_shift", "shift", text, 0, "PASS", oracle)


# --- workload: continuation -------------------------------------------------------------

def _decay_rate(rng):
    # checked at 0.3, 0.45 and 0.6 against the monodromy oracle
    return round(rng.uniform(0.3, 0.6), 6)


def _cylinder(c):
    text = _toml({
        "manifold": _euclid(2, "[[6.283185307179586, 0.0]]"),
        "field": _decay_ab(c),
        "run": {"seed": "0", "dt": "0.02", "word": _s("g1"),
                "w_min": "0.1", "w_max": "10.0", "w_points": "5"},
    })

    def oracle(out):
        # W = v*e^{c*x1}, so one loop of period 2*pi scales w by e^{2*pi*c}
        _, rows = read_table(out, "monodromy.csv")
        w, rho = rows[:, 0], rows[:, 1]
        return [
            Check("samples", abs(len(rows) - 5), 0),
            Check("rho_closed_form", _rel(rho, w * math.exp(2 * math.pi * c)),
                  1e-6),
        ]

    return Run("cylinder_monodromy", "monodromy", text, 0, "PASS", oracle)


def _extract(c):
    # (h, W) = (w^2, v*e^{c*x1}) in the (a, b) presentation:
    # a = h(W)/W_v = v^2*e^{c*x1}, b = (-c*v, 0).
    text = _toml({
        "manifold": _euclid(2),
        "field": _decay_ab(c, f"v^2*exp({_num(c)}*x1)"),
        "run": {"seed": "0", "v_min": "0.5", "v_max": "2.0",
                "v_points": "20", "h_tol": "1e-7"},
    })

    def oracle(out):
        _, rows = read_table(out, "h_table.csv")
        v, h = rows[:, 0], rows[:, 1]
        return [
            Check("samples", abs(len(rows) - 20), 0),
            Check("h_closed_form", _rel(h, v * v), 1e-8),
        ]

    return Run("extract_h", "extract-h", text, 0, "PASS", oracle)


def _pfaff(rng, c):
    w0 = round(rng.uniform(0.5, 2.0), 6)
    text = _toml({
        "manifold": _euclid(2),
        "field": _decay_ab(c),
        "run": {"seed": "0", "dt": "0.001", "w0": _num(w0),
                "path": "[[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]",
                "path2": "[[0.0, 0.0], [1.0, 1.0]]", "path_tol": "1e-8"},
    })

    def oracle(out):
        # dV = -c*V dx1 along the path; the L-path gains x1 by 1
        header, rows = read_table(out, "continuation.csv")
        end_v = rows[-1, header.index("V")]
        return [Check("V_end_closed_form", _rel(end_v, w0 * math.exp(-c)),
                      1e-8)]

    return Run("pfaff_paths", "pfaff", text, 0, "PASS", oracle)


# --- workload: audit ------------------------------------------------------------------------

def _box(rng, n):
    """Seeded sweep box: lower corner in [-1.5, -0.5], width in [1, 2]."""
    lo = [round(rng.uniform(-1.5, -0.5), 6) for _ in range(n)]
    hi = [round(a + rng.uniform(1.0, 2.0), 6) for a in lo]
    return _vec(lo), _vec(hi)


def _check_states(rng, name, field, n_grid, v_points, known_defect=None):
    lo, hi = _box(rng, 2)
    text = _toml({
        "manifold": _euclid(2),
        "field": field,
        "run": {"seed": "0", "grid_min": lo, "grid_max": hi,
                "grid_points": f"[{n_grid}, {n_grid}]",
                "v_min": "0.25", "v_max": "3.0",
                "v_points": str(v_points)},
    })

    def oracle(out):
        # consistent data: every residual vanishes identically
        metrics, _, _ = read_report(out)
        return [Check(k, metrics.get(k, (math.nan,))[0], 1e-10)
                for k in ("closedness_max", "normalizing_max")]

    return Run(name, "check", text, 0, "PASS", oracle, known_defect)


def _check_hw(rng):
    # order-2 jets on 40*40*40 = 64000 states; h constant, so d(a*W_v) = 0
    c1 = round(rng.uniform(0.2, 0.8), 6)
    c2 = round(rng.uniform(-0.5, 0.5), 6)
    k = round(rng.uniform(0.5, 2.0), 6)
    fld = {"kind": _s("hw"),
           "W": _s(f"v*exp({_num(c1)}*x1 + {_num(c2)}*x2)"),
           "h": _s(_num(k))}
    return _check_states(rng, "check_hw", fld, 40, 40,
                         (COLLINEARITY_DEFECT, ("collinearity_max",)))


def _check_ab(rng):
    # order-1 jets on 64*64*16 = 65536 states: the (a, b) form of
    # (h, W) = (1, v*e^{c*x1}) is a = e^{-c*x1}, b = (-c*v, 0)
    c = round(rng.uniform(0.2, 0.8), 6)
    return _check_states(rng, "check_ab",
                         _decay_ab(c, f"exp(-{_num(c)}*x1)"), 64, 16)


def _check_broken(rng):
    # a = 1 does not normalize b = (-c*v, 0): the residual is exactly c
    c = round(rng.uniform(0.2, 0.8), 6)
    text = _toml({
        "manifold": _euclid(2),
        "field": _decay_ab(c),
        "run": {"seed": "0", "grid_points": "[4, 4]", "v_points": "4"},
    })

    def oracle(out):
        metrics, _, _ = read_report(out)
        value = metrics.get("normalizing_max", (math.nan,))[0]
        return [Check("normalizing_is_c", abs(value - c) / c, 1e-12)]

    return Run("check_broken", "check", text, 1, "FAIL", oracle)


def _fnorm(rng):
    # |b| / f(v) = c*v / v = c on every state
    c = round(rng.uniform(0.2, 0.8), 6)
    text = _toml({
        "manifold": _euclid(2),
        "field": _decay_ab(c),
        "run": {"seed": "0", "f": _s("v"), "grid_points": "[3, 3]",
                "v_min": "0.2", "v_max": "5.0", "v_points": "9"},
    })

    def oracle(out):
        _, info, _ = read_report(out)
        value = _info_value(info, "fnorm_estimate")
        return [Check("estimate_is_c", abs(value - c) / c, 1e-12)]

    return Run("fnorm", "fnorm", text, 0, "PASS", oracle)


def _gauge(rng):
    c = round(rng.uniform(0.2, 0.8), 6)
    scale = round(rng.uniform(2.0, 30.0), 6)
    text = _toml({
        "manifold": _euclid(2),
        "field": {"kind": _s("hw"), "W": _s(f"v*exp({_num(c)}*x1)"),
                  "h": _s("1")},
        "run": {"seed": str(rng.randrange(1000)),
                "rho": _s(f"{_num(scale)}*w"), "n_states": "20",
                "gauge_tol": "1e-9"},
    })

    def oracle(out):
        # no closed form beyond the gate itself: the force is unchanged
        metrics, _, _ = read_report(out)
        value = metrics.get("gauge_force_discrepancy", (math.nan,))[0]
        return [Check("force_unchanged", value, 1e-9)]

    return Run("gauge", "gauge", text, 0, "PASS", oracle)


def _trajectory(rng):
    # (h, W) = (w, v): F = v*N, so the speed grows as s0*e^t along a
    # straight line; 2000 RK4 steps on one lane, every step stored.
    x0 = [round(rng.uniform(-1.0, 1.0), 6) for _ in range(2)]
    angle = rng.uniform(0.0, 2.0 * math.pi)
    s0 = round(rng.uniform(0.5, 2.0), 6)
    d = (math.cos(angle), math.sin(angle))
    xdot0 = [round(s0 * d[0], 6), round(s0 * d[1], 6)]
    s0 = math.hypot(*xdot0)
    d = (xdot0[0] / s0, xdot0[1] / s0)
    text = _toml({
        "manifold": _euclid(2),
        "field": {"kind": _s("hw"), "W": _s("v"), "h": _s("w")},
        "run": {"seed": "0", "t_max": "1.0", "dt": "0.0005",
                "x0": _vec(x0), "xdot0": _vec(xdot0)},
    })

    def oracle(out):
        _, rows = read_table(out, "trajectory.csv")
        t = rows[:, 0]
        grow = s0 * np.expm1(t)
        x = np.stack([x0[0] + d[0] * grow, x0[1] + d[1] * grow], axis=1)
        return [
            Check("rows", abs(len(rows) - 2001), 0),
            Check("position", float(np.max(np.abs(rows[:, 1:3] - x))), 1e-9),
            Check("speed", _rel(rows[:, 5], s0 * np.exp(t)), 1e-10),
        ]

    return Run("trajectory", "trajectory", text, 0, "PASS", oracle)


# --- registry ---------------------------------------------------------------------------------

def _shift_runs(rng):
    return [_sphere(rng), _circle(rng)]


def _continuation_runs(rng):
    c = _decay_rate(rng)
    return [_cylinder(c), _extract(c), _pfaff(rng, c)]


def _audit_runs(rng):
    return [_check_hw(rng), _check_ab(rng), _check_broken(rng), _fnorm(rng),
            _gauge(rng), _trajectory(rng)]


WORKLOADS = {
    "shift": _shift_runs,
    "continuation": _continuation_runs,
    "audit": _audit_runs,
}


def build(workload, seed):
    """The workload's runs for one seed; the same seed gives the same
    scenario files."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
