"""Command-line front end: run a scenario file through one of the
verification or construction pipelines and write CSV tables plus a
plain-text report.

    normalshift <command> --config <file> --out <dir> [--dt ..] [--du ..]
                [--tol ..]

Commands: check, trajectory, shift, pfaff, fnorm, monodromy, gauge,
extract-h.  Gated checks appear in the report as lines

    METRIC <name> <value> <threshold> PASS|FAIL

and the exit status is 0 when every gate passes, 1 on a gated failure or
computation error, 2 on usage/configuration errors.  All floating-point
output carries 17 significant digits and reruns are byte-identical: the
run section's seed pins every randomized sample.

Importing the module ends with `gc.freeze()`: what the interpreter, numpy
and the package built by then lives until exit, and the collector skips
frozen objects, in a run's collections and in its last ones at exit.  It
freezes at import, not in `main()`, so repeated calls pin no garbage.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys

import numpy as np

from . import dynamics, fields
from .errors import ConfigError, NormalShiftError, ScenarioError
from .expr import parse as parse_expr
from .dynamics import write_csv, write_trajectory_csv
from .fields import (
    DerivedAB,
    closedness_residual,
    collinearity_defect,
    normalizing_residual,
)
from .geometry import grid_axes
from .pfaff import (
    AdmissibleF,
    PathSpec,
    continue_V,
    extract_h,
    f_norm_estimate,
    gauge_transform,
    monodromy,
    path_independence_defect,
    require_shared_ends,
)
from .scenario import Scenario, _checked, load_scenario, validate_run
from .shift import (
    NuField,
    loop_closure_defect,
    normal_shift,
    orthogonality_defect,
    require_closed_loop,
    solve_nu,
    write_shift_family_csv,
)


def _fmt(value):
    return f"{float(value):.17g}"


class Report:
    """Plain-text run report with machine-grepable METRIC lines."""

    def __init__(self, command, config_path):
        self.lines = [f"command: {command}",
                      f"config: {os.path.basename(str(config_path))}"]
        self.failed = False

    def metric(self, name, value, threshold):
        ok = value <= threshold
        self.failed |= not ok
        self.lines.append(
            f"METRIC {name} {_fmt(value)} {_fmt(threshold)} "
            f"{'PASS' if ok else 'FAIL'}")
        return ok

    def info(self, text):
        self.lines.append(f"INFO {text}")

    def write(self, out_dir):
        self.lines.append(f"RESULT {'FAIL' if self.failed else 'PASS'}")
        path = os.path.join(out_dir, "report.txt")
        with open(path, "w", newline="") as fh:
            fh.write("\n".join(self.lines) + "\n")
        return path


def _point_str(x):
    return "(" + ", ".join(_fmt(c) for c in np.atleast_1d(x)) + ")"


def _state_grid(sc: Scenario):
    """Deterministic box of positions swept by check and fnorm."""
    n = sc.dimension
    run = sc.run
    lo = run.get("grid_min", [-1.0] * n)
    hi = run.get("grid_max", [1.0] * n)
    pts = run.get("grid_points", [5] * n)
    mesh = np.meshgrid(*map(np.linspace, lo, hi, pts), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def _v_grid(run, points):
    """Speeds: run.v_grid, or run.v_points of them (default `points`)
    from v_min to v_max."""
    if "v_grid" in run:
        return np.asarray(run["v_grid"], dtype=float)
    return np.linspace(run.get("v_min", 0.5), run.get("v_max", 2.0),
                       run.get("v_points", points))


def _w_grid(run):
    """A monodromy table's nodes: run.w_grid, or run.w_points of them
    log-spaced from w_min to w_max; at least two, strictly increasing."""
    if "w_grid" in run:
        w, keys = np.asarray(run["w_grid"], dtype=float), ("w_grid",) * 2
    else:
        w = np.logspace(np.log10(run.get("w_min", 0.1)),
                        np.log10(run.get("w_max", 10.0)),
                        run.get("w_points", 10))
        keys = ("w_points", "w_max")
    if len(w) < 2:
        raise ScenarioError("a monodromy table needs at least 2 nodes",
                            f"run.{keys[0]}")
    if np.any(np.diff(w) <= 0.0):
        raise ScenarioError("the w grid must be strictly increasing",
                            f"run.{keys[1]}")
    return w


def _path_from(run, key):
    pts = run.get(key)
    if pts is None:
        raise ScenarioError("path is required by this command", f"run.{key}")
    return _checked(f"run.{key}", PathSpec.polyline, pts)


def _random_states(sc: Scenario, count):
    rng = np.random.default_rng(int(sc.run["seed"]))
    x = rng.uniform(-1.0, 1.0, size=(count, sc.dimension))
    xdot = rng.uniform(-1.5, 1.5, size=(count, sc.dimension))
    xdot[np.linalg.norm(xdot, axis=1) < 0.3] += 1.0
    return x, xdot


# --- commands --------------------------------------------------------------------

def _require_ab(sc: Scenario, command):
    """The (a, b) data of the field: derived from (h, W), or as given."""
    if sc.force.kind == "hw":
        return DerivedAB(sc.force.source)
    if sc.force.kind != "ab":
        raise ScenarioError(f"{command} needs field kind 'hw' or 'ab'",
                            "field.kind")
    return sc.force.source


def cmd_check(sc: Scenario, out_dir, report: Report):
    """Gate the largest |residual| over the (state, speed) grid against
    run.<name>_tol, and report the state where it sits.  The grid is swept
    in blocks of rows of at most fields.BATCH_POINTS points (or one row),
    with one jet of the source per block."""
    ab = _require_ab(sc, "check")
    x, v = _state_grid(sc), _v_grid(sc.run, 5)
    hw = sc.force.source if sc.force.kind == "hw" else None
    names = ["closedness", "normalizing"]
    if hw is not None:
        names.append("collinearity")
    worst = np.empty((len(names), len(x), len(v)))
    rows = max(1, fields.BATCH_POINTS // len(v))
    for lo in range(0, len(x), rows):
        states = (x[lo:lo + rows, None, :], v[None, :])
        # with (h, W), one order-2 jet of W serves all three checks
        w2 = None if hw is None else hw.w_jet2(*states)
        jet = ab.jet(*states) if w2 is None else fields.derived_jet(hw, w2)
        coll = [] if w2 is None else [collinearity_defect(jet, w2)]
        del w2  # not held while the other residuals are computed
        parts = [closedness_residual(jet), normalizing_residual(jet)] + coll
        for k, r in enumerate(parts):
            worst[k, lo:lo + rows] = np.abs(r).reshape(
                r.shape[:2] + (-1,)).max(-1)
    for name, w in zip(names, worst):
        i, j = np.unravel_index(int(np.argmax(w)), w.shape)
        report.metric(f"{name}_max", float(w[i, j]),
                      float(sc.run[f"{name}_tol"]))
        report.info(f"{name} argmax at x={_point_str(x[i])} v={_fmt(v[j])}")


def cmd_trajectory(sc: Scenario, out_dir, report: Report):
    run = sc.run
    if "xdot0" not in run:
        raise ScenarioError("initial velocity is required", "run.xdot0")
    times, x, xdot = dynamics.integrate_batch(
        sc.force, run.get("x0", [0.0] * sc.dimension), run["xdot0"],
        float(run["t_max"]), float(run["dt"]))
    speeds = write_trajectory_csv(os.path.join(out_dir, "trajectory.csv"),
                                  sc.force.metric, times, x, xdot)
    report.info(f"steps {len(times) - 1}, final speed {_fmt(speeds[-1])}")


def cmd_shift(sc: Scenario, out_dir, report: Report):
    surface = sc.require_surface()
    if sc.force.kind != "custom":
        nu = solve_nu(surface, _require_ab(sc, "shift"),
                      float(sc.run["nu0"]), du=float(sc.run["du"]),
                      compat_tol=float(sc.run["compat_tol"]))
    else:
        # custom force: constant launch speed over the surface
        shape = tuple(len(a) for a in grid_axes(surface))
        nu = NuField(surface, np.full(shape, float(sc.run["nu0"])), 0.0)
    fam = normal_shift(nu, sc.force, float(sc.run["t_max"]),
                       float(sc.run["dt"]),
                       store_every=int(sc.run["store_every"]))
    per_layer = orthogonality_defect(fam)
    write_shift_family_csv(os.path.join(out_dir, "shift_family.csv"), fam)
    report.metric("nu_mixed_path_defect", nu.mixed_path_defect,
                  float(sc.run["compat_tol"]))
    report.metric("initial_defect", float(per_layer[0]),
                  float(sc.run["initial_defect_tol"]))
    report.metric("defect_max", float(np.max(per_layer)),
                  float(sc.run["defect_tol"]))
    worst = int(np.argmax(per_layer))
    report.info(f"defect argmax at layer {worst} "
                f"(t={_fmt(fam.times[worst])})")


def cmd_pfaff(sc: Scenario, out_dir, report: Report):
    ab = _require_ab(sc, "pfaff")
    run = sc.run
    # every path is read and checked before any output is written
    path = _path_from(run, "path")
    other = _path_from(run, "path2") if "path2" in run else None
    loop = _path_from(run, "loop") if "loop" in run else None
    if other is not None:
        _checked("run.path2", require_shared_ends, path.sample(), other)
    if loop is not None:
        _checked("run.loop", require_closed_loop, loop, sc.manifold)
    trace = continue_V(ab, path, float(run["w0"]), dt=float(run["dt"]))
    header = (["t"] + [f"x{i + 1}" for i in range(sc.dimension)]
              + ["V", "V_w"])
    write_csv(os.path.join(out_dir, "continuation.csv"), header,
              [np.column_stack([trace.t, trace.x, trace.V, trace.Vw])])
    report.info(f"endpoint V {_fmt(trace.end_V)}, V_w {_fmt(trace.end_Vw)}")
    if other is not None:
        defect = path_independence_defect(ab, trace, other,
                                          dt=float(run["dt"]))
        report.metric("path_independence_defect", defect,
                      float(run["path_tol"]))
    if loop is not None:
        defect = loop_closure_defect(loop, ab, float(run["nu0"]),
                                     dt=float(run["dt"]),
                                     manifold=sc.manifold)
        report.info(f"loop_closure_defect {_fmt(defect)}")


def cmd_fnorm(sc: Scenario, out_dir, report: Report):
    ab = _require_ab(sc, "fnorm")
    f_expr = sc.run.get("f")
    if f_expr is None:
        raise ScenarioError("weight expression is required", "run.f")
    weight = _checked("run.f", AdmissibleF, parse_expr(f_expr))
    est = f_norm_estimate(ab, weight, sc.force.metric, _state_grid(sc),
                          _v_grid(sc.run, 20))
    report.info(f"fnorm_estimate {_fmt(est.value)} (lower bound for the "
                f"supremum)")
    report.info(f"argmax at x={_point_str(est.argmax_x)} "
                f"v={_fmt(est.argmax_v)}")
    report.info(f"FLAG boundary_argmax_divergence_suspicion "
                f"{'true' if est.boundary_suspicion else 'false'}")


def cmd_monodromy(sc: Scenario, out_dir, report: Report):
    ab = _require_ab(sc, "monodromy")
    run = sc.run
    word = run.get("word", "g1")
    _checked("run.word", sc.manifold.word, word)
    p0 = [float(c) for c in run.get("p0", [0.0] * sc.dimension)]
    w = _w_grid(run)
    rho = monodromy(ab, sc.manifold, word, p0, w, dt=float(run["dt"]))
    write_csv(os.path.join(out_dir, "monodromy.csv"), ["w", "rho_w"],
              [np.column_stack([rho.w, rho.rho])])
    report.info(f"word '{word}', {len(w)} samples, "
                f"rho range [{_fmt(rho.rho[0])}, {_fmt(rho.rho[-1])}]")
    if not word.strip():
        report.metric("identity_defect",
                      float(np.max(np.abs(rho.rho - rho.w))), 1e-10)


def cmd_gauge(sc: Scenario, out_dir, report: Report):
    if sc.force.kind != "hw":
        raise ScenarioError("gauge needs field kind 'hw'", "field.kind")
    rho_src = sc.run.get("rho")
    if rho_src is None:
        raise ScenarioError("closed-form rho is required", "run.rho")
    rho = parse_expr(rho_src)
    x, xdot = _random_states(sc, int(sc.run["n_states"]))
    f0 = sc.force(x, xdot)
    f1 = fields.ForceField(gauge_transform(sc.force.source, rho),
                           sc.force.metric)(x, xdot)
    report.metric("gauge_force_discrepancy", float(np.max(np.abs(f1 - f0))),
                  float(sc.run["gauge_tol"]))


def cmd_extract_h(sc: Scenario, out_dir, report: Report):
    ab = _require_ab(sc, "extract-h")
    run = sc.run
    p0 = [float(c) for c in run.get("p0", [0.0] * sc.dimension)]
    v = _v_grid(run, 20)
    out = extract_h(ab, p0, v, dt=float(run.get("extract_dt", 1e-2)))
    write_csv(os.path.join(out_dir, "h_table.csv"), ["v", "h"],
              [np.column_stack([out.v, out.h])])
    report.metric("h_consistency_defect", out.consistency_defect,
                  float(run["h_tol"]))


COMMANDS = {
    "check": cmd_check,
    "trajectory": cmd_trajectory,
    "shift": cmd_shift,
    "pfaff": cmd_pfaff,
    "fnorm": cmd_fnorm,
    "monodromy": cmd_monodromy,
    "gauge": cmd_gauge,
    "extract-h": cmd_extract_h,
}

TOL_TARGET = {
    "check": ("closedness_tol", "normalizing_tol", "collinearity_tol"),
    "shift": ("defect_tol",),
    "pfaff": ("path_tol",),
    "gauge": ("gauge_tol",),
    "extract-h": ("h_tol",),
}
DT_TARGET = {"extract-h": "extract_dt"}  # --dt sets run.dt elsewhere


def build_parser():
    parser = argparse.ArgumentParser(
        prog="normalshift",
        description="Verify and run force fields admitting the normal "
                    "shift of hypersurfaces.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--dt", type=float, help="override run.dt "
                        "(run.extract_dt for extract-h)")
    parser.add_argument("--du", type=float, help="override run.du")
    parser.add_argument("--tol", type=float,
                        help="override the command's gate tolerance(s)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        sc = load_scenario(args.config)
        dt_key = DT_TARGET.get(args.command, "dt")
        overrides = {dt_key: args.dt, "du": args.du, **dict.fromkeys(
            TOL_TARGET.get(args.command, ()), args.tol)}
        sc.run.update((k, v) for k, v in overrides.items() if v is not None)
        validate_run(sc.run, sc.manifold)
    except (ConfigError, ScenarioError, OSError) as err:
        print(f"normalshift: {err}", file=sys.stderr)
        return 2
    os.makedirs(args.out, exist_ok=True)
    report = Report(args.command, args.config)
    try:
        COMMANDS[args.command](sc, args.out, report)
    except ScenarioError as err:
        print(f"normalshift: {err}", file=sys.stderr)
        return 2
    except NormalShiftError as err:
        report.info(f"ERROR {err}")
        report.failed = True
        report.write(args.out)
        print(f"normalshift: {err}", file=sys.stderr)
        return 1
    report.write(args.out)
    return 1 if report.failed else 0


gc.freeze()  # what the import built lives until exit: see the docstring

if __name__ == "__main__":
    raise SystemExit(main())
