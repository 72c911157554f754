"""Command-line front end: reports, gates, exit codes, reproducibility."""

import dataclasses
import filecmp
import importlib
import inspect
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import normalshift
from normalshift import cli, dynamics, fields, pfaff
from normalshift.cli import main
from normalshift.errors import ConfigError, ScenarioError
from normalshift.geometry import metric_at
from normalshift.scenario import load_scenario, parse_config

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def run_cli(command, config, out, *extra):
    return main([command, "--config", str(config), "--out", str(out)]
                + list(extra))


def read_report(out):
    return (Path(out) / "report.txt").read_text()


# --- config parsing ------------------------------------------------------------------

def test_parse_config_values():
    cfg = parse_config(
        '[sec]\nname = "abc"\nn = 3\nx = 1.5e-3\nflag = true\n'
        'arr = [[1, 2], [3, 4]]\n# comment\n')
    assert cfg["sec"]["name"] == "abc"
    assert cfg["sec"]["n"] == 3
    assert cfg["sec"]["x"] == 1.5e-3
    assert cfg["sec"]["flag"] is True
    assert cfg["sec"]["arr"] == [[1, 2], [3, 4]]


def test_parse_config_error_has_line_and_column():
    with pytest.raises(ConfigError) as exc:
        parse_config('[sec]\nkey = [1, 2\n')
    assert exc.value.line == 2
    assert exc.value.col >= 1
    with pytest.raises(ConfigError):
        parse_config("orphan = 1\n")


@pytest.mark.parametrize("text,line,named", [
    ("[sec]\nx = 1\nx = 2\n", 3, None),            # duplicate key
    ("[a]\nx = 1\n[a]\ny = 2\n", 3, None),         # reopened section
    ("[sec]\na = 1.\n", 2, None),                   # no digit after '.'
    ("[sec]\na = .5\n", 2, None),                   # no digit before '.'
    ("# top\n\norphan = 1\n[sec]\n", 3, "orphan"),  # outside any section
    ("orphan = 1\n[sec]\n", 1, "orphan"),
])
def test_parse_config_rejects_with_position(text, line, named):
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert exc.value.line == line
    assert exc.value.col >= 1
    if named:
        assert f"'{named}'" in str(exc.value)


def test_array_of_tables_is_not_a_section(tmp_path):
    cfg = tmp_path / "aot.toml"
    cfg.write_text('[manifold]\ndimension = 2\n[field]\nkind = "hw"\n'
                   'W = "v"\n[[run]]\ndt = 0.1\n')
    with pytest.raises(ScenarioError, match="^run: "):
        load_scenario(cfg)


def test_validation_error_has_field_path(tmp_path):
    bad = tmp_path / "bad.toml"
    bad.write_text("[manifold]\ndimension = 2\n"
                   "[field]\nkind = \"hw\"\nW = \"v*exp(x3)\"\nh = \"1\"\n")
    with pytest.raises(ScenarioError) as exc:
        load_scenario(bad)
    assert "field.W" in str(exc.value)


@pytest.mark.parametrize("extra,path", [
    ("[run]\nt_max = -1.0\n", "run.t_max"),
    ("[run]\ndt = 0\n", "run.dt"),
    ('[run]\ndt = "x"\n', "run.dt"),
    ("[run]\ndefect_tol = -1e-5\n", "run.defect_tol"),
    ("[run]\nseed = true\n", "run.seed"),
    ("[run]\nseed = 1.5\n", "run.seed"),
    ("[run]\nseed = -1\n", "run.seed"),
    ("[run]\ndt = nan\n", "run.dt"),
    ("[run]\ndu = inf\n", "run.du"),
    ("[run]\nt_max = inf\n", "run.t_max"),
    # finite and positive, but no finite step count: each overflowed the
    # int() of a step count
    ("[run]\ndt = 5e-324\n", "run.dt"),
    ("[run]\ndu = 5e-324\n", "run.du"),
    ("[run]\nextract_dt = 5e-324\n", "run.extract_dt"),
    ("[run]\nt_max = 1e308\n", "run.t_max"),
    ("[run]\ndefect_tol = nan\n", "run.defect_tol"),
    ("[run]\nstore_every = 0\n", "run.store_every"),
    ('[run]\nstore_every = "x"\n', "run.store_every"),
    ("[run]\nstore_every = 2.0\n", "run.store_every"),
    ("[run]\nn_states = 0\n", "run.n_states"),
    ("[run]\nv_points = 0\n", "run.v_points"),
    ("[run]\nw_points = -3\n", "run.w_points"),
    ("[run]\nw_min = 0.0\n", "run.w_min"),
    ('[run]\nxdot0 = [1.0, "a"]\n', "run.xdot0"),
    ("[run]\np0 = [0.0]\n", "run.p0"),
    ("[run]\ngrid_min = [nan, 0.0]\n", "run.grid_min"),
    ("[run]\ngrid_points = [0, 5]\n", "run.grid_points"),
    ("[run]\nv_grid = [0.0, 1.0]\n", "run.v_grid"),
    ("[run]\npath = [[0.0, 0.0], [1.0]]\n", "run.path"),
    ("[run]\nword = 5\n", "run.word"),
    ("[run]\nword = \"g3\"\n", "run.word"),
    ("[run]\nword = \"g1 h2\"\n", "run.word"),
    ("[run]\nf = 1\n", "run.f"),
    ("[run]\nf = \"x1\"\n", "run.f"),
    ("[run]\nf = \"v+\"\n", "run.f"),
    ("[run]\nrho = 1\n", "run.rho"),
    ("[run]\nrho = \"v*w\"\n", "run.rho"),
])
def test_run_section_validation(tmp_path, extra, path):
    cfg = tmp_path / "edge.toml"
    cfg.write_text('[manifold]\ndimension = 2\nmetric = "euclidean"\n'
                   '[field]\nkind = "hw"\nW = "v"\nh = "1"\n' + extra)
    with pytest.raises(ScenarioError) as exc:
        load_scenario(cfg)
    assert path in str(exc.value)


@pytest.mark.parametrize("command,config,extra,key", [
    ("check", "check_consistent", ["--tol", "-1"], "run.closedness_tol"),
    ("check", "check_consistent", ["--tol", "nan"], "run.closedness_tol"),
    ("gauge", "gauge_scale", ["--tol", "0"], "run.gauge_tol"),
    ("shift", "circle_shift", ["--dt", "0"], "run.dt"),
    ("shift", "circle_shift", ["--du", "inf"], "run.du"),
    ("pfaff", "pfaff_paths", ["--dt", "5e-324"], "run.dt"),
    ("shift", "circle_shift", ["--du", "5e-324"], "run.du"),
    ("extract-h", "extract_square", ["--dt", "5e-324"], "run.extract_dt"),
])
def test_cli_overrides_are_validated(tmp_path, capsys, command, config,
                                     extra, key):
    # an override goes through the same checks as the file's own value
    assert run_cli(command, SCENARIOS / f"{config}.toml", tmp_path,
                   *extra) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0.0, 0.0", "-1.0e308, 1.0e308"])
def test_degenerate_surface_range_is_named(tmp_path, capsys, value):
    # a zero width divided by zero in the frame check, with numpy's
    # warning, and failed as a nan Gram determinant
    cfg = tmp_path / "circle.toml"
    cfg.write_text((SCENARIOS / "circle_shift.toml").read_text()
                   .replace("0.0, 6.283185307179586", value))
    with np.errstate(all="raise"):
        assert run_cli("shift", cfg, tmp_path) == 2
    err = capsys.readouterr().err
    assert "surface.ranges: axis u1 needs a nonzero finite width" in err


@pytest.mark.parametrize("value", ["nan", "0.0", "-1.0", '"1.0"'])
def test_bad_surface_nu0_is_named(tmp_path, capsys, value):
    cfg = tmp_path / "circle.toml"
    cfg.write_text((SCENARIOS / "circle_shift.toml").read_text()
                   .replace("nu0 = 1.0", f"nu0 = {value}"))
    assert run_cli("shift", cfg, tmp_path) == 2
    err = capsys.readouterr().err
    assert "surface.nu0: expected a finite positive number" in err
    assert "run.nu0" not in err


@pytest.mark.parametrize("value", ["true", "1.0", "-1.0"])
def test_bad_surface_orientation_is_named(tmp_path, capsys, value):
    cfg = tmp_path / "circle.toml"
    cfg.write_text((SCENARIOS / "circle_shift.toml").read_text()
                   .replace("orientation = 1", f"orientation = {value}"))
    assert run_cli("shift", cfg, tmp_path) == 2
    assert "surface.orientation: orientation must be 1 or -1" \
        in capsys.readouterr().err


def test_surface_base_off_the_grid_is_named(tmp_path, capsys):
    # a configuration error found when the surface is loaded, not a
    # computation error of the shift
    cfg = tmp_path / "circle.toml"
    cfg.write_text((SCENARIOS / "circle_shift.toml").read_text()
                   .replace("base = [0.0]", "base = [0.01]"))
    assert run_cli("shift", cfg, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "surface.base: base point coordinate 0.01 is not a grid node" \
        in err
    assert not (tmp_path / "out" / "report.txt").exists()


@pytest.mark.parametrize("key", ["path", "path2"])
def test_coincident_path_points_are_named(tmp_path, capsys, key):
    cfg = tmp_path / "pfaff.toml"
    text = (SCENARIOS / "pfaff_paths.toml").read_text()
    old = [line for line in text.splitlines() if line.startswith(key + " =")]
    cfg.write_text(text.replace(
        old[0], f"{key} = [[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]]"))
    assert run_cli("pfaff", cfg, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert f"run.{key}: consecutive polyline points coincide" in err
    assert list((tmp_path / "out").iterdir()) == []  # nothing is written


_METRIC_2D = ('[manifold]\ndimension = 2\n{manifold}\n'
              '[field]\nkind = "hw"\nW = "v"\nh = "1"\n'
              '[run]\nt_max = 0.01\ndt = 0.01\nxdot0 = [1.0, 0.0]\n')


@pytest.mark.parametrize("manifold,key", [
    pytest.param('metric = "explicit"\nexplicit = [["1", "0"], ["0"]]',
                 "manifold.explicit[1]", id="short-row"),
    pytest.param('metric = "explicit"\nexplicit = [["1", "0"], 5]',
                 "manifold.explicit[1]", id="number-row"),
    pytest.param('metric = "explicit"\nexplicit = ["10", "01"]',
                 "manifold.explicit[0]", id="string-rows"),
    pytest.param('metric = "explicit"\n'
                 'explicit = [["2", "0", "7"], ["0", "3", "9"]]',
                 "manifold.explicit[0]", id="long-rows"),
    pytest.param('metric = "explicit"\nexplicit = [["1", "0"], ["x1", "1"]]',
                 "manifold.explicit", id="asymmetric"),
    pytest.param('metric = "explicit"\nexplicit = [["1", "0"], ["0", "-1"]]'
                 '\nperiods = [[1.0, 0.0]]',
                 "manifold.explicit", id="indefinite"),
    pytest.param('metric = "conformal"\nconformal = "log(x1)"'
                 '\nperiods = [[1.0, 0.0]]',
                 "manifold.conformal", id="conformal-off-domain"),
])
def test_metric_errors_name_the_metric_key(tmp_path, capsys, manifold, key):
    # every metric table is read like the other expression tables, and a
    # metric that cannot be evaluated where its periods are checked is
    # named by its own key
    cfg = tmp_path / "metric.toml"
    cfg.write_text(_METRIC_2D.format(manifold=manifold))
    assert run_cli("trajectory", cfg, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"normalshift: {key}: ")
    assert "Traceback" not in err and "manifold.periods" not in err
    assert not (tmp_path / "out" / "report.txt").exists()


@pytest.mark.parametrize("manifold,code", [
    pytest.param('metric = "conformal"\nconformal = "log(x1)"', 0,
                 id="conformal-in-domain"),
    pytest.param('metric = "explicit"\nexplicit = [["1", "0"], ["0", "-1"]]',
                 1, id="indefinite"),
])
def test_metric_without_periods_is_evaluated_where_it_is_used(
        tmp_path, capsys, manifold, code):
    # with no periods to compare it to, the metric is not sampled at load:
    # log(x1) serves a run that stays in x1 > 0, and an indefinite metric
    # fails the run that uses it
    cfg = tmp_path / "metric.toml"
    cfg.write_text(_METRIC_2D.format(manifold=manifold) + "x0 = [0.5, 0.0]\n")
    assert run_cli("trajectory", cfg, tmp_path / "out") == code
    errors = [line for line in read_report(tmp_path / "out").splitlines()
              if line.startswith("INFO ERROR ")]
    assert len(errors) == code
    if code:
        assert "metric not positive-definite" in errors[0]
        assert "metric not positive-definite" in capsys.readouterr().err


def test_scenario_holds_each_value_once():
    # the force carries the field's source, its kind and the metric
    sc = load_scenario(SCENARIOS / "check_consistent.toml")
    assert [f.name for f in dataclasses.fields(sc)] \
        == ["manifold", "force", "surface", "run"]
    assert sc.force.kind == "hw"
    assert sc.force.metric is sc.manifold.metric


def test_scenario_defaults_and_surface(tmp_path):
    sc = load_scenario(SCENARIOS / "circle_shift.toml")
    assert sc.dimension == 2
    assert sc.surface is not None
    assert sc.run["nu0"] == 1.0
    assert sc.run["seed"] == 0


# --- commands and exit codes ----------------------------------------------------------

def test_check_consistent_passes(tmp_path):
    code = run_cli("check", SCENARIOS / "check_consistent.toml", tmp_path)
    assert code == 0
    report = read_report(tmp_path)
    assert "METRIC closedness_max" in report
    assert "METRIC normalizing_max" in report
    assert "METRIC collinearity_max" in report
    assert "FAIL" not in report


def test_check_reads_v_grid(tmp_path):
    # speeds come from run.v_grid, as in fnorm and extract-h
    cfg = tmp_path / "grid.toml"
    cfg.write_text((SCENARIOS / "check_consistent.toml").read_text()
                   .replace("v_points = 5", "v_grid = [0.25, 3.5]"))
    assert run_cli("check", cfg, tmp_path / "out") == 0
    speeds = {line.rsplit(" v=", 1)[1]
              for line in read_report(tmp_path / "out").splitlines()
              if " argmax at " in line}
    assert speeds and speeds <= {"0.25", "3.5"}


def test_check_broken_pair_fails(tmp_path):
    code = run_cli("check", SCENARIOS / "check_broken.toml", tmp_path)
    assert code == 1
    report = read_report(tmp_path)
    line = next(l for l in report.splitlines()
                if l.startswith("METRIC normalizing_max"))
    assert line.endswith("FAIL")
    assert float(line.split()[2]) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("points", [15, 1])
@pytest.mark.parametrize("stem", ["check_consistent", "check_broken"])
def test_check_blocks_leave_the_report_unchanged(tmp_path, monkeypatch,
                                                 stem, points):
    # 15 points hold 3 grid rows (of 5 or 4 speeds), which divides
    # neither 25 nor 16 rows; 1 point still takes a whole row
    config = SCENARIOS / f"{stem}.toml"
    code = run_cli("check", config, tmp_path / "whole")
    monkeypatch.setattr(fields, "BATCH_POINTS", points)
    assert run_cli("check", config, tmp_path / "split") == code
    assert (tmp_path / "split" / "report.txt").read_bytes() \
        == (tmp_path / "whole" / "report.txt").read_bytes()


def test_check_evaluates_one_jet_per_block(tmp_path, monkeypatch):
    orders = []
    evaluate = fields.eval_tuple

    def counted(exprs, env, wrt, order):
        orders.append(order)
        return evaluate(exprs, env, wrt, order)

    monkeypatch.setattr(fields, "eval_tuple", counted)
    monkeypatch.setattr(fields, "BATCH_POINTS", 15)
    # hw: 25 rows of 5 speeds in 9 blocks, each with one order-2 jet of W
    # for both the derived jet and the collinearity check
    assert run_cli("check", SCENARIOS / "check_consistent.toml",
                   tmp_path / "hw") == 0
    assert orders.count(2) == 9
    # ab: 16 rows of 4 speeds in 6 blocks, one order-1 jet of the tuple
    # (b1, b2, a) each
    orders.clear()
    jets = []
    jet = fields.ABFields.jet

    def counted_jet(src, x, v):
        jets.append(np.shape(x))
        return jet(src, x, v)

    monkeypatch.setattr(fields.ABFields, "jet", counted_jet)
    assert run_cli("check", SCENARIOS / "check_broken.toml",
                   tmp_path / "ab") == 1
    assert len(jets) == 6
    assert orders == [1] * 6


def test_unknown_command_usage_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "--config", "x", "--out", "y"])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_missing_config_exit_2(tmp_path):
    assert run_cli("check", tmp_path / "nope.toml", tmp_path) == 2


def test_trajectory_csv_written(tmp_path):
    cfg = tmp_path / "traj.toml"
    cfg.write_text(
        '[manifold]\ndimension = 2\nmetric = "euclidean"\n'
        '[field]\nkind = "hw"\nW = "v"\nh = "1"\n'
        '[run]\nt_max = 0.1\ndt = 0.01\nxdot0 = [1.0, 0.0]\n')
    assert run_cli("trajectory", cfg, tmp_path) == 0
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,x1,x2,xdot1,xdot2,speed"
    assert len(lines) == 1 + 11  # header + initial + 10 steps


def test_trajectory_speed_column_is_the_metric_quadratic_form(tmp_path):
    # on an n = 3 explicit metric the speed column is, bitwise,
    # sqrt(xdot . g(x) . xdot) as one three-operand einsum over the
    # written states; lowering xdot first differs in the last bits on 27
    # of these 201 rows
    cfg = tmp_path / "traj3.toml"
    cfg.write_text(
        '[manifold]\ndimension = 3\nmetric = "explicit"\n'
        'explicit = [["1 + 0.3*x2^2", "0.2*x1", "0.1"],\n'
        '            ["0.2*x1", "2 + 0.1*x1*x3", "0"],\n'
        '            ["0.1", "0", "1.5 + 0.2*x3^2"]]\n'
        '[field]\nkind = "custom"\nF = ["0.1*x2", "-0.2", "0.3*x1"]\n'
        '[run]\nt_max = 0.2\ndt = 1e-3\nx0 = [0.1, -0.2, 0.3]\n'
        'xdot0 = [0.7, 0.4, -0.5]\n')
    assert run_cli("trajectory", cfg, tmp_path) == 0
    rows = np.loadtxt(tmp_path / "trajectory.csv", delimiter=",",
                      skiprows=1)
    assert rows.shape == (201, 8)
    x, xdot, speed = rows[:, 1:4], rows[:, 4:7], rows[:, 7]
    metric = load_scenario(cfg).force.metric
    want = np.sqrt(np.einsum("...i,...ij,...j->...", xdot,
                             metric_at(metric, x), xdot))
    assert speed.tobytes() == want.tobytes()
    assert f"final speed {want[-1]:.17g}" in read_report(tmp_path)


def test_computation_error_exits_1_with_a_report(tmp_path, capsys):
    # a zero initial velocity has no direction for the force: the
    # integration aborts at its first step
    cfg = tmp_path / "still.toml"
    cfg.write_text(
        '[manifold]\ndimension = 2\n'
        '[field]\nkind = "hw"\nW = "v"\nh = "1"\n'
        '[run]\nt_max = 0.1\ndt = 0.01\nxdot0 = [0.0, 0.0]\n')
    assert run_cli("trajectory", cfg, tmp_path) == 1
    lines = read_report(tmp_path).splitlines()
    assert lines[-2].startswith("INFO ERROR integration aborted at step 1 ")
    assert lines[-1] == "RESULT FAIL"
    assert capsys.readouterr().err.startswith(
        "normalshift: integration aborted at step 1 ")


def test_trajectory_on_a_conformal_metric_gains_unit_speed(tmp_path):
    # (h, W) = (1, v) gives a = 1 and b = 0, so dv/dt = 1 in any metric:
    # the g-speed column is s0 + t up to the RK4 error
    cfg = tmp_path / "conformal.toml"
    cfg.write_text(
        '[manifold]\ndimension = 2\nmetric = "conformal"\n'
        'conformal = "0.3*x1 - 0.2*x2"\n'
        '[field]\nkind = "hw"\nW = "v"\nh = "1"\n'
        '[run]\nt_max = 0.5\ndt = 0.01\nx0 = [0.1, -0.2]\n'
        'xdot0 = [0.8, 0.6]\n')
    assert run_cli("trajectory", cfg, tmp_path) == 0
    rows = np.loadtxt(tmp_path / "trajectory.csv", delimiter=",",
                      skiprows=1)
    t, speed = rows[:, 0], rows[:, -1]
    assert len(t) == 51
    assert np.max(np.abs(speed - (speed[0] + t))) < 1e-9


def test_shift_command_circle(tmp_path):
    code = run_cli("shift", SCENARIOS / "circle_shift.toml", tmp_path)
    assert code == 0
    report = read_report(tmp_path)
    assert "METRIC defect_max" in report
    assert "METRIC initial_defect" in report
    csv = (tmp_path / "shift_family.csv").read_text().splitlines()
    assert csv[0] == "i1,t,x1,x2,xdot1,xdot2,nu,defect"
    # header + nodes x stored layers (0.3/0.01 = 30 steps, every 10th + t=0)
    assert len(csv) == 1 + 128 * 4


def test_shift_with_a_custom_field_launches_at_nu0(tmp_path):
    # custom force data has no (a, b) to solve nu from: every node is
    # launched at the constant speed nu0, here 0.5 in free motion
    cfg = tmp_path / "custom.toml"
    cfg.write_text((SCENARIOS / "circle_shift.toml").read_text()
                   .replace('kind = "hw"\nW = "v"\nh = "1"',
                            'kind = "custom"\nF = ["0", "0"]')
                   .replace("nu0 = 1.0", "nu0 = 0.5"))
    assert run_cli("shift", cfg, tmp_path) == 0
    assert "METRIC nu_mixed_path_defect 0 " in read_report(tmp_path)
    rows = np.loadtxt(tmp_path / "shift_family.csv", delimiter=",",
                      skiprows=1)
    t, x, nu = rows[:, 1], rows[:, 2:4], rows[:, 6]
    assert np.all(nu == 0.5)
    # free motion along the unit normal: circles of radius 1 + 0.5 t
    radius = np.linalg.norm(x, axis=1)
    assert np.max(np.abs(radius - (1.0 + 0.5 * t))) < 1e-12


def test_pfaff_command_paths(tmp_path):
    code = run_cli("pfaff", SCENARIOS / "pfaff_paths.toml", tmp_path)
    assert code == 0
    report = read_report(tmp_path)
    assert "METRIC path_independence_defect" in report
    lines = (tmp_path / "continuation.csv").read_text().splitlines()
    assert lines[0] == "t,x1,x2,V,V_w"
    # two unit segments at dt = 1e-3: initial sample plus 2000 steps
    assert len(lines) == 1 + 2001


def test_pfaff_continues_each_path_once(tmp_path, monkeypatch):
    # path 1's trace serves both continuation.csv and the independence
    # audit, so only path 2 is continued again
    paths = []
    cont = pfaff._continue

    def counted(ab, path, *args, **kwargs):
        paths.append(np.asarray(path.points).tolist())
        return cont(ab, path, *args, **kwargs)

    monkeypatch.setattr(pfaff, "_continue", counted)
    assert run_cli("pfaff", SCENARIOS / "pfaff_paths.toml", tmp_path) == 0
    assert paths == [[[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]],
                     [[0.0, 0.0], [1.0, 1.0]]]


def test_pfaff_reports_the_loop_closure_defect(tmp_path):
    # once around the cylinder, the decay field scales V by e^{-pi}
    cfg = tmp_path / "loop.toml"
    cfg.write_text((SCENARIOS / "pfaff_paths.toml").read_text()
                   .replace('metric = "euclidean"', 'metric = "euclidean"\n'
                            'periods = [[6.283185307179586, 0.0]]')
                   + "loop = [[0.0, 0.0], [6.283185307179586, 0.0]]\n")
    assert run_cli("pfaff", cfg, tmp_path / "out") == 0
    line = next(l for l in read_report(tmp_path / "out").splitlines()
                if l.startswith("INFO loop_closure_defect "))
    assert float(line.split()[2]) == pytest.approx(1 - math.exp(-math.pi),
                                                   rel=1e-9)


@pytest.mark.parametrize("key,old,new", [
    pytest.param("run.path2", "path2 = [[0.0, 0.0], [1.0, 1.0]]",
                 "path2 = [[0.0, 0.0], [1.0, 1.5]]", id="path2-elsewhere"),
    pytest.param("run.loop", "path_tol = 1e-8", "path_tol = 1e-8\n"
                 "loop = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]",
                 id="open-loop"),
])
def test_pfaff_path_errors_are_configuration_errors(tmp_path, capsys, key,
                                                    old, new):
    # path 2 must share path's ends, and a loop must close (here, with no
    # deck translations, in the chart): checked before any continuation
    cfg = tmp_path / "pfaff.toml"
    text = (SCENARIOS / "pfaff_paths.toml").read_text()
    assert old in text
    cfg.write_text(text.replace(old, new))
    assert run_cli("pfaff", cfg, tmp_path / "out") == 2
    assert f"{key}: " in capsys.readouterr().err
    assert list((tmp_path / "out").iterdir()) == []  # nothing is written


@pytest.mark.parametrize("key,grid", [
    pytest.param("run.w_grid", "w_grid = [1.0, 3.0, 2.0]", id="unordered"),
    pytest.param("run.w_grid", "w_grid = [2.0]", id="one-node"),
    pytest.param("run.w_max", "w_min = 5.0\nw_max = 1.0", id="reversed"),
    pytest.param("run.w_max", "w_min = 2.0\nw_max = 2.0", id="empty-range"),
    pytest.param("run.w_points", "w_points = 1", id="one-point"),
])
def test_monodromy_grid_errors_are_configuration_errors(
        tmp_path, capsys, monkeypatch, key, grid):
    text = (SCENARIOS / "cylinder_monodromy.toml").read_text()
    text = "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith(("w_min", "w_max", "w_points")))
    cfg = tmp_path / "grid.toml"
    cfg.write_text(text + grid + "\n")
    runs = []
    monkeypatch.setattr(pfaff, "_continue", lambda *a, **k: runs.append(a))
    assert run_cli("monodromy", cfg, tmp_path / "out") == 2
    assert f"{key}: " in capsys.readouterr().err
    assert runs == []
    assert list((tmp_path / "out").iterdir()) == []


@pytest.mark.parametrize("f", ["0*v", "sqrt(v-1)", "log(v)"])
def test_non_positive_weight_is_a_configuration_error(tmp_path, capsys, f):
    # AdmissibleF's spot check reads the scenario value alone
    cfg = tmp_path / "fnorm.toml"
    text = (SCENARIOS / "fnorm_decay.toml").read_text()
    assert 'f = "v"' in text
    cfg.write_text(text.replace('f = "v"', f'f = "{f}"'))
    assert run_cli("fnorm", cfg, tmp_path / "out") == 2
    assert "run.f: " in capsys.readouterr().err
    assert list((tmp_path / "out").iterdir()) == []  # nothing is written


def test_monodromy_empty_word_and_given_grid(tmp_path):
    # the empty word maps every w to itself, which the identity_defect
    # gate checks, on the nodes of run.w_grid
    text = (SCENARIOS / "cylinder_monodromy.toml").read_text()
    cfg = tmp_path / "identity.toml"
    cfg.write_text(text.replace('word = "g1"', 'word = ""')
                   + "w_grid = [0.5, 1.25, 4.0]\n")
    assert run_cli("monodromy", cfg, tmp_path / "out") == 0
    report = read_report(tmp_path / "out")
    assert "INFO word '', 3 samples" in report
    assert "METRIC identity_defect 0 1e-10 PASS" in report
    rows = np.loadtxt(tmp_path / "out" / "monodromy.csv", delimiter=",",
                      skiprows=1)
    assert rows.tolist() == [[0.5, 0.5], [1.25, 1.25], [4.0, 4.0]]


def test_fnorm_command(tmp_path):
    code = run_cli("fnorm", SCENARIOS / "fnorm_decay.toml", tmp_path)
    assert code == 0
    report = read_report(tmp_path)
    assert "fnorm_estimate 0.5" in report
    assert "FLAG boundary_argmax_divergence_suspicion false" in report


def test_fnorm_divergence_flag(tmp_path):
    code = run_cli("fnorm", SCENARIOS / "fnorm_decay.toml", tmp_path,
                   "--tol", "1")  # tol irrelevant; reuse scenario
    assert code == 0
    cfg = tmp_path / "div.toml"
    cfg.write_text((SCENARIOS / "fnorm_decay.toml").read_text()
                   .replace('f = "v"', 'f = "v*v"'))
    out2 = tmp_path / "out2"
    assert run_cli("fnorm", cfg, out2) == 0
    assert "FLAG boundary_argmax_divergence_suspicion true" \
        in read_report(out2)


def test_gauge_command(tmp_path):
    code = run_cli("gauge", SCENARIOS / "gauge_scale.toml", tmp_path)
    assert code == 0
    report = read_report(tmp_path)
    line = next(l for l in report.splitlines()
                if l.startswith("METRIC gauge_force_discrepancy"))
    assert line.endswith("PASS")


def test_gauge_evaluates_both_forces_through_force_field(tmp_path,
                                                       monkeypatch):
    # the untransformed and the gauged force: one ForceField call each
    calls = []
    call = fields.ForceField.__call__

    def counted(ff, x, xdot):
        calls.append(ff.kind)
        return call(ff, x, xdot)

    monkeypatch.setattr(fields.ForceField, "__call__", counted)
    assert run_cli("gauge", SCENARIOS / "gauge_scale.toml", tmp_path) == 0
    assert calls == ["hw", "hw"]


def test_dt_override_reaches_extract_h(tmp_path, monkeypatch):
    # extract-h steps by run.extract_dt, which --dt sets for it
    seen, extract = [], cli.extract_h
    monkeypatch.setattr(cli, "extract_h", lambda *a, dt: seen.append(dt)
                        or extract(*a, dt=dt))
    run_cli("extract-h", SCENARIOS / "extract_square.toml", tmp_path,
            "--dt", "0.05")
    assert seen == [0.05]


def test_extract_h_command(tmp_path):
    code = run_cli("extract-h", SCENARIOS / "extract_square.toml", tmp_path)
    assert code == 0
    lines = (tmp_path / "h_table.csv").read_text().splitlines()
    assert lines[0] == "v,h"
    assert len(lines) == 21
    v, h = map(float, lines[1].split(","))
    assert h == pytest.approx(v * v, rel=1e-12)


def test_monodromy_command(tmp_path):
    code = run_cli("monodromy", SCENARIOS / "cylinder_monodromy.toml",
                   tmp_path)
    assert code == 0
    lines = (tmp_path / "monodromy.csv").read_text().splitlines()
    assert lines[0] == "w,rho_w"
    assert len(lines) == 6
    import math
    w, rho = map(float, lines[1].split(","))
    assert rho / w == pytest.approx(math.exp(math.pi), rel=1e-6)


def test_monodromy_inversion_skips_the_datum_derivative(tmp_path,
                                                         monkeypatch):
    # invert_V reads only W, so its run evaluates b alone, never the jet,
    # and compiles only the rate without V_w
    calls, compiled, compile_rate = [], [], fields._compile_rate

    def recorded(src, exprs, want_vw):
        compiled.append(want_vw)
        return compile_rate(src, exprs, want_vw)

    def counted(name):
        method = getattr(fields.ABFields, name)

        def call(src, x, v):
            calls.append(name)
            return method(src, x, v)
        return call

    for name in ("b_values", "jet"):
        monkeypatch.setattr(fields.ABFields, name, counted(name))
    monkeypatch.setattr(fields, "_compile_rate", recorded)
    assert run_cli("monodromy", SCENARIOS / "cylinder_monodromy.toml",
                   tmp_path) == 0
    assert "b_values" in calls
    assert "jet" not in calls
    assert compiled == [False]


def test_monodromy_default_word_is_checked(tmp_path, capsys):
    # without periods there is no generator g1 for the default word
    text = (SCENARIOS / "cylinder_monodromy.toml").read_text()
    cfg = tmp_path / "no_periods.toml"
    cfg.write_text("".join(line for line in text.splitlines(keepends=True)
                           if not line.startswith(("periods", "word"))))
    assert run_cli("monodromy", cfg, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "run.word" in err and "g1" in err


def test_tol_flag_overrides_gate(tmp_path):
    # loosening the gate turns the failing check into a pass
    code = run_cli("check", SCENARIOS / "check_broken.toml", tmp_path,
                   "--tol", "1.0")
    assert code == 0
    assert "FAIL" not in read_report(tmp_path)


def test_reruns_are_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert run_cli("gauge", SCENARIOS / "gauge_scale.toml", out) == 0
    assert (out1 / "report.txt").read_bytes() \
        == (out2 / "report.txt").read_bytes()
    out3, out4 = tmp_path / "c", tmp_path / "d"
    for out in (out3, out4):
        assert run_cli("shift", SCENARIOS / "circle_shift.toml", out) == 0
    match, mismatch, errors = filecmp.cmpfiles(
        out3, out4, ["report.txt", "shift_family.csv"], shallow=False)
    assert mismatch == [] and errors == []


def test_cli_start_up_does_not_import_scipy():
    # with scipy blocked, the CLI imports, and sampled and closed-form
    # maps evaluate, invert and gauge a force
    probe = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import numpy as np\n"
        "import normalshift.cli\n"
        "from normalshift.expr import parse\n"
        "from normalshift.fields import ForceField, HWPair\n"
        "from normalshift.geometry import MetricSpec\n"
        "from normalshift.pfaff import MonodromyMap, gauge_transform\n"
        "rho = MonodromyMap('g1', np.array([1.0, 2.0, 4.0]),\n"
        "                   np.array([2.0, 4.0, 9.0]))\n"
        "pair = HWPair(parse('v*exp(0.3*x1)'), parse('w'), 2)\n"
        "moved = gauge_transform(pair, parse('2*w'))\n"
        "out = [rho(1.5), rho.derivative(1.5), rho.inverse(5.0),\n"
        "       *ForceField(moved, MetricSpec(2))([0.1, 0.2], [1.0, 0.5])]\n"
        "print(all(np.isfinite(out)))\n")
    assert _python("-c", probe).stdout.split() == ["True"]


def _python(*args):
    """A fresh interpreter that imports this tree's `normalshift`."""
    src = str(Path(normalshift.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("enabled", [True, False])
def test_package_import_leaves_the_collector_as_it_found_it(enabled):
    probe = (f"import gc\ngc.{'enable' if enabled else 'disable'}()\n"
             "import normalshift\n"
             "print(gc.isenabled(), gc.get_freeze_count())\n")
    assert _python("-c", probe).stdout.split() == [str(enabled), "0"]


def test_cli_import_freezes_what_it_built():
    probe = ("import gc\nimport normalshift.cli\n"
             "print(gc.isenabled(), gc.get_freeze_count() > 0)\n")
    assert _python("-c", probe).stdout.split() == ["True", "True"]


def test_module_run_writes_the_in_process_bytes(tmp_path):
    config = SCENARIOS / "cylinder_monodromy.toml"
    spawned = _python("-m", "normalshift.cli", "monodromy", "--config",
                      str(config), "--out", str(tmp_path / "spawned"))
    assert spawned.returncode \
        == run_cli("monodromy", config, tmp_path / "in_process") == 0
    names = sorted(os.listdir(tmp_path / "in_process"))
    assert sorted(os.listdir(tmp_path / "spawned")) == names
    match, _, _ = filecmp.cmpfiles(tmp_path / "spawned",
                                   tmp_path / "in_process", names,
                                   shallow=False)
    assert match == names


def test_every_public_name_resolves():
    modules = [normalshift] + [
        importlib.import_module(f"normalshift.{info.name}")
        for info in pkgutil.iter_modules(normalshift.__path__)]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"


# names perfbench/tracer.py still lists but no module binds any more
STALE_TRACER_TARGETS = {("expr", "taylor_eval"),
                        ("fields", "taylor_eval"),
                        ("geometry", "taylor_eval"),
                        ("pfaff", "taylor_eval"),
                        ("fields", "ABFields.b_jet"),
                        ("fields", "DerivedAB.b_jet")}


def test_tracer_targets_resolve():
    # the benchmark's tracer patches these names from outside the
    # package; a name a refactor moves would read 0 calls, not fail
    path = SCENARIOS.parent / "perfbench" / "tracer.py"
    tracer = {"__name__": "tracer"}
    exec(compile(path.read_text(), str(path), "exec"), tracer)
    for span, places in tracer["TARGETS"].items():
        for module, attr in places:
            if (module, attr) in STALE_TRACER_TARGETS:
                continue
            owner = importlib.import_module(f"normalshift.{module}")
            for part in attr.split("."):
                owner = getattr(owner, part, None)
            assert callable(owner), f"{span}: normalshift.{module}.{attr}"
    # its lane count of an RK4 step reads the third positional argument
    params = list(inspect.signature(dynamics.rk4_step).parameters)
    assert params[2] in ("x", "xdot")


# --- recorded results of every scenario ----------------------------------------------

# Exit status and METRIC lines (name, value, threshold, verdict) of each
# scenario run through its command, as recorded from the reports.  A
# refactor that leaves the program's results alone reproduces them.
RECORDED = {
    "check_broken": ("check", 1, [
        ("closedness_max", 0.0, 1e-10, "PASS"),
        ("normalizing_max", 0.5, 1e-10, "FAIL")]),
    "check_consistent": ("check", 0, [
        ("closedness_max", 0.0, 1e-10, "PASS"),
        ("normalizing_max", 0.0, 1e-10, "PASS"),
        ("collinearity_max", 0.0, 1.0000000000000001e-09, "PASS")]),
    "circle_shift": ("shift", 0, [
        ("nu_mixed_path_defect", 0.0, 9.9999999999999995e-07, "PASS"),
        ("initial_defect", 4.4408920985006262e-16, 1e-10, "PASS"),
        ("defect_max", 1.1302241830312689e-14, 9.9999999999999995e-07,
         "PASS")]),
    "cylinder_monodromy": ("monodromy", 0, []),
    "extract_square": ("extract-h", 0, [
        ("h_consistency_defect", 0.0, 9.9999999999999995e-08, "PASS")]),
    "fnorm_decay": ("fnorm", 0, []),
    "gauge_scale": ("gauge", 0, [
        ("gauge_force_discrepancy", 4.4408920985006262e-16,
         1.0000000000000001e-09, "PASS")]),
    "pfaff_paths": ("pfaff", 0, [
        ("path_independence_defect", 8.8817841970012523e-16, 1e-08,
         "PASS")]),
    "sphere_shift": ("shift", 0, [
        ("nu_mixed_path_defect", 4.9027448767446913e-13,
         9.9999999999999995e-07, "PASS"),
        ("initial_defect", 4.6749404093945415e-16, 1e-10, "PASS"),
        ("defect_max", 5.5901057026976161e-06, 1.0000000000000001e-05,
         "PASS")]),
}
METRIC_RTOL = 1e-12
ZERO_FLOOR = 1e-15  # a recorded 0 may move by one rounding of an O(1) value


@pytest.mark.parametrize("stem", sorted(RECORDED))
def test_scenario_results_match_recorded_values(stem, tmp_path):
    command, exit_code, metrics = RECORDED[stem]
    assert run_cli(command, SCENARIOS / f"{stem}.toml", tmp_path) == exit_code
    got = [line.split()[1:] for line in read_report(tmp_path).splitlines()
           if line.startswith("METRIC ")]
    assert [(name, verdict) for name, _, _, verdict in got] \
        == [(name, verdict) for name, _, _, verdict in metrics]
    for (name, value, threshold, _), want in zip(got, metrics):
        assert float(threshold) == want[2], name
        limit = METRIC_RTOL * abs(want[1]) if want[1] else ZERO_FLOOR
        assert abs(float(value) - want[1]) <= limit, name
