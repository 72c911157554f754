"""Command-line front end: reports, gates, exit codes, reproducibility."""

import filecmp
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import normalshift
from normalshift import expr, fields
from normalshift.cli import main
from normalshift.errors import ConfigError, ScenarioError
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
])
def test_cli_overrides_are_validated(tmp_path, capsys, command, config,
                                     extra, key):
    # an override goes through the same checks as the file's own value
    assert run_cli(command, SCENARIOS / f"{config}.toml", tmp_path,
                   *extra) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "0.0", "-1.0", '"1.0"'])
def test_bad_surface_nu0_is_named(tmp_path, capsys, value):
    cfg = tmp_path / "circle.toml"
    cfg.write_text((SCENARIOS / "circle_shift.toml").read_text()
                   .replace("nu0 = 1.0", f"nu0 = {value}"))
    assert run_cli("shift", cfg, tmp_path) == 2
    err = capsys.readouterr().err
    assert "surface.nu0: expected a finite positive number" in err
    assert "run.nu0" not in err


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
    taylor = expr.taylor_eval

    def counted(e, env, wrt=(), order=2):
        orders.append(order)
        return taylor(e, env, wrt, order)

    monkeypatch.setattr(expr, "taylor_eval", counted)
    monkeypatch.setattr(fields, "BATCH_POINTS", 15)
    # hw: 25 rows of 5 speeds in 9 blocks, each with W's order-2 jet
    # once in ab.jet and once in hw.w_jet2
    assert run_cli("check", SCENARIOS / "check_consistent.toml",
                   tmp_path / "hw") == 0
    assert orders.count(2) == 2 * 9
    # ab: 16 rows of 4 speeds in 6 blocks, one order-1 jet of (b1, b2, a)
    # each
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
    assert orders == [1] * 3 * 6


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


def test_pfaff_command_paths(tmp_path):
    code = run_cli("pfaff", SCENARIOS / "pfaff_paths.toml", tmp_path)
    assert code == 0
    report = read_report(tmp_path)
    assert "METRIC path_independence_defect" in report
    lines = (tmp_path / "continuation.csv").read_text().splitlines()
    assert lines[0] == "t,x1,x2,V,V_w"
    # two unit segments at dt = 1e-3: initial sample plus 2000 steps
    assert len(lines) == 1 + 2001


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
        "from normalshift.fields import HWPair, force_hw\n"
        "from normalshift.geometry import MetricSpec\n"
        "from normalshift.pfaff import MonodromyMap, gauge_transform\n"
        "rho = MonodromyMap('g1', np.array([1.0, 2.0, 4.0]),\n"
        "                   np.array([2.0, 4.0, 9.0]))\n"
        "pair = HWPair(parse('v*exp(0.3*x1)'), parse('w'), 2)\n"
        "moved = gauge_transform(pair, parse('2*w'))\n"
        "out = [rho(1.5), rho.derivative(1.5), rho.inverse(5.0),\n"
        "       *force_hw(moved, MetricSpec(2), [0.1, 0.2], [1.0, 0.5])]\n"
        "print(all(np.isfinite(out)))\n")
    src = str(Path(normalshift.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, timeout=120,
                         check=True)
    assert out.stdout.split() == ["True"]


def test_every_public_name_resolves():
    modules = [normalshift] + [
        importlib.import_module(f"normalshift.{info.name}")
        for info in pkgutil.iter_modules(normalshift.__path__)]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"


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
