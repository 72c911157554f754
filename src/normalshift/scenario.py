"""Scenario files: TOML 1.0, read by the standard library's `tomllib`,
with every key inside a [section].

A scenario collects four sections:

    [manifold]  dimension, metric kind, conformal/explicit entries,
                deck translation periods
    [field]     force data: (h, W), (a, b), or custom components
    [surface]   parametric hypersurface, grid, base point, nu0
    [run]       command parameters: steps, grids, paths, words,
                tolerances, seed

Parsing reports line/column positions; validation reports dotted field
paths.  Expressions inside the config are strings in the expression DSL.
"""

from __future__ import annotations

import re
import sys
import tomllib
from dataclasses import dataclass, field

from .errors import ConfigError, NormalShiftError, ScenarioError
from .expr import parse as parse_expr
from .fields import ABFields, DerivedAB, ForceField, HWPair
from .geometry import CoveringManifold, Hypersurface, MetricSpec

__all__ = ["Scenario", "load_scenario", "parse_config", "validate_run"]


# --- config text -> nested dict -------------------------------------------------

_AT = re.compile(
    r"(.*?)(?: \(at (?:line (\d+), column (\d+)|end of document)\))?$", re.S)
_FIRST_STATEMENT = re.compile(r"^[ \t]*([^\s#])", re.M)


def parse_config(text: str) -> dict:
    """TOML text -> {section: {key: value}}.  Every failure is a
    ConfigError with a line and column."""
    try:
        sections = tomllib.loads(text)
    except tomllib.TOMLDecodeError as err:
        message, line, col = _AT.match(str(err)).groups()
        if line is None:
            # at the end of the document: after the last line holding
            # anything, so an unclosed array names the line it opened on
            tail = text.rstrip().split("\n")
            line, col = len(tail), len(tail[-1]) + 1
        raise ConfigError(message, int(line), int(col)) from None
    # TOML puts every top-level key before the first header, so a first
    # statement that is not a header is one
    first = _FIRST_STATEMENT.search(text)
    if first and first[1] != "[":
        raise ConfigError(
            f"key '{next(iter(sections))}' outside of any [section]",
            text.count("\n", 0, first.start()) + 1,
            first.start(1) - first.start() + 1)
    return sections


# --- validated scenario ------------------------------------------------------------

RUN_DEFAULTS = {
    "seed": 0,
    "dt": 1e-3,
    "du": 1e-2,
    "t_max": 0.5,
    "store_every": 1,
    "w0": 1.0,
    "nu0": 1.0,
    "n_states": 20,
    "closedness_tol": 1e-10,
    "normalizing_tol": 1e-10,
    "collinearity_tol": 1e-9,
    "defect_tol": 1e-5,
    "initial_defect_tol": 1e-10,
    "compat_tol": 1e-6,
    "path_tol": 1e-8,
    "gauge_tol": 1e-9,
    "h_tol": 1e-7,
}


def _real(x):
    """An int or float (not a bool) that converts to a finite float."""
    return type(x) in (int, float) and abs(x) <= sys.float_info.max


def _count(x):
    return _real(x) and isinstance(x, int) and x > 0


def _array(x, entry, length):
    """A nonempty list of `length` (None: any) entries passing `entry`."""
    return (isinstance(x, list) and len(x) > 0
            and (length is None or len(x) == length)
            and all(entry(e) for e in x))


# What each [run] value a command reads must be, in n dimensions; the
# keys ending in _tol are _POSITIVE too.
_POSITIVE = (lambda x, n: _real(x) and x > 0, "a finite positive number")
_RUN_RULES = {
    "seed": (lambda x, n: _real(x) and isinstance(x, int) and x >= 0,
             "a non-negative integer"),
    "t_max": (lambda x, n: _real(x) and x >= 0,
              "a finite non-negative number"),
    **dict.fromkeys(("dt", "du", "w0", "nu0", "extract_dt", "v_min",
                     "v_max", "w_min", "w_max"), _POSITIVE),
    **dict.fromkeys(("store_every", "n_states", "v_points", "w_points"),
                    (lambda x, n: _count(x), "a positive integer")),
    **dict.fromkeys(("x0", "xdot0", "p0", "grid_min", "grid_max"),
                    (lambda x, n: _array(x, _real, n),
                     "an array of {n} finite numbers")),
    "grid_points": (lambda x, n: _array(x, _count, n),
                    "an array of {n} positive integers"),
    **dict.fromkeys(("v_grid", "w_grid"), (
        lambda x, n: _array(x, lambda e: _real(e) and e > 0, None),
        "an array of finite positive numbers")),
    **dict.fromkeys(("path", "path2", "loop"), (
        lambda x, n: _array(x, lambda p: _array(p, _real, n), None),
        "an array of points, each {n} finite numbers")),
}


def validate_run(run: dict, n: int) -> None:
    """Check every [run] value a command reads, in n dimensions; a failure
    names run.<key>.  The CLI runs this again after its overrides."""
    for key, value in run.items():
        test, what = _RUN_RULES.get(
            key, _POSITIVE if key.endswith("_tol") else (None, None))
        if test and not test(value, n):
            raise ScenarioError("expected " + what.format(n=n), f"run.{key}")


@dataclass(eq=False)
class Scenario:
    dimension: int
    metric: MetricSpec
    manifold: CoveringManifold
    field_kind: str
    hw: HWPair | None
    ab: object | None            # ABFields or DerivedAB
    force: ForceField
    surface: Hypersurface | None
    run: dict = field(default_factory=dict)

    def require_surface(self):
        if self.surface is None:
            raise ScenarioError("section is required by this command",
                                "surface")
        return self.surface


def _expr(value, path, allowed):
    if not isinstance(value, str):
        raise ScenarioError(f"expected an expression string, got {value!r}",
                            path)
    try:
        e = parse_expr(value)
    except NormalShiftError as err:
        raise ScenarioError(f"bad expression: {err}", path) from None
    extra = set(e.free_vars) - set(allowed)
    if extra:
        raise ScenarioError(
            f"unknown variables {sorted(extra)} (allowed: {sorted(allowed)})",
            path)
    return e


def _exprs(value, path, length, allowed):
    if not isinstance(value, list) or len(value) != length:
        raise ScenarioError(f"expected {length} components", path)
    return tuple(_expr(c, f"{path}[{i}]", allowed)
                 for i, c in enumerate(value))


def _floats(value, path, length):
    if not _array(value, _real, length):
        raise ScenarioError(f"expected an array of {length} finite numbers",
                            path)
    return [float(v) for v in value]


def _build_metric(man: dict, n: int) -> MetricSpec:
    kind = man.get("metric", "euclidean")
    coords = [f"x{i + 1}" for i in range(n)]
    if kind == "euclidean":
        return MetricSpec(n)
    if kind == "conformal":
        lam = _expr(man.get("conformal"), "manifold.conformal", coords)
        return MetricSpec(n, kind="conformal", conformal=lam)
    if kind == "explicit":
        rows = man.get("explicit")
        if not isinstance(rows, list) or len(rows) != n:
            raise ScenarioError(f"expected {n} rows", "manifold.explicit")
        entries = tuple(
            tuple(_expr(rows[i][j], f"manifold.explicit[{i}][{j}]", coords)
                  for j in range(n))
            for i in range(n))
        return MetricSpec(n, kind="explicit", entries=entries)
    raise ScenarioError(f"unknown metric kind '{kind}'", "manifold.metric")


def _build_field(sec: dict, n: int, metric: MetricSpec):
    kind = sec.get("kind", "")
    coords = [f"x{i + 1}" for i in range(n)]
    if kind == "hw":
        W = _expr(sec.get("W"), "field.W", coords + ["v"])
        h = _expr(sec.get("h", "1"), "field.h", ["w"])
        try:
            hw = HWPair(W, h, n)
        except NormalShiftError as err:
            raise ScenarioError(str(err), "field") from None
        return kind, hw, DerivedAB(hw), ForceField(hw, metric)
    if kind == "ab":
        a = _expr(sec.get("a"), "field.a", coords + ["v"])
        ab = ABFields(a, _exprs(sec.get("b"), "field.b", n, coords + ["v"]))
        return kind, None, ab, ForceField(ab, metric)
    if kind == "custom":
        allowed = coords + [f"xdot{i + 1}" for i in range(n)] + ["v"]
        F = _exprs(sec.get("F"), "field.F", n, allowed)
        return kind, None, None, ForceField(F, metric)
    raise ScenarioError("kind must be 'hw', 'ab' or 'custom'", "field.kind")


def _build_surface(sec: dict, n: int) -> Hypersurface:
    k = n - 1
    params = [f"u{i + 1}" for i in range(k)]
    parametrization = _exprs(sec.get("parametrization"),
                             "surface.parametrization", n, params)
    ranges_raw = sec.get("ranges")
    if not isinstance(ranges_raw, list) or len(ranges_raw) != k:
        raise ScenarioError(f"expected {k} ranges", "surface.ranges")
    ranges = tuple(tuple(_floats(r, f"surface.ranges[{i}]", 2))
                   for i, r in enumerate(ranges_raw))
    grid = sec.get("grid")
    if not _array(grid, lambda g: _count(g) and g >= 2, k):
        raise ScenarioError(f"expected {k} node counts >= 2", "surface.grid")
    closed = sec.get("closed", [False] * k)
    if not _array(closed, lambda c: isinstance(c, bool), k):
        raise ScenarioError(f"expected {k} booleans", "surface.closed")
    base = _floats(sec.get("base", [0.0] * k), "surface.base", k)
    orientation = sec.get("orientation", 1)
    if orientation not in (1, -1):
        raise ScenarioError("orientation must be 1 or -1",
                            "surface.orientation")
    try:
        return Hypersurface(n, parametrization, ranges, tuple(grid),
                            tuple(base), tuple(closed), orientation)
    except NormalShiftError as err:
        raise ScenarioError(str(err), "surface") from None


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario file."""
    with open(path, "r") as fh:
        sections = parse_config(fh.read())
    for name, sec in sections.items():
        if not isinstance(sec, dict):  # an array of tables, [[name]]
            raise ScenarioError("expected a [section] table", name)
    man = sections.get("manifold")
    if not man:
        raise ScenarioError("section is required", "manifold")
    n = man.get("dimension")
    if not isinstance(n, int) or n < 2:
        raise ScenarioError("dimension must be an integer >= 2",
                            "manifold.dimension")
    metric = _build_metric(man, n)
    periods = man.get("periods", [])
    if not isinstance(periods, list):
        raise ScenarioError("expected an array of translation vectors",
                            "manifold.periods")
    gens = tuple(tuple(_floats(p, f"manifold.periods[{i}]", n))
                 for i, p in enumerate(periods))
    try:
        manifold = CoveringManifold(metric, gens)
    except NormalShiftError as err:
        raise ScenarioError(str(err), "manifold.periods") from None

    fld = sections.get("field")
    if not fld:
        raise ScenarioError("section is required", "field")
    kind, hw, ab, force = _build_field(fld, n, metric)

    surface = None
    if "surface" in sections:
        surface = _build_surface(sections["surface"], n)

    run = dict(RUN_DEFAULTS)
    run.update(sections.get("run", {}))
    if "nu0" in sections.get("surface", {}):
        run["nu0"] = sections["surface"]["nu0"]
    validate_run(run, n)
    return Scenario(n, metric, manifold, kind, hw, ab, force, surface, run)
