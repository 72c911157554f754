"""Scenario files: a small sectioned key/value format (TOML-style) with
strings, numbers, booleans and nested arrays.

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

from dataclasses import dataclass, field

from .errors import ConfigError, NormalShiftError, ScenarioError
from .expr import parse as parse_expr
from .fields import ABFields, DerivedAB, ForceField, HWPair
from .geometry import CoveringManifold, Hypersurface, MetricSpec

__all__ = ["Scenario", "load_scenario", "parse_config"]


# --- config text -> nested dict -------------------------------------------------

class _Cursor:
    def __init__(self, text, line_no):
        self.text = text
        self.line = line_no
        self.pos = 0

    def error(self, message):
        raise ConfigError(message, self.line, self.pos + 1)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self):
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def at_end(self):
        self.skip_ws()
        return self.pos >= len(self.text) or self.peek() == "#"


def _parse_value(cur: _Cursor):
    cur.skip_ws()
    c = cur.peek()
    if c == '"':
        cur.pos += 1
        start = cur.pos
        while cur.pos < len(cur.text) and cur.text[cur.pos] != '"':
            cur.pos += 1
        if cur.pos >= len(cur.text):
            cur.error("unterminated string")
        value = cur.text[start:cur.pos]
        cur.pos += 1
        return value
    if c == "[":
        cur.pos += 1
        items = []
        while True:
            cur.skip_ws()
            if cur.peek() == "]":
                cur.pos += 1
                return items
            items.append(_parse_value(cur))
            cur.skip_ws()
            if cur.peek() == ",":
                cur.pos += 1
            elif cur.peek() == "]":
                cur.pos += 1
                return items
            else:
                cur.error("expected ',' or ']' in array")
    start = cur.pos
    while cur.pos < len(cur.text) and cur.text[cur.pos] not in " \t,]#":
        cur.pos += 1
    token = cur.text[start:cur.pos]
    if not token:
        cur.error("expected a value")
    if token == "true":
        return True
    if token == "false":
        return False
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        cur.pos = start
        cur.error(f"cannot parse value '{token}'")


def parse_config(text: str) -> dict:
    """Sectioned key/value text -> {section: {key: value}}."""
    sections: dict = {}
    current = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ConfigError("unterminated section header", line_no,
                                  len(raw))
            name = stripped[1:-1].strip()
            if not name:
                raise ConfigError("empty section name", line_no, 1)
            current = sections.setdefault(name, {})
            continue
        if "=" not in stripped:
            raise ConfigError("expected 'key = value'", line_no,
                              len(raw) - len(raw.lstrip()) + 1)
        if current is None:
            raise ConfigError("key outside of any [section]", line_no, 1)
        key, _, rest = raw.partition("=")
        cur = _Cursor(rest, line_no)
        cur.pos = 0
        value = _parse_value(cur)
        if not cur.at_end():
            cur.error("trailing characters after value")
        current[key.strip()] = value
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


def _floats(value, path, length=None):
    if not isinstance(value, list) or (
            length is not None and len(value) != length):
        raise ScenarioError(
            f"expected an array{f' of length {length}' if length else ''}",
            path)
    try:
        return [float(v) for v in value]
    except (TypeError, ValueError):
        raise ScenarioError("expected numeric entries", path) from None


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
    if not isinstance(grid, list) or len(grid) != k \
            or not all(isinstance(g, int) and g >= 2 for g in grid):
        raise ScenarioError(f"expected {k} node counts >= 2", "surface.grid")
    closed = sec.get("closed", [False] * k)
    if not isinstance(closed, list) or len(closed) != k \
            or not all(isinstance(c, bool) for c in closed):
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
        text = fh.read()
    sections = parse_config(text)
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
    if "surface" in sections and "nu0" in sections["surface"]:
        run["nu0"] = sections["surface"]["nu0"]
    for key in ("dt", "du", "t_max", "w0", "nu0"):
        if not isinstance(run[key], (int, float)) or isinstance(run[key], bool):
            raise ScenarioError("expected a number", f"run.{key}")
        low = 0.0 if key == "t_max" else None
        if (run[key] < low) if low is not None else (run[key] <= 0):
            raise ScenarioError(
                f"{key} must be {'non-negative' if low is not None else 'positive'}",
                f"run.{key}")
    for key in run:
        if key.endswith("_tol"):
            if not isinstance(run[key], (int, float)) \
                    or isinstance(run[key], bool) or run[key] <= 0:
                raise ScenarioError("tolerances must be positive numbers",
                                    f"run.{key}")
    if not isinstance(run["seed"], int) or isinstance(run["seed"], bool):
        raise ScenarioError("seed must be an integer", "run.seed")
    return Scenario(n, metric, manifold, kind, hw, ab, force, surface, run)
