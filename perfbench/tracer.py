"""In-memory span tracer for one CLI process, attached from outside the
program by patching names in the modules that use them.

A name must be patched in every module that binds it: `cli` imports
`solve_nu`, `monodromy` and friends at import time, `shift` imports
`integrate_batch` and `_continue`, and `fields`, `geometry` and `pfaff`
import `taylor_eval`.  Each span records its name, its parent span, start
and end (monotonic ns) and a lane count where one applies.  Spans stay in
memory and are written once, when the process ends; `aggregate` turns
them into per-layer metrics in the benchmark process.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array

import numpy as np

# span name -> the places it is bound, as (module, attribute path)
TARGETS = {
    "expr.taylor_eval": [(m, "taylor_eval") for m in
                         ("expr", "fields", "geometry", "pfaff")],
    "fields.b_values": [("fields", "ABFields.b_values"),
                        ("fields", "DerivedAB.b_values")],
    "fields.b_jet": [("fields", "ABFields.b_jet"),
                     ("fields", "DerivedAB.b_jet")],
    "fields.force": [("fields", "ForceField.__call__")],
    "fields.residuals": [("cli", "closedness_residual"),
                         ("cli", "normalizing_residual"),
                         ("cli", "collinearity_defect"),
                         ("pfaff", "closedness_residual"),
                         ("pfaff", "normalizing_residual")],
    "geometry.embed_with_tangents": [(m, "embed_with_tangents")
                                     for m in ("geometry", "shift")],
    "geometry.metric_at": [(m, "metric_at") for m in
                           ("geometry", "fields", "dynamics", "shift")],
    "geometry.surface_grid": [("shift", "surface_grid")],
    "dynamics.rk4_step": [("dynamics", "rk4_step")],
    "dynamics.integrate_batch": [(m, "integrate_batch")
                                 for m in ("dynamics", "shift")],
    "dynamics.write_trajectory_csv": [("cli", "write_trajectory_csv")],
    "pfaff.continuation": [(m, "_continue") for m in ("pfaff", "shift")],
    "pfaff.inversion": [("pfaff", "_invert_on_path")],
    "pfaff.monodromy": [("cli", "monodromy")],
    "pfaff.extract_h": [("cli", "extract_h")],
    "pfaff.path_independence_defect": [("cli", "path_independence_defect")],
    "pfaff.f_norm_estimate": [("cli", "f_norm_estimate")],
    "shift.solve_nu": [("cli", "solve_nu")],
    "shift.nu_grid_solve": [("shift", "_solve_nu_grid")],
    "shift.normal_shift": [("cli", "normal_shift")],
    "shift.orthogonality_defect": [(m, "orthogonality_defect")
                                   for m in ("cli", "shift")],
    "shift.write_shift_family_csv": [("cli", "write_shift_family_csv")],
    "scenario.load_scenario": [("cli", "load_scenario")],
}


def _taylor_name(args, kwargs):
    order = kwargs.get("order", args[3] if len(args) > 3 else 2)
    return f"expr.taylor_eval.o{order}"


def _taylor_lanes(args, kwargs, result):
    return int(np.size(result[0]))


def _rk4_lanes(args, kwargs, result):
    return int(np.prod(np.shape(args[2])[:-1], dtype=np.int64))


# span name -> (name from the call's arguments, lanes of the call)
SPECIAL = {
    "expr.taylor_eval": (_taylor_name, _taylor_lanes),
    "dynamics.rk4_step": (None, _rk4_lanes),
}


class Tracer:
    """Span store; `wrap` returns a traced version of a function."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.lanes = array("q")
        self._stack = [-1]
        self.missing = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, span, fn):
        name_of, lanes_of = SPECIAL.get(span, (None, None))
        fixed = self._id(span)
        stack, clock = self._stack, time.monotonic_ns
        names, parents, starts, ends, lanes = (
            self.name, self.parent, self.start, self.end, self.lanes)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(self._id(name_of(args, kwargs)) if name_of
                         else fixed)
            parents.append(stack[-1])
            ends.append(0)
            lanes.append(0)
            stack.append(sid)
            starts.append(clock())
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                ends[sid] = clock()
                stack.pop()
                if lanes_of is not None and result is not None:
                    lanes[sid] = lanes_of(args, kwargs, result)

        return traced

    def install(self):
        """Patch every target that exists; record the ones that do not
        (a later refactor may remove a layer, which then reads 0 calls)."""
        wrapped = {}
        for span, places in TARGETS.items():
            for module, path in places:
                owner = importlib.import_module(f"normalshift.{module}")
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part, None)
                fn = getattr(owner, attr, None) if owner is not None else None
                if fn is None:
                    self.missing.append(f"{module}.{path}")
                    continue
                key = (span, id(fn))
                if key not in wrapped:
                    wrapped[key] = self.wrap(span, fn)
                setattr(owner, attr, wrapped[key])

    def write(self, path):
        np.savez(path, name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 start=np.frombuffer(self.start, dtype=np.int64),
                 end=np.frombuffer(self.end, dtype=np.int64),
                 lanes=np.frombuffer(self.lanes, dtype=np.int64),
                 names=np.array(json.dumps(self.names)),
                 missing=np.array(json.dumps(self.missing)))


# --- aggregation (benchmark side) ------------------------------------------------------

def load(path):
    with np.load(path) as z:
        spans = {k: z[k] for k in ("name", "parent", "start", "end",
                                   "lanes")}
        names = json.loads(str(z["names"]))
        missing = json.loads(str(z["missing"]))
    return spans, names, missing


def aggregate(spans, names):
    """Per span name: calls, inclusive seconds, self seconds, lanes; plus
    the number of continuation runs made inside an inversion."""
    dur = (spans["end"] - spans["start"]).astype(float) * 1e-9
    parent = spans["parent"]
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_s = dur - child
    out = {}
    for i, name in enumerate(names):
        sel = spans["name"] == i
        out[name] = {"calls": int(np.count_nonzero(sel)),
                     "s": float(np.sum(dur[sel])),
                     "self_s": float(np.sum(self_s[sel])),
                     "lanes": int(np.sum(spans["lanes"][sel]))}
    # parents precede children, so one forward sweep finds every span
    # that runs inside an inversion
    inv = names.index("pfaff.inversion") if "pfaff.inversion" in names else -1
    cont = (names.index("pfaff.continuation")
            if "pfaff.continuation" in names else -1)
    kinds, parents = spans["name"].tolist(), parent.tolist()
    under = [False] * len(kinds)
    nested = 0
    for sid, par in enumerate(parents):
        under[sid] = par >= 0 and (under[par] or kinds[par] == inv)
        nested += under[sid] and kinds[sid] == cont
    out["pfaff.continuation_in_inversion"] = {"calls": nested}
    return out
