"""End-to-end benchmark of the `normalshift` CLI.

    python3 perfbench/run.py --workload shift|continuation|audit \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding `src/`).
The benchmark generates the workload's scenario files from the seed, then
runs passes over the workload's CLI commands until S seconds are used,
with at least two passes.  Every CLI run is a fresh process, because
users pay interpreter start, imports and scenario loading on every run.
Every run's outputs are checked against closed forms (workloads.py), and
against the outputs of the same run in the first pass, byte for byte.

With --trace 0 it reports, per workload:
  setup_s      process start until the scenario is loaded; median over
               every CLI launch of the run
  wall_s       wall time of one pass over the workload's CLI runs, set-up
               included; median over passes
  peak_rss_mb  largest resident set of any CLI process in a pass; median
               over passes
  ok_ratio     runs that met every check / runs attempted (failed_ratio
               is 1 - ok_ratio; the last line carries both counts)

With --trace 1 the passes alternate between untraced and traced; the
traced ones record spans around each layer (tracer.py) and report the
per-layer metrics, per pass.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  `correct` is false when a run failed in a way no recorded
program defect explains; `failed` also counts the runs that show a
recorded defect (workloads.COLLINEARITY_DEFECT).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))

WORK_DIR = ".perfbench_work"
DEADLINE_S = 165.0          # the whole benchmark ends well within 180 s
MIN_PASSES = 2
OVERRUN = 1.3               # a pass may end this far past --seconds

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS")

# Per-layer metric -> (unit, the end-to-end metric and workload it should
# move).  A time is summed over one traced pass; a count is per pass.
LAYERS = {
    "expr.taylor_eval.o0.calls": ("count", "wall_s on continuation"),
    "expr.taylor_eval.o0.self_s": ("s", "wall_s on continuation"),
    "expr.taylor_eval.o1.calls": ("count", "wall_s on audit and shift"),
    "expr.taylor_eval.o1.self_s": ("s", "wall_s on audit and shift"),
    "expr.taylor_eval.o2.calls": ("count", "wall_s on audit"),
    "expr.taylor_eval.o2.self_s": ("s", "wall_s on audit"),
    "expr.taylor_eval.lanes": ("count", "wall_s on all"),
    "expr.taylor_eval.lanes_per_call": ("count", "wall_s on all"),
    "fields.b_values.calls": ("count", "wall_s on continuation"),
    "fields.b_values.s": ("s", "wall_s on continuation"),
    "fields.b_jet.calls": ("count", "wall_s on continuation and audit"),
    "fields.b_jet.s": ("s", "wall_s on continuation and audit"),
    "fields.force.calls": ("count", "wall_s on shift"),
    "fields.force.s": ("s", "wall_s on shift"),
    "fields.residuals.calls": ("count", "wall_s on audit"),
    "fields.residuals.self_s": ("s", "wall_s on audit"),
    "geometry.embed_with_tangents.calls": ("count", "wall_s on shift"),
    "geometry.embed_with_tangents.s": ("s", "wall_s on shift"),
    "geometry.metric_at.calls": ("count", "wall_s on shift"),
    "geometry.metric_at.s": ("s", "wall_s on shift"),
    "geometry.surface_grid.s": ("s", "wall_s on shift"),
    "dynamics.rk4_step.calls": ("count", "wall_s on shift and audit"),
    "dynamics.rk4_step.self_s": ("s", "wall_s on shift and audit"),
    "dynamics.integrate_batch.s": ("s", "wall_s on shift and audit"),
    "dynamics.lane_steps": ("count", "wall_s on shift and audit"),
    "dynamics.write_trajectory_csv.s": ("s", "wall_s on audit"),
    "pfaff.continuation_runs": ("count", "wall_s on continuation"),
    "pfaff.continuation.self_s": ("s", "wall_s on continuation"),
    "pfaff.inversions": ("count", "wall_s on continuation"),
    "pfaff.runs_per_inversion": ("count", "wall_s on continuation"),
    "pfaff.monodromy.s": ("s", "wall_s on continuation"),
    "pfaff.extract_h.s": ("s", "wall_s on continuation"),
    "pfaff.path_independence_defect.s": ("s", "wall_s on continuation"),
    "pfaff.f_norm_estimate.s": ("s", "wall_s on audit"),
    "shift.solve_nu.calls": ("count", "wall_s on shift"),
    "shift.solve_nu.s": ("s", "wall_s on shift"),
    "shift.nu_grid_solves": ("count", "wall_s on shift"),
    "shift.normal_shift.s": ("s", "wall_s on shift"),
    "shift.orthogonality_defect.s": ("s", "wall_s on shift"),
    "shift.write_shift_family_csv.s": ("s", "wall_s and peak_rss_mb on shift"),
    "scenario.load_scenario.s": ("s", "setup_s on all"),
    "cli.import_s": ("s", "setup_s on all"),
    "cli.launches": ("count", "base of the two set-up times above"),
    "trace.overhead_s": ("s", "traced minus untraced pass wall time"),
}

# Per-layer metrics that go into the result line: every count, and the
# times of the layers that every workload enters.  A time of a layer that
# a workload never enters would read 0 on every run; the trace table
# prints it.
PER_LAYER_REPORTED = [
    name for name, (unit, _) in LAYERS.items()
    if name != "cli.launches" and (unit == "count" or name in (
        "expr.taylor_eval.o0.self_s", "expr.taylor_eval.o1.self_s",
        "fields.b_values.s", "scenario.load_scenario.s", "cli.import_s",
        "trace.overhead_s"))]


# --- one CLI run -------------------------------------------------------------------------

@dataclass
class Outcome:
    run: str
    wall_s: float
    setup_s: float
    import_s: float
    rss_mb: float
    cpu_s: float
    status: str                 # "ok" | recorded defect id | "unexpected"
    problems: list = field(default_factory=list)
    spans: str | None = None    # span file of a traced run


def _digest(out_dir):
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


class Bench:
    """One benchmark run: its CLI launches, their checks, and the scratch
    directory under the checkout."""

    def __init__(self, root, runs, seconds, trace):
        self.seconds = seconds
        self.trace = trace
        self.runs = runs
        self.work = os.path.join(root, WORK_DIR, str(os.getpid()))
        self.t0 = time.monotonic()
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        # unset is the default path; the thread option is not benchmarked
        self.env.pop("NORMALSHIFT_THREADS", None)
        # every launch compiles `normalshift` from source and writes no
        # bytecode anywhere, whatever the caller's environment says
        self.env["PYTHONDONTWRITEBYTECODE"] = "1"
        self.reference = {}     # run name -> output digest of its first run
        self.verdicts = {}      # (digest, exit) -> (status, problems)
        self.launches = 0
        self.out_of_time = False

    def setup(self):
        os.makedirs(os.path.join(self.work, "scenarios"))
        for run in self.runs:
            with open(self._config(run), "w") as fh:
                fh.write(run.config)

    def _config(self, run):
        return os.path.join(self.work, "scenarios", run.name + ".toml")

    def cli(self, run, traced):
        """Launch one CLI run in a fresh process and classify its result."""
        self.launches += 1
        tag = f"{run.name}.{self.launches}"
        out = os.path.join(self.work, "out", tag)
        side = os.path.join(self.work, tag + ".json")
        args = [sys.executable, os.path.join(HERE, "probe.py"), side,
                "1" if traced else "0", run.command,
                "--config", self._config(run), "--out", out]
        err_path = os.path.join(self.work, tag + ".err")
        with open(err_path, "wb") as err:
            spawn = time.monotonic_ns()
            proc = subprocess.Popen(args, env=self.env, cwd=self.work,
                                    stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            remaining = DEADLINE_S - (time.monotonic() - self.t0)
            fired = threading.Event()
            killer = threading.Timer(max(remaining, 1.0),
                                     lambda: (fired.set(), proc.kill()))
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                done = time.monotonic_ns()
            finally:
                killer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
            self.out_of_time |= fired.is_set()
        marks = {}
        if os.path.exists(side):
            with open(side) as fh:
                marks = json.load(fh)
        outcome = Outcome(
            run.name, (done - spawn) * 1e-9,
            (marks.get("loaded_ns", done) - spawn) * 1e-9,
            (marks.get("imported_ns", done) - marks.get("start_ns", spawn))
            * 1e-9,
            usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime,
            "unexpected",
            spans=side + ".npz" if traced else None)
        self._judge(run, proc.returncode, out, outcome)
        if outcome.status == "unexpected":
            with open(err_path, errors="replace") as fh:
                tail = fh.read().strip().splitlines()[-1:]
            outcome.problems += [f"stderr: {line}" for line in tail]
        shutil.rmtree(out, ignore_errors=True)
        return outcome

    def _judge(self, run, code, out, outcome):
        if not os.path.isdir(out):
            outcome.problems.append(f"exit {code}, no output directory")
            return
        digest = _digest(out)
        first = self.reference.setdefault(run.name, digest)
        if (digest, code) not in self.verdicts:
            self.verdicts[digest, code] = self._verdict(run, code, out)
        outcome.status, problems = self.verdicts[digest, code]
        outcome.problems = list(problems)
        if digest != first:
            outcome.status = "unexpected"
            outcome.problems.append("outputs differ from the first run")

    @staticmethod
    def _verdict(run, code, out):
        try:
            metrics, _, result = workloads.read_report(out)
            checks = run.oracle(out)
        except (OSError, ValueError, IndexError) as err:
            return "unexpected", [f"unreadable output: {err}"]
        problems = [f"oracle {c.name} = {c.value:.3e} > {c.limit:.1e}"
                    for c in checks if not c.ok]
        if code == run.exit_code and result == run.verdict:
            return ("unexpected" if problems else "ok"), problems
        failing = sorted(k for k, m in metrics.items() if m[2] == "FAIL")
        shows_defect = (run.known_defect is not None and not problems
                        and code == 1 and result == "FAIL"
                        and failing == sorted(run.known_defect[1]))
        problems.append(f"exit {code} RESULT {result}, expected exit "
                        f"{run.exit_code} RESULT {run.verdict}")
        return (run.known_defect[0] if shows_defect else "unexpected"), \
            problems

    def measure(self):
        """Passes until the time is used: a list of (traced, outcomes)."""
        passes = []
        while True:
            traced = self.trace and len(passes) % 2 == 1
            start = time.monotonic()
            outcomes = []
            for run in self.runs:
                outcomes.append(self.cli(run, traced))
                if self.out_of_time:
                    return passes + [(traced, outcomes)]
            passes.append((traced, outcomes))
            now = time.monotonic()
            last = now - start
            elapsed = now - self.t0
            if len(passes) >= MIN_PASSES and (
                    elapsed >= self.seconds
                    or elapsed + last > OVERRUN * self.seconds):
                return passes
            if elapsed + 1.5 * last > DEADLINE_S:
                return passes


# --- reporting ---------------------------------------------------------------------------

def machine_record(root):
    from importlib.metadata import PackageNotFoundError, version
    git = "none"
    if os.path.exists(os.path.join(root, ".git")):
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                 capture_output=True, text=True, timeout=30)
            git = rev.stdout.strip() if rev.returncode == 0 else git
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    src = os.path.join(root, "src", "normalshift")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())

    def ver(pkg):
        try:
            return version(pkg)
        except PackageNotFoundError:
            return "missing"

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": ver("numpy"), "scipy": ver("scipy"),
        "git_revision": git, "src_sha256": h.hexdigest()[:16],
        "blas_threads": {k: os.environ.get(k, "unset") for k in BLAS_VARS},
        "NORMALSHIFT_THREADS": "unset",
    }


def end_to_end(passes):
    outcomes = [o for _, ps in passes for o in ps]
    walls = [sum(o.wall_s for o in ps) for _, ps in passes]
    rss = [max(o.rss_mb for o in ps) for _, ps in passes]
    ok = sum(o.status == "ok" for o in outcomes)
    metrics = {
        "setup_s": (statistics.median(o.setup_s for o in outcomes), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "ok_ratio": (ok / len(outcomes), "ratio"),
    }
    notes = {
        "setup_s": f"median of {len(outcomes)} launches",
        "wall_s": f"median of {len(walls)} passes, quartiles "
                  f"{_quartiles(walls)}",
        "peak_rss_mb": f"median of {len(rss)} passes, max {max(rss):.1f}",
        "ok_ratio": f"{ok}/{len(outcomes)} runs",
    }
    return metrics, notes


def _quartiles(values):
    if len(values) < 2:
        return "n/a"
    q = statistics.quantiles(values, n=4)
    return f"[{q[0]:.4f}, {q[2]:.4f}]"


def per_layer(passes):
    traced = [ps for t, ps in passes if t]
    # each traced pass follows an untraced one; pairing them keeps slow
    # drift of the machine out of the overhead
    overheads = [sum(o.wall_s for o in t) - sum(o.wall_s for o in u)
                 for (_, u), (_, t) in zip(passes[0::2], passes[1::2])]
    per_pass, missing = [], set()
    for ps in traced:
        agg = {}
        for o in ps:
            spans, names, miss = tracer.load(o.spans)
            missing.update(miss)
            for name, vals in tracer.aggregate(spans, names).items():
                acc = agg.setdefault(name, dict.fromkeys(vals, 0))
                for k, v in vals.items():
                    acc[k] += v
        per_pass.append(_layer_metrics(agg, ps))
    metrics = {}
    for name, (unit, _) in LAYERS.items():
        if name == "trace.overhead_s":
            value = statistics.median(overheads)
        else:
            value = statistics.median(p[name] for p in per_pass)
        metrics[name] = (value, unit)
    counts_vary = sorted(n for n, (u, _) in LAYERS.items() if u == "count"
                         and len({p[n] for p in per_pass}) > 1)
    return metrics, sorted(missing), counts_vary, len(traced)


def _layer_metrics(agg, outcomes):
    """One traced pass's per-layer metrics from its summed span totals."""
    def get(name, key):
        return agg.get(name, {}).get(key, 0)

    orders = [f"expr.taylor_eval.o{k}" for k in range(3)]
    calls = sum(get(o, "calls") for o in orders)
    lanes = sum(get(o, "lanes") for o in orders)
    inversions = get("pfaff.inversion", "calls")
    nested = get("pfaff.continuation_in_inversion", "calls")
    m = {
        "expr.taylor_eval.lanes": lanes,
        "expr.taylor_eval.lanes_per_call": lanes / calls if calls else 0.0,
        "dynamics.lane_steps": get("dynamics.rk4_step", "lanes"),
        "pfaff.continuation_runs": get("pfaff.continuation", "calls"),
        "pfaff.inversions": inversions,
        "pfaff.runs_per_inversion": nested / inversions if inversions
        else 0.0,
        "shift.nu_grid_solves": get("shift.nu_grid_solve", "calls"),
        "cli.import_s": sum(o.import_s for o in outcomes),
        "cli.launches": len(outcomes),
    }
    for name in LAYERS:
        span, _, key = name.rpartition(".")
        if name not in m and key in ("calls", "s", "self_s"):
            m[name] = get(span, key)
    return m


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "normalshift", "cli.py")):
        print("perfbench: run from the root of a normalshift checkout "
              "(src/normalshift/cli.py not found)", file=sys.stderr)
        return 2

    bench = Bench(root, workloads.build(args.workload, args.seed),
                  args.seconds, bool(args.trace))
    try:
        bench.setup()
        passes = bench.measure()
        outcomes = [o for _, ps in passes for o in ps]
        failed = [o for o in outcomes if o.status != "ok"]
        correct = all(o.status != "unexpected" for o in outcomes)

        print("machine " + json.dumps(machine_record(root), sort_keys=True))
        print(f"workload {args.workload} seed {args.seed} "
              f"trace {args.trace} passes {len(passes)} "
              f"runs/pass {len(bench.runs)}")
        for i, (traced, ps) in enumerate(passes):
            for o in ps:
                print(f"pass {i} {'traced ' if traced else ''}{o.run} "
                      f"wall {o.wall_s:.4f} s cpu {o.cpu_s:.4f} s "
                      f"setup {o.setup_s:.4f} s "
                      f"rss {o.rss_mb:.1f} MB {o.status}"
                      + "".join(f"; {p}" for p in o.problems))
        if args.trace:
            metrics, missing, varied, n = per_layer(passes)
            print(f"per-layer metrics: {n} traced passes, times summed "
                  f"per pass and counts per pass (median over passes)")
            for name, (value, unit) in metrics.items():
                print(f"layer {name} {_fmt(value)} {unit}  -> "
                      f"{LAYERS[name][1]}")
            if missing:
                print("untraced (not found in the program): "
                      + ", ".join(missing))
            if varied:
                print("counts that differ between traced passes: "
                      + ", ".join(varied))
            names = PER_LAYER_REPORTED
        else:
            metrics, notes = end_to_end(passes)
            for name, (value, unit) in metrics.items():
                print(f"metric {name} {_fmt(value)} {unit}  ({notes[name]})")
            print(f"metric failed_ratio {_fmt(len(failed) / len(outcomes))} "
                  f"ratio  ({len(failed)}/{len(outcomes)} runs; not in the "
                  f"result line, which carries both counts)")
            names = list(metrics)
        result = {
            "correct": bool(correct),
            "attempted": len(outcomes),
            "failed": len(failed),
            "metrics": {n: {"value": float(metrics[n][0]),
                            "unit": metrics[n][1]} for n in names},
        }
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, WORK_DIR))
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
