"""Byte identity of the program's outputs between this tree and another
checkout, the acceptance rule of a change that must not move any output.

    python bench/identity.py --against PATH

The runs are the `scenarios/*.toml` files (9 of them) and the scenarios
of the three benchmark workloads (`perfbench/workloads.build`) for seeds
7 and 11: 31 runs.  A scenario file with no command below stops the tool
before any run, so none is skipped unnoticed.  Each scenario is written once, and both trees run that
file through `python -m normalshift.cli` in a fresh process, with
`PYTHONPATH=<tree>/src` and `PYTHONDONTWRITEBYTECODE=1`, from working
directories of the same depth, so a relative path reads the same.  Exit
status, stdout, stderr and every written file are compared byte for
byte.  One line is printed per run, naming the first differing file and
its byte offset where something differs; the exit status is 0 only when
every run matches.
"""

from __future__ import annotations

import argparse
import glob
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (7, 11)
# the command of each scenario under scenarios/, as tests/test_cli.py runs it
SCENARIO_COMMANDS = {
    "check_broken": "check", "check_consistent": "check",
    "circle_shift": "shift", "cylinder_monodromy": "monodromy",
    "extract_square": "extract-h", "fnorm_decay": "fnorm",
    "gauge_scale": "gauge", "pfaff_paths": "pfaff", "sphere_shift": "shift",
}


def runs():
    """(name, command, scenario text) of every run."""
    paths = sorted(glob.glob(os.path.join(ROOT, "scenarios", "*.toml")))
    stems = [os.path.basename(p)[:-len(".toml")] for p in paths]
    unknown = [s for s in stems if s not in SCENARIO_COMMANDS]
    if unknown:
        sys.exit(f"identity: no command for scenarios/{unknown[0]}.toml; "
                 "add it to SCENARIO_COMMANDS")
    for stem, path in zip(stems, paths):
        with open(path) as fh:
            yield stem, SCENARIO_COMMANDS[stem], fh.read()
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    sys.dont_write_bytecode = True  # perfbench/ is read, never written
    import workloads
    for workload in sorted(workloads.WORKLOADS):
        for seed in SEEDS:
            for run in workloads.build(workload, seed):
                yield f"{workload}-{seed}-{run.name}", run.command, run.config


def launch(tree, work, command, config):
    """Start one CLI run of `tree` in `work`, writing to `work`/out."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"),
               PYTHONDONTWRITEBYTECODE="1")
    os.makedirs(work)
    return subprocess.Popen(
        [sys.executable, "-m", "normalshift.cli", command, "--config",
         config, "--out", "out"], cwd=work, env=env,
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE)


def outputs(proc, work):
    """{name: bytes} of a finished run: its exit status, streams and the
    files under its output directory, by relative path."""
    stdout, stderr = proc.communicate()
    found = {"<exit status>": str(proc.returncode).encode(),
             "<stdout>": stdout, "<stderr>": stderr}
    out = os.path.join(work, "out")
    for folder, _, files in os.walk(out):
        for name in files:
            path = os.path.join(folder, name)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, out)] = fh.read()
    return found


def first_difference(ours, theirs):
    """'file at byte k' for the first output that differs, else None."""
    for name in sorted(ours.keys() | theirs.keys()):
        a, b = ours.get(name), theirs.get(name)
        if a is None or b is None:
            return f"{name} written by one tree only"
        if a != b:
            k = next((i for i, (p, q) in enumerate(zip(a, b)) if p != q),
                     min(len(a), len(b)))
            return f"{name} at byte {k}"
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True,
                        help="root of the other checkout")
    other = os.path.abspath(parser.parse_args(argv).against)
    if not os.path.isdir(os.path.join(other, "src", "normalshift")):
        parser.error(f"{other} has no src/normalshift")
    differing = total = 0
    with tempfile.TemporaryDirectory(prefix="identity-") as tmp:
        os.makedirs(os.path.join(tmp, "scenarios"))
        for name, command, text in runs():
            total += 1
            config = os.path.join(tmp, "scenarios", name + ".toml")
            with open(config, "w") as fh:
                fh.write(text)
            works = [os.path.join(tmp, side, name)
                     for side in ("this", "that")]
            procs = [launch(tree, work, command, config)
                     for tree, work in zip((ROOT, other), works)]
            ours, theirs = (outputs(p, w) for p, w in zip(procs, works))
            diff = first_difference(ours, theirs)
            differing += diff is not None
            status = ours["<exit status>"].decode()
            print(f"{'DIFFERS' if diff else 'same':8}{name:36}"
                  f"{diff or f'exit {status}, files {len(ours) - 3}'}",
                  flush=True)
    print(f"{total - differing} of {total} runs identical")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
