"""Run one `normalshift` CLI command in this process and record where its
set-up ended.

    python3 perfbench/probe.py <side.json> <trace 0|1> <command> [args..]

`normalshift` must be importable (the benchmark puts `src` on
PYTHONPATH).  The side file gets monotonic timestamps for the start and
end of `import normalshift.cli` and for the end of `load_scenario`; with
trace 1 the spans of every traced layer go to `<side>.npz` at exit.
The exit status is the CLI's.
"""

import time

T_START = time.monotonic_ns()

import json  # noqa: E402
import sys  # noqa: E402


def main():
    side, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    marks = {"start_ns": T_START}
    import normalshift.cli as cli
    marks["imported_ns"] = time.monotonic_ns()

    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    load = cli.load_scenario

    def load_and_mark(path):
        scenario = load(path)
        marks["loaded_ns"] = time.monotonic_ns()
        return scenario

    cli.load_scenario = load_and_mark
    try:
        return cli.main(argv)
    finally:
        with open(side, "w") as fh:
            json.dump(marks, fh)
        if tracer is not None:
            tracer.write(side + ".npz")


if __name__ == "__main__":
    sys.exit(main())
