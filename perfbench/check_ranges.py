"""Validate the seeded parameter ranges of every workload.

    python3 perfbench/check_ranges.py [workload ..]

Run from the root of a source checkout.  Each workload's runs are built
twice, once with every seeded parameter at the low end of its range and
once at the high end, and each run is executed once and judged as in a
benchmark pass.  Exits 1 if any run fails in a way no recorded program
defect explains.
"""

import os
import random
import shutil
import sys

import run
import workloads


class RangeEnd(random.Random):
    """A generator whose every uniform draw returns one end of its range."""

    def __init__(self, high):
        super().__init__(0)
        self.high = high

    def uniform(self, a, b):
        return b if self.high else a


def main(names):
    bad = 0
    for name in names or list(workloads.WORKLOADS):
        for high in (False, True):
            bench = run.Bench(os.getcwd(),
                              workloads.WORKLOADS[name](RangeEnd(high)),
                              0, False)
            bench.setup()
            try:
                for r in bench.runs:
                    o = bench.cli(r, False)
                    bad += o.status == "unexpected"
                    print(name, "high" if high else "low", o.run, o.status,
                          "; ".join(o.problems), flush=True)
            finally:
                shutil.rmtree(bench.work, ignore_errors=True)
    try:
        os.rmdir(run.WORK_DIR)
    except OSError:
        pass
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
