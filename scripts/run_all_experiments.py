#!/usr/bin/env python3
"""Run every experiment preset into out/experiments/<name>/.

Full-scale runs take a few minutes in total; pass --quick for truncated
durations when smoke-testing the pipeline.
"""

import argparse
import sys
import time

from qpjumps.cli import main as qpjumps_main
from qpjumps.experiments import experiment_names

QUICK_OVERRIDES = {
    "quiet-noisy": ["--set", "duration=20"],
    "qp-pulses": ["--set", "duration=2.021", "--set", "pulse_count=200"],
    "field-cool": ["--set", "duration=20"],
    "recovery": ["--set", "duration=10.105", "--set", "pulse_count=1000"],
    "psd": ["--set", "duration=64"],
}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/experiments")
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()

    for name in experiment_names():
        argv = ["experiment", name, "--out", f"{args.out}/{name}"]
        if args.quick:
            argv += QUICK_OVERRIDES[name]
        t0 = time.time()
        code = qpjumps_main(argv)
        print(f"{name}: exit {code} in {time.time() - t0:.1f} s")
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
