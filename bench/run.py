#!/usr/bin/env python3
"""The oltrsim benchmark: impressions/s per learner arm, LETOR load rate, set-up time.

Run from the repository root::

    python3 bench/run.py --workload pdgd_synth --seed 0 --seconds 20 --trace 0

One operation is one seeded run ``(config, run_index)``.  A round runs every
arm of the workload once, with the same seeds every round, and the benchmark
repeats rounds until ``--seconds`` have passed; rates are medians over
rounds.  ``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs
the same untraced rounds for ``--seconds``, then one traced
in-process round between two untraced one-worker rounds, and prints the
per-layer metrics.  The last line of standard output
is one JSON object; a result file with the machine it was measured on goes
to ``bench/_out/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH, "_work")
OUT = os.path.join(BENCH, "_out")

# Fresh interpreters that repeat the set-up, so that setup_s is a median.
SETUP_PROBES = 2
PROBE_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import oltrsim, workloads
workloads.build_inputs(sys.argv[3], int(sys.argv[4]), sys.argv[5])
print(repr(time.perf_counter() - t0))
"""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="oltrsim benchmark")
    parser.add_argument("--workload", required=True, choices=("pdgd_synth", "dbgd_synth", "letor_cli"))
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0: the battery's base seeds)")
    parser.add_argument("--seconds", type=float, default=20.0, help="how long to repeat rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def probe_setup(workload: str, seed: int, work_dir: str) -> float:
    """Set-up time of one fresh interpreter: import the package and build the inputs."""
    probe_dir = os.path.join(work_dir, "probe")
    try:
        done = subprocess.run(
            [sys.executable, "-c", PROBE_CODE, SRC, BENCH, workload, str(seed), probe_dir],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        return float(done.stdout.strip().splitlines()[-1])
    finally:
        shutil.rmtree(probe_dir, ignore_errors=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "oltrsim")):
        print(f"error: no oltrsim package under {SRC}; run from the root of a full checkout", file=sys.stderr)
        return 2
    work_dir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    try:
        start = time.perf_counter()
        sys.path.insert(0, SRC)
        import oltrsim  # noqa: F401  (its import is part of the set-up time)
        import workloads

        inputs = workloads.build_inputs(args.workload, args.seed, work_dir)
        setup_samples = [time.perf_counter() - start]
        setup_samples += [probe_setup(args.workload, args.seed, work_dir) for _ in range(SETUP_PROBES)]

        import harness

        result = harness.measure(args, inputs, setup_samples, ROOT, OUT)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
