#!/usr/bin/env python3
"""Run the full desk-scale learner comparison on the bundled benchmark.

Executes every arm of ``oltrsim.experiments.PAPER_ARMS`` (PDGD and DBGD
with probabilistic interleaving or an oracle comparator, under perfect and
almost-random users) as ``oltrsim run`` does, writing the usual
trace/summary/curve outputs into one directory per arm, named after it.
It ends with ``oltrsim compare``'s report over the arm directories: a
Welch test of every arm against dbgd_prob_perfect.

Usage:
    python scripts/compare_learners.py --out results/comparison
    python scripts/compare_learners.py --repeats 5 --impressions 5000   # quick look
"""

import argparse
import os
import sys
import time

from oltrsim.cli import compare_report, count_at_least, run_config
from oltrsim.experiments import PAPER_ARMS, arm_config

REFERENCE = "dbgd_prob_perfect"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="results/comparison", help="output root directory")
    parser.add_argument("--impressions", type=count_at_least(1), default=20000)
    parser.add_argument("--repeats", type=count_at_least(2), default=25, help="runs per arm, at least 2 for the Welch test")
    parser.add_argument("--workers", type=count_at_least(1), default=None)
    args = parser.parse_args()

    # The reference runs last, as compare tests every directory against the last.
    names = [name for name in PAPER_ARMS if name != REFERENCE] + [REFERENCE]
    out_dirs = [os.path.join(args.out, name) for name in names]
    # Made before the first arm runs, so that an output path that cannot be a
    # directory fails at once and not after every arm.
    try:
        for out_dir in out_dirs:
            os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for name, out_dir in zip(names, out_dirs):
        start = time.time()
        run_config(arm_config(name, impressions=args.impressions, repeats=args.repeats, output_dir=out_dir), args.workers)
        print(f"{name}: {time.time() - start:.0f}s")
    print()
    compare_report(out_dirs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
