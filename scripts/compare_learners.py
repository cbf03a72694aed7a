#!/usr/bin/env python3
"""Run the full desk-scale learner comparison on the bundled benchmark.

Executes every arm of ``oltrsim.experiments.PAPER_ARMS`` (PDGD and DBGD
with probabilistic interleaving or an oracle comparator, under perfect and
almost-random users), prints a summary table with Welch significance tests
against dbgd_prob_perfect, and writes the usual trace/summary/curve
outputs into one directory per arm, named after it.

Usage:
    python scripts/compare_learners.py --out results/comparison
    python scripts/compare_learners.py --repeats 5 --impressions 5000   # quick look
"""

import argparse
import os
import sys
import time

import numpy as np

from oltrsim.experiments import PAPER_ARMS, arm_config, compare_results, emit_outputs, run_experiment

REFERENCE = "dbgd_prob_perfect"


def _count_at_least(minimum: int):
    def count(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = minimum - 1
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be an integer >= {minimum}, got {text!r}")
        return value

    return count


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="results/comparison", help="output root directory")
    parser.add_argument("--impressions", type=_count_at_least(1), default=20000)
    parser.add_argument("--repeats", type=_count_at_least(2), default=25, help="runs per arm, at least 2 for the Welch test")
    parser.add_argument("--workers", type=_count_at_least(1), default=None)
    args = parser.parse_args()

    out_dirs = {name: os.path.join(args.out, name) for name in PAPER_ARMS}
    # Made before the first arm runs, so that an output path that cannot be a
    # directory fails at once and not after every arm.
    for out_dir in out_dirs.values():
        os.makedirs(out_dir, exist_ok=True)

    finals = {}
    for name, out_dir in out_dirs.items():
        config = arm_config(name, impressions=args.impressions, repeats=args.repeats, output_dir=out_dir)
        start = time.time()
        results, summary = run_experiment(config, workers=args.workers)
        emit_outputs(results, summary, config.output_dir)
        finals[name] = np.asarray(summary["per_run_final"])
        print(
            f"{name:22s} ndcg@10 = {summary['final_ndcg_mean']:.4f} "
            f"+/- {summary['final_ndcg_std']:.4f}  ({time.time() - start:.0f}s)"
        )

    print(f"\n{'arm':22s} {'mean':>8s} {'std':>8s} {'vs ' + REFERENCE:>22s}")
    for name, values in finals.items():
        if name == REFERENCE:
            verdict = "-"
        else:
            test = compare_results(out_dirs[name], out_dirs[REFERENCE])
            verdict = f"t={test['t']:+.2f}, p={test['p']:.1e}"
        print(f"{name:22s} {values.mean():8.4f} {values.std(ddof=1):8.4f} {verdict:>22s}")
    print(f"\noutputs under {args.out}/<arm>/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
