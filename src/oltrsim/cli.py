"""Command-line entry point.

Subcommands::

    oltrsim run <config.json>          execute an experiment, write outputs
    oltrsim plot <out-dir>             rebuild curve.svg from trace.csv
    oltrsim compare <dir-a> <dir-b>    Welch test between two result sets
    oltrsim synth <spec.json> <dir>    write synthetic data in LETOR format

``compare`` refuses two result sets whose dataset, horizon or checkpoint
schedule differ, naming each such field with both values.

``run --workers N`` sets the number of worker processes that execute a
config's runs (default: the CPUs this process may use); with more than
one, a LETOR test file is parsed in a forked process beside train.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from .datasets import write_letor
from .experiments import (
    ExperimentConfig,
    SyntheticSpec,
    compare_results,
    emit_outputs,
    read_json,
    read_trace_csv,
    run_experiment,
    write_curve_svg,
)


def _make_output_dir(path: str) -> list[str]:
    """Create ``path`` and its missing parents; return the ones made, deepest first."""
    made = []
    current = os.path.abspath(path)
    while not os.path.exists(current):
        made.append(current)
        current = os.path.dirname(current)
    os.makedirs(path, exist_ok=True)
    return made


def _cmd_run(args) -> int:
    config = ExperimentConfig.from_json_file(args.config)
    config.validate()  # before anything is made on disk
    # Made before the runs, so that an output path that cannot be a directory
    # fails at once and not after every run; removed again if the runs fail.
    made = _make_output_dir(config.output_dir)
    try:
        results, summary = run_experiment(config, workers=args.workers)
    except BaseException:
        for path in made:
            with contextlib.suppress(OSError):
                os.rmdir(path)
        raise
    paths = emit_outputs(results, summary, config.output_dir)
    print(
        f"{config.algorithm} ({config.click_model}"
        + (f", {config.comparator}" if config.algorithm == "dbgd" else "")
        + f"): final NDCG@10 = {summary['final_ndcg_mean']:.4f}"
        f" +/- {summary['final_ndcg_std']:.4f} over {summary['repeats']} runs"
    )
    print(f"outputs: {paths['trace']}, {paths['summary']}, {paths['curve']}")
    return 0


def _cmd_plot(args) -> int:
    trace_path = os.path.join(args.out_dir, "trace.csv")
    impressions, curves, _ = read_trace_csv(trace_path)
    curve_path = os.path.join(args.out_dir, "curve.svg")
    write_curve_svg(impressions, curves, curve_path)
    print(f"wrote {curve_path}")
    return 0


def _cmd_compare(args) -> int:
    test = compare_results(args.dir_a, args.dir_b)
    print(f"a: {args.dir_a}: mean = {test['mean_a']:.4f} (n = {test['n_a']})")
    print(f"b: {args.dir_b}: mean = {test['mean_b']:.4f} (n = {test['n_b']})")
    print(f"welch two-sided: t = {test['t']:.4f}, p = {test['p']:.4e}")
    return 0


def _cmd_synth(args) -> int:
    spec = SyntheticSpec.from_dict(read_json(args.spec))
    data = spec.make()
    os.makedirs(args.out_dir, exist_ok=True)
    train_path = os.path.join(args.out_dir, "train.txt")
    test_path = os.path.join(args.out_dir, "test.txt")
    write_letor(data.train, train_path)
    write_letor(data.test, test_path)
    print(f"wrote {train_path} ({len(data.train)} queries), {test_path} ({len(data.test)} queries)")
    return 0


def _worker_count(text: str) -> int:
    try:
        count = int(text)
    except ValueError:
        count = 0
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return count


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="oltrsim", description="Online learning-to-rank simulations")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a JSON config")
    p_run.add_argument("config", help="path to the experiment config (JSON)")
    p_run.add_argument("--workers", type=_worker_count, default=None, help="worker processes (default: the usable CPUs)")
    p_run.set_defaults(func=_cmd_run)

    p_plot = sub.add_parser("plot", help="rebuild curve.svg from a result directory")
    p_plot.add_argument("out_dir", help="directory containing trace.csv")
    p_plot.set_defaults(func=_cmd_plot)

    p_cmp = sub.add_parser("compare", help="Welch t-test between two result directories")
    p_cmp.add_argument("dir_a")
    p_cmp.add_argument("dir_b")
    p_cmp.set_defaults(func=_cmd_compare)

    p_synth = sub.add_parser("synth", help="write a synthetic dataset in LETOR format")
    p_synth.add_argument(
        "spec",
        help="JSON file with num_queries, docs_per_query, feature_dim, seed; optionally hardness, grade_bins",
    )
    p_synth.add_argument("out_dir", help="directory to write train.txt and test.txt into")
    p_synth.set_defaults(func=_cmd_synth)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # surface a readable error, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
