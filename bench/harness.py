"""Rounds, checks and metrics of one benchmark invocation (see ``run.py``)."""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy
import scipy

from oltrsim import cli, datasets, experiments

import checks
import workloads
from tracer import TRACED, Tracer

clock = time.perf_counter


def git_commit(root: str) -> str | None:
    """HEAD of the checkout's git repository; None outside one or without git."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def machine(root: str, workers: int, traced_workers: int | None) -> dict:
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "workers": workers,
        "traced_workers": traced_workers,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "commit": git_commit(root),
    }


def peak_rss_mb() -> float:
    """Largest resident set of this process or of any child it waited for."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


class Bench:
    """One workload's rounds and the checks on their outputs.

    ``errors`` are checks not tied to one run (the loaded dataset, worker
    independence, trace call counts): any of them makes the result
    incorrect.  ``run_errors`` belong to single runs, which count as failed.
    """

    def __init__(self, workload: workloads.Workload, seed: int, inputs: workloads.Inputs):
        self.workload = workload
        self.seed = seed
        self.inputs = inputs
        self.schedule = experiments.checkpoint_schedule(workload.impressions, workload.num_checkpoints)
        self.lines = sum(q.n_docs for q in inputs.reference.train + inputs.reference.test)
        self.run_impressions = len(workload.arms) * workload.repeats * workload.impressions
        self.attempted = 0
        self.failed = 0
        self.exempt = 0
        self.errors: list[str] = []
        self.run_errors: list[str] = []
        self.rounds: list[dict] = []

    def round(self, workers: int) -> dict:
        """Run every arm once with ``workers``; on ``letor_cli`` first load the LETOR pair in-process."""
        loaded, load_s = None, None
        if self.workload.letor:
            start = clock()
            loaded = datasets.load_dataset(self.inputs.train_path, self.inputs.test_path)
            load_s = clock() - start
            self.errors += checks.dataset_errors(loaded, self.inputs.reference)
        arm_seconds = {}
        run = self._run_letor_arm if self.workload.letor else self._run_synthetic_arm
        for arm in self.workload.arms:
            self.attempted += self.workload.repeats
            seconds, curves = run(arm, loaded, workers)
            failed_runs = set()
            for run_id, points in curves.items():
                errors = checks.trace_errors(run_id, points, self.schedule, self.workload.impressions)
                if errors:
                    failed_runs.add(run_id)
                    self.run_errors += [f"{arm.name}: {e}" for e in errors]
            errors = checks.learning_errors(arm.name, arm.click_model, list(curves.values()))
            if errors:
                failed_runs.update(curves)
                self.run_errors += errors
            missing = self.workload.repeats - len(curves)
            self.failed += missing + len(failed_runs)
            if not missing:
                arm_seconds[arm.name] = seconds
        record = {"workers": workers, "load_s": load_s, "arm_seconds": arm_seconds}
        self.rounds.append(record)
        return record

    def _run_synthetic_arm(self, arm, loaded, workers):
        config = workloads.arm_config(self.workload, arm, self.seed)
        start = clock()
        try:
            results, _ = experiments.run_experiment(config, workers=workers)
        except Exception as exc:  # a run that raises is a failed operation
            self.run_errors.append(f"{arm.name}: run_experiment raised {exc!r}")
            return None, {}
        seconds = clock() - start
        return seconds, {r.run_id: r.trace.checkpoints() for r in results}

    def _run_letor_arm(self, arm, loaded, workers):
        config_path = self.inputs.config_paths[arm.name]
        config = experiments.ExperimentConfig.from_json_file(config_path)
        shutil.rmtree(config.output_dir, ignore_errors=True)
        captured = io.StringIO()
        start = clock()
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            code = cli.main(["run", config_path, "--workers", str(workers)])
        seconds = clock() - start
        if code != 0:
            self.run_errors.append(f"{arm.name}: oltrsim run exited {code}: {captured.getvalue().strip()}")
            return None, {}
        errors, rows = checks.cli_output_errors(config.output_dir, self.workload.repeats)
        if errors:
            self.run_errors += [f"{arm.name}: {e}" for e in errors]
            return None, {}
        if not self.rounds and workers > 1:
            # Results must not depend on the worker count: run 0 in-process
            # on the parent's dataset equals run 0 of the multi-worker run.
            alone = experiments.run_with_dataset(config, 0, loaded)
            if alone.trace.checkpoints() != rows[0]:
                self.errors.append(f"{arm.name}: run 0 in-process differs from run 0 with {workers} workers")
        return seconds, rows

    def traced_round(self) -> tuple[Tracer, dict]:
        """One in-process round under the tracer; checks its call counts and final models."""
        tracer = Tracer()
        with tracer:
            self.round(workers=1)
        layer = tracer.layer_metrics()
        runs = len(self.workload.arms) * self.workload.repeats
        expected = {
            "datasets.sample_query.calls": self.run_impressions,
            "evaluation.evaluate_heldout.calls": runs * len(self.schedule),
        }
        for name, want in expected.items():
            if layer[name][0] != want:
                self.errors.append(f"traced {name} = {layer[name][0]}, expected {want}")
        if len(tracer.finals) != runs:
            self.errors.append(f"traced {len(tracer.finals)} runs, expected {runs}")
        for result, weights, test in tracer.finals:
            reference = checks.reference_heldout(weights, test)
            if reference is None:
                self.exempt += 1
            elif abs(reference - result.final_ndcg) > 1e-9:
                self.failed += 1
                self.run_errors.append(
                    f"run {result.run_id} ({result.config_hash}): final NDCG@10 {result.final_ndcg!r}"
                    f" != reference {reference!r} of the last update's model"
                )
        return tracer, layer

    def rates(self, rounds: list[dict]) -> tuple[float, dict[str, float]]:
        """Median over rounds of the workload's and of each arm's impressions/s."""
        per_arm_impressions = self.workload.repeats * self.workload.impressions
        totals, per_arm = [], {arm.name: [] for arm in self.workload.arms}
        for record in rounds:
            seconds = record["arm_seconds"]
            if seconds:
                totals.append(len(seconds) * per_arm_impressions / sum(seconds.values()))
            for name, s in seconds.items():
                per_arm[name].append(per_arm_impressions / s)
        return (
            statistics.median(totals) if totals else 0.0,
            {name: statistics.median(v) if v else 0.0 for name, v in per_arm.items()},
        )


def layer_shares(tracer: Tracer, layer: dict) -> dict[str, float]:
    """Each module's share of the self time inside the traced root spans."""
    roots = sum(e - s for s, e, p in zip(tracer.starts, tracer.ends, tracer.parents) if p < 0)
    shares: dict[str, float] = {}
    for name in TRACED:
        module = name.split(".")[0]
        shares[module] = shares.get(module, 0.0) + layer[f"{name}.self_s"][0] / roots
    return shares


def measure(args, inputs: workloads.Inputs, setup_samples: list[float], root: str, out_dir: str) -> dict:
    """Run rounds for ``args.seconds``; with ``--trace 1`` then one traced round.

    The timed rounds use the workload's worker count in both modes.  The
    traced round is in-process, so it runs between two untraced one-worker
    rounds, and ``trace.overhead_ratio`` compares it with their mean.
    """
    workload = workloads.WORKLOADS[args.workload]
    bench = Bench(workload, args.seed, inputs)
    deadline = clock() + args.seconds
    while True:
        bench.round(workload.workers)
        if clock() >= deadline:
            break
    untraced = list(bench.rounds)
    impressions_per_s, per_arm = bench.rates(untraced)
    loads = [bench.lines / r["load_s"] for r in untraced if r["load_s"]]
    load_lines_per_s = statistics.median(loads) if loads else 0.0

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(root, workload.workers, 1 if args.trace else None),
        "base_seeds": {arm.name: arm.base_seed(args.seed) for arm in workload.arms},
        "setup_samples_s": setup_samples,
        "rounds": untraced,
        "per_arm_impressions_per_s": per_arm,
        "load_lines_per_s": load_lines_per_s,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    os.makedirs(out_dir, exist_ok=True)
    if args.trace:
        before = bench.round(workers=1)
        tracer, metrics = bench.traced_round()
        traced = bench.rounds[-1]
        after = bench.round(workers=1)
        traced_rate, _ = bench.rates([traced])
        one_worker_rate, _ = bench.rates([before, after])
        for name in workloads.ALL_ARMS:
            metrics[f"experiments.{name}.impressions_per_s"] = (per_arm.get(name, 0.0), "impressions/s")
        metrics["datasets.load_dataset.lines_per_s"] = (load_lines_per_s, "lines/s")
        metrics["trace.overhead_ratio"] = (traced_rate / one_worker_rate if one_worker_rate else 0.0, "ratio")
        result["bracketing_rounds"] = [before, after]
        result["traced_round"] = traced
        result["layer_self_share"] = layer_shares(tracer, metrics)
        result["exempt_final_checks"] = bench.exempt
        tracer.write_spans(os.path.join(out_dir, f"{stem}-spans.csv"))
    else:
        metrics = {
            "setup_s": (statistics.median(setup_samples), "s"),
            "impressions_per_s": (impressions_per_s, "impressions/s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }

    result.update(
        correct=not bench.errors,
        attempted=bench.attempted,
        failed=bench.failed,
        errors=bench.errors,
        run_errors=bench.run_errors,
        metrics={name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    )
    with open(os.path.join(out_dir, f"{stem}.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")

    for message in bench.errors + bench.run_errors:
        print(f"check failed: {message}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(untraced)} rounds on {result['machine']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  attempted {bench.attempted} runs, failed {bench.failed}, correct {result['correct']}")
    return result
