"""Experiment orchestration: configs, seeded multi-run execution, outputs.

A run is fully determined by ``(config, run_index)``: the per-run random
stream is derived from ``SeedSequence([base_seed, run_index])``, so runs
can execute in any order and across any number of worker processes with
identical results.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, asdict, dataclass
from multiprocessing import get_context
from types import MappingProxyType

import numpy as np

from . import clicks, datasets, dbgd, pdgd
from .evaluation import MetricTrace, evaluate_heldout, welch_t_test
from .ranking import zero_ranker

ALGORITHMS = ("dbgd", "pdgd")

# Runs follow the standard protocol (Hofmann et al. 2011; Oosterhuis & de
# Rijke 2018): a top-10 display, PDGD at learning rate 0.1, DBGD at 0.001 on
# the unit sphere and probabilistic interleaving at tau = 3.  No config sets
# them: the step sizes and tau are constants of the pdgd and dbgd modules.
DISPLAY_CUTOFF = 10


_INTEGER = ((int,), "an integer")
_NUMBER = ((int, float), "a number")

# Field name -> (accepted types, description), checked when a spec or a config is made.
_SYNTHETIC_FIELD_KINDS = {
    **dict.fromkeys(("num_queries", "docs_per_query", "feature_dim", "seed"), _INTEGER),
    "hardness": _NUMBER,
}


def _is_of(value, types: tuple) -> bool:
    """Whether ``value`` is of ``types``; a bool (JSON's true/false, also an int) only where they list bool."""
    return isinstance(value, types) and (bool in types or not isinstance(value, bool))


def _check_field_types(owner: str, values: dict, kinds: dict) -> None:
    """Refuse, naming the field, a value in ``values`` that is not of its kind."""
    for name, (types, described) in kinds.items():
        if not _is_of(values[name], types):
            raise ValueError(f"{owner} field {name} must be {described}, got {values[name]!r}")


def read_json(path: str | os.PathLike):
    """The JSON value in the file at ``path``; a malformed file raises ``ValueError`` naming it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
            raise ValueError(f"{path}: {exc}") from None


def _is_number_list(value) -> bool:
    return isinstance(value, (list, tuple)) and all(_is_of(v, _NUMBER[0]) for v in value)


def _check_object(owner: str, data) -> None:
    if not isinstance(data, dict):
        raise ValueError(f"{owner} must be a JSON object, got {data!r}")


def _check_names(owner: str, data, cls) -> None:
    """Refuse ``data`` unless it is an object naming only fields of ``cls`` and every one without a default."""
    _check_object(owner, data)
    fields = cls.__dataclass_fields__
    unknown = set(data) - set(fields)
    if unknown:
        raise ValueError(f"unknown {owner} fields: {sorted(unknown)}")
    missing = [name for name, f in fields.items() if f.default is MISSING and name not in data]
    if missing:
        raise ValueError(f"{owner} is missing fields: {missing}")


@dataclass(frozen=True)
class SyntheticSpec:
    """Synthetic dataset parameters, checked when made: each field's type, then :func:`datasets.check_synthetic`."""

    num_queries: int
    docs_per_query: int
    feature_dim: int
    seed: int
    hardness: float = 0.0
    grade_bins: tuple[float, ...] = datasets.QUINTILE_GRADE_BINS

    def __post_init__(self):
        _check_field_types("synthetic spec", vars(self), _SYNTHETIC_FIELD_KINDS)
        if not _is_number_list(self.grade_bins):
            raise ValueError(f"synthetic spec field grade_bins must be a list of numbers, got {self.grade_bins!r}")
        object.__setattr__(self, "grade_bins", tuple(self.grade_bins))
        datasets.check_synthetic(**vars(self))

    @classmethod
    def from_dict(cls, data: dict) -> "SyntheticSpec":
        """A spec from JSON-like input; a non-object, an unknown or missing field or a bad value is refused by name."""
        _check_names("synthetic spec", data, cls)
        return cls(**data)

    def make(self) -> datasets.Dataset:
        """Generate the dataset this spec describes."""
        return datasets.make_synthetic(**vars(self))


# The benchmark dataset the desk-scale comparisons run on.  The quadratic
# hardness term and sparse grades (half the documents graded 0, one in
# twenty graded 4) keep the best linear ranker well below NDCG 1.0, which
# is what separates the learners' long-run behavior the way large
# commercial datasets do; on cleanly linear data every comparator saturates
# and their ordering is not measurable at this scale.
BUNDLED_SYNTHETIC = SyntheticSpec(
    num_queries=100,
    docs_per_query=50,
    feature_dim=10,
    seed=7,
    hardness=1.5,
    grade_bins=(0.5, 0.75, 0.875, 0.95),
)


_CONFIG_FIELD_KINDS = {
    **dict.fromkeys(("impressions", "repeats", "num_checkpoints", "base_seed"), _INTEGER),
    "output_dir": ((str,), "a string"),
    **dict.fromkeys(("train_path", "test_path"), ((str, type(None)), "a string or null")),
    "synthetic": ((SyntheticSpec, type(None)), "a SyntheticSpec or None"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """An experiment's learner, user, dataset and runs, every field checked when the config is made."""

    algorithm: str = "pdgd"
    comparator: str = dbgd.PROBABILISTIC
    click_model: str = clicks.PERFECT
    synthetic: SyntheticSpec | None = None
    train_path: str | None = None
    test_path: str | None = None
    impressions: int = 1_000_000
    repeats: int = 125
    base_seed: int = 1
    num_checkpoints: int = 30
    output_dir: str = "results"

    def __post_init__(self):
        _check_field_types("config", vars(self), _CONFIG_FIELD_KINDS)
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}")
        if self.comparator not in dbgd.COMPARATORS:
            raise ValueError(f"comparator must be one of {dbgd.COMPARATORS}, got {self.comparator!r}")
        if self.click_model not in clicks.MODEL_NAMES:
            raise ValueError(f"click_model must be one of {clicks.MODEL_NAMES}, got {self.click_model!r}")
        has_files = self.train_path is not None or self.test_path is not None
        if self.synthetic is None and not (self.train_path and self.test_path):
            raise ValueError("config needs either a synthetic spec or train/test paths")
        if self.synthetic is not None and has_files:
            raise ValueError("give either a synthetic spec or dataset paths, not both")
        if self.impressions < 1:
            raise ValueError("impressions must be >= 1")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if self.base_seed < 0:
            raise ValueError("base_seed must be non-negative")
        if self.num_checkpoints < 1:
            raise ValueError("num_checkpoints must be >= 1")
        if not self.output_dir:
            raise ValueError("config field output_dir must be a non-empty string, got ''")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        _check_names("config", data, cls)
        if data.get("synthetic") is not None:
            data = {**data, "synthetic": SyntheticSpec.from_dict(data["synthetic"])}
        return cls(**data)

    @classmethod
    def from_json_file(cls, path: str | os.PathLike) -> "ExperimentConfig":
        return cls.from_dict(read_json(path))

    def config_hash(self) -> str:
        """Short digest of every field that influences run results."""
        payload = self.to_dict()
        payload.pop("output_dir")
        canonical = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:12]


# The paper's comparison grid, arm name -> (algorithm, comparator, click
# model, base seed): PDGD against DBGD with probabilistic interleaving and
# with an oracle comparator, under perfect and almost-random users.  The
# acceptance battery and scripts/compare_learners.py run these arms; the
# names and seeds are the benchmark's, and tests pin the benchmark's arms
# and configs/*_perfect.json to this table.
PAPER_ARMS = MappingProxyType(
    {
        "pdgd_perfect": ("pdgd", dbgd.PROBABILISTIC, clicks.PERFECT, 11),
        "dbgd_prob_perfect": ("dbgd", dbgd.PROBABILISTIC, clicks.PERFECT, 22),
        "dbgd_oracle_perfect": ("dbgd", dbgd.ORACLE, clicks.PERFECT, 33),
        "pdgd_ar_casc": ("pdgd", dbgd.PROBABILISTIC, clicks.ALMOST_RANDOM_CASCADING, 44),
        "pdgd_ar_noncasc": ("pdgd", dbgd.PROBABILISTIC, clicks.ALMOST_RANDOM_NONCASCADING, 55),
        "dbgd_prob_ar_casc": ("dbgd", dbgd.PROBABILISTIC, clicks.ALMOST_RANDOM_CASCADING, 66),
    }
)


def arm_config(name: str, **fields) -> ExperimentConfig:
    """The config of the arm ``name`` of :data:`PAPER_ARMS`.

    ``fields`` sets any other config field.  The dataset defaults to
    ``BUNDLED_SYNTHETIC`` (pass ``synthetic=None`` with dataset paths) and
    ``base_seed`` to the arm's.
    """
    algorithm, comparator, click_model, base_seed = PAPER_ARMS[name]
    fields.setdefault("synthetic", BUNDLED_SYNTHETIC)
    fields.setdefault("base_seed", base_seed)
    return ExperimentConfig(algorithm=algorithm, comparator=comparator, click_model=click_model, **fields)


@dataclass
class RunResult:
    run_id: int
    seed: int
    config_hash: str
    trace: MetricTrace
    final_ndcg: float


def checkpoint_schedule(impressions: int, num_checkpoints: int) -> list[int]:
    """Impression counts to evaluate at: 0 plus log-spaced points up to the horizon, rounded.

    A count so large that neighbouring points lie under one impression
    apart gives every impression, without building the points.
    """
    if impressions < 1:
        raise ValueError("impressions must be >= 1")
    if num_checkpoints < 1:
        raise ValueError("num_checkpoints must be >= 1")
    # The points are r**i up to impressions: with r < 1 + 1/impressions every gap is
    # under one impression.  The 0.1% margin keeps logspace's rounding on the safe side.
    if (num_checkpoints - 1) * math.log1p(1 / impressions) > 1.001 * math.log(impressions):
        return list(range(impressions + 1))
    if impressions == 1 or num_checkpoints == 1:
        return [0, impressions]
    # np.rint rounds half to even, as round() does.  The points increase from
    # 1, so equal rounded values are neighbours: a mask keeps the first of each.
    points = np.rint(np.logspace(0.0, np.log10(impressions), num_checkpoints))
    points = points[np.append(True, points[1:] != points[:-1])]
    return np.concatenate(([0.0], points[points < impressions], [impressions])).astype(np.int64).tolist()


def load_config_dataset(config: ExperimentConfig, workers: int = 1) -> datasets.Dataset:
    """Materialize the dataset a config refers to.

    A synthetic spec's dataset is used as generated; train/test files are
    parsed (with ``workers`` > 1, the test file in a forked process beside
    train) and min-max normalized per query by :func:`datasets.load_dataset`.
    """
    if config.synthetic is not None:
        return config.synthetic.make()
    return datasets.load_dataset(config.train_path, config.test_path, workers)


def _run_seed(config: ExperimentConfig, run_index: int) -> tuple[int, np.random.SeedSequence]:
    seq = np.random.SeedSequence([config.base_seed, run_index])
    return int(seq.generate_state(1)[0]), seq


def run_with_dataset(config: ExperimentConfig, run_index: int, data: datasets.Dataset) -> RunResult:
    """Execute one seeded run of ``config`` on ``data``; each checked itself when it was made."""
    seed_value, seed_seq = _run_seed(config, run_index)
    rng = np.random.default_rng(seed_seq)
    click_spec = clicks.click_model(config.click_model)

    schedule = checkpoint_schedule(config.impressions, config.num_checkpoints)
    pending = set(schedule)
    trace_impressions: list[int] = []
    trace_ndcg: list[float] = []

    # Each step is looked up here, when the run starts, so that a wrapper of
    # dbgd.dbgd_step installed before the run is the one called.
    if config.algorithm == "pdgd":
        state, step = pdgd.PdgdState(zero_ranker(data.feature_dim)), pdgd._pdgd_step
    else:
        state, step = dbgd.DbgdState(zero_ranker(data.feature_dim), config.comparator), dbgd.dbgd_step

    def record(t: int) -> None:
        # The reported metric is NDCG@10 regardless of the display cutoff.
        trace_impressions.append(t)
        trace_ndcg.append(evaluate_heldout(state.ranker, data.test, 10))

    record(0)
    for t in range(1, config.impressions + 1):
        state = step(state, datasets.sample_query(data, rng), click_spec, rng, DISPLAY_CUTOFF)
        if t in pending:
            record(t)

    trace = MetricTrace(np.array(trace_impressions), np.array(trace_ndcg))
    return RunResult(
        run_id=run_index,
        seed=seed_value,
        config_hash=config.config_hash(),
        trace=trace,
        final_ndcg=trace.final,
    )


_POOL_CONFIG: ExperimentConfig | None = None
_POOL_DATASET: datasets.Dataset | None = None


def _pool_init(config: ExperimentConfig, data: datasets.Dataset) -> None:
    global _POOL_CONFIG, _POOL_DATASET
    _POOL_CONFIG, _POOL_DATASET = config, data


def _pool_run(run_index: int) -> RunResult:
    return run_with_dataset(_POOL_CONFIG, run_index, _POOL_DATASET)


def resolve_workers(workers: int | None = None) -> int:
    """The worker count: the argument, else the number of CPUs this process may run on.

    The CPUs are those of the process's affinity mask (taskset, cpusets)
    where the platform reports one, else all of the machine's.  A count
    that is not an integer >= 1 is refused.
    """
    if workers is not None:
        if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
            raise ValueError(f"workers must be an integer >= 1, got {workers!r}")
        return workers
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return max(1, os.cpu_count() or 1)


def run_experiment(
    config: ExperimentConfig,
    workers: int | None = None,
) -> tuple[list[RunResult], dict]:
    """Execute all repeats of a config and aggregate the final metric.

    The dataset is loaded once, in this process, and shared with the
    workers.  Runs are independent and order-insensitive; the worker count
    (argument, else the CPUs this process may use, :func:`resolve_workers`)
    changes only wall-clock time, never results.  With more than one
    worker, a LETOR test file is parsed in a forked process while this one
    parses train.
    """
    n_workers = resolve_workers(workers)
    indices = list(range(config.repeats))
    data = load_config_dataset(config, n_workers)
    if n_workers == 1 or config.repeats == 1:
        results = [run_with_dataset(config, i, data) for i in indices]
    else:
        # Workers get the parent's dataset; forked, they inherit its arrays
        # instead of receiving a pickled copy.
        with ProcessPoolExecutor(
            max_workers=min(n_workers, config.repeats),
            mp_context=get_context("fork"),
            initializer=_pool_init,
            initargs=(config, data),
        ) as pool:
            results = list(pool.map(_pool_run, indices))
    results.sort(key=lambda r: r.run_id)
    summary = summarize(config, results)
    return results, summary


def read_summary(directory: str | os.PathLike) -> dict:
    """The ``summary.json`` in ``directory``, once it holds what a comparison reads.

    Raises ``ValueError``, naming the file and the field, unless the file
    is a JSON object whose ``config`` is an object and whose
    ``per_run_final`` lists at least 2 finite numbers.
    """
    path = os.path.join(directory, "summary.json")
    summary = read_json(path)
    _check_object(path, summary)
    _check_object(f"{path}: config", summary.get("config"))
    finals = summary.get("per_run_final")
    if not _is_number_list(finals) or len(finals) < 2 or not all(math.isfinite(v) for v in finals):
        raise ValueError(f"{path}: per_run_final must list at least 2 numbers, all finite, got {finals!r}")
    return summary


def _comparable_fields(summary: dict) -> dict:
    """The fields a Welch test against another run set needs to be equal, as JSON values."""
    config = summary["config"]
    normalize = config.get("normalize")
    if normalize is None:  # absent or null: the policy, files normalized and synthetic data not
        normalize = config.get("synthetic") is None
    fields = {name: config.get(name) for name in ("synthetic", "train_path", "test_path", "impressions")}
    fields.update(normalize=normalize, checkpoint_schedule=summary.get("checkpoint_schedule"))
    return json.loads(json.dumps(fields))


def compare_results(dir_a: str | os.PathLike, dir_b: str | os.PathLike) -> dict:
    """A two-sided Welch test between the per-run finals of two result directories.

    Both ``summary.json`` files are read with :func:`read_summary`.  Raises
    ``ValueError``, naming both directories and, with both values, every
    field in which their dataset (``synthetic``, ``train_path``,
    ``test_path``, normalization), ``impressions`` or checkpoint schedule
    differs.  Returns each side's mean final NDCG and run count
    (``mean_a``, ``n_a``, ``mean_b``, ``n_b``) and the test's ``t`` and ``p``.
    """
    summaries = [read_summary(dir_a), read_summary(dir_b)]
    a, b = (_comparable_fields(s) for s in summaries)
    differing = [name for name in a if a[name] != b[name]]
    if differing:
        raise ValueError(
            f"cannot compare a: {dir_a} with b: {dir_b}: "
            + "; ".join(f"{name} is {a[name]!r} in a, {b[name]!r} in b" for name in differing)
        )
    finals_a, finals_b = (np.asarray(s["per_run_final"], dtype=np.float64) for s in summaries)
    t, p = welch_t_test(finals_a, finals_b)
    return {
        "mean_a": float(finals_a.mean()),
        "n_a": finals_a.size,
        "mean_b": float(finals_b.mean()),
        "n_b": finals_b.size,
        "t": t,
        "p": p,
    }


def summarize(config: ExperimentConfig, results: list[RunResult]) -> dict:
    """Aggregate final NDCG across runs; the checkpoint schedule is the first run's trace's."""
    finals = np.array([r.final_ndcg for r in results])
    return {
        "config": config.to_dict(),
        "config_hash": config.config_hash(),
        "repeats": len(results),
        "final_ndcg_mean": float(finals.mean()),
        "final_ndcg_std": float(finals.std(ddof=1)) if finals.size > 1 else 0.0,
        "per_run_final": [float(v) for v in finals],
        "per_run_seed": [r.seed for r in results],
        "checkpoint_schedule": results[0].trace.impressions.tolist(),
    }


def emit_outputs(results: list[RunResult], summary: dict, out_dir: str | os.PathLike) -> dict:
    """Write trace.csv, summary.json and curve.svg into ``out_dir``."""
    if not results:
        raise ValueError("no results to emit")
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "trace": os.path.join(out_dir, "trace.csv"),
        "summary": os.path.join(out_dir, "summary.json"),
        "curve": os.path.join(out_dir, "curve.svg"),
    }
    with open(paths["trace"], "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["run_id", "seed", "impressions", "ndcg10"])
        for r in results:
            for impressions, value in r.trace.checkpoints():
                writer.writerow([r.run_id, r.seed, impressions, repr(value)])
    with open(paths["summary"], "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    impressions = results[0].trace.impressions
    curves = np.stack([r.trace.ndcg for r in results])
    write_curve_svg(impressions, curves, paths["curve"])
    return paths


SVG_PLOT = {"left": 60.0, "top": 20.0, "width": 560.0, "height": 350.0}


def write_curve_svg(impressions: np.ndarray, curves: np.ndarray, path: str | os.PathLike) -> None:
    """Learning-curve plot: mean NDCG@10 vs impressions with a ±1-std band.

    ``curves`` has one row per run, aligned with ``impressions``.  The svg
    root carries the affine data-to-pixel mapping in ``data-*`` attributes
    so the plotted geometry can be inverted and checked.
    """
    impressions = np.asarray(impressions, dtype=np.float64)
    curves = np.atleast_2d(np.asarray(curves, dtype=np.float64))
    if curves.shape[1] != impressions.size or impressions.size == 0:
        raise ValueError("curves must align with the checkpoint schedule")
    mean = curves.mean(axis=0)
    std = curves.std(axis=0, ddof=1) if curves.shape[0] > 1 else np.zeros_like(mean)

    x_min, x_max = 0.0, float(max(impressions.max(), 1.0))
    y_min, y_max = 0.0, 1.0
    plot = SVG_PLOT

    def x_px(v):
        return plot["left"] + (v - x_min) / (x_max - x_min) * plot["width"]

    def y_px(v):
        return plot["top"] + (y_max - v) / (y_max - y_min) * plot["height"]

    def pt(x, y):
        return f"{x_px(x):.6f},{y_px(y):.6f}"

    upper = [pt(x, m + s) for x, m, s in zip(impressions, mean, std)]
    lower = [pt(x, m - s) for x, m, s in zip(impressions, mean, std)]
    band = "M " + " L ".join(upper) + " L " + " L ".join(reversed(lower)) + " Z"
    mean_points = " ".join(pt(x, m) for x, m in zip(impressions, mean))

    right = plot["left"] + plot["width"]
    bottom = plot["top"] + plot["height"]
    y_ticks = "".join(
        f'<text x="{plot["left"] - 8:.1f}" y="{y_px(v) + 4:.1f}" text-anchor="end" font-size="11">{v:.2f}</text>'
        f'<line x1="{plot["left"] - 4:.1f}" y1="{y_px(v):.1f}" x2="{plot["left"]:.1f}" y2="{y_px(v):.1f}" stroke="black"/>'
        for v in (0.0, 0.25, 0.5, 0.75, 1.0)
    )
    x_tick_vals = sorted({0.0, x_max / 2.0, x_max})
    x_ticks = "".join(
        f'<text x="{x_px(v):.1f}" y="{bottom + 18:.1f}" text-anchor="middle" font-size="11">{int(v)}</text>'
        f'<line x1="{x_px(v):.1f}" y1="{bottom:.1f}" x2="{x_px(v):.1f}" y2="{bottom + 4:.1f}" stroke="black"/>'
        for v in x_tick_vals
    )
    svg = f"""<svg xmlns="http://www.w3.org/2000/svg" width="640" height="420"
  data-x-min="{x_min!r}" data-x-max="{x_max!r}" data-y-min="{y_min!r}" data-y-max="{y_max!r}"
  data-plot-left="{plot['left']!r}" data-plot-top="{plot['top']!r}"
  data-plot-width="{plot['width']!r}" data-plot-height="{plot['height']!r}">
  <rect x="0" y="0" width="640" height="420" fill="white"/>
  <path id="std-band" d="{band}" fill="#9ecae1" fill-opacity="0.5" stroke="none"/>
  <polyline id="mean-curve" points="{mean_points}" fill="none" stroke="#1f77b4" stroke-width="1.5"/>
  <line x1="{plot['left']:.1f}" y1="{bottom:.1f}" x2="{right:.1f}" y2="{bottom:.1f}" stroke="black"/>
  <line x1="{plot['left']:.1f}" y1="{plot['top']:.1f}" x2="{plot['left']:.1f}" y2="{bottom:.1f}" stroke="black"/>
  {y_ticks}
  {x_ticks}
  <text x="{(plot['left'] + right) / 2:.1f}" y="412" text-anchor="middle" font-size="12">impressions</text>
  <text x="14" y="{(plot['top'] + bottom) / 2:.1f}" text-anchor="middle" font-size="12"
    transform="rotate(-90 14 {(plot['top'] + bottom) / 2:.1f})">NDCG@10</text>
</svg>
"""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(svg)


def read_trace_csv(path: str | os.PathLike) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Read a trace.csv back into (impressions, per-run curve matrix, run ids).

    Each run's curve is rebuilt as a ``MetricTrace``, so it gets the checks a
    run's trace gets.  Raises ``ValueError`` naming the file, and the line
    for a missing column or a value that is not a number.
    """
    per_run: dict[int, list[tuple[int, float]]] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        for column in ("run_id", "impressions", "ndcg10"):
            if reader.fieldnames and column not in reader.fieldnames:
                raise ValueError(f"{path}, line 1: no {column} column")
        for row in reader:
            try:
                run_id, impressions, value = int(row["run_id"]), int(row["impressions"]), float(row["ndcg10"])
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None
            per_run.setdefault(run_id, []).append((impressions, value))
    if not per_run:
        raise ValueError(f"{path}: no trace rows")
    run_ids = sorted(per_run)
    traces = []
    for run_id in run_ids:
        try:
            traces.append(MetricTrace(*zip(*per_run[run_id])))
        except ValueError as exc:
            raise ValueError(f"{path}: run {run_id}: {exc}") from None
    if any(not np.array_equal(trace.impressions, traces[0].impressions) for trace in traces):
        raise ValueError(f"{path}: runs disagree on the checkpoint schedule")
    return traces[0].impressions, np.array([trace.ndcg for trace in traces]), run_ids
