"""Workload definitions and input generation for the oltrsim benchmark.

Every input is a pure function of the workload seed: the per-arm
``base_seed``s, the wide LETOR dataset and its query lengths.  The bundled
synthetic benchmark itself (``BUNDLED_SYNTHETIC``, generator seed 7) is the
same for every seed, as in the acceptance battery.

Regenerate the LETOR inputs of a seed without running anything::

    PYTHONPATH=src python3 bench/workloads.py --seed 0 --out bench/_work/inputs-seed0
"""

from __future__ import annotations

import argparse
import json
import os
from dataclasses import dataclass

import numpy as np

from oltrsim import datasets, experiments

# base_seed of an arm = its battery seed + SEED_STRIDE * workload seed, so the
# default seed 0 reproduces the acceptance battery's base seeds.
DEFAULT_SEED = 0
SEED_STRIDE = 1000

# Wide, MSLR-shaped LETOR pair: 136 features, NUM_LETOR_QUERIES queries per
# split whose lengths are a seeded shuffle of an evenly spaced 60..180 range
# (mean 120), so every seed has exactly the same line count.
LETOR_FEATURES = 136
NUM_LETOR_QUERIES = 15
LETOR_MIN_DOCS = 60
LETOR_MAX_DOCS = 180
LETOR_DATASET_SEED_OFFSET = 5000


@dataclass(frozen=True)
class Arm:
    name: str
    algorithm: str
    comparator: str
    click_model: str
    battery_seed: int

    def base_seed(self, seed: int) -> int:
        return self.battery_seed + SEED_STRIDE * seed


@dataclass(frozen=True)
class Workload:
    name: str
    arms: tuple[Arm, ...]
    repeats: int
    impressions: int
    num_checkpoints: int  # sets the held-out evaluations per impression (see TRAFFIC below)
    workers: int  # worker processes of the untraced run
    letor: bool  # wide LETOR files through ``oltrsim run``, else BUNDLED_SYNTHETIC in-process


PDGD_PERFECT = Arm("pdgd_perfect", "pdgd", "probabilistic", "perfect", 11)
DBGD_PROB_PERFECT = Arm("dbgd_prob_perfect", "dbgd", "probabilistic", "perfect", 22)

# TRAFFIC.  Runs are shorter than the repo's configs (the acceptance battery
# and configs/*_perfect.json: 20,000 impressions, 30 checkpoints), so
# ``num_checkpoints`` is cut to keep held-out evaluation per impression as in
# real use.  Synthetic arms: 6 evaluations per 4,000 impressions, the
# battery's 30 per 20,000.  letor_cli: 8 evaluations of 15 x 120 test
# documents per 2,000 impressions, 7.2 documents scored per impression
# against 7.5 in the battery and in configs/mslr_pdgd_perfect.json.

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "pdgd_synth",
            (
                PDGD_PERFECT,
                Arm("pdgd_ar_casc", "pdgd", "probabilistic", "almost_random_cascading", 44),
                Arm("pdgd_ar_noncasc", "pdgd", "probabilistic", "almost_random_noncascading", 55),
            ),
            repeats=1,
            impressions=4000,
            num_checkpoints=5,
            workers=1,
            letor=False,
        ),
        Workload(
            "dbgd_synth",
            (
                DBGD_PROB_PERFECT,
                Arm("dbgd_prob_ar_casc", "dbgd", "probabilistic", "almost_random_cascading", 66),
                Arm("dbgd_oracle_perfect", "dbgd", "oracle", "perfect", 33),
                Arm("dbgd_td_ar_noncasc", "dbgd", "team_draft", "almost_random_noncascading", 77),
            ),
            repeats=1,
            impressions=4000,
            num_checkpoints=5,
            workers=1,
            letor=False,
        ),
        Workload(
            "letor_cli",
            (PDGD_PERFECT, DBGD_PROB_PERFECT),
            repeats=2,
            impressions=2000,
            num_checkpoints=7,
            workers=2,
            letor=True,
        ),
    )
}

ALL_ARMS = tuple(dict.fromkeys(arm.name for w in WORKLOADS.values() for arm in w.arms))


def arm_config(workload: Workload, arm: Arm, seed: int, **paths) -> experiments.ExperimentConfig:
    """The experiment config of one arm; ``paths`` gives dataset and output locations."""
    if not workload.letor:
        paths.setdefault("synthetic", experiments.BUNDLED_SYNTHETIC)
    return experiments.ExperimentConfig(
        algorithm=arm.algorithm,
        comparator=arm.comparator,
        click_model=arm.click_model,
        impressions=workload.impressions,
        num_checkpoints=workload.num_checkpoints,
        repeats=workload.repeats,
        base_seed=arm.base_seed(seed),
        **paths,
    )


def letor_queries(seed: int) -> datasets.Dataset:
    """Wide generator output, before it is written: queries of 60..180 documents.

    Grades are as sparse as in ``BUNDLED_SYNTHETIC`` but the relevance is
    linear (hardness 0).  With the bundled hardness of 1.5, DBGD's mean
    NDCG@10 gain after 2,000 impressions in 136 dimensions was 0.037 +- 0.033
    over seeds 0-19 and negative on 4 of them, too weak for the check that a
    perfect user's arm learns; on linear data it was 0.21 +- 0.05.
    """
    data = datasets.make_synthetic(
        NUM_LETOR_QUERIES,
        LETOR_MAX_DOCS,
        LETOR_FEATURES,
        LETOR_DATASET_SEED_OFFSET + seed,
        grade_bins=experiments.BUNDLED_SYNTHETIC.grade_bins,
    )
    rng = np.random.default_rng([LETOR_DATASET_SEED_OFFSET, seed])
    lengths = np.linspace(LETOR_MIN_DOCS, LETOR_MAX_DOCS, NUM_LETOR_QUERIES).round().astype(int)

    def cut(queries):
        return [
            datasets.Query(q.qid, q.features[:n], q.relevance[:n])
            for q, n in zip(queries, rng.permutation(lengths))
        ]

    return datasets.Dataset(train=cut(data.train), test=cut(data.test), feature_dim=LETOR_FEATURES)


@dataclass
class Inputs:
    """Everything a workload reads: generator arrays and the files written from them."""

    reference: datasets.Dataset  # generator output; the loaded LETOR files must reproduce it
    train_path: str | None = None  # LETOR pair and per-arm configs: letor_cli only
    test_path: str | None = None
    config_paths: dict[str, str] | None = None  # arm name -> config JSON


def build_inputs(workload_name: str, seed: int, work_dir: str) -> Inputs:
    """Generate a workload's datasets; for ``letor_cli`` also write its LETOR pair and configs."""
    workload = WORKLOADS[workload_name]
    if not workload.letor:
        return Inputs(experiments.load_config_dataset(arm_config(workload, workload.arms[0], seed)))
    os.makedirs(work_dir, exist_ok=True)
    reference = letor_queries(seed)
    train_path = os.path.join(work_dir, "train.txt")
    test_path = os.path.join(work_dir, "test.txt")
    datasets.write_letor(reference.train, train_path)
    datasets.write_letor(reference.test, test_path)
    config_paths = {}
    for arm in workload.arms:
        config = arm_config(
            workload,
            arm,
            seed,
            train_path=train_path,
            test_path=test_path,
            output_dir=os.path.join(work_dir, "out", arm.name),
        )
        path = os.path.join(work_dir, f"{arm.name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config.to_dict(), fh, indent=2)
        config_paths[arm.name] = path
    return Inputs(reference, train_path, test_path, config_paths)


def main() -> int:
    parser = argparse.ArgumentParser(description="Write the benchmark's LETOR inputs for one seed.")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--out", required=True, help="directory for the wide (letor_cli) files")
    args = parser.parse_args()
    inputs = build_inputs("letor_cli", args.seed, args.out)
    for path in (inputs.train_path, inputs.test_path, *inputs.config_paths.values()):
        print(f"wrote {path} ({os.path.getsize(path)} bytes)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
