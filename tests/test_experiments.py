import csv
import importlib.util
import json
import math
import os
import re
import sys
import time
import xml.etree.ElementTree as ET
from concurrent.futures import ProcessPoolExecutor
from dataclasses import FrozenInstanceError, asdict, replace

import numpy as np
import pytest
from _oracles import reference_checkpoint_schedule

from oltrsim import experiments
from oltrsim.datasets import make_synthetic, write_letor
from oltrsim.evaluation import MetricTrace, evaluate_heldout, welch_t_test
from oltrsim.experiments import (
    BUNDLED_SYNTHETIC,
    PAPER_ARMS,
    ExperimentConfig,
    RunResult,
    SyntheticSpec,
    arm_config,
    checkpoint_schedule,
    compare_results,
    emit_outputs,
    load_config_dataset,
    read_summary,
    read_trace_csv,
    resolve_workers,
    run_experiment,
    run_with_dataset,
    summarize,
)
from oltrsim.ranking import zero_ranker

TINY_SYNTH = SyntheticSpec(num_queries=6, docs_per_query=8, feature_dim=3, seed=5)
REPO_DIR = os.path.join(os.path.dirname(__file__), os.pardir)
CONFIGS_DIR = os.path.join(REPO_DIR, "configs")
SHIPPED_CONFIGS = sorted(name for name in os.listdir(CONFIGS_DIR) if name.endswith(".json"))


def tiny_config(**overrides) -> ExperimentConfig:
    base = dict(
        algorithm="pdgd",
        synthetic=TINY_SYNTH,
        impressions=40,
        repeats=2,
        base_seed=17,
        num_checkpoints=5,
        output_dir="unused",
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestCheckpointSchedule:
    def test_single_impression(self):
        assert checkpoint_schedule(1, 30) == [0, 1]

    def test_includes_endpoints_and_increases(self):
        schedule = checkpoint_schedule(100000, 30)
        assert schedule[0] == 0
        assert schedule[-1] == 100000
        assert all(b > a for a, b in zip(schedule, schedule[1:]))

    def test_zero_impressions_rejected(self):
        with pytest.raises(ValueError):
            checkpoint_schedule(0, 30)

    @pytest.mark.parametrize("num_checkpoints", [0, -3])
    def test_fewer_than_one_checkpoint_rejected_with_the_configs_message(self, num_checkpoints):
        with pytest.raises(ValueError, match=r"^num_checkpoints must be >= 1$"):
            checkpoint_schedule(10, num_checkpoints)

    @pytest.mark.parametrize(
        "impressions, num_checkpoints",
        [(20_000, 30), (1_000_000, 30), (4_000, 5), (2_000, 7), (300, 5), (200, 30)],
    )
    def test_repository_schedules_match_the_reference(self, impressions, num_checkpoints):
        assert checkpoint_schedule(impressions, num_checkpoints) == reference_checkpoint_schedule(impressions, num_checkpoints)

    def test_matches_the_reference_around_every_impression(self):
        # Counts from a few up to past the point where every impression is a
        # checkpoint (about impressions * ln(impressions)), densest near it.
        for impressions in [*range(1, 120), 199, 200, 201, 399, 500, 999, 1000]:
            every = 1 + math.log(impressions) / math.log1p(1 / impressions) if impressions > 1 else 2
            near = range(max(1, int(every * 0.995) - 2), int(every * 1.005) + 3, max(1, int(every * 0.0005)))
            for num_checkpoints in {1, 2, 3, 30, int(every * 0.5), int(every * 1.3), *near}:
                assert checkpoint_schedule(impressions, num_checkpoints) == reference_checkpoint_schedule(
                    impressions, num_checkpoints
                ), (impressions, num_checkpoints)

    @pytest.mark.parametrize("impressions", [4_000, 9_999, 20_000])
    def test_matches_the_reference_just_under_every_impression(self, impressions):
        # Counts this close to the threshold round to every impression but a few.
        every = 1 + math.log(impressions) / math.log1p(1 / impressions)
        for num_checkpoints in (int(every * 0.998), int(every) - 1, int(every * 0.5)):
            assert checkpoint_schedule(impressions, num_checkpoints) == reference_checkpoint_schedule(
                impressions, num_checkpoints
            ), num_checkpoints

    def test_cost_bounded_by_the_horizon(self):
        start = time.perf_counter()
        assert checkpoint_schedule(1_000, 10**7) == list(range(1_001))
        assert time.perf_counter() - start < 0.5


class TestConfig:
    def test_validation_catches_bad_values(self):
        with pytest.raises(ValueError):
            tiny_config(algorithm="sgd")
        with pytest.raises(ValueError):
            tiny_config(impressions=0)
        with pytest.raises(ValueError):
            tiny_config(synthetic=None)
        with pytest.raises(ValueError):
            tiny_config(train_path="x.txt", test_path="y.txt")
        with pytest.raises(ValueError):
            tiny_config(comparator="quantum")

    @pytest.mark.parametrize(
        "field, message",
        [
            ("algorithm", "algorithm must be one of ('dbgd', 'pdgd'), got 'quantum'"),
            ("comparator", "comparator must be one of ('probabilistic', 'team_draft', 'oracle'), got 'quantum'"),
            (
                "click_model",
                "click_model must be one of "
                "('perfect', 'almost_random_cascading', 'almost_random_noncascading'), got 'quantum'",
            ),
        ],
    )
    def test_choice_refusals_name_the_value(self, field, message):
        with pytest.raises(ValueError) as excinfo:
            tiny_config(**{field: "quantum"})
        assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "field, value",
        [
            ("impressions", 20.5),
            ("repeats", True),
            ("num_checkpoints", 5.0),
            ("base_seed", None),
            ("output_dir", True),
            ("output_dir", 5),
            ("output_dir", None),
            ("train_path", 5),
            ("test_path", ["test.txt"]),
        ],
    )
    def test_field_types_checked_by_name(self, field, value):
        data = {**tiny_config().to_dict(), field: value}
        data["synthetic"] = asdict(TINY_SYNTH)
        with pytest.raises(ValueError, match=f"^config field {field} must be"):
            ExperimentConfig.from_dict(data)

    @pytest.mark.parametrize("value", ["no", True, False, None])
    def test_normalize_is_an_unknown_field(self, value):
        # Files are always normalized per query and synthetic data never is.
        data = {**tiny_config().to_dict(), "synthetic": asdict(TINY_SYNTH), "normalize": value}
        with pytest.raises(ValueError, match=r"^unknown config fields: \['normalize'\]$"):
            ExperimentConfig.from_dict(data)

    def test_baseline_dir_is_an_unknown_field(self):
        # Result sets are compared with compare_results, after both exist.
        for value in ("results/dbgd", [], None):
            data = {**tiny_config().to_dict(), "synthetic": asdict(TINY_SYNTH), "baseline_dir": value}
            with pytest.raises(ValueError, match=r"^unknown config fields: \['baseline_dir'\]$"):
                ExperimentConfig.from_dict(data)

    def test_empty_synthetic_spec_refused(self):
        with pytest.raises(
            ValueError,
            match=r"^synthetic spec is missing fields: \['num_queries', 'docs_per_query', 'feature_dim', 'seed'\]$",
        ):
            ExperimentConfig.from_dict({"algorithm": "pdgd", "synthetic": {}})

    @pytest.mark.parametrize("value", [5, "0.2", None, {"a": 1}, ["a", "b", "c", "d"], [0.2, True, 0.6, 0.8]])
    def test_grade_bins_must_be_a_list_of_numbers(self, value):
        spec = {**asdict(TINY_SYNTH), "grade_bins": value}
        with pytest.raises(ValueError, match="^synthetic spec field grade_bins must be a list of numbers, got"):
            ExperimentConfig.from_dict({"algorithm": "pdgd", "synthetic": spec})

    @pytest.mark.parametrize(
        "data, owner",
        [
            ([{"algorithm": "pdgd"}], "config"),
            ("pdgd", "config"),
            ({"algorithm": "pdgd", "synthetic": [3]}, "synthetic spec"),
            ({"algorithm": "pdgd", "synthetic": 3}, "synthetic spec"),
        ],
    )
    def test_non_objects_refused_by_name(self, data, owner):
        with pytest.raises(ValueError, match=f"^{owner} must be a JSON object, got"):
            ExperimentConfig.from_dict(data)

    def test_synthetic_must_be_a_spec(self):
        # A dict made in code is not turned into a spec, as from_dict turns a JSON object.
        with pytest.raises(ValueError, match=r"^config field synthetic must be a SyntheticSpec or None, got \{"):
            tiny_config(synthetic=asdict(TINY_SYNTH))

    def test_a_config_cannot_be_changed_once_made(self):
        config = tiny_config()
        with pytest.raises(FrozenInstanceError):
            config.impressions = 0
        assert config.impressions == 40

    def test_json_round_trip(self, tmp_path):
        config = tiny_config(algorithm="dbgd", comparator="oracle", synthetic=replace(TINY_SYNTH, hardness=2.5))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config.to_dict()))
        loaded = ExperimentConfig.from_json_file(path)
        assert loaded == config

    # Runs follow the standard protocol, so configs do not set k, learning_rate, delta or tau.
    @pytest.mark.parametrize("field", ["velocity", "k", "learning_rate", "delta", "tau"])
    def test_unknown_fields_rejected(self, field):
        with pytest.raises(ValueError, match=rf"^unknown config fields: \['{field}'\]$"):
            ExperimentConfig.from_dict({"algorithm": "pdgd", field: 9})

    def test_hash_ignores_output_paths_only(self):
        a = tiny_config()
        b = tiny_config(output_dir="elsewhere")
        c = tiny_config(base_seed=18)
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()


class TestShippedConfigs:
    @pytest.mark.parametrize("name", SHIPPED_CONFIGS)
    def test_loads_and_validates(self, name):
        # Validation reads no dataset: the MSLR paths need not exist.
        ExperimentConfig.from_json_file(os.path.join(CONFIGS_DIR, name))

    def test_readme_example_validates(self):
        # The docs may not advertise a field that configs do not take.
        with open(os.path.join(REPO_DIR, "README.md"), encoding="utf-8") as fh:
            section = fh.read().split("### Config format", 1)[1]
        example = re.search(r"```json\n(.*?)```", section, re.DOTALL).group(1)
        ExperimentConfig.from_dict(json.loads(example))

    @pytest.mark.parametrize("name", ["dbgd_perfect.json", "pdgd_perfect.json"])
    def test_synthetic_configs_use_the_bundled_set(self, name):
        config = ExperimentConfig.from_json_file(os.path.join(CONFIGS_DIR, name))
        assert config.synthetic == BUNDLED_SYNTHETIC


class TestPaperArms:
    def test_builder_sets_the_arm_and_passes_fields_through(self):
        config = arm_config("dbgd_oracle_perfect", impressions=300, repeats=3)
        arm = (config.algorithm, config.comparator, config.click_model, config.base_seed)
        assert arm == PAPER_ARMS["dbgd_oracle_perfect"]
        assert (config.synthetic, config.impressions, config.repeats) == (BUNDLED_SYNTHETIC, 300, 3)
        assert arm_config("dbgd_oracle_perfect", base_seed=7).base_seed == 7

    @pytest.mark.parametrize(
        "file, name", [("pdgd_perfect.json", "pdgd_perfect"), ("dbgd_perfect.json", "dbgd_prob_perfect")]
    )
    def test_shipped_configs_are_the_tables_arms(self, file, name):
        shipped = ExperimentConfig.from_json_file(os.path.join(CONFIGS_DIR, file))
        assert shipped.config_hash() == arm_config(name, impressions=20_000, repeats=25).config_hash()

    def test_benchmark_arms_agree_with_the_table(self, monkeypatch):
        # bench/ keeps its own copy of the arms; read it without writing bytecode next to it.
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        path = os.path.join(REPO_DIR, "bench", "workloads.py")
        spec = importlib.util.spec_from_file_location("_bench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look their module up
        spec.loader.exec_module(workloads)
        bench_arms = {arm.name: arm for workload in workloads.WORKLOADS.values() for arm in workload.arms}
        assert set(PAPER_ARMS) <= set(bench_arms)
        for name, arm in PAPER_ARMS.items():
            bench = bench_arms[name]
            assert (bench.algorithm, bench.comparator, bench.click_model, bench.battery_seed) == arm, name


def run_one(config: ExperimentConfig, run_index: int):
    return run_with_dataset(config, run_index, load_config_dataset(config))


class TestRunSingle:
    def test_bitwise_deterministic(self):
        config = tiny_config()
        first = run_one(config, 0)
        second = run_one(config, 0)
        assert np.array_equal(first.trace.ndcg, second.trace.ndcg)
        assert np.array_equal(first.trace.impressions, second.trace.impressions)
        assert first.seed == second.seed

    def test_runs_differ_by_index(self):
        config = tiny_config()
        a = run_one(config, 0)
        b = run_one(config, 1)
        assert a.seed != b.seed
        assert not np.array_equal(a.trace.ndcg, b.trace.ndcg)

    def test_single_impression_trace(self):
        config = tiny_config(impressions=1)
        result = run_one(config, 0)
        assert result.trace.impressions.tolist() == [0, 1]

    def test_dbgd_runs_all_comparators(self):
        for comparator in ("probabilistic", "team_draft", "oracle"):
            config = tiny_config(algorithm="dbgd", comparator=comparator, impressions=20)
            result = run_one(config, 0)
            assert 0.0 <= result.final_ndcg <= 1.0

    def test_single_document_queries_run(self):
        # Degenerate candidate sets: PDGD finds no pairs, DBGD comparisons
        # always tie, but the loop must still execute and checkpoint.
        spec = SyntheticSpec(num_queries=3, docs_per_query=1, feature_dim=2, seed=1)
        for algorithm in ("pdgd", "dbgd"):
            config = tiny_config(algorithm=algorithm, synthetic=spec, impressions=10)
            result = run_one(config, 0)
            assert result.trace.impressions[-1] == 10

    @pytest.mark.slow
    def test_pdgd_beats_zero_ranker_baseline(self):
        config = ExperimentConfig(
            algorithm="pdgd",
            click_model="perfect",
            synthetic=BUNDLED_SYNTHETIC,
            impressions=5000,
            repeats=1,
            base_seed=2024,
            output_dir="unused",
        )
        data = load_config_dataset(config)
        baseline = evaluate_heldout(zero_ranker(data.feature_dim), data.test)
        result = run_one(config, 0)
        assert result.final_ndcg - baseline >= 0.15


def write_summary(directory, config: ExperimentConfig, finals) -> dict:
    """Write into ``directory`` the summary.json of runs of ``config`` whose finals are ``finals``.

    Each run's trace holds its final at every checkpoint of the config's schedule.
    """
    schedule = checkpoint_schedule(config.impressions, config.num_checkpoints)
    results = [
        RunResult(i, i, config.config_hash(), MetricTrace(schedule, [v] * len(schedule)), v)
        for i, v in enumerate(finals)
    ]
    summary = summarize(config, results)
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return summary


class TestRunExperiment:
    def test_worker_count_is_immaterial(self):
        config = tiny_config(repeats=4)
        serial, _ = run_experiment(config, workers=1)
        parallel, _ = run_experiment(config, workers=4)
        assert [r.run_id for r in serial] == [r.run_id for r in parallel]
        for a, b in zip(serial, parallel):
            assert a.seed == b.seed
            assert np.array_equal(a.trace.ndcg, b.trace.ndcg)

    # Probabilistic DBGD draws its clicks through clicks.simulate, PDGD through its own path.
    @pytest.mark.parametrize("algorithm", ["pdgd", "dbgd"])
    def test_workers_share_the_parents_dataset(self, tmp_path, monkeypatch, algorithm):
        data = make_synthetic(4, 6, 3, seed=9)
        write_letor(data.train, tmp_path / "train.txt")
        write_letor(data.test, tmp_path / "test.txt")
        config = tiny_config(
            algorithm=algorithm,
            comparator="probabilistic",
            synthetic=None,
            train_path=str(tmp_path / "train.txt"),
            test_path=str(tmp_path / "test.txt"),
        )
        pid_log = tmp_path / "pids.txt"
        load = experiments.load_config_dataset

        def logged_load(cfg, workers):
            with open(pid_log, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()} {workers}\n")
            return load(cfg, workers)

        start_methods = []

        class SpyPool(ProcessPoolExecutor):
            def __init__(self, *args, mp_context=None, **kwargs):
                start_methods.append(mp_context and mp_context.get_start_method())
                super().__init__(*args, mp_context=mp_context, **kwargs)

        monkeypatch.setattr(experiments, "load_config_dataset", logged_load)
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", SpyPool)
        parallel, _ = run_experiment(config, workers=2)
        # Loaded once, in this process, with the run's worker count.
        assert pid_log.read_text().split() == [str(os.getpid()), "2"]
        # The run pool forks, whatever the platform's default, so workers inherit the dataset.
        assert start_methods == ["fork"]
        serial, _ = run_experiment(config, workers=1)
        for a, b in zip(serial, parallel, strict=True):
            assert (a.run_id, a.seed, a.final_ndcg) == (b.run_id, b.seed, b.final_ndcg)
            assert np.array_equal(a.trace.impressions, b.trace.impressions)
            assert np.array_equal(a.trace.ndcg, b.trace.ndcg)

    def test_default_workers_are_the_usable_cpus(self, monkeypatch):
        # One usable CPU on a machine with more: taskset or a cpuset.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert resolve_workers() == 1
        assert resolve_workers(4) == 4
        monkeypatch.delattr(os, "sched_getaffinity")  # a platform without affinity masks
        assert resolve_workers() == 64

    @pytest.mark.parametrize("workers", [0, -1, 1.5, True])
    def test_bad_worker_argument_rejected(self, workers):
        with pytest.raises(ValueError, match="^workers must be an integer >= 1"):
            run_experiment(tiny_config(), workers=workers)

    def test_summary_mean_is_arithmetic_mean(self):
        config = tiny_config(repeats=3)
        results, summary = run_experiment(config, workers=1)
        finals = [r.final_ndcg for r in results]
        assert summary["final_ndcg_mean"] == pytest.approx(np.mean(finals), abs=1e-15)
        assert summary["per_run_final"] == finals

    def test_baseline_comparison_block(self, tmp_path):
        dirs = []
        for base_seed in (17, 99):
            config = tiny_config(repeats=3, base_seed=base_seed, output_dir=str(tmp_path / str(base_seed)))
            emit_outputs(*run_experiment(config, workers=1), config.output_dir)
            dirs.append(config.output_dir)
        finals = [read_summary(d)["per_run_final"] for d in dirs]
        t, p = welch_t_test(*finals)
        expected = {"mean_a": np.mean(finals[0]), "n_a": 3, "mean_b": np.mean(finals[1]), "n_b": 3, "t": t, "p": p}
        assert compare_results(*dirs) == expected
        assert 0.0 <= p <= 1.0
        # A summary.json written when configs set the protocol's hyperparameters still compares.
        summary = read_summary(dirs[1])
        summary["config"].update(k=10, learning_rate=None, delta=1.0, tau=3.0)
        with open(os.path.join(dirs[1], "summary.json"), "w", encoding="utf-8") as fh:
            json.dump(summary, fh)
        assert compare_results(*dirs) == expected

    def test_baseline_with_another_horizon_rejected(self, tmp_path):
        write_summary(tmp_path / "a", tiny_config(), [0.5, 0.6])
        write_summary(tmp_path / "b", tiny_config(impressions=80), [0.5, 0.6])
        with pytest.raises(ValueError) as raised:
            compare_results(tmp_path / "a", tmp_path / "b")
        assert str(raised.value) == (
            f"cannot compare a: {tmp_path / 'a'} with b: {tmp_path / 'b'}: impressions is 40 in a, 80 in b; "
            f"checkpoint_schedule is {checkpoint_schedule(40, 5)!r} in a, {checkpoint_schedule(80, 5)!r} in b"
        )

    @pytest.mark.parametrize(
        "body, message",
        [
            ({"config": 5, "per_run_final": [0.5, 0.6]}, r": config must be a JSON object, got 5$"),
            ({"per_run_final": [0.5, 0.6]}, r": config must be a JSON object, got None$"),
            ([0.5, 0.6], r" must be a JSON object, got \[0.5, 0.6\]$"),
            ({"config": {}, "per_run_final": [0.5, float("nan")]}, r": per_run_final must list at least 2 numbers"),
            ({"config": {}, "per_run_final": [0.5, True]}, r": per_run_final must list at least 2 numbers"),
        ],
    )
    def test_malformed_baseline_summary_named(self, tmp_path, body, message):
        (tmp_path / "summary.json").write_text(json.dumps(body))
        path = os.path.join(str(tmp_path), "summary.json")
        with pytest.raises(ValueError, match="^" + re.escape(path) + message):
            compare_results(str(tmp_path), str(tmp_path))
        with pytest.raises(ValueError, match="^" + re.escape(path) + message):
            read_summary(tmp_path)

    @pytest.mark.parametrize("recorded, comparable", [(False, False), (None, True), (True, True)])
    def test_baseline_normalize_checked_against_the_policy(self, tmp_path, recorded, comparable):
        # Files are normalized per query; a summary that recorded otherwise trained on other data.
        config = tiny_config(synthetic=None, train_path="train.txt", test_path="test.txt")
        write_summary(tmp_path / "a", config, [0.5, 0.6])
        summary = write_summary(tmp_path / "b", config, [0.5, 0.6])
        summary["config"]["normalize"] = recorded
        (tmp_path / "b" / "summary.json").write_text(json.dumps(summary))
        if comparable:
            assert compare_results(tmp_path / "a", tmp_path / "b")["n_b"] == 2
        else:
            with pytest.raises(ValueError, match=": normalize is True in a, False in b$"):
                compare_results(tmp_path / "a", tmp_path / "b")

    def test_bundled_dbgd_config_compares_with_pdgd_results(self, tmp_path):
        for name, finals in (("pdgd_perfect", [0.5, 0.6, 0.7]), ("dbgd_perfect", [0.4, 0.5])):
            config = ExperimentConfig.from_json_file(os.path.join(CONFIGS_DIR, f"{name}.json"))
            write_summary(tmp_path / name, config, finals)
        test = compare_results(tmp_path / "pdgd_perfect", tmp_path / "dbgd_perfect")
        assert (test["n_a"], test["n_b"]) == (3, 2)


class TestEmitOutputs:
    @pytest.fixture()
    def emitted(self, tmp_path):
        config = tiny_config(repeats=2, output_dir=str(tmp_path / "out"))
        results, summary = run_experiment(config, workers=1)
        paths = emit_outputs(results, summary, config.output_dir)
        return config, results, paths

    def test_trace_row_count(self, emitted):
        config, results, paths = emitted
        with open(paths["trace"]) as fh:
            rows = list(csv.DictReader(fh))
        checkpoints = len(checkpoint_schedule(config.impressions, config.num_checkpoints))
        assert len(rows) == config.repeats * checkpoints
        assert set(rows[0]) == {"run_id", "seed", "impressions", "ndcg10"}

    def test_summary_round_trips_through_json(self, emitted):
        _, _, paths = emitted
        with open(paths["summary"]) as fh:
            summary = json.load(fh)
        assert set(summary) == {
            "config",
            "config_hash",
            "repeats",
            "final_ndcg_mean",
            "final_ndcg_std",
            "per_run_final",
            "per_run_seed",
            "checkpoint_schedule",
        }
        assert len(summary["per_run_final"]) == summary["repeats"]

    def test_trace_csv_reads_back(self, emitted):
        config, results, paths = emitted
        impressions, curves, run_ids = read_trace_csv(paths["trace"])
        assert run_ids == [0, 1]
        for row, result in zip(curves, results):
            assert np.array_equal(row, result.trace.ndcg)

    def test_svg_band_matches_std_from_trace(self, emitted):
        # Invert the plot's affine mapping and recompute mean +/- std.
        _, _, paths = emitted
        impressions, curves, _ = read_trace_csv(paths["trace"])
        mean = curves.mean(axis=0)
        std = curves.std(axis=0, ddof=1)

        root = ET.parse(paths["curve"]).getroot()
        plot_left = float(root.attrib["data-plot-left"])
        plot_top = float(root.attrib["data-plot-top"])
        plot_w = float(root.attrib["data-plot-width"])
        plot_h = float(root.attrib["data-plot-height"])
        x_min = float(root.attrib["data-x-min"])
        x_max = float(root.attrib["data-x-max"])
        y_min = float(root.attrib["data-y-min"])
        y_max = float(root.attrib["data-y-max"])
        ns = {"svg": "http://www.w3.org/2000/svg"}
        band = root.find(".//svg:path[@id='std-band']", ns).attrib["d"]

        tokens = band.replace("M", "").replace("Z", "").split("L")
        points = [tuple(map(float, tok.split(","))) for tok in (t.strip() for t in tokens) if tok]
        n = len(impressions)
        assert len(points) == 2 * n
        upper = points[:n]
        lower = list(reversed(points[n:]))

        def invert(px, py):
            x = x_min + (px - plot_left) / plot_w * (x_max - x_min)
            y = y_max - (py - plot_top) / plot_h * (y_max - y_min)
            return x, y

        for i, ((ux, uy), (lx, ly)) in enumerate(zip(upper, lower)):
            xi, upper_val = invert(ux, uy)
            _, lower_val = invert(lx, ly)
            assert xi == pytest.approx(impressions[i], abs=0.5)
            assert upper_val == pytest.approx(mean[i] + std[i], abs=1e-5)
            assert lower_val == pytest.approx(mean[i] - std[i], abs=1e-5)

    def test_empty_results_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_outputs([], {}, tmp_path)


class TestSummarize:
    def test_single_run_std_is_zero(self):
        config = tiny_config(repeats=1)
        results, summary = run_experiment(config, workers=1)
        assert summary["final_ndcg_std"] == 0.0
        assert summarize(config, results)["final_ndcg_mean"] == results[0].final_ndcg
