import json
import os
from dataclasses import asdict

import numpy as np
import pytest

from oltrsim.cli import main
from oltrsim.datasets import parse_letor
from oltrsim.experiments import BUNDLED_SYNTHETIC, SyntheticSpec


def write_config(tmp_path, name="config.json", **overrides):
    config = {
        "algorithm": "pdgd",
        "synthetic": {"num_queries": 5, "docs_per_query": 6, "feature_dim": 3, "seed": 3},
        "impressions": 25,
        "repeats": 2,
        "base_seed": 1,
        "num_checkpoints": 4,
        "output_dir": str(tmp_path / "results"),
    }
    config.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path, config


def _fail_if_called(*args, **kwargs):
    raise AssertionError("run_experiment was called")


class TestRun:
    def test_run_writes_outputs(self, tmp_path, capsys):
        config_path, config = write_config(tmp_path)
        assert main(["run", str(config_path), "--workers", "1"]) == 0
        out_dir = config["output_dir"]
        for name in ("trace.csv", "summary.json", "curve.svg"):
            assert os.path.exists(os.path.join(out_dir, name))
        assert "final NDCG@10" in capsys.readouterr().out

    def test_missing_config_fails(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.json")]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-3", "abc"])
    def test_bad_worker_count_fails(self, tmp_path, capsys, workers):
        config_path, _ = write_config(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(["run", str(config_path), "--workers", workers])
        assert excinfo.value.code == 2
        assert f"argument --workers: must be an integer >= 1, got '{workers}'" in capsys.readouterr().err

    def test_workers_env_var_is_ignored(self, tmp_path, capsys, monkeypatch):
        # --workers is the only override; the environment sets no worker count.
        config_path, _ = write_config(tmp_path)
        monkeypatch.setenv("OLTR_WORKERS", "abc")
        assert main(["run", str(config_path)]) == 0
        assert capsys.readouterr().err == ""

    def test_malformed_json_names_the_file(self, tmp_path, capsys):
        config_path, _ = write_config(tmp_path)
        config_path.write_text(config_path.read_text()[:21])
        assert main(["run", str(config_path), "--workers", "1"]) == 1
        assert capsys.readouterr().err.startswith(f"error: {config_path}: Expecting ")

    def test_invalid_config_fails(self, tmp_path, capsys):
        config_path, _ = write_config(tmp_path, impressions=0)
        assert main(["run", str(config_path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_tau_is_an_unknown_field(self, tmp_path, capsys, monkeypatch):
        # Runs follow the standard protocol; tau is the constant dbgd.TAU.
        config_path, _ = write_config(tmp_path, algorithm="dbgd", tau=3)
        monkeypatch.chdir(tmp_path)
        assert main(["run", str(config_path), "--workers", "1"]) == 1
        assert capsys.readouterr().err == "error: unknown config fields: ['tau']\n"
        assert os.listdir(tmp_path) == [config_path.name]

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("output_dir", 5, "config field output_dir must be a string, got 5"),
            ("output_dir", "", "config field output_dir must be a non-empty string, got ''"),
        ],
        ids=["output_dir-5", "output_dir-empty"],
    )
    def test_bad_field_type_fails_before_any_run(self, tmp_path, capsys, monkeypatch, field, value, message):
        # Refused by validation, before any run starts or any output is written.
        config_path, _ = write_config(tmp_path, **{field: value})
        monkeypatch.chdir(tmp_path)
        assert main(["run", str(config_path), "--workers", "1"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert os.listdir(tmp_path) == [config_path.name]

    def test_baseline_dir_is_an_unknown_field(self, tmp_path, capsys, monkeypatch):
        # Result sets are compared with `oltrsim compare`, after both exist.
        config_path, _ = write_config(tmp_path, baseline_dir=str(tmp_path / "results"))
        monkeypatch.chdir(tmp_path)
        assert main(["run", str(config_path), "--workers", "1"]) == 1
        assert capsys.readouterr().err == "error: unknown config fields: ['baseline_dir']\n"
        assert os.listdir(tmp_path) == [config_path.name]

    def test_output_dir_that_cannot_be_made_fails_before_any_run(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "notadir").write_text("")
        out_dir = str(tmp_path / "notadir" / "out")
        config_path, _ = write_config(tmp_path, output_dir=out_dir)
        monkeypatch.setattr("oltrsim.cli.run_experiment", _fail_if_called)
        assert main(["run", str(config_path), "--workers", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"Not a directory: {out_dir!r}" in err

    def test_output_dirs_made_for_failed_runs_are_removed(self, tmp_path, capsys, monkeypatch):
        # Only the directories this run made go; the existing parent stays.
        (tmp_path / "kept").mkdir()
        config_path, _ = write_config(tmp_path, output_dir=str(tmp_path / "kept" / "new" / "out"))
        monkeypatch.setattr("oltrsim.cli.run_experiment", _fail_if_called)
        assert main(["run", str(config_path), "--workers", "1"]) == 1
        assert capsys.readouterr().err == "error: run_experiment was called\n"
        assert sorted(os.listdir(tmp_path)) == sorted([config_path.name, "kept"])
        assert os.listdir(tmp_path / "kept") == []

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_bad_dataset_line_names_the_file(self, tmp_path, capsys, workers):
        train, test = tmp_path / "train.txt", tmp_path / "test.txt"
        train.write_text("1 qid:1 1:0.5\n0 qid:1 1:0.25\n")
        test.write_text("1 qid:2 1:0.5\n\n# comment\n0 qid:2 1:x\n")
        config_path, _ = write_config(tmp_path, synthetic=None, train_path=str(train), test_path=str(test))
        assert main(["run", str(config_path), "--workers", workers]) == 1
        assert capsys.readouterr().err == f"error: {test}: line 4: malformed feature token '1:x'\n"


TRACE_HEADER = "run_id,seed,impressions,ndcg10\n"


class TestPlot:
    def test_plot_rebuilds_curve(self, tmp_path):
        config_path, config = write_config(tmp_path)
        assert main(["run", str(config_path), "--workers", "1"]) == 0
        curve = os.path.join(config["output_dir"], "curve.svg")
        os.remove(curve)
        assert main(["plot", config["output_dir"]]) == 0
        assert os.path.exists(curve)

    def test_plot_without_trace_fails(self, tmp_path):
        assert main(["plot", str(tmp_path)]) == 1

    @pytest.mark.parametrize(
        "text, problem",
        [
            ("seed,impressions,ndcg10\n1,0,0.1\n", ", line 1: no run_id column"),
            (TRACE_HEADER + "0,1,0,0.1\n0,1,5,abc\n", ", line 3: could not convert string to float: 'abc'"),
            (TRACE_HEADER + "0,1,0,0.1\n0,1,5,nan\n", ": run 0: ndcg values must lie in [0, 1], got nan"),
            (TRACE_HEADER + "0,1,0,0.1\n0,1,5,7\n", ": run 0: ndcg values must lie in [0, 1], got 7.0"),
            (TRACE_HEADER + "0,1,0,0.1\n0,1,0,0.2\n", ": run 0: impression counts must be strictly increasing"),
        ],
        ids=["no run_id column", "not a number", "nan", "above 1", "repeated checkpoint"],
    )
    def test_bad_trace_refused(self, tmp_path, capsys, text, problem):
        trace = tmp_path / "trace.csv"
        trace.write_text(text)
        assert main(["plot", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: {trace}{problem}\n"
        assert not (tmp_path / "curve.svg").exists()


def run_config(tmp_path, name, **overrides) -> str:
    """Run a tiny config with ``overrides`` into ``tmp_path / name`` and return that directory."""
    config_path, config = write_config(tmp_path, name=f"{name}.json", output_dir=str(tmp_path / name), **overrides)
    assert main(["run", str(config_path), "--workers", "1"]) == 0
    return config["output_dir"]


class TestCompare:
    def test_welch_between_result_dirs(self, tmp_path, capsys):
        dir_a = run_config(tmp_path, "a")
        dir_b = run_config(tmp_path, "b", base_seed=2)
        capsys.readouterr()
        assert main(["compare", dir_a, dir_b]) == 0
        out = capsys.readouterr().out
        assert "welch two-sided" in out
        assert "p = " in out

    def test_incomparable_result_sets_refused(self, tmp_path, capsys):
        dir_a = run_config(tmp_path, "a")
        dir_b = run_config(tmp_path, "b", impressions=50)
        capsys.readouterr()
        assert main(["compare", dir_a, dir_b]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: cannot compare a: {dir_a} with b: {dir_b}: impressions is 25 in a, 50 in b; ")

    def test_each_dir_is_tested_against_the_last(self, tmp_path, capsys):
        dir_a = run_config(tmp_path, "a")
        dir_b = run_config(tmp_path, "b", base_seed=2)
        reference = run_config(tmp_path, "r", base_seed=3)
        capsys.readouterr()
        expected = ""
        for other in (dir_a, dir_b):
            assert main(["compare", other, reference]) == 0
            expected += capsys.readouterr().out
        assert main(["compare", dir_a, dir_b, reference]) == 0
        assert capsys.readouterr().out == expected
        assert expected.count("welch two-sided") == 2

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_an_incomparable_pair_anywhere_is_refused_before_any_output(self, tmp_path, capsys, position):
        dirs = [run_config(tmp_path, name, base_seed=seed) for name, seed in (("a", 1), ("b", 2), ("r", 3))]
        dirs[position] = run_config(tmp_path, "long", impressions=50)
        capsys.readouterr()
        assert main(["compare", *dirs]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        # The first pair to fail: the long run against the reference, or the first dir against the long reference.
        a, n_a, n_b = (dirs[position], 50, 25) if position < 2 else (dirs[0], 25, 50)
        assert err.startswith(f"error: cannot compare a: {a} with b: {dirs[2]}: impressions is {n_a} in a, {n_b} in b; ")

    def test_one_dir_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["compare", run_config(tmp_path, "a")])
        assert excinfo.value.code == 2
        assert "the following arguments are required" in capsys.readouterr().err

    def test_summaries_with_the_old_baseline_keys_still_compare(self, tmp_path, capsys):
        # A summary.json written when configs had baseline_dir may carry it, a baseline block and the test's name.
        dir_a = run_config(tmp_path, "a")
        dir_b = run_config(tmp_path, "b", base_seed=2)
        capsys.readouterr()
        assert main(["compare", dir_a, dir_b]) == 0
        expected = capsys.readouterr().out
        path = os.path.join(dir_b, "summary.json")
        with open(path, encoding="utf-8") as fh:
            summary = json.load(fh)
        summary["config"]["baseline_dir"] = dir_a
        summary["baseline"] = {"dir": dir_a, "mean": 0.5, "t_statistic": 1.0, "p_value": 0.5}
        summary["significance_test"] = "welch_two_sided"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(summary, fh)
        assert main(["compare", dir_a, dir_b]) == 0
        assert capsys.readouterr().out == expected

    def test_compare_missing_dir_fails(self, tmp_path):
        assert main(["compare", str(tmp_path / "none_a"), str(tmp_path / "none_b")]) == 1

    def test_compare_names_the_malformed_file(self, tmp_path, capsys):
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
        (tmp_path / "a" / "summary.json").write_text(json.dumps({"config": {}, "per_run_final": [0.1, 0.2]}))
        (tmp_path / "b" / "summary.json").write_text('{"config": {}, "per_run_final": [0.1, ')
        assert main(["compare", str(tmp_path / "a"), str(tmp_path / "b")]) == 1
        bad = os.path.join(str(tmp_path / "b"), "summary.json")
        assert capsys.readouterr().err.startswith(f"error: {bad}: Expecting value")

    @pytest.mark.parametrize(
        "body, field",
        [
            ({"repeats": 2}, "config"),
            ({"config": {}, "repeats": 2}, "per_run_final"),
            (5, "summary.json"),
            ({"config": {}, "per_run_final": [0.5]}, "per_run_final"),
            ({"config": {}, "per_run_final": [0.5, "0.6"]}, "per_run_final"),
            ({"config": {}, "per_run_final": "0.5 0.6"}, "per_run_final"),
            ({"config": {}, "per_run_final": None}, "per_run_final"),
        ],
    )
    def test_compare_names_the_directory_and_field(self, tmp_path, capsys, body, field):
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
            (tmp_path / name / "summary.json").write_text(json.dumps(body))
        assert main(["compare", str(tmp_path / "a"), str(tmp_path / "b")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: " + os.path.join(str(tmp_path / "a"), "summary.json"))
        assert field in err


class TestSynth:
    def test_writes_letor_files(self, tmp_path, capsys):
        spec = {"num_queries": 4, "docs_per_query": 5, "feature_dim": 3, "seed": 11}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out_dir = tmp_path / "data"
        assert main(["synth", str(spec_path), str(out_dir)]) == 0
        train, dim = parse_letor(out_dir / "train.txt")
        test, _ = parse_letor(out_dir / "test.txt")
        assert dim == 3
        assert len(train) == 4 and len(test) == 4
        assert all(q.n_docs == 5 for q in train)

    def test_exports_the_bundled_synthetic_set(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(asdict(BUNDLED_SYNTHETIC)))
        out_dir = tmp_path / "data"
        assert main(["synth", str(spec_path), str(out_dir)]) == 0
        expected = BUNDLED_SYNTHETIC.make()
        for split in ("train", "test"):
            got, dim = parse_letor(out_dir / f"{split}.txt")
            want = getattr(expected, split)
            assert dim == expected.feature_dim
            assert [q.qid for q in got] == [q.qid for q in want]
            for a, b in zip(got, want):
                assert np.array_equal(a.features, b.features)
                assert np.array_equal(a.relevance, b.relevance)

    def test_unknown_spec_key_fails(self, tmp_path, capsys):
        spec = {"num_queries": 4, "docs_per_query": 5, "feature_dim": 3, "seed": 11, "hardnes": 1.5}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        assert main(["synth", str(spec_path), str(tmp_path / "data")]) == 1
        assert "hardnes" in capsys.readouterr().err
        assert not (tmp_path / "data").exists()

    def test_non_finite_hardness_fails(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec = {"num_queries": 4, "docs_per_query": 5, "feature_dim": 3, "seed": 11, "hardness": float("nan")}
        spec_path.write_text(json.dumps(spec))  # writes NaN, which Python's json reads back
        assert main(["synth", str(spec_path), str(tmp_path / "data")]) == 1
        assert capsys.readouterr().err == "error: hardness must be finite, got nan\n"
        assert not (tmp_path / "data").exists()

    def test_non_finite_grade_bins_fail(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec = {"num_queries": 4, "docs_per_query": 5, "feature_dim": 3, "seed": 11}
        spec["grade_bins"] = [0.2, 0.4, 0.6, float("inf")]
        spec_path.write_text(json.dumps(spec))  # writes Infinity, which Python's json reads back
        assert main(["synth", str(spec_path), str(tmp_path / "data")]) == 1
        assert capsys.readouterr().err == "error: grade_bins must be finite, got (0.2, 0.4, 0.6, inf)\n"
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize(
        "field, value", [("num_queries", "4"), ("seed", 1.5), ("hardness", "high"), ("grade_bins", 5)]
    )
    def test_non_numeric_spec_value_fails(self, tmp_path, capsys, field, value):
        spec = {"num_queries": 4, "docs_per_query": 5, "feature_dim": 3, "seed": 11, field: value}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        assert main(["synth", str(spec_path), str(tmp_path / "data")]) == 1
        assert f"error: synthetic spec field {field} must be" in capsys.readouterr().err
        assert not (tmp_path / "data").exists()

    def test_malformed_json_names_the_file(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text('{"num_queries": 4, ')
        assert main(["synth", str(spec_path), str(tmp_path / "data")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {spec_path}: Expecting property name")
        assert not (tmp_path / "data").exists()

    def test_bad_spec_fails(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"num_queries": 4}))
        assert main(["synth", str(spec_path), str(tmp_path / "data")]) == 1
        err = capsys.readouterr().err
        assert "error: synthetic spec is missing fields: ['docs_per_query', 'feature_dim', 'seed']" in err
        assert not (tmp_path / "data").exists()


class TestParser:
    def test_unknown_command_exits_nonzero(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code != 0

    def test_config_with_synthetic_spec_round_trip(self, tmp_path):
        # config files written from a SyntheticSpec-bearing config load back
        config_path, config = write_config(tmp_path)
        from oltrsim.experiments import ExperimentConfig

        loaded = ExperimentConfig.from_json_file(config_path)
        assert loaded.synthetic == SyntheticSpec(**config["synthetic"])
