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

    def test_bad_env_worker_count_fails(self, tmp_path, capsys, monkeypatch):
        config_path, _ = write_config(tmp_path)
        monkeypatch.setenv("OLTR_WORKERS", "abc")
        assert main(["run", str(config_path)]) == 1
        assert "error: OLTR_WORKERS must be an integer >= 1, got 'abc'" in capsys.readouterr().err

    def test_malformed_json_names_the_file(self, tmp_path, capsys):
        config_path, _ = write_config(tmp_path)
        config_path.write_text(config_path.read_text()[:21])
        assert main(["run", str(config_path), "--workers", "1"]) == 1
        assert capsys.readouterr().err.startswith(f"error: {config_path}: Expecting ")

    def test_invalid_config_fails(self, tmp_path, capsys):
        config_path, _ = write_config(tmp_path, impressions=0)
        assert main(["run", str(config_path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_non_finite_tau_fails_before_any_run(self, tmp_path, capsys, monkeypatch):
        config_path, _ = write_config(tmp_path, algorithm="dbgd")
        config_path.write_text(config_path.read_text()[:-1] + ', "tau": NaN}')
        monkeypatch.chdir(tmp_path)
        assert main(["run", str(config_path), "--workers", "1"]) == 1
        assert capsys.readouterr().err == "error: tau must be positive and finite, got nan\n"
        assert os.listdir(tmp_path) == [config_path.name]

    def test_underflowing_tau_fails_before_any_run(self, tmp_path, capsys, monkeypatch):
        # 5**-2000 underflows to 0, so most comparisons would be NaN-credit ties.
        synthetic = {"num_queries": 5, "docs_per_query": 5, "feature_dim": 3, "seed": 3}
        config_path, _ = write_config(tmp_path, algorithm="dbgd", synthetic=synthetic, tau=2000)
        monkeypatch.chdir(tmp_path)
        assert main(["run", str(config_path), "--workers", "1"]) == 1
        assert capsys.readouterr().err == (
            "error: tau 2000 is too large for a train query of 5 documents: 1 / 5**tau underflows to 0\n"
        )
        assert os.listdir(tmp_path) == [config_path.name]

    @pytest.mark.parametrize("field, value", [("output_dir", 5), ("baseline_dir", [])])
    def test_bad_field_type_fails_before_any_run(self, tmp_path, capsys, monkeypatch, field, value):
        # Refused by validation, before any run starts or any output is written.
        config_path, _ = write_config(tmp_path, **{field: value})
        monkeypatch.chdir(tmp_path)
        assert main(["run", str(config_path), "--workers", "1"]) == 1
        assert f"error: config field {field} must be" in capsys.readouterr().err
        assert os.listdir(tmp_path) == [config_path.name]

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


class TestCompare:
    def test_welch_between_result_dirs(self, tmp_path, capsys):
        path_a, config_a = write_config(tmp_path, name="a.json", output_dir=str(tmp_path / "a"))
        path_b, config_b = write_config(
            tmp_path, name="b.json", base_seed=2, output_dir=str(tmp_path / "b")
        )
        assert main(["run", str(path_a), "--workers", "1"]) == 0
        assert main(["run", str(path_b), "--workers", "1"]) == 0
        capsys.readouterr()
        assert main(["compare", config_a["output_dir"], config_b["output_dir"]]) == 0
        out = capsys.readouterr().out
        assert "welch two-sided" in out
        assert "p = " in out

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
        [({"repeats": 2}, "config"), ({"config": {}, "repeats": 2}, "per_run_final"), (5, "summary.json")],
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
