"""The command line, the comparison script and a dataset load, each in a fresh interpreter.

pytest's own process imports ``scipy.stats`` for the oracles, so what a
command loads, and how much memory a load adds, is only visible from a
new process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oltrsim

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_learners.py"

# Runs the CLI commands in one interpreter and prints, as the last line of
# stdout, the scipy modules loaded after each stage.
CLI_STAGES = r"""
import json
import sys

import oltrsim
from oltrsim.cli import main


def scipy_modules():
    return sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy."))


config_a, config_b, spec, data, out_a, out_b = sys.argv[1:]
loaded = {"import": scipy_modules()}
for args in (["run", config_a, "--workers", "1"], ["run", config_b, "--workers", "1"], ["synth", spec, data], ["plot", out_a]):
    if main(args) != 0:
        sys.exit(f"{args} failed")
loaded["run, synth, plot"] = scipy_modules()
if main(["compare", out_a, out_b]) != 0:
    sys.exit("compare failed")
loaded["compare"] = scipy_modules()
print(json.dumps(loaded))
"""


def fresh_python(args, cwd):
    src = os.path.dirname(os.path.dirname(oltrsim.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120)


def test_runs_load_no_scipy_and_compare_only_scipy_special(tmp_path):
    paths = []
    for name, base_seed in (("a", 1), ("b", 2)):
        config = {
            "algorithm": "pdgd",
            "synthetic": {"num_queries": 5, "docs_per_query": 6, "feature_dim": 3, "seed": 3},
            "impressions": 25,
            "repeats": 2,
            "base_seed": base_seed,
            "num_checkpoints": 4,
            "output_dir": str(tmp_path / f"out_{name}"),
        }
        (tmp_path / f"config_{name}.json").write_text(json.dumps(config))
        paths.append(str(tmp_path / f"config_{name}.json"))
    spec = {"num_queries": 4, "docs_per_query": 5, "feature_dim": 3, "seed": 11}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    paths += [str(tmp_path / "spec.json"), str(tmp_path / "data"), str(tmp_path / "out_a"), str(tmp_path / "out_b")]

    done = fresh_python(["-c", CLI_STAGES, *paths], cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout.splitlines()[-1])
    assert loaded["import"] == []
    assert loaded["run, synth, plot"] == []
    assert "scipy.stats" not in loaded["compare"]
    assert "scipy.special" in loaded["compare"]


@pytest.mark.parametrize(
    "flag, value, minimum",
    [("--repeats", "1", 2), ("--repeats", "0", 2), ("--repeats", "two", 2), ("--impressions", "0", 1), ("--workers", "0", 1)],
)
def test_compare_learners_refuses_bad_counts_before_any_arm(tmp_path, flag, value, minimum):
    args = {"--repeats": "2", "--impressions": "50", "--workers": "1", flag: value}
    done = fresh_python([str(SCRIPT), *(x for pair in args.items() for x in pair), "--out", str(tmp_path / "out")], cwd=tmp_path)
    assert done.returncode == 2
    assert f"argument {flag}: must be an integer >= {minimum}, got '{value}'" in done.stderr
    assert done.stdout == ""
    assert os.listdir(tmp_path) == []


# Loads a LETOR pair and prints how much the peak resident set of this
# process grew over the load, and the bytes of features it holds.  The peak
# is VmHWM, that of this process image: ru_maxrss would not do, because an
# exec keeps the peak of the process that ran it, here pytest's.
LOAD_PEAK = r"""
import json
import sys

from oltrsim.datasets import load_dataset


def peak_bytes():
    with open("/proc/self/status", encoding="ascii") as fh:
        return next(int(line.split()[1]) * 1024 for line in fh if line.startswith("VmHWM:"))


train, test, workers = sys.argv[1], sys.argv[2], int(sys.argv[3])
before = peak_bytes()
data = load_dataset(train, test, workers)
grown = peak_bytes() - before
print(json.dumps({"grown": grown, "features": sum(q.features.nbytes for q in data.train + data.test)}))
"""


def write_wide_letor(path, docs, seed):
    """``docs`` lines of 136 features in queries of 100 documents, written with ``%.6g``."""
    rng = np.random.default_rng(seed)
    row = "%d qid:%d " + " ".join(f"{fid}:%.6g" for fid in range(1, 137)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        for i, values in enumerate(rng.normal(size=(docs, 136))):
            fh.write(row % (i % 5, i // 100, *values))


@pytest.mark.parametrize("workers", [1, 2])
def test_load_holds_one_copy_of_the_features(tmp_path, workers):
    # A load that copied each split while normalizing, or received the
    # forked test parse as a pickle, grew the peak by about 1.5x the features.
    train, test = tmp_path / "train.txt", tmp_path / "test.txt"
    write_wide_letor(train, 10_000, seed=1)
    write_wide_letor(test, 10_000, seed=2)
    done = fresh_python(["-c", LOAD_PEAK, str(train), str(test), str(workers)], cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    peak = json.loads(done.stdout)
    assert peak["features"] == 2 * 10_000 * 136 * 8
    assert peak["grown"] < 1.25 * peak["features"]
