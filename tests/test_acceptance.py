"""Acceptance suite: one test per shipping criterion, one PASS/FAIL line each.

Criteria 8-10 share a single battery of desk-scale runs (the six arms of
``experiments.PAPER_ARMS`` x 25 repeats x 20000 impressions on the bundled
benchmark dataset); the battery executes once per test session, in
parallel worker processes.

Criterion 11 runs only when MSLR-WEB10K paths are supplied via the
OLTR_MSLR_TRAIN / OLTR_MSLR_TEST environment variables; it needs hours.
"""

import itertools
import os

import numpy as np
import pytest
from scipy import stats

from oltrsim.clicks import click_model, simulate
from oltrsim.dbgd import ComparisonOutcome, infer_preference_probabilistic, probabilistic_interleave
from oltrsim.experiments import PAPER_ARMS, arm_config, run_experiment
from oltrsim.evaluation import welch_t_test
from oltrsim.ranking import LinearRanker, rank_deterministic, sample_ranking

from _enumeration import expected_update_pair_coefficients, pair_preference, pair_weights
from _oracles import central_difference_gradient, enumerate_interleave_credit, log_pl_probability

BATTERY_IMPRESSIONS = 20000
BATTERY_REPEATS = 25


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_scale_invariance():
    rng = np.random.default_rng(1001)
    checked = 0
    while checked < 1000:
        dim = int(rng.integers(2, 10))
        n = int(rng.integers(2, 15))
        ranker = LinearRanker(rng.normal(size=dim))
        docs = rng.normal(size=(n, dim))
        if np.unique(ranker.score_all(docs)).size != n:
            continue
        alpha = float(10.0 ** rng.uniform(-3, 3))
        seed = int(rng.integers(1 << 31))
        plain = rank_deterministic(ranker, docs, np.random.default_rng(seed))
        scaled = rank_deterministic(LinearRanker(alpha * ranker.weights), docs, np.random.default_rng(seed))
        assert plain.tolist() == scaled.tolist()
        checked += 1
    report(1, True, f"{checked} random (theta, alpha, candidates) triples ranked identically under scaling")


def test_criterion_2_plackett_luce_correctness():
    rng = np.random.default_rng(1002)
    ranker = LinearRanker([1.0])
    worst_gap = 0.0
    min_p = 1.0
    for n in range(1, 6):
        perms = list(itertools.permutations(range(n)))
        # Normalization over all n! rankings, many random score sets per size.
        for _ in range(20):
            docs = rng.normal(size=n).reshape(-1, 1)
            scores = ranker.score_all(docs)
            probs = np.array([np.exp(log_pl_probability(scores, p)) for p in perms])
            worst_gap = max(worst_gap, abs(probs.sum() - 1.0))
            assert abs(probs.sum() - 1.0) < 1e-10
        # Sampled full-ranking frequencies against the analytic distribution.
        if n >= 2:
            docs = rng.normal(size=n).reshape(-1, 1)
            scores = ranker.score_all(docs)
            probs = np.array([np.exp(log_pl_probability(scores, p)) for p in perms])
            draws = 100000
            counts = {p: 0 for p in perms}
            for _ in range(draws):
                counts[tuple(sample_ranking(ranker, docs, rng))] += 1
            result = stats.chisquare(
                [counts[p] for p in perms], [prob * draws for prob, p in zip(probs, perms)]
            )
            min_p = min(min_p, result.pvalue)
            assert result.pvalue > 0.001
    report(2, True, f"normalization gap <= {worst_gap:.2e}; worst chi-square p = {min_p:.3f}")


def test_criterion_3_pair_weight_oracle_equivalence():
    rng = np.random.default_rng(1003)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 21))
        k = int(rng.integers(2, min(n, 10) + 1))
        dim = int(rng.integers(1, 6))
        ranker = LinearRanker(rng.normal(size=dim))
        candidates = rng.normal(scale=1.5, size=(n, dim))
        displayed = rng.permutation(n)[:k]
        i, j = rng.choice(k, size=2, replace=False)
        scores = ranker.score_all(candidates)

        fast, _ = pair_weights(scores, displayed, int(i), int(j))

        swapped = displayed.copy()
        swapped[i], swapped[j] = displayed[j], displayed[i]
        lp = log_pl_probability(scores, displayed)
        lp_star = log_pl_probability(scores, swapped)
        anchor = max(lp, lp_star)
        slow = np.exp(lp_star - anchor) / (np.exp(lp - anchor) + np.exp(lp_star - anchor))

        worst = max(worst, abs(fast - slow))
        assert abs(fast - slow) < 1e-10
    report(3, True, f"1000 instances, max |incremental - full recompute| = {worst:.2e}")


def test_criterion_4_unbiasedness_sign_condition():
    rng = np.random.default_rng(1004)
    pairs_checked = 0
    for _ in range(50):
        scores = rng.normal(scale=1.5, size=3)
        grades = rng.choice(5, size=3, replace=False)
        alphas = expected_update_pair_coefficients(scores, grades)
        for (i, j), alpha in alphas.items():
            assert np.sign(alpha) == np.sign(int(grades[i]) - int(grades[j]))
            pairs_checked += 1
    report(4, True, f"sign(alpha_ij) matched sign(grade_i - grade_j) for {pairs_checked} pairs")


def test_criterion_5_gradient_check():
    rng = np.random.default_rng(1005)
    worst = 0.0
    checked = 0
    while checked < 200:
        dim = int(rng.integers(2, 8))
        theta = rng.normal(size=dim)
        d_i = rng.normal(size=dim)
        d_j = rng.normal(size=dim)
        # Saturated margins push P(1-P) below the finite-difference noise
        # floor, where the numeric reference itself is meaningless.
        if abs(float(theta @ (d_i - d_j))) > 8.0:
            continue
        checked += 1
        rho_frozen = float(rng.uniform(0.05, 0.95))
        p = pair_preference(theta, d_i, d_j)
        implemented = rho_frozen * p * (1.0 - p) * (d_i - d_j)

        def pref(weights):
            return pair_preference(weights, d_i, d_j)

        numeric = rho_frozen * central_difference_gradient(pref, theta, h=1e-6)
        rel = np.linalg.norm(implemented - numeric) / max(np.linalg.norm(numeric), 1e-12)
        worst = max(worst, rel)
        assert rel <= 1e-5
    report(5, True, f"200 instances, max relative error vs finite differences = {worst:.2e}")


def test_criterion_6_click_model_fidelity():
    draws = 100000
    gaps = []

    # Table of click probabilities, perfect model: a 5-doc list with grades
    # 0..4 is fully observed, so per-position click rates are the table row.
    rng = np.random.default_rng(1006)
    spec = click_model("perfect")
    counts = np.zeros(5)
    for _ in range(draws):
        counts += simulate(np.arange(5), [0, 1, 2, 3, 4], spec, rng).clicks
    for grade, expected in enumerate(spec.click_probs):
        gaps.append(abs(counts[grade] / draws - expected))

    # Table row for almost-random behavior: rank 1 is always observed in the
    # non-cascading model, so a single-doc list isolates the click probability.
    spec = click_model("almost_random_noncascading")
    for grade, expected in enumerate(spec.click_probs):
        clicks = 0
        for _ in range(draws):
            clicks += simulate(np.arange(1), [grade], spec, rng).clicks[0]
        gaps.append(abs(clicks / draws - expected))

    # Cascading observation: position 2 is reached with probability
    # 1 - P(click at 1) * P(stop) = 1 - 0.5 * 0.5 = 0.75 for grade-2 docs.
    spec = click_model("almost_random_cascading")
    clicks_pos2 = 0
    for _ in range(draws):
        clicks_pos2 += simulate(np.arange(3), [2, 2, 2], spec, rng).clicks[1]
    gaps.append(abs(clicks_pos2 / draws / 0.5 - 0.75))

    # Non-cascading observation: click rate at rank r must be 0.6 / r.
    spec = click_model("almost_random_noncascading")
    counts = np.zeros(4)
    for _ in range(draws):
        counts += simulate(np.arange(4), [4, 4, 4, 4], spec, rng).clicks
    for r in range(4):
        rate = counts[r] / draws
        gaps.append(abs(rate - 0.6 / (r + 1)))
        gaps.append(abs(rate / 0.6 - 1.0 / (r + 1)))

    worst = max(gaps)
    assert worst < 0.01
    report(6, True, f"all empirical click/observation rates within {worst:.4f} of analytic values")


def test_criterion_7_interleave_credit_exactness():
    # A run displays all of a short query, so the m < n cases score the first
    # m positions of the interleaving: a prefix of a probabilistic
    # interleaving is an interleaving of that many positions, drawn from the
    # first 2 * m numbers.  The generator then moves on by those 2 * m only,
    # so every case is the one drawn when the interleaver took m.
    rng = np.random.default_rng(1007)
    cases = 0
    for m in range(1, 6):
        for extra in (0, 3):
            n = m + extra
            for _ in range(3):
                r_a = rng.permutation(n)
                r_b = rng.permutation(n)
                before = rng.bit_generator.state
                displayed = probabilistic_interleave(r_a, r_b, rng)[0][:m]
                rng.bit_generator.state = before
                rng.random(2 * m)
                for pattern in itertools.product((False, True), repeat=m):
                    clicks = np.asarray(pattern)
                    outcome = infer_preference_probabilistic(displayed, clicks, r_a, r_b)
                    exact = enumerate_interleave_credit(
                        displayed.tolist(), clicks, r_a.tolist(), r_b.tolist()
                    )
                    if exact > 0:
                        assert outcome is ComparisonOutcome.CURRENT
                    elif exact < 0:
                        assert outcome is ComparisonOutcome.CANDIDATE
                    else:
                        assert outcome is ComparisonOutcome.TIE
                    cases += 1
    report(7, True, f"marginalized credit matched exact rational enumeration on {cases} cases")


BATTERY = {
    name: arm_config(name, impressions=BATTERY_IMPRESSIONS, repeats=BATTERY_REPEATS) for name in PAPER_ARMS
}


@pytest.fixture(scope="module")
def battery():
    finals = {}
    for name, config in BATTERY.items():
        _, summary = run_experiment(config)
        finals[name] = np.asarray(summary["per_run_final"])
        print(
            f"  battery {name}: mean={finals[name].mean():.4f} "
            f"std={finals[name].std(ddof=1):.4f} (n={finals[name].size})"
        )
    return finals


@pytest.mark.slow
def test_criterion_8_desk_scale_ordering(battery):
    pdgd = battery["pdgd_perfect"]
    dbgd = battery["dbgd_prob_perfect"]
    oracle = battery["dbgd_oracle_perfect"]
    comparisons = {
        "pdgd_perfect > dbgd_prob_perfect": (pdgd, dbgd),
        "dbgd_oracle_perfect > dbgd_prob_perfect": (oracle, dbgd),
        "pdgd_perfect > dbgd_oracle_perfect": (pdgd, oracle),
    }
    details = []
    ok = True
    for label, (hi, lo) in comparisons.items():
        t, p = welch_t_test(hi, lo)
        good = hi.mean() > lo.mean() and p < 0.01
        ok = ok and good
        details.append(f"{label}: diff={hi.mean() - lo.mean():+.4f}, p={p:.2e}")
    report(8, ok, "; ".join(details))


@pytest.mark.slow
def test_criterion_9_noise_hits_dbgd_harder(battery):
    dbgd_drop = battery["dbgd_prob_perfect"] - battery["dbgd_prob_ar_casc"]
    pdgd_drop = battery["pdgd_perfect"] - battery["pdgd_ar_casc"]
    t, p = welch_t_test(dbgd_drop, pdgd_drop)
    ok = dbgd_drop.mean() > pdgd_drop.mean() and p < 0.05
    report(
        9,
        ok,
        f"perfect->almost-random drop: dbgd={dbgd_drop.mean():.4f}, "
        f"pdgd={pdgd_drop.mean():.4f}, p={p:.2e}",
    )


@pytest.mark.slow
def test_criterion_10_pdgd_cascading_vs_noncascading(battery):
    diff = abs(battery["pdgd_ar_casc"].mean() - battery["pdgd_ar_noncasc"].mean())
    report(10, diff <= 0.03, f"|cascading - non-cascading| = {diff:.4f} (bound 0.03)")


MSLR_TRAIN = os.environ.get("OLTR_MSLR_TRAIN")
MSLR_TEST = os.environ.get("OLTR_MSLR_TEST")


@pytest.mark.slow
@pytest.mark.optional_fulldata
@pytest.mark.skipif(
    not (MSLR_TRAIN and MSLR_TEST),
    reason="set OLTR_MSLR_TRAIN and OLTR_MSLR_TEST to run the full-data check",
)
def test_criterion_11_full_data_check():
    targets = {"dbgd_prob_perfect": 0.426, "pdgd_perfect": 0.442}
    details = []
    ok = True
    for name, target in targets.items():
        config = arm_config(
            name,
            synthetic=None,
            train_path=MSLR_TRAIN,
            test_path=MSLR_TEST,
            impressions=1_000_000,
            repeats=25,
            base_seed=7,
        )
        _, summary = run_experiment(config)
        mean = summary["final_ndcg_mean"]
        good = abs(mean - target) <= 0.02
        ok = ok and good
        details.append(f"{name}: mean={mean:.4f} vs {target:.3f}")
    report(11, ok, "; ".join(details))
