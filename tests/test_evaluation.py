import numpy as np
import pytest
from scipy import stats

from oltrsim.datasets import make_synthetic
from oltrsim.evaluation import MetricTrace, evaluate_heldout, ndcg_at_k, welch_t_test
from oltrsim.ranking import LinearRanker, zero_ranker

from _oracles import ndcg_direct, student_t_two_sided_p, synthetic_generating_weights


class TestNdcg:
    def test_ideal_ordering_is_one(self):
        grades = np.array([0, 3, 1, 2])
        ideal = np.argsort(-grades)
        assert ndcg_at_k(ideal, grades, 10) == pytest.approx(1.0, abs=1e-12)

    def test_worst_first_two_docs(self):
        # Grades [1, 0] displayed worst-first: DCG = 1/log2(3).
        grades = np.array([1, 0])
        value = ndcg_at_k(np.array([1, 0]), grades, 10)
        assert value == pytest.approx(1.0 / np.log2(3.0), abs=1e-12)
        assert value == pytest.approx(0.6309, abs=1e-4)

    def test_all_zero_grades(self):
        assert ndcg_at_k(np.array([0, 1]), np.array([0, 0]), 10) == 0.0

    def test_matches_direct_reimplementation(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 30))
            grades = rng.integers(0, 5, size=n)
            ranking = rng.permutation(n)[: int(rng.integers(1, n + 1))]
            k = int(rng.integers(1, 15))
            assert ndcg_at_k(ranking, grades, k) == pytest.approx(
                ndcg_direct(ranking.tolist(), grades.tolist(), k), abs=1e-12
            )

    def test_permutation_below_cutoff_irrelevant(self, rng):
        grades = rng.integers(0, 5, size=15)
        ranking = rng.permutation(15)
        k = 10
        tail = ranking[k:].copy()
        rng.shuffle(tail)
        permuted = np.concatenate([ranking[:k], tail])
        assert ndcg_at_k(ranking, grades, k) == ndcg_at_k(permuted, grades, k)

    def test_swapping_better_doc_upward_never_decreases(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 15))
            grades = rng.integers(0, 5, size=n)
            ranking = rng.permutation(n)
            i, j = sorted(rng.choice(n, size=2, replace=False))
            if grades[ranking[j]] <= grades[ranking[i]]:
                continue
            swapped = ranking.copy()
            swapped[i], swapped[j] = ranking[j], ranking[i]
            assert ndcg_at_k(swapped, grades, 10) >= ndcg_at_k(ranking, grades, 10)


class TestEvaluateHeldout:
    def test_single_query(self):
        data = make_synthetic(1, 10, 4, seed=5)
        ranker = LinearRanker(synthetic_generating_weights(4, 5))
        expected = ndcg_at_k(
            np.argsort(-ranker.score_all(data.test[0].features)), data.test[0].relevance, 10
        )
        assert evaluate_heldout(ranker, data.test) == pytest.approx(expected, abs=1e-12)

    def test_deterministic_across_calls(self):
        data = make_synthetic(20, 10, 4, seed=6)
        ranker = zero_ranker(4)
        assert evaluate_heldout(ranker, data.test) == evaluate_heldout(ranker, data.test)

    def test_zero_ranker_matches_random_ordering_expectation(self):
        # Monte-Carlo oracle: average NDCG@10 of uniformly shuffled rankings.
        data = make_synthetic(1000, 20, 5, seed=8)
        measured = evaluate_heldout(zero_ranker(5), data.test)
        rng = np.random.default_rng(99)
        shuffles_per_query = 10
        total = 0.0
        for q in data.test:
            for _ in range(shuffles_per_query):
                total += ndcg_at_k(rng.permutation(q.n_docs)[:10], q.relevance, 10)
        expected = total / (len(data.test) * shuffles_per_query)
        assert abs(measured - expected) < 0.01

    def test_generating_weights_on_clean_data(self):
        data = make_synthetic(50, 20, 6, seed=9)
        ranker = LinearRanker(synthetic_generating_weights(6, 9))
        assert evaluate_heldout(ranker, data.test) > 0.95

    def test_empty_test_set_rejected(self):
        with pytest.raises(ValueError):
            evaluate_heldout(zero_ranker(3), [])


class TestWelch:
    def test_identical_samples(self):
        a = [0.1, 0.2, 0.3, 0.4]
        t, p = welch_t_test(a, list(a))
        assert t == 0.0
        assert p == 1.0

    def test_power_on_separated_normals(self):
        # Unit-variance normals one mean apart, n = 125 each: the test
        # should reject at 0.01 in essentially every trial.
        rng = np.random.default_rng(123)
        rejections = 0
        trials = 200
        for _ in range(trials):
            a = rng.normal(0.0, 1.0, size=125)
            b = rng.normal(1.0, 1.0, size=125)
            _, p = welch_t_test(a, b)
            rejections += p < 0.01
        assert rejections / trials >= 0.99

    def test_p_matches_reference_cdf(self, rng):
        for _ in range(20):
            a = rng.normal(rng.uniform(-1, 1), rng.uniform(0.5, 2.0), size=int(rng.integers(5, 40)))
            b = rng.normal(rng.uniform(-1, 1), rng.uniform(0.5, 2.0), size=int(rng.integers(5, 40)))
            t, p = welch_t_test(a, b)
            va = a.var(ddof=1) / a.size
            vb = b.var(ddof=1) / b.size
            dof = (va + vb) ** 2 / (va**2 / (a.size - 1) + vb**2 / (b.size - 1))
            assert p == pytest.approx(student_t_two_sided_p(t, dof), abs=1e-6)

    def test_antisymmetry(self, rng):
        a = rng.normal(size=10)
        b = rng.normal(0.5, 1.0, size=12)
        t_ab, p_ab = welch_t_test(a, b)
        t_ba, p_ba = welch_t_test(b, a)
        assert t_ab == pytest.approx(-t_ba, abs=1e-12)
        assert p_ab == pytest.approx(p_ba, abs=1e-12)

    def test_agrees_with_scipy(self, rng):
        a = rng.normal(size=30)
        b = rng.normal(0.2, 1.3, size=25)
        t, p = welch_t_test(a, b)
        ref = stats.ttest_ind(a, b, equal_var=False)
        assert t == pytest.approx(ref.statistic, abs=1e-12)
        assert p == pytest.approx(ref.pvalue, abs=1e-12)

    def test_p_is_scipys_t_sf_exactly(self):
        # Side sizes 2-30 (with the battery's 25 vs 25), unequal variances and
        # mean shifts that take p from about 1 to below 1e-300, compared with
        # == so that any other tail function shows.
        rng = np.random.default_rng(1302)
        p_values = []
        for na, nb in [(2, 2), (2, 30), (3, 7), (5, 5), (10, 4), (17, 2), (25, 25), (30, 30)]:
            for scale_b in (0.05, 1.0, 20.0):
                for shift in [0.0, *10.0 ** np.arange(-3, 12, 0.25)]:
                    a = rng.normal(0.0, 1.0, size=na)
                    b = rng.normal(shift, scale_b, size=nb)
                    t, p = welch_t_test(a, b)
                    va = a.var(ddof=1) / a.size
                    vb = b.var(ddof=1) / b.size
                    dof = (va + vb) ** 2 / (va**2 / (a.size - 1) + vb**2 / (b.size - 1))
                    assert p == min(1.0, 2 * stats.t.sf(abs(t), dof)), (na, nb, scale_b, shift)
                    p_values.append(p)
        assert max(p_values) > 0.99
        assert 0.0 < min(p for p in p_values if p > 0.0) < 1e-300

    def test_degenerate_zero_variance(self):
        t, p = welch_t_test([1.0, 1.0], [1.0, 1.0])
        assert (t, p) == (0.0, 1.0)
        t, p = welch_t_test([2.0, 2.0], [1.0, 1.0])
        assert t == np.inf and p == 0.0

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            welch_t_test([1.0], [1.0, 2.0])


class TestMetricTrace:
    def test_valid_trace(self):
        trace = MetricTrace([0, 10, 100], [0.1, 0.2, 0.3])
        assert trace.final == 0.3
        assert trace.checkpoints() == [(0, 0.1), (10, 0.2), (100, 0.3)]

    def test_non_increasing_impressions_rejected(self):
        with pytest.raises(ValueError):
            MetricTrace([0, 10, 10], [0.1, 0.2, 0.3])

    def test_out_of_range_ndcg_rejected(self):
        with pytest.raises(ValueError):
            MetricTrace([0, 1], [0.5, 1.5])

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_ndcg_rejected(self, value):
        # NaN fails every comparison, so a min/max range test lets it through.
        with pytest.raises(ValueError, match=rf"^ndcg values must lie in \[0, 1\], got {value!r}$"):
            MetricTrace([0, 5], [value, 0.5])
