import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from oltrsim.ranking import (
    DISPLAY_CUTOFF,
    LinearRanker,
    rank_deterministic,
    sample_ranking,
    sample_unit_sphere,
    sigmoid,
    zero_ranker,
)

from _oracles import log_pl_probability, pl_all_full_rankings, pl_ranking_probability

scores_lists = st.lists(
    st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=1, max_size=5
)


def ranker_for_scores(values):
    """1-D feature trick: weights [1], features [[s] for s in values]."""
    return LinearRanker([1.0]), np.asarray(values, dtype=float).reshape(-1, 1)


class TestScore:
    def test_zero_weights(self):
        assert LinearRanker([0.0, 0.0]).score_all([[3.2, -1.0]]).tolist() == [0.0]

    def test_dot_product(self):
        assert LinearRanker([1.0, 2.0]).score_all([[3.0, 4.0]]).tolist() == [11.0]

    def test_symmetry_cancellation(self):
        assert LinearRanker([0.5, -0.5]).score_all([[2.0, 2.0]]).tolist() == [0.0]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="feature dimension 1 does not match ranker dimension 2"):
            LinearRanker([1.0, 2.0]).score_all([[1.0]])

    def test_non_finite_weights_rejected(self):
        with pytest.raises(ValueError):
            LinearRanker([np.nan, 1.0])


class TestRankDeterministic:
    def test_strict_ordering(self, rng):
        ranker, docs = ranker_for_scores([3.0, 1.0, 2.0])
        assert rank_deterministic(ranker, docs, rng).tolist() == [0, 2, 1]

    def test_truncation(self, rng):
        # The deterministic order is never cut: held-out evaluation cuts it
        # to the metric's top 10.  A sampled display is cut to DISPLAY_CUTOFF.
        ranker, docs = ranker_for_scores(np.arange(25.0)[::-1])
        assert rank_deterministic(ranker, docs, rng).tolist() == list(range(25))
        assert sample_ranking(LinearRanker([1e6]), docs, rng).tolist() == list(range(DISPLAY_CUTOFF))

    def test_empty_candidates(self, rng):
        with pytest.raises(ValueError):
            rank_deterministic(LinearRanker([1.0]), np.empty((0, 1)), rng)

    def test_tie_break_uniform_over_permutations(self):
        # All-zero scores: each of the 6 orderings should appear 1/6 of the time.
        rng = np.random.default_rng(11)
        ranker = zero_ranker(2)
        docs = np.ones((3, 2))
        counts = {}
        draws = 10000
        for _ in range(draws):
            key = tuple(rank_deterministic(ranker, docs, rng))
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 6
        freqs = np.array([counts[p] for p in itertools.permutations(range(3))]) / draws
        assert np.all(np.abs(freqs - 1 / 6) < 0.02)
        chi2 = stats.chisquare(list(counts.values()))
        assert chi2.pvalue > 0.001

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            dim = rng.integers(2, 8)
            n = rng.integers(2, 12)
            ranker = LinearRanker(rng.normal(size=dim))
            docs = rng.normal(size=(n, dim))
            alpha = float(10.0 ** rng.uniform(-3, 3))
            seed = int(rng.integers(1 << 31))
            first = rank_deterministic(ranker, docs, np.random.default_rng(seed))
            scaled = LinearRanker(alpha * ranker.weights)
            second = rank_deterministic(scaled, docs, np.random.default_rng(seed))
            assert first.tolist() == second.tolist()


class TestSampleRanking:
    def test_uniform_under_equal_scores(self):
        rng = np.random.default_rng(5)
        ranker = zero_ranker(1)
        docs = np.zeros((3, 1))
        counts = {}
        draws = 60000
        for _ in range(draws):
            key = tuple(sample_ranking(ranker, docs, rng))
            counts[key] = counts.get(key, 0) + 1
        freqs = np.array(sorted(counts.values())) / draws
        assert len(counts) == 6
        assert np.all(np.abs(freqs - 1 / 6) < 0.01)

    def test_hand_computed_sequential_product(self):
        # exp(scores) = [2, 1, 1]: P([0, 1, 2]) = (2/4)(1/2)(1) = 0.25.
        rng = np.random.default_rng(6)
        ranker, docs = ranker_for_scores(np.log([2.0, 1.0, 1.0]))
        draws = 100000
        hits = sum(
            tuple(sample_ranking(ranker, docs, rng)) == (0, 1, 2) for _ in range(draws)
        )
        assert abs(hits / draws - 0.25) < 0.01

    def test_single_document(self, rng):
        ranker, docs = ranker_for_scores([1.5])
        assert sample_ranking(ranker, docs, rng).tolist() == [0]

    def test_empty_candidates(self, rng):
        with pytest.raises(ValueError):
            sample_ranking(LinearRanker([1.0]), np.empty((0, 1)), rng)

    def test_sampled_frequencies_match_probabilities(self):
        # Chi-square of empirical full-ranking counts against the analytic
        # sequential-product distribution.
        rng = np.random.default_rng(7)
        values = rng.normal(size=4)
        ranker, docs = ranker_for_scores(values)
        expected = pl_all_full_rankings(values)
        draws = 50000
        counts = {perm: 0 for perm in expected}
        for _ in range(draws):
            counts[tuple(sample_ranking(ranker, docs, rng))] += 1
        chi2 = stats.chisquare(
            [counts[p] for p in expected], [expected[p] * draws for p in expected]
        )
        assert chi2.pvalue > 0.001


class TestLogRankingProbability:
    """The log-space Plackett-Luce oracle against the direct sequential product."""

    def test_hand_computed_value(self):
        lp = log_pl_probability(np.log([2.0, 1.0, 1.0]), [0, 1, 2])
        assert lp == pytest.approx(np.log(0.25), abs=1e-12)

    def test_single_doc_is_certain(self):
        assert log_pl_probability([3.7], [0]) == pytest.approx(0.0, abs=1e-12)

    def test_equal_scores_normalization(self):
        total = sum(
            np.exp(log_pl_probability([1.0, 1.0, 1.0], p)) for p in itertools.permutations(range(3))
        )
        assert total == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(scores_lists)
    def test_matches_direct_product_and_normalizes(self, values):
        ranker, docs = ranker_for_scores(values)
        scores = ranker.score_all(docs)
        total = 0.0
        for perm in itertools.permutations(range(len(values))):
            lp = log_pl_probability(scores, perm)
            assert np.exp(lp) == pytest.approx(pl_ranking_probability(values, perm), rel=1e-10)
            total += np.exp(lp)
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_large_scores_stable(self):
        lp = log_pl_probability([800.0, -800.0, 0.0], [0, 2, 1])
        assert np.isfinite(lp)
        assert lp <= 0.0


class TestPairPreference:
    """P(i before j) = sigmoid(s_i - s_j), the preference PDGD's update uses."""

    def test_equal_scores(self):
        assert float(sigmoid(0.0)) == 0.5

    def test_logistic_value(self):
        expected = np.exp(1.0) / (1.0 + np.exp(1.0))
        assert float(sigmoid(1.0)) == pytest.approx(expected, abs=1e-12)
        assert float(sigmoid(1.0)) == pytest.approx(0.73106, abs=1e-5)

    def test_large_margin_saturates_without_overflow(self):
        with np.errstate(over="raise"):
            p = sigmoid(np.array([20.0, -20.0, 1000.0, -1000.0]))
        assert np.all(np.abs(p[[0, 2]] - 1.0) < 1e-8)
        assert np.all(p[[1, 3]] < 1e-8)

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(min_value=-50, max_value=50, allow_nan=False),
        st.floats(min_value=-50, max_value=50, allow_nan=False),
    )
    def test_complement_sums_to_one(self, a, b):
        s_a, s_b = LinearRanker([1.0]).score_all([[a], [b]])
        p, q = sigmoid(np.array([s_a - s_b, s_b - s_a]))
        if abs(a - b) < 30:  # beyond ~37 the logistic saturates in float64
            assert 0.0 < p < 1.0
        assert p + q == pytest.approx(1.0, abs=1e-15)


class TestSampleUnitSphere:
    def test_dim_one_is_sign_flip(self):
        rng = np.random.default_rng(8)
        draws = 10000
        values = np.array([sample_unit_sphere(1, rng)[0] for _ in range(draws)])
        assert set(np.unique(np.abs(values))) == {1.0}
        assert abs(np.mean(values > 0) - 0.5) < 0.02

    def test_high_dim_norm(self, rng):
        v = sample_unit_sphere(136, rng)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12

    def test_mean_is_origin(self):
        rng = np.random.default_rng(9)
        total = np.zeros(3)
        draws = 100000
        for _ in range(draws):
            total += sample_unit_sphere(3, rng)
        assert np.all(np.abs(total / draws) < 0.01)

    def test_zero_dim_rejected(self, rng):
        with pytest.raises(ValueError):
            sample_unit_sphere(0, rng)

    @pytest.mark.parametrize("dim", [1, 2, 5, 46, 136])
    def test_same_bits_and_stream_as_numpy_norm(self, dim):
        # The norm is math.sqrt(v @ v), which for a 1-D float vector is what
        # np.linalg.norm computes, without its Python wrapper.
        for seed in range(1000):
            rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
            v = reference.normal(size=dim)
            assert sample_unit_sphere(dim, rng).tobytes() == (v / np.linalg.norm(v)).tobytes()
            assert rng.bit_generator.state == reference.bit_generator.state
