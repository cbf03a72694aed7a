import itertools
import warnings
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from oltrsim.clicks import Interaction
from oltrsim.datasets import Query
from oltrsim.pdgd import (
    PdgdState,
    _pair_tables,
    _pair_weights,
    _pairs_of_clicks,
    infer_pairwise_preferences,
    pdgd_update,
)
from oltrsim.ranking import DISPLAY_CUTOFF, LinearRanker

from _enumeration import pair_preference, pair_weights
from _oracles import (
    central_difference_gradient,
    log_pl_probability,
    reference_infer_pairwise_preferences,
    reference_pair_tables,
    reference_pair_weights,
    reference_pdgd_update,
)


def interaction(clicks, ranking=None):
    clicks = np.asarray(clicks, dtype=bool)
    if ranking is None:
        ranking = np.arange(clicks.size)
    return Interaction(ranking=np.asarray(ranking), clicks=clicks)


def pair_set(pairs):
    return set(zip(pairs.clicked.tolist(), pairs.unclicked.tolist()))


class TestInferPreferences:
    def test_middle_click(self):
        pairs = infer_pairwise_preferences(interaction([0, 1, 0, 0]))
        assert pair_set(pairs) == {(1, 0), (1, 2)}

    def test_no_clicks(self):
        pairs = infer_pairwise_preferences(interaction([0, 0, 0]))
        assert len(pairs) == 0 and not pairs

    def test_first_and_last_clicked(self):
        pairs = infer_pairwise_preferences(interaction([1, 0, 1]))
        assert pair_set(pairs) == {(0, 1), (2, 1)}

    def test_click_at_list_end_adds_nothing_beyond(self):
        pairs = infer_pairwise_preferences(interaction([0, 0, 1]))
        assert pair_set(pairs) == {(2, 0), (2, 1)}

    def test_all_clicked_yields_no_pairs(self):
        pairs = infer_pairwise_preferences(interaction([1, 1, 1]))
        assert len(pairs) == 0 and not pairs

    def test_matches_reference_list_in_order(self):
        # Same pairs in the same clicked-major order as the list-of-tuples
        # reference, and len() counts them.
        rng = np.random.default_rng(105)
        for _ in range(500):
            m = int(rng.integers(1, 13))
            clicks = rng.random(m) < rng.random()
            pairs = infer_pairwise_preferences(interaction(clicks))
            expected = reference_infer_pairwise_preferences(clicks)
            assert list(zip(pairs.clicked.tolist(), pairs.unclicked.tolist())) == expected
            assert len(pairs) == len(expected) and bool(pairs) == bool(expected)
            assert pairs.clicked.dtype == pairs.unclicked.dtype == np.intp


def rho_by_full_recompute(scores, displayed, i, j):
    """Independent route: two full sequential-probability evaluations."""
    displayed = np.asarray(displayed)
    swapped = displayed.copy()
    swapped[i], swapped[j] = displayed[j], displayed[i]
    lp = log_pl_probability(scores, displayed)
    lp_star = log_pl_probability(scores, swapped)
    anchor = max(lp, lp_star)
    return np.exp(lp_star - anchor) / (np.exp(lp - anchor) + np.exp(lp_star - anchor))


def rho(scores, displayed, i, j):
    return pair_weights(scores, displayed, i, j)[0]


class TestPairWeight:
    def test_equal_scores_give_half(self):
        assert rho(np.zeros(4), np.array([0, 1, 2]), 0, 2) == pytest.approx(0.5, abs=1e-12)

    def test_hand_computed_adjacent_swap(self):
        # exp(scores) = [2, 1, 1], displayed [0, 1, 2], swapping the first
        # two slots: P(R) = 1/4, P(R*) = (1/4)(2/3) = 1/6, rho = 0.4.
        scores = np.log([2.0, 1.0, 1.0])
        assert rho(scores, np.array([0, 1, 2]), 0, 1) == pytest.approx(0.4, abs=1e-12)

    def test_matches_full_recompute(self):
        rng = np.random.default_rng(101)
        for _ in range(200):
            n = int(rng.integers(2, 21))
            k = int(rng.integers(2, min(n, 10) + 1))
            dim = int(rng.integers(1, 6))
            ranker = LinearRanker(rng.normal(size=dim))
            scores = ranker.score_all(rng.normal(scale=2.0, size=(n, dim)))
            displayed = rng.permutation(n)[:k]
            i, j = (int(p) for p in rng.choice(k, size=2, replace=False))
            fast = rho(scores, displayed, i, j)
            slow = rho_by_full_recompute(scores, displayed, i, j)
            assert fast == pytest.approx(slow, abs=1e-10)

    def test_in_unit_interval_and_complement(self):
        rng = np.random.default_rng(102)
        for _ in range(100):
            n = int(rng.integers(2, 12))
            k = int(rng.integers(2, n + 1))
            ranker = LinearRanker(rng.normal(size=3))
            scores = ranker.score_all(rng.normal(size=(n, 3)))
            displayed = rng.permutation(n)[:k]
            i, j = (int(p) for p in rng.choice(k, size=2, replace=False))
            weight = rho(scores, displayed, i, j)
            assert 0.0 < weight < 1.0
            swapped = displayed.copy()
            swapped[i], swapped[j] = displayed[j], displayed[i]
            assert weight + rho(scores, swapped, i, j) == pytest.approx(1.0, abs=1e-12)

    def test_stable_for_spread_scores(self):
        # Score ranges that overflow naive exp must still give finite weights.
        weight = rho(np.array([500.0, -500.0, 0.0, 250.0]), np.array([0, 3, 2]), 0, 2)
        assert np.isfinite(weight)
        assert 0.0 <= weight <= 1.0

    def test_every_document_displayed_with_underflowed_masses(self):
        # With every document displayed no undisplayed mass keeps the
        # sequential denominators positive, and over a spread of about 1000
        # the masses exp(score - max) of the clicked document and those below
        # it underflow to 0.  Each pair's rho must still match two full
        # log-space evaluations, and the update must stay finite, silently.
        for features, displayed, clicks in underflow_cases():
            query = Query(qid="q", features=features, relevance=np.zeros(features.shape[0], dtype=np.int64))
            state = PdgdState(LinearRanker(np.array([1000.0])))
            scores = state.ranker.score_all(features)
            pairs = infer_pairwise_preferences(interaction(clicks, ranking=displayed))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                weights, _ = _pair_weights(scores, displayed, pairs)
                after = pdgd_update(state, query, interaction(clicks, ranking=displayed))
            for weight, i, j in zip(weights, pairs.clicked, pairs.unclicked):
                assert weight == pytest.approx(rho_by_full_recompute(scores, displayed, i, j), abs=1e-9)
            assert np.all(np.isfinite(after.ranker.weights))


def underflow_cases():
    """60 (features, displayed, clicks) with every document displayed and a click far below the top score.

    Under weight 1000 the undisplayed mass is 0 and the clicked document's
    mass underflows, so ``_pair_weights`` takes its log-sum-exp fallback.
    """
    rng = np.random.default_rng(110)
    cases = [(np.array([[0.0], [-0.9], [-0.901]]), np.array([0, 1, 2]), np.array([False, True, False]))]
    while len(cases) < 60:
        n = int(rng.integers(2, 12))
        features = np.append(0.0, rng.uniform(-1.0, 0.0, size=n - 1))[:, None]
        displayed = rng.permutation(n)
        clicks = rng.random(n) < 0.4
        if clicks.any() and features[displayed[clicks.argmax()], 0] < -0.75:
            cases.append((features, displayed, clicks))
    return cases


def all_click_vectors(max_length=DISPLAY_CUTOFF):
    """Every click vector of length 1 to ``max_length``: the 2,046 a run can display."""
    for m in range(1, max_length + 1):
        for clicks in itertools.product((False, True), repeat=m):
            yield np.array(clicks)


def assert_same_bits(got, expected):
    for a, b in zip(got, expected, strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


class TestPairCache:
    """Pairs and their table rows are built once per click vector and read back unchanged."""

    def test_cache_holds_every_displayable_click_vector(self):
        assert _pairs_of_clicks.cache_info().maxsize == 2 ** (DISPLAY_CUTOFF + 1) - 2 == 2046
        assert sum(1 for _ in all_click_vectors()) == 2046

    def test_every_click_vector_gives_the_reference_pairs_and_table_rows(self):
        for clicks in all_click_vectors():
            m = clicks.size
            pairs = infer_pairwise_preferences(interaction(clicks))
            expected = reference_infer_pairwise_preferences(clicks)
            assert list(zip(pairs.clicked.tolist(), pairs.unclicked.tolist())) == expected
            assert pairs.clicked.dtype == pairs.unclicked.dtype == pairs.rows.dtype == np.intp
            assert pairs.rows[0] == 0 and pairs.rows.size == len(pairs) + 1

            swap, span = reference_pair_tables(m)
            swap_reversed, span_rows = _pair_tables(m)
            assert np.array_equal(swap_reversed.take(pairs.rows, axis=0)[0], np.arange(m)[::-1])
            fresh_swap = swap[pairs.clicked, pairs.unclicked]
            fresh_span = span[pairs.clicked, pairs.unclicked]
            assert np.array_equal(swap_reversed.take(pairs.rows[1:], axis=0)[:, ::-1], fresh_swap)
            assert np.array_equal(span_rows.take(pairs.rows[1:], axis=0), fresh_span)

    def test_an_equal_click_vector_reads_the_same_pairs(self):
        clicks = np.array([False, True, False, True, False])
        first = infer_pairwise_preferences(interaction(clicks))
        again = infer_pairwise_preferences(interaction(clicks.copy(), ranking=np.arange(5)[::-1]))
        assert again is first
        assert infer_pairwise_preferences(interaction(clicks[:4])) is not first

    def test_cached_pairs_refuse_writes_and_reassignment(self):
        pairs = infer_pairwise_preferences(interaction([0, 1, 0, 1, 0]))
        for array in (pairs.clicked, pairs.unclicked, pairs.rows):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 3
        for name in ("clicked", "unclicked", "rows"):
            with pytest.raises(FrozenInstanceError):
                setattr(pairs, name, np.zeros(1, dtype=np.intp))
        for m in range(1, DISPLAY_CUTOFF + 1):
            for table in _pair_tables(m):
                assert not table.flags.writeable and table.flags.c_contiguous and table.shape == (m * m, m)


class TestPairWeightsMatchReference:
    """The cached-row core equals the earlier two-gather ``_pair_weights`` bit for bit."""

    def test_random_sweep_below_and_above_the_cutoff(self):
        rng = np.random.default_rng(112)
        compared = 0
        for _ in range(3000):
            n = int(rng.integers(1, 31))
            scale = float(rng.choice([0.1, 1.0, 5.0, 50.0, 1000.0]))
            scores = rng.normal(scale=scale, size=n)
            displayed = rng.permutation(n)[:DISPLAY_CUTOFF]
            clicks = rng.random(displayed.size) < rng.random()
            pairs = infer_pairwise_preferences(interaction(clicks, ranking=displayed))
            if not pairs:
                continue
            expected = reference_pair_weights(scores, displayed, pairs.clicked, pairs.unclicked)
            assert_same_bits(_pair_weights(scores, displayed, pairs), expected)
            compared += 1
        assert compared > 2000

    def test_underflow_cases_take_the_same_fallback(self):
        for features, displayed, clicks in underflow_cases():
            scores = features @ np.array([1000.0])
            pairs = infer_pairwise_preferences(interaction(clicks, ranking=displayed))
            expected = reference_pair_weights(scores, displayed, pairs.clicked, pairs.unclicked)
            assert_same_bits(_pair_weights(scores, displayed, pairs), expected)


class TestUpdate:
    def test_no_clicks_leaves_weights_untouched(self):
        state = PdgdState(LinearRanker(np.array([0.3, -0.2])))
        query = Query(qid="1", features=np.eye(2), relevance=[1, 0])
        before = state.ranker.weights.copy()
        after = pdgd_update(state, query, interaction([0, 0]))
        assert np.array_equal(after.ranker.weights, before)

    def test_single_pair_equal_scores(self):
        # rho = 0.5, P(i>j) = P(j>i) = 0.5: pair weight 0.125.
        eta = 0.1
        state = PdgdState(LinearRanker(np.zeros(2)))
        query = Query(qid="1", features=np.array([[1.0, 0.0], [0.0, 1.0]]), relevance=[1, 0])
        after = pdgd_update(state, query, interaction([1, 0]))
        expected = eta * 0.125 * (query.features[0] - query.features[1])
        assert np.allclose(after.ranker.weights, expected, atol=1e-15)

    def test_identical_documents_cancel(self):
        state = PdgdState(LinearRanker(np.array([0.5, 0.5])))
        features = np.array([[1.0, 2.0], [1.0, 2.0]])
        query = Query(qid="1", features=features, relevance=[1, 0])
        after = pdgd_update(state, query, interaction([1, 0]))
        assert np.array_equal(after.ranker.weights, state.ranker.weights)

    def test_gradient_matches_finite_differences(self):
        # Each pair's update term must equal rho * grad_theta P(i > j).
        # Saturated margins are skipped: there P(1-P) sinks below the
        # finite-difference noise floor and the reference is meaningless.
        rng = np.random.default_rng(103)
        checked = 0
        while checked < 50:
            dim = int(rng.integers(2, 6))
            theta = rng.normal(size=dim)
            d_i = rng.normal(size=dim)
            d_j = rng.normal(size=dim)
            if abs(float(theta @ (d_i - d_j))) > 8.0:
                continue
            checked += 1
            rho_frozen = float(rng.uniform(0.05, 0.95))
            p = pair_preference(theta, d_i, d_j)
            implemented = rho_frozen * p * (1.0 - p) * (d_i - d_j)

            def pref(weights):
                return pair_preference(weights, d_i, d_j)

            numeric = rho_frozen * central_difference_gradient(pref, theta, h=1e-6)
            denom = max(np.linalg.norm(numeric), 1e-12)
            assert np.linalg.norm(implemented - numeric) / denom < 1e-6

    def test_moves_toward_clicked_document(self):
        state = PdgdState(LinearRanker(np.zeros(2)))
        features = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        query = Query(qid="1", features=features, relevance=[2, 0, 0])
        after = pdgd_update(state, query, interaction([1, 0, 0], ranking=[0, 1, 2]))
        new_scores = after.ranker.score_all(features)
        assert new_scores[0] > new_scores[1]


def random_update_case(rng, n_docs, dim, spread, clicks=None, k=10):
    """A state, query and interaction whose scores span about ``[-spread, spread]``."""
    features = rng.uniform(-1.0, 1.0, size=(n_docs, dim))
    weights = rng.normal(size=dim)
    top = np.abs(features @ weights).max()
    weights *= spread / top if top > 0 else 1.0
    grades = rng.integers(0, 5, size=n_docs)
    displayed = rng.permutation(n_docs)[: min(k, n_docs)]
    if clicks is None:
        clicks = rng.random(displayed.size) < rng.random()
    state = PdgdState(LinearRanker(weights))
    query = Query(qid="q", features=features, relevance=grades)
    return state, query, interaction(clicks, ranking=displayed)


class TestUpdateMatchesReference:
    """pdgd_update against the list-based, two-sigmoid reference at the step size 0.1: equal bit for bit."""

    @staticmethod
    def check(state, query, inter):
        expected = reference_pdgd_update(state.ranker.weights, query.features, inter.ranking, inter.clicks, 0.1)
        if not np.all(np.isfinite(expected)):
            with pytest.raises(ValueError, match="weights must be finite"):
                pdgd_update(state, query, inter)
            return False
        after = pdgd_update(state, query, inter)
        assert np.array_equal(after.ranker.weights, expected)
        return True

    def test_random_queries_and_spreads(self):
        # Score spreads up to +-500 put exp(score - max) far below the
        # smallest double for most documents.
        rng = np.random.default_rng(106)
        finite = 0
        for _ in range(600):
            n_docs = int(rng.integers(1, 40))
            dim = int(rng.choice([1, 3, 10]))
            spread = float(10.0 ** rng.uniform(-3, np.log10(500.0)))
            finite += self.check(*random_update_case(rng, n_docs, dim, spread))
        assert finite > 500

    def test_fewer_documents_than_k(self):
        rng = np.random.default_rng(107)
        for n_docs in range(1, 10):
            for _ in range(20):
                self.check(*random_update_case(rng, n_docs, 4, 5.0, k=10))

    def test_no_all_and_last_only_clicks(self):
        rng = np.random.default_rng(108)
        for m in range(1, 11):
            last_only = np.zeros(m, dtype=bool)
            last_only[-1] = True
            for clicks in (np.zeros(m, dtype=bool), np.ones(m, dtype=bool), last_only):
                for spread in (0.0, 1.0, 500.0):
                    self.check(*random_update_case(rng, 12, 5, spread, clicks=clicks, k=m))

    def test_letor_shaped_queries(self):
        rng = np.random.default_rng(109)
        for _ in range(40):
            n_docs = int(rng.integers(60, 181))
            spread = float(rng.choice([0.5, 20.0, 500.0]))
            self.check(*random_update_case(rng, n_docs, 136, spread))


class TestUnbiasednessSign:
    def test_sign_condition_small_instance(self):
        # Spot-check of the expected-update decomposition; the acceptance
        # suite runs the full 50-initialization version.
        from _enumeration import expected_update_pair_coefficients

        rng = np.random.default_rng(104)
        scores = rng.normal(size=3)
        grades = np.array([0, 2, 4])
        coeffs = expected_update_pair_coefficients(scores, grades)
        for (i, j), alpha in coeffs.items():
            assert np.sign(alpha) == np.sign(grades[i] - grades[j])
