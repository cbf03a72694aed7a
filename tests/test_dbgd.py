import itertools

import numpy as np
import pytest

import oltrsim.dbgd as dbgd_module
from oltrsim.clicks import MODEL_NAMES, click_model
from oltrsim.datasets import Query
from oltrsim.dbgd import (
    COMPARATORS,
    ComparisonOutcome,
    DbgdState,
    dbgd_step,
    infer_preference_probabilistic,
    oracle_compare,
    probabilistic_interleave,
    team_draft_infer,
    team_draft_interleave,
)
from oltrsim.evaluation import ndcg_at_k
from oltrsim.ranking import DISPLAY_CUTOFF, LinearRanker, zero_ranker

from _oracles import (
    _reference_rank_softness,
    enumerate_interleave_credit,
    reference_dbgd_step,
    reference_infer_preference_probabilistic,
    reference_probabilistic_interleave,
    reference_team_draft_interleave,
    softened_mass,
)


def random_ranking_pair(rng, n):
    return rng.permutation(n), rng.permutation(n)


class TestProbabilisticInterleave:
    def test_displayed_is_valid(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 12))
            r_a, r_b = random_ranking_pair(rng, n)
            displayed, assignment = probabilistic_interleave(r_a, r_b, rng)
            assert len(displayed) == min(DISPLAY_CUTOFF, n)
            assert len(np.unique(displayed)) == len(displayed)
            assert set(displayed) <= set(range(n))
            assert set(assignment) <= {0, 1}

    def test_first_draw_softened_distribution(self):
        # For a 3-doc ranking the softened mass of the top document is
        # (1/1^3) / (1/1^3 + 1/2^3 + 1/3^3) = 0.860558...
        expected = 1.0 / (1.0 + 1.0 / 8.0 + 1.0 / 27.0)
        assert expected == pytest.approx(0.86056, abs=1e-5)
        rng = np.random.default_rng(41)
        shared = np.array([0, 1, 2])
        draws = 100000
        hits = sum(
            probabilistic_interleave(shared, shared, rng)[0][0] == 0 for _ in range(draws)
        )
        assert abs(hits / draws - expected) < 0.01

    def test_opposed_rankings_are_symmetric(self):
        rng = np.random.default_rng(42)
        r_a = np.array([0, 1])
        r_b = np.array([1, 0])
        draws = 100000
        hits = sum(probabilistic_interleave(r_a, r_b, rng)[0][0] == 0 for _ in range(draws))
        assert abs(hits / draws - 0.5) < 0.01

    def test_identical_rankings_marginals_match_single_distribution(self):
        # With identical inputs the displayed list is a draw from the one
        # softened distribution; check the per-position marginal of the top
        # document instead of expecting the deterministic prefix.
        rng = np.random.default_rng(43)
        shared = np.array([0, 1, 2, 3])
        mass = np.array(softened_mass(shared, 3.0))
        draws = 50000
        first = np.zeros(4)
        for _ in range(draws):
            displayed, _ = probabilistic_interleave(shared, shared, rng)
            first[displayed[0]] += 1
        assert np.all(np.abs(first / draws - mass / mass.sum()) < 0.01)

    def test_mismatched_candidate_sets_rejected(self, rng):
        with pytest.raises(ValueError):
            probabilistic_interleave(np.array([0, 1]), np.array([0, 2]), rng)
        with pytest.raises(ValueError):
            probabilistic_interleave(np.array([], dtype=int), np.array([], dtype=int), rng)


class TestProbabilisticInference:
    def test_no_clicks_is_tie(self):
        r_a = np.array([0, 1, 2])
        r_b = np.array([2, 1, 0])
        outcome = infer_preference_probabilistic(r_a[:2], np.zeros(2, dtype=bool), r_a, r_b)
        assert outcome is ComparisonOutcome.TIE

    def test_identical_rankings_tie_for_any_clicks(self, rng):
        shared = np.arange(5)
        for _ in range(30):
            displayed, _ = probabilistic_interleave(shared, shared, rng)
            clicks = rng.random(5) < 0.5
            outcome = infer_preference_probabilistic(displayed, clicks, shared, shared)
            assert outcome is ComparisonOutcome.TIE

    def test_agrees_exactly_with_enumeration(self):
        rng = np.random.default_rng(44)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            r_a, r_b = random_ranking_pair(rng, n)
            displayed, _ = probabilistic_interleave(r_a, r_b, rng)
            for pattern in itertools.product((False, True), repeat=len(displayed)):
                clicks = np.asarray(pattern)
                outcome = infer_preference_probabilistic(displayed, clicks, r_a, r_b)
                diff = enumerate_interleave_credit(displayed.tolist(), clicks, r_a.tolist(), r_b.tolist())
                if diff > 0:
                    assert outcome is ComparisonOutcome.CURRENT
                elif diff < 0:
                    assert outcome is ComparisonOutcome.CANDIDATE
                else:
                    assert outcome is ComparisonOutcome.TIE

    def test_click_on_top_of_a_favors_a(self):
        # Document 0 tops ranking a and bottoms ranking b; a click on it is
        # evidence the displayed list came from a.
        r_a = np.array([0, 1, 2])
        r_b = np.array([1, 2, 0])
        displayed = np.array([0, 1, 2])
        clicks = np.array([True, False, False])
        assert infer_preference_probabilistic(displayed, clicks, r_a, r_b) is ComparisonOutcome.CURRENT

    @pytest.mark.xfail(
        strict=True,
        reason="the remaining masses are summed in document order, so two rankings with the same remaining "
        "ranks can get sums that differ in the last bit, and a tie reads as a win",
    )
    def test_click_on_a_document_both_rank_first_is_a_tie(self):
        # Document 4 tops both rankings, so before any document is shown
        # both sides give it the same share: the exact credit is 0.
        r_a = np.array([4, 2, 1, 5, 3, 0, 6])
        r_b = np.array([4, 6, 3, 2, 1, 5, 0])
        displayed = np.array([4, 2, 6, 1])
        clicks = np.array([True, False, False, False])
        assert enumerate_interleave_credit(displayed.tolist(), clicks, r_a.tolist(), r_b.tolist()) == 0
        assert infer_preference_probabilistic(displayed, clicks, r_a, r_b) is ComparisonOutcome.TIE

    def test_misaligned_clicks_rejected(self):
        r_a = np.array([0, 1])
        with pytest.raises(ValueError):
            infer_preference_probabilistic(r_a, np.array([True]), r_a, r_a[::-1].copy())


class TestTeamDraft:
    def test_displayed_is_valid(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 12))
            r_a, r_b = random_ranking_pair(rng, n)
            displayed, teams = team_draft_interleave(r_a, r_b, rng)
            assert len(displayed) == min(DISPLAY_CUTOFF, n)
            assert len(np.unique(displayed)) == len(displayed)
            assert set(teams) <= {0, 1}

    def test_click_on_team_a_document_wins_for_a(self):
        teams = np.array([0, 1, 0, 1])
        clicks = np.array([True, False, False, False])
        assert team_draft_infer(teams, clicks) is ComparisonOutcome.CURRENT
        assert team_draft_infer(teams, ~clicks) is ComparisonOutcome.CANDIDATE

    def test_no_clicks_is_tie(self):
        teams = np.array([0, 1])
        assert team_draft_infer(teams, np.zeros(2, dtype=bool)) is ComparisonOutcome.TIE

    def test_equal_credit_is_tie(self):
        teams = np.array([0, 1, 0, 1])
        clicks = np.array([True, True, False, False])
        assert team_draft_infer(teams, clicks) is ComparisonOutcome.TIE

    def test_round_structure_alternates_teams(self, rng):
        r = np.arange(6)
        displayed, teams = team_draft_interleave(r, r.copy(), rng)
        # each round contributes one pick per team
        assert np.sum(teams[:2] == 0) == 1
        assert np.sum(teams[2:4] == 0) == 1
        assert np.sum(teams[4:6] == 0) == 1


class TestOracleCompare:
    def test_better_ordering_wins(self):
        grades = np.array([0, 1, 2, 4])
        ideal = np.array([3, 2, 1, 0])
        assert oracle_compare(ideal, ideal[::-1].copy(), grades) is ComparisonOutcome.CURRENT
        assert oracle_compare(ideal[::-1].copy(), ideal, grades) is ComparisonOutcome.CANDIDATE

    def test_identical_rankings_tie(self):
        grades = np.array([0, 2, 1])
        r = np.array([1, 2, 0])
        assert oracle_compare(r, r.copy(), grades) is ComparisonOutcome.TIE

    def test_uniform_grades_tie(self):
        grades = np.array([1, 1, 1])
        assert oracle_compare(np.array([0, 1, 2]), np.array([2, 1, 0]), grades) is ComparisonOutcome.TIE


class TestDbgdStep:
    def make_query(self, rng, n=8, dim=4):
        features = rng.normal(size=(n, dim))
        grades = rng.integers(0, 5, size=n)
        return Query(qid="q", features=features, relevance=grades)

    @staticmethod
    def record_outcomes(monkeypatch, comparator):
        """Wrap ``dbgd.<comparator>`` so that each outcome it returns is appended to a list."""
        outcomes = []
        original = getattr(dbgd_module, comparator)

        def spy(*args, **kwargs):
            outcome = original(*args, **kwargs)
            outcomes.append((args, outcome))
            return outcome

        monkeypatch.setattr(dbgd_module, comparator, spy)
        return outcomes

    def test_update_geometry(self, rng, monkeypatch):
        # Every step moves the weights by exactly eta * delta on a candidate
        # win and not at all otherwise.
        outcomes = self.record_outcomes(monkeypatch, "_infer_from_masses")
        spec = click_model("perfect")
        state = DbgdState(zero_ranker(4))
        query = self.make_query(rng)
        moved = 0
        for _ in range(200):
            new_state = dbgd_step(state, query, spec, rng)
            step = np.linalg.norm(new_state.ranker.weights - state.ranker.weights)
            if outcomes[-1][1] is ComparisonOutcome.CANDIDATE:
                assert step == pytest.approx(0.001, abs=1e-12)
                moved += 1
            else:
                assert step == 0.0
            state = new_state
        assert len(outcomes) == 200
        assert moved > 0

    def test_update_arithmetic(self, rng, monkeypatch):
        # theta = 0, delta * u = [0.6, 0.8], eta = 0.001, candidate win
        # must give exactly [0.0006, 0.0008].
        direction = np.array([0.6, 0.8])
        monkeypatch.setattr(dbgd_module, "sample_unit_sphere", lambda dim, rng: direction.copy())
        features = np.array([[1.0, 0.0], [-1.0, 0.0]])
        query = Query(qid="q", features=features, relevance=[4, 0])
        state = DbgdState(zero_ranker(2), comparator="oracle")
        spec = click_model("perfect")
        updated = None
        for seed in range(50):
            new_state = dbgd_step(state, query, spec, np.random.default_rng(seed))
            if not np.array_equal(new_state.ranker.weights, state.ranker.weights):
                updated = new_state
                break
        assert updated is not None
        assert np.allclose(updated.ranker.weights, [0.0006, 0.0008], atol=1e-15)

    def test_loss_or_tie_keeps_weights(self, rng, monkeypatch):
        outcomes = self.record_outcomes(monkeypatch, "_infer_from_masses")
        spec = click_model("perfect")
        state = DbgdState(LinearRanker(np.array([0.5, -0.5, 0.1, 0.2])))
        query = self.make_query(rng)
        kept = 0
        for _ in range(100):
            new_state = dbgd_step(state, query, spec, rng)
            if outcomes[-1][1] is not ComparisonOutcome.CANDIDATE:
                assert np.array_equal(new_state.ranker.weights, state.ranker.weights)
                kept += 1
            state = new_state
        assert kept > 0

    def test_oracle_update_never_chooses_worse_candidate(self, rng, monkeypatch):
        from oltrsim.evaluation import ndcg_at_k

        outcomes = self.record_outcomes(monkeypatch, "oracle_compare")
        spec = click_model("perfect")
        state = DbgdState(zero_ranker(4), comparator="oracle")
        query = self.make_query(rng)
        wins = 0
        for _ in range(300):
            new_state = dbgd_step(state, query, spec, rng)
            (ranking_current, ranking_candidate, _), outcome = outcomes[-1]
            if not np.array_equal(new_state.ranker.weights, state.ranker.weights):
                assert outcome is ComparisonOutcome.CANDIDATE
                current = ndcg_at_k(ranking_current, query.relevance, 10)
                candidate = ndcg_at_k(ranking_candidate, query.relevance, 10)
                assert candidate > current
                wins += 1
            state = new_state
        assert wins > 0

    def test_oracle_needs_no_click_model(self, rng):
        # The oracle draws no clicks: under each user model a walk of steps
        # learns the same weights and leaves the generator in the same state.
        query = self.make_query(rng, n=15)
        seed = int(rng.integers(1 << 32))
        walks = []
        for model in MODEL_NAMES:
            state = DbgdState(zero_ranker(4), comparator="oracle")
            walk_rng = np.random.default_rng(seed)
            for _ in range(100):
                state = dbgd_step(state, query, click_model(model), walk_rng)
            walks.append((state.ranker.weights, walk_rng.bit_generator.state))
        assert np.any(walks[0][0] != 0.0)
        for weights, generator_state in walks[1:]:
            assert np.array_equal(weights, walks[0][0])
            assert generator_state == walks[0][1]

    def test_interleaved_comparator_requires_click_model(self, rng):
        # An interleaved comparator draws its clicks from the click model:
        # from one seed, each user leaves the generator in another state.
        query = self.make_query(rng, n=15)
        seed = int(rng.integers(1 << 32))
        for comparator in (dbgd_module.PROBABILISTIC, dbgd_module.TEAM_DRAFT):
            generator_states = []
            for model in MODEL_NAMES:
                state = DbgdState(zero_ranker(4), comparator=comparator)
                walk_rng = np.random.default_rng(seed)
                for _ in range(20):
                    state = dbgd_step(state, query, click_model(model), walk_rng)
                generator_states.append(walk_rng.bit_generator.state)
            assert generator_states[0] != generator_states[1] != generator_states[2] != generator_states[0]

    def test_team_draft_comparator_runs(self, rng):
        spec = click_model("almost_random_cascading")
        state = DbgdState(zero_ranker(4), comparator="team_draft")
        query = self.make_query(rng)
        for _ in range(50):
            state = dbgd_step(state, query, spec, rng)

    def test_state_validation(self):
        with pytest.raises(ValueError):
            DbgdState(zero_ranker(2), comparator="nope")


class ForcedRoundUp:
    """A generator whose uniforms above 0.75 read 1.0, which ``random()`` never returns.

    A document draw of 1.0 makes ``u * total`` equal the total, so the
    interleaver must fall back to the last remaining document.  Everything
    else is the wrapped generator's.
    """

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.forced = 0

    def random(self, size=None):
        u = np.asarray(self._rng.random(size))
        high = u > 0.75
        self.forced += int(high.sum())
        u = np.where(high, 1.0, u)
        return float(u) if size is None else u

    def __getattr__(self, name):
        return getattr(self._rng, name)


def random_step_case(rng, comparator, model):
    """A state, query and user, the query with fewer, as many or more documents than a display holds."""
    n = int(rng.choice([1, int(rng.integers(2, 10)), int(rng.integers(10, 60))]))
    dim = int(rng.integers(1, 8))
    features = rng.normal(size=(n, dim))
    if n > 2 and rng.random() < 0.3:
        features[n // 2 :] = features[0]  # tied scores for any weights
    kind = rng.integers(3)
    if kind == 0:
        weights = np.zeros(dim)
    elif kind == 1:
        weights = np.full(dim, 0.25)
    else:
        weights = rng.normal(size=dim) * float(rng.choice([0.01, 1.0, 100.0]))
    state = DbgdState(LinearRanker(weights), comparator)
    query = Query(qid="q", features=features, relevance=rng.integers(0, 5, size=n))
    return state, query, click_model(model)


def assert_steps_match(state, query, spec, rng_reference, rng_fused, steps):
    """Run both steps side by side, the reference at the protocol's constants; return how many moved the weights."""
    moved = 0
    reference = fused = state
    for _ in range(steps):
        reference = reference_dbgd_step(
            reference, query, spec, rng_reference, DISPLAY_CUTOFF, learning_rate=0.001, sphere_radius=1.0, tau=3.0
        )
        new_fused = dbgd_step(fused, query, spec, rng_fused)
        assert np.array_equal(new_fused.ranker.weights, reference.ranker.weights)
        assert rng_fused.bit_generator.state == rng_reference.bit_generator.state
        moved += not np.array_equal(new_fused.ranker.weights, fused.ranker.weights)
        fused = new_fused
    return moved


class TestRankSoftness:
    """Masses are scattered from one read-only table per query length, with the bits of a fresh power."""

    def test_equals_the_reference_bit_for_bit(self):
        rng = np.random.default_rng(2731)
        for n in range(1, 201):
            for ranking in (np.arange(n), np.arange(n)[::-1], rng.permutation(n)):
                masses = dbgd_module._rank_softness(ranking)
                expected = _reference_rank_softness(ranking, dbgd_module.TAU)
                assert masses.dtype == expected.dtype and masses.tobytes() == expected.tobytes()

    def test_the_table_is_shared_and_read_only(self):
        table = dbgd_module._softness_by_rank(7)
        assert dbgd_module._softness_by_rank(7) is table
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 2.0
        masses = dbgd_module._rank_softness(np.arange(7))
        masses[0] = 2.0  # each call's masses are its own
        assert table[0] == 1.0


class TestStepMatchesReference:
    """The one-pass step equals the step that called the checked functions, bit for bit."""

    @pytest.mark.parametrize("comparator", COMPARATORS)
    @pytest.mark.parametrize("model", MODEL_NAMES)
    def test_seeded_steps(self, comparator, model):
        rng = np.random.default_rng([2718, COMPARATORS.index(comparator), MODEL_NAMES.index(model)])
        moved = 0
        for _ in range(40):
            state, query, spec = random_step_case(rng, comparator, model)
            seed = int(rng.integers(1 << 32))
            moved += assert_steps_match(
                state, query, spec, np.random.default_rng(seed), np.random.default_rng(seed), steps=8
            )
        assert moved > 0

    @pytest.mark.parametrize("model", MODEL_NAMES)
    def test_forced_round_up(self, model):
        rng = np.random.default_rng(2720)
        forced = 0
        for _ in range(40):
            state, query, spec = random_step_case(rng, "probabilistic", model)
            seed = int(rng.integers(1 << 32))
            rng_reference, rng_fused = ForcedRoundUp(seed), ForcedRoundUp(seed)
            assert_steps_match(state, query, spec, rng_reference, rng_fused, steps=4)
            assert rng_fused.forced == rng_reference.forced
            forced += rng_fused.forced
        assert forced > 0


class TestPublicFunctionsMatchReference:
    def test_interleave_and_credit(self):
        # The credit is also scored on a prefix of m positions, the
        # interleaving of m positions that the reference draws for k = m.
        rng = np.random.default_rng(2721)
        for trial in range(400):
            n = int(rng.choice([1, int(rng.integers(2, 12)), int(rng.integers(12, 60))]))
            m = int(rng.choice([1, 5, DISPLAY_CUTOFF]))
            r_a, r_b = random_ranking_pair(rng, n)
            seed = int(rng.integers(1 << 32))
            rng_reference = ForcedRoundUp(seed) if trial % 4 == 0 else np.random.default_rng(seed)
            rng_prefix = ForcedRoundUp(seed) if trial % 4 == 0 else np.random.default_rng(seed)
            rng_new = ForcedRoundUp(seed) if trial % 4 == 0 else np.random.default_rng(seed)
            expected = reference_probabilistic_interleave(r_a, r_b, DISPLAY_CUTOFF, rng_reference, 3.0)
            displayed, assignments = probabilistic_interleave(r_a, r_b, rng_new)
            assert np.array_equal(displayed, expected[0])
            assert np.array_equal(assignments, expected[1])
            assert rng_new.bit_generator.state == rng_reference.bit_generator.state
            prefix = reference_probabilistic_interleave(r_a, r_b, m, rng_prefix, 3.0)
            assert np.array_equal(displayed[:m], prefix[0])
            assert np.array_equal(assignments[:m], prefix[1])
            for shown in (displayed, displayed[:m]):
                for _ in range(2):
                    clicks = rng.random(shown.size) < rng.random()
                    outcome = infer_preference_probabilistic(shown, clicks, r_a, r_b)
                    assert outcome.value == reference_infer_preference_probabilistic(shown, clicks, r_a, r_b, 3.0)


def ranking_pair_sharing_prefix(rng, n):
    """Two random rankings of ``n`` documents; some agree on a random prefix."""
    r_a, r_b = random_ranking_pair(rng, n)
    if rng.random() < 0.3:
        shared = int(rng.integers(0, n + 1))
        rest = np.setdiff1d(np.arange(n), r_a[:shared])
        r_b = np.concatenate([r_a[:shared], rng.permutation(rest)])
    return r_a, r_b


class TestCoresMatchReference:
    """Each private core of the step equals its checked public function and the first-written reference, bit for bit."""

    def test_team_draft(self):
        rng = np.random.default_rng(2740)
        for _ in range(1500):
            n = int(rng.choice([1, int(rng.integers(2, 10)), DISPLAY_CUTOFF, int(rng.integers(11, 61))]))
            r_a, r_b = ranking_pair_sharing_prefix(rng, n)
            seed = int(rng.integers(1 << 32))
            rng_reference, rng_public, rng_core = (np.random.default_rng(seed) for _ in range(3))
            expected = reference_team_draft_interleave(r_a, r_b, DISPLAY_CUTOFF, rng_reference)
            for result, generator in (
                (team_draft_interleave(r_a, r_b, rng_public), rng_public),
                (dbgd_module._team_draft(r_a, r_b, rng_core), rng_core),
            ):
                for got, want in zip(result, expected):
                    assert got.dtype == want.dtype and np.array_equal(got, want)
                assert generator.bit_generator.state == rng_reference.bit_generator.state

    def test_oracle_compare(self):
        rng = np.random.default_rng(2741)
        for trial in range(1500):
            n = int(rng.choice([1, int(rng.integers(2, 10)), DISPLAY_CUTOFF, int(rng.integers(11, 61))]))
            kind = trial % 4
            grades = np.zeros(n, dtype=np.int64) if kind == 0 else rng.integers(0, 5, size=n)
            r_a, r_b = ranking_pair_sharing_prefix(rng, n)
            if kind == 1:
                r_b = r_a.copy()
            elif kind == 2 and n > 1:
                # Give two of the first DISPLAY_CUTOFF + 2 documents equal gains and swap them.
                r_b = r_a.copy()
                i, j = rng.choice(min(n, DISPLAY_CUTOFF + 2), size=2, replace=False)
                grades[r_b[j]] = grades[r_b[i]]
                r_b[[i, j]] = r_b[[j, i]]
            expected = dbgd_module._outcome(
                ndcg_at_k(r_a, grades, DISPLAY_CUTOFF), ndcg_at_k(r_b, grades, DISPLAY_CUTOFF)
            )
            assert oracle_compare(r_a, r_b, grades) is expected
            if kind in (0, 1, 2):
                assert expected is ComparisonOutcome.TIE

    def test_probabilistic_interleave_under_forced_round_up(self):
        rng = np.random.default_rng(2742)
        forced = 0
        for n in range(1, 201):
            r_a, r_b = ranking_pair_sharing_prefix(rng, n)
            seed = int(rng.integers(1 << 32))
            rng_reference, rng_core = ForcedRoundUp(seed), ForcedRoundUp(seed)
            expected = reference_probabilistic_interleave(r_a, r_b, DISPLAY_CUTOFF, rng_reference, 3.0)
            got = dbgd_module._interleave_from_masses(
                dbgd_module._rank_softness(r_a), dbgd_module._rank_softness(r_b), rng_core
            )
            for g, e in zip(got, expected):
                assert g.dtype == e.dtype and np.array_equal(g, e)
            assert rng_core.bit_generator.state == rng_reference.bit_generator.state
            assert rng_core.forced == rng_reference.forced
            forced += rng_core.forced
        assert forced > 0
