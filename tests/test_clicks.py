import numpy as np
import pytest

from oltrsim.clicks import (
    ALMOST_RANDOM_CASCADING,
    ALMOST_RANDOM_NONCASCADING,
    CLICK_MODELS,
    MODEL_NAMES,
    PERFECT,
    Interaction,
    click_model,
    simulate,
)

from _oracles import cascade_click_position_probs, noncascading_click_position_probs, reference_simulate


class TestClickProbability:
    def test_perfect_values(self):
        assert click_model(PERFECT).click_probs == (0.00, 0.20, 0.40, 0.80, 1.00)

    def test_almost_random_values(self):
        for name in (ALMOST_RANDOM_CASCADING, ALMOST_RANDOM_NONCASCADING):
            assert click_model(name).click_probs == (0.40, 0.45, 0.50, 0.55, 0.60)

    def test_spec_validation(self):
        for name in ("nonexistent", None, ["perfect"]):
            with pytest.raises(ValueError, match="unknown click model"):
                click_model(name)

    def test_stop_probabilities(self):
        assert click_model(PERFECT).stop_prob_after_click == 0.0
        assert click_model(ALMOST_RANDOM_CASCADING).stop_prob_after_click == 0.5

    def test_observation_rule_is_table_data(self):
        cascading = {name: spec.cascading for name, spec in CLICK_MODELS.items()}
        assert cascading == {PERFECT: True, ALMOST_RANDOM_CASCADING: True, ALMOST_RANDOM_NONCASCADING: False}
        assert MODEL_NAMES == tuple(CLICK_MODELS)


class TestCascading:
    def test_perfect_always_clicks_top_relevant(self, rng):
        spec = click_model(PERFECT)
        for _ in range(200):
            out = simulate(np.arange(3), [4, 0, 0], spec, rng)
            assert out.clicks.tolist() == [True, False, False]

    def test_perfect_never_clicks_irrelevant(self, rng):
        spec = click_model(PERFECT)
        for _ in range(200):
            out = simulate(np.arange(2), [0, 0], spec, rng)
            assert not out.clicks.any()

    def test_perfect_observes_whole_list(self, rng):
        # Grade-4 everywhere: every displayed position must be clicked.
        spec = click_model(PERFECT)
        out = simulate(np.arange(10), [4] * 10, spec, rng)
        assert out.clicks.all()

    def test_position_two_observation_rate(self):
        # Grade-2 list under almost-random cascading: position 2 is reached
        # unless position 1 clicked (p=0.5) and then stopped (p=0.5), so it
        # is observed with probability 0.75 and clicked at 0.75 * 0.5.
        spec = click_model(ALMOST_RANDOM_CASCADING)
        rng = np.random.default_rng(21)
        draws = 100000
        clicks_pos2 = 0
        for _ in range(draws):
            out = simulate(np.arange(3), [2, 2, 2], spec, rng)
            clicks_pos2 += out.clicks[1]
        observed_rate = clicks_pos2 / draws / 0.5
        assert abs(observed_rate - 0.75) < 0.01

    def test_matches_enumeration_oracle(self):
        spec = click_model(ALMOST_RANDOM_CASCADING)
        rng = np.random.default_rng(22)
        grades = [3, 0, 4, 1]
        exact = cascade_click_position_probs(grades, spec.click_probs, spec.stop_prob_after_click)
        draws = 100000
        counts = np.zeros(len(grades))
        for _ in range(draws):
            counts += simulate(np.arange(4), grades, spec, rng).clicks
        assert np.all(np.abs(counts / draws - exact) < 0.01)

    def test_perfect_matches_enumeration_oracle(self):
        spec = click_model(PERFECT)
        rng = np.random.default_rng(23)
        grades = [1, 2, 3, 0]
        exact = cascade_click_position_probs(grades, spec.click_probs, 0.0)
        draws = 100000
        counts = np.zeros(len(grades))
        for _ in range(draws):
            counts += simulate(np.arange(4), grades, spec, rng).clicks
        assert np.all(np.abs(counts / draws - exact) < 0.01)

    def test_length_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            simulate(np.arange(3), [1, 1], click_model(PERFECT), rng)

    def test_perfect_draws_the_same_stream_as_the_per_position_loop(self):
        # The perfect model never stops, so its one-call draw must give the
        # clicks of one rng.random() per position and leave the generator
        # in the same state.
        spec = click_model(PERFECT)
        grade_rng = np.random.default_rng(110)
        for seed in range(200):
            m = int(grade_rng.integers(0, 21))
            grades = grade_rng.integers(0, 5, size=m)
            rng = np.random.default_rng(seed)
            looped = np.random.default_rng(seed)
            out = simulate(np.arange(m), grades, spec, rng)
            expected = [looped.random() < spec.click_probs[g] for g in grades]
            assert out.clicks.tolist() == expected
            assert rng.bit_generator.state == looped.bit_generator.state


class TestNonCascading:
    def test_rank_one_always_observed(self):
        # Grade 4 at rank 1: click rate equals the raw click probability.
        spec = click_model(ALMOST_RANDOM_NONCASCADING)
        rng = np.random.default_rng(31)
        draws = 100000
        clicks = sum(simulate(np.arange(1), [4], spec, rng).clicks[0] for _ in range(draws))
        assert abs(clicks / draws - 0.60) < 0.01

    def test_rank_four_observation_rate(self):
        # Observation probability 1/4; grade-4 click probability 0.6.
        spec = click_model(ALMOST_RANDOM_NONCASCADING)
        rng = np.random.default_rng(32)
        draws = 100000
        clicks = 0
        for _ in range(draws):
            clicks += simulate(np.arange(4), [0, 0, 0, 4], spec, rng).clicks[3]
        click_rate = clicks / draws
        assert abs(click_rate - 0.25 * 0.60) < 0.01
        assert abs(click_rate / 0.60 - 0.25) < 0.01

    def test_grade_four_rank_two_click_rate(self):
        spec = click_model(ALMOST_RANDOM_NONCASCADING)
        rng = np.random.default_rng(33)
        draws = 100000
        clicks = 0
        for _ in range(draws):
            clicks += simulate(np.arange(2), [0, 4], spec, rng).clicks[1]
        assert abs(clicks / draws - 0.30) < 0.01

    def test_matches_analytic_rates(self):
        spec = click_model(ALMOST_RANDOM_NONCASCADING)
        rng = np.random.default_rng(34)
        grades = [2, 4, 0, 1]
        exact = noncascading_click_position_probs(grades, spec.click_probs)
        draws = 100000
        counts = np.zeros(len(grades))
        for _ in range(draws):
            counts += simulate(np.arange(4), grades, spec, rng).clicks
        assert np.all(np.abs(counts / draws - exact) < 0.01)

    def test_nonadjacent_clicks_possible(self):
        spec = click_model(ALMOST_RANDOM_NONCASCADING)
        rng = np.random.default_rng(35)
        seen_gap = False
        for _ in range(2000):
            out = simulate(np.arange(3), [4, 4, 4], spec, rng)
            if out.clicks[0] and not out.clicks[1] and out.clicks[2]:
                seen_gap = True
                break
        assert seen_gap


class TestDispatch:
    def test_routes_by_model(self, rng):
        displayed = np.arange(3)
        for name in (PERFECT, ALMOST_RANDOM_CASCADING, ALMOST_RANDOM_NONCASCADING):
            out = simulate(displayed, [4, 2, 0], click_model(name), rng)
            assert isinstance(out, Interaction)
            assert out.clicks.shape == (3,)

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_draws_what_the_two_simulators_it_replaced_drew(self, name):
        # The reference picks the cascading or non-cascading simulator by the
        # model's name; simulate reads the table.  Same clicks, same state.
        spec = click_model(name)
        case_rng = np.random.default_rng([120, MODEL_NAMES.index(name)])
        for seed in range(1500):
            m = int(case_rng.integers(0, 26))
            grades = case_rng.integers(0, 5, size=m)
            rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
            out = simulate(np.arange(m), grades, spec, rng)
            assert out.clicks.tolist() == reference_simulate(np.arange(m), grades, spec, reference).tolist()
            assert rng.bit_generator.state == reference.bit_generator.state

    def test_interaction_validation(self):
        with pytest.raises(ValueError):
            Interaction(ranking=np.arange(3), clicks=np.array([True, False]))
