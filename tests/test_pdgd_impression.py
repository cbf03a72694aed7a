"""A run's PDGD impression draws and learns exactly what it first did.

``experiments._pdgd_impression`` scores the query once, samples and draws
clicks from unchecked cores, and calls ``pdgd_update``.  It is walked step
by step beside ``_oracles.reference_pdgd_impression`` (sample, simulate,
update as first written) from the same seed: the weights, the generator
state, the warnings and the errors must be equal after every step.
"""

import warnings

import numpy as np
import pytest

from oltrsim import clicks, experiments, pdgd
from oltrsim.datasets import Query
from oltrsim.pdgd import PdgdState
from oltrsim.ranking import LinearRanker

from _oracles import reference_pdgd_impression

STEPS = 4


def outcome(call):
    """``(value or raised ValueError, warning messages)`` of ``call()``, warnings recorded, not raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = call()
        except ValueError as exc:
            value = exc
    return value, [str(w.message) for w in caught]


def walk(features, grades, weights, spec, k, seed):
    """Take up to ``STEPS`` impressions both ways; returns how many ended in finite weights."""
    query = Query(qid="q", features=features, relevance=grades)
    state = PdgdState(LinearRanker(weights))
    reference = state.ranker.weights
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for step in range(STEPS):
        new, new_warnings = outcome(lambda: experiments._pdgd_impression(state, query, spec, rng, k))
        expected, expected_warnings = outcome(
            lambda: reference_pdgd_impression(reference, query.features, query.relevance, spec, reference_rng, k)
        )
        assert new_warnings == expected_warnings, step
        assert rng.bit_generator.state == reference_rng.bit_generator.state, step
        if not np.all(np.isfinite(expected)):
            assert isinstance(new, ValueError) and str(new) == "weights must be finite", step
            return step
        assert np.array_equal(new.ranker.weights, expected), step
        state, reference = new, expected
    return STEPS


def case(rng, n_docs, dim, kind):
    """Features, grades and weights of one query; ``kind`` sets the weights and their score spread."""
    features = rng.uniform(-1.0, 1.0, size=(n_docs, dim))
    if kind == "duplicated rows":
        features = features[rng.integers(0, max(1, n_docs // 3), size=n_docs)]
    grades = rng.integers(0, 5, size=n_docs)
    if kind == "zero":
        return features, grades, np.zeros(dim)
    if kind == "tied":
        # Scores take only three values, each shared by many documents.
        features[:, 0] = rng.choice([-1.0, 0.0, 1.0], size=n_docs)
        return features, grades, np.eye(dim)[0] * rng.uniform(0.5, 5.0)
    weights = rng.normal(size=dim)
    top = np.abs(features @ weights).max()
    # "underflow": scores span more than 745, below which exp(score - max) is 0.
    spread = rng.uniform(400.0, 1000.0) if kind == "underflow" else 10.0 ** rng.uniform(-2.0, 1.7)
    return features, grades, weights * (spread / top if top > 0 else 1.0)


KINDS = ("zero", "tied", "spread", "underflow", "duplicated rows")


@pytest.mark.parametrize("model", clicks.MODEL_NAMES)
@pytest.mark.parametrize("k", [1, 3, 10, 20])
def test_every_step_equals_the_reference(model, k):
    spec = clicks.click_model(model)
    rng = np.random.default_rng([k, clicks.MODEL_NAMES.index(model)])
    completed = 0
    for n_docs in range(1, 60):
        for kind in KINDS:
            features, grades, weights = case(rng, n_docs, int(rng.choice([1, 3, 10])), kind)
            completed += walk(features, grades, weights, spec, k, seed=int(rng.integers(2**32)))
    # Most walks take every step; only some wide "underflow" ones stop at non-finite weights.
    assert completed > 0.9 * 59 * len(KINDS) * STEPS


def test_every_document_displayed_with_underflowing_masses():
    # Every document displayed leaves no undisplayed mass, so the update's
    # denominators can be 0 and their logs -inf: the divide-by-zero that
    # computing them raises must stay hidden, as it always was.
    spec = clicks.click_model(clicks.PERFECT)
    features = np.array([[1.0], [0.0], [-0.3], [-0.6]])
    for seed in range(20):
        walk(features, np.array([0, 4, 4, 3]), np.array([1000.0]), spec, 10, seed)


def test_a_run_calls_pdgd_update_once_per_impression(monkeypatch):
    # The update is observable: each impression goes through pdgd.pdgd_update.
    calls = []
    update = pdgd.pdgd_update

    def counted(*args):
        calls.append(args)
        return update(*args)

    monkeypatch.setattr(pdgd, "pdgd_update", counted)
    config = experiments.arm_config("pdgd_ar_casc", impressions=50, repeats=1)
    experiments.run_with_dataset(config, 0, experiments.load_config_dataset(config))
    assert len(calls) == 50
