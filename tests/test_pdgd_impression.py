"""A run's PDGD impression draws and learns exactly what it first did.

``pdgd._pdgd_step`` scores the query once, samples and draws clicks from
unchecked cores, and calls ``pdgd_update``.  It is walked step by step
beside ``_oracles.reference_pdgd_impression`` (sample, simulate, update as
first written) from the same seed: the weights and the generator state
must be equal after every step, and neither may warn, until the reference
takes a log of 0.  There the update takes its logs in log-sum-exp form
instead, so from that step on the walk checks only that the step's weights
are finite and that it raises no warning.
"""

import warnings

import numpy as np
import pytest

from oltrsim import clicks, experiments, pdgd
from oltrsim.datasets import Query
from oltrsim.pdgd import PdgdState
from oltrsim.ranking import DISPLAY_CUTOFF, LinearRanker

from _oracles import reference_pdgd_impression

STEPS = 4
LOG_OF_ZERO = "divide by zero encountered in log"


def outcome(call):
    """``(value or raised ValueError, warning messages)`` of ``call()``, warnings recorded, not raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = call()
        except ValueError as exc:
            value = exc
    return value, [str(w.message) for w in caught]


def walk(features, grades, weights, spec, seed):
    """Take ``STEPS`` impressions; returns ``(steps equal to the reference, whether it took a log of 0)``."""
    query = Query(qid="q", features=features, relevance=grades)
    state = PdgdState(LinearRanker(weights))
    reference = state.ranker.weights
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    compared = 0
    for step in range(STEPS):
        new, new_warnings = outcome(lambda: pdgd._pdgd_step(state, query, spec, rng))
        assert new_warnings == [], step
        assert isinstance(new, PdgdState) and np.all(np.isfinite(new.ranker.weights)), step
        if reference is not None:
            expected, expected_warnings = outcome(
                lambda: reference_pdgd_impression(
                    reference, query.features, query.relevance, spec, reference_rng, DISPLAY_CUTOFF
                )
            )
            assert rng.bit_generator.state == reference_rng.bit_generator.state, step
            if LOG_OF_ZERO in expected_warnings:
                reference = None
            else:
                assert expected_warnings == [], step
                assert np.array_equal(new.ranker.weights, expected), step
                reference = expected
                compared += 1
        state = new
    return compared, reference is None


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
WALKS = 40


@pytest.mark.parametrize("model", clicks.MODEL_NAMES)
@pytest.mark.parametrize("n_docs", [1, 3, 9, 10, 11, 20, 59])
def test_every_step_equals_the_reference(model, n_docs):
    # Queries shorter than DISPLAY_CUTOFF display every document, which
    # leaves no undisplayed mass; longer ones leave some undisplayed.
    spec = clicks.click_model(model)
    rng = np.random.default_rng([n_docs, clicks.MODEL_NAMES.index(model)])
    compared = dict.fromkeys(KINDS, 0)
    for _ in range(WALKS):
        for kind in KINDS:
            features, grades, weights = case(rng, n_docs, int(rng.choice([1, 3, 10])), kind)
            compared[kind] += walk(features, grades, weights, spec, seed=int(rng.integers(2**32)))[0]
    # Only wide "underflow" walks reach a log of 0, most often when every
    # document is displayed; every step of the others is compared.
    assert all(compared[kind] == WALKS * STEPS for kind in KINDS if kind != "underflow")


def test_every_document_displayed_with_underflowing_masses():
    # Every document displayed leaves no undisplayed mass, so sums of the
    # masses can be 0.  Every walk reaches such a step, and each of its
    # steps must still give finite weights without a warning.
    spec = clicks.click_model(clicks.PERFECT)
    features = np.array([[1.0], [0.0], [-0.3], [-0.6]])
    for seed in range(20):
        assert walk(features, np.array([0, 4, 4, 3]), np.array([1000.0]), spec, seed)[1]


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
