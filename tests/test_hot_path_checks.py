"""Every per-impression function still refuses bad input, with the same message.

The messages are compared exactly, so a check that is made cheaper must
still fire on the same input and say the same thing.
"""

from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from oltrsim.clicks import (
    ALMOST_RANDOM_CASCADING,
    ALMOST_RANDOM_NONCASCADING,
    PERFECT,
    Interaction,
    click_model,
    simulate,
)
from oltrsim.datasets import Query
from oltrsim.dbgd import DbgdState, dbgd_step
from oltrsim.pdgd import PdgdState, pdgd_update
from oltrsim.ranking import LinearRanker, check_ranking, sample_ranking

QUERY = Query(qid="q", features=np.arange(12.0).reshape(4, 3) / 10.0, relevance=[0, 1, 2, 3])
STATE = PdgdState(LinearRanker(np.zeros(3)))


def update_with_ranking(ranking, state=STATE, query=QUERY):
    ranking = np.asarray(ranking)
    clicks = np.zeros(ranking.shape, dtype=bool)
    clicks.flat[0] = True
    return pdgd_update(state, query, Interaction(ranking=ranking, clicks=clicks))


def non_finite_update():
    # The feature difference of the one pair, 2e308, overflows to inf.
    query = Query(qid="q", features=np.array([[1e308, 0.0], [-1e308, 0.0]]), relevance=[1, 0])
    interaction = Interaction(ranking=np.array([0, 1]), clicks=np.array([True, False]))
    with np.errstate(over="ignore"):  # the step overflows to inf, which the update must refuse
        return pdgd_update(PdgdState(LinearRanker(np.zeros(2))), query, interaction)


def dbgd_step_on(state, query=QUERY, spec=click_model(PERFECT)):
    dbgd_step(state, query, spec, np.random.default_rng(0))


# dbgd_step has no non-finite case: a finite state's candidate and step add
# a unit direction, or 0.001 of it, and at the float maximum x + 1 is x.

CASES = {
    "pdgd_update duplicate ranking": (
        lambda: update_with_ranking([0, 1, 1]),
        "ranking contains duplicate indices",
    ),
    "pdgd_update ranking above range": (
        lambda: update_with_ranking([0, 1, 4]),
        "ranking index out of range",
    ),
    "pdgd_update negative ranking": (
        lambda: update_with_ranking([0, -1, 2]),
        "ranking index out of range",
    ),
    "pdgd_update float ranking": (
        lambda: update_with_ranking([0.0, 1.0, 2.0]),
        "ranking indices must be integers",
    ),
    "pdgd_update 2-D ranking": (
        lambda: update_with_ranking([[0, 1], [2, 3]]),
        "ranking must be a non-empty 1-D index array",
    ),
    "pdgd_update bool ranking": (
        lambda: update_with_ranking([True, False, True]),
        "ranking indices must be integers",
    ),
    "pdgd_update uint64 ranking above range": (
        lambda: update_with_ranking(np.array([0, 1, 4], dtype=np.uint64)),
        "ranking index out of range",
    ),
    "pdgd_update uint64 ranking past int64": (
        lambda: update_with_ranking(np.array([0, 2**64 - 1], dtype=np.uint64)),
        "ranking index out of range",
    ),
    "pdgd_update feature dimension mismatch": (
        lambda: update_with_ranking([0, 1, 2], state=PdgdState(LinearRanker(np.zeros(2)))),
        "feature dimension 3 does not match ranker dimension 2",
    ),
    "pdgd_update non-finite weights": (non_finite_update, "weights must be finite"),
    "check_ranking empty ranking": (
        lambda: check_ranking(np.array([], dtype=np.int64), 4),
        "ranking must be a non-empty 1-D index array",
    ),
    "simulate misaligned grades, cascading": (
        lambda: simulate(np.arange(3), [1, 1], click_model(PERFECT), np.random.default_rng(0)),
        "grades must align with the displayed ranking",
    ),
    "simulate misaligned grades, non-cascading": (
        lambda: simulate(np.arange(3), [1, 1], click_model(ALMOST_RANDOM_NONCASCADING), np.random.default_rng(0)),
        "grades must align with the displayed ranking",
    ),
    "simulate grade above 4": (
        lambda: simulate(np.arange(3), [1, 5, 0], click_model(PERFECT), np.random.default_rng(0)),
        "grade outside [0, 4]",
    ),
    "simulate negative grade": (
        lambda: simulate(np.arange(3), [1, -1, 0], click_model(ALMOST_RANDOM_CASCADING), np.random.default_rng(0)),
        "grade outside [0, 4]",
    ),
    "simulate fractional grades": (
        lambda: simulate(np.arange(3), [1.7, 4.9, 0.2], click_model(PERFECT), np.random.default_rng(0)),
        "grade that is not a whole number",
    ),
    "dbgd_step feature dimension mismatch": (
        lambda: dbgd_step_on(DbgdState(LinearRanker(np.zeros(2)))),
        "feature dimension 3 does not match ranker dimension 2",
    ),
    "sample_ranking empty candidates": (
        lambda: sample_ranking(LinearRanker(np.zeros(3)), np.zeros((0, 3)), np.random.default_rng(0)),
        "candidates must be a non-empty (n_docs, dim) matrix",
    ),
    "sample_ranking feature dimension mismatch": (
        lambda: sample_ranking(LinearRanker(np.zeros(2)), QUERY.features, np.random.default_rng(0)),
        "feature dimension 3 does not match ranker dimension 2",
    ),
}


@pytest.mark.parametrize("name", list(CASES))
def test_rejected_with_the_same_message(name):
    call, message = CASES[name]
    with pytest.raises(ValueError) as excinfo:
        call()
    assert str(excinfo.value) == message


def test_pdgd_update_without_clicks_skips_the_ranking_checks():
    # No clicks means no pairs, so the update returns the state before it
    # looks at the ranking: an empty ranking is never refused here.
    empty = Interaction(ranking=np.array([], dtype=np.int64), clicks=np.array([], dtype=bool))
    assert pdgd_update(STATE, QUERY, empty) is STATE


def test_a_built_query_cannot_be_emptied():
    # Query refuses a matrix without documents when it is made, and its
    # fields cannot be reassigned, so dbgd_step does not check for one.
    query = Query(qid="q", features=np.zeros((1, 3)), relevance=[0])
    with pytest.raises(FrozenInstanceError):
        query.features = np.zeros((0, 3))
    with pytest.raises(FrozenInstanceError):
        query.relevance = np.zeros(0, dtype=np.int64)
    with pytest.raises(ValueError, match=r"^query q: features must be a non-empty 2-D matrix$"):
        Query(qid="q", features=np.zeros((0, 3)), relevance=np.zeros(0, dtype=np.int64))
