"""Every per-impression function still refuses bad input, with the same message.

The messages are compared exactly, so a check that is made cheaper must
still fire on the same input and say the same thing.
"""

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
from oltrsim.ranking import LinearRanker, sample_ranking

QUERY = Query(qid="q", features=np.arange(12.0).reshape(4, 3) / 10.0, relevance=[0, 1, 2, 3])
STATE = PdgdState(LinearRanker(np.zeros(3)))


def update_with_ranking(ranking):
    clicks = np.zeros(len(ranking), dtype=bool)
    clicks[0] = True
    return pdgd_update(STATE, QUERY, Interaction(ranking=np.asarray(ranking), clicks=clicks))


def non_finite_update():
    state = PdgdState(LinearRanker(np.zeros(2)), learning_rate=1e308)
    query = Query(qid="q", features=np.array([[8.0, 0.0], [-8.0, 0.0]]), relevance=[1, 0])
    with np.errstate(over="ignore"):  # the step overflows to inf, which the update must refuse
        return pdgd_update(state, query, Interaction(ranking=np.array([0, 1]), clicks=np.array([True, False])))


def dbgd_step_on(state, query=QUERY, spec=click_model(PERFECT), k=10, seeds=1):
    """Run one step per seed; with several seeds, until one of them raises."""
    with np.errstate(over="ignore", invalid="ignore"):  # overflowing steps are what is refused
        for seed in range(seeds):
            dbgd_step(state, query, spec, np.random.default_rng(seed), k)


def query_without_documents():
    query = Query(qid="q", features=np.zeros((1, 3)), relevance=[0])
    query.features, query.relevance = np.zeros((0, 3)), np.zeros(0, dtype=np.int64)
    return query


# With seed 0 a one-dimensional direction is +1, so the candidate overflows.
HUGE_CANDIDATE = DbgdState(LinearRanker([1e308]), sphere_radius=1e308, comparator="oracle")
# The candidate is finite but a winning step of 1e308 * 1e308 is not; the
# oracle prefers the candidate whenever it puts the grade-4 document first
# and the tied current model did not.
HUGE_STEP = DbgdState(LinearRanker([0.0]), learning_rate=1e308, sphere_radius=1e308, comparator="oracle")
TWO_DOCS = Query(qid="q", features=[[1.0], [-1.0]], relevance=[4, 0])

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
    "pdgd_update non-finite weights": (non_finite_update, "weights must be finite"),
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
    "dbgd_step query without documents": (
        lambda: dbgd_step_on(DbgdState(LinearRanker(np.zeros(3))), query_without_documents()),
        "query has no documents",
    ),
    "dbgd_step feature dimension mismatch": (
        lambda: dbgd_step_on(DbgdState(LinearRanker(np.zeros(2)))),
        "feature dimension 3 does not match ranker dimension 2",
    ),
    "dbgd_step non-finite candidate": (
        lambda: dbgd_step_on(HUGE_CANDIDATE, TWO_DOCS),
        "weights must be finite",
    ),
    "dbgd_step non-finite update": (
        lambda: dbgd_step_on(HUGE_STEP, TWO_DOCS, seeds=20),
        "weights must be finite",
    ),
    "dbgd_step probabilistic without click model": (
        lambda: dbgd_step_on(DbgdState(LinearRanker(np.zeros(3))), spec=None),
        "comparator 'probabilistic' needs a click model",
    ),
    "dbgd_step team draft without click model": (
        lambda: dbgd_step_on(DbgdState(LinearRanker(np.zeros(3)), comparator="team_draft"), spec=None),
        "comparator 'team_draft' needs a click model",
    ),
    "dbgd_step probabilistic k < 1": (
        lambda: dbgd_step_on(DbgdState(LinearRanker(np.zeros(3))), k=0),
        "k must be >= 1",
    ),
    "dbgd_step team draft k < 1": (
        lambda: dbgd_step_on(DbgdState(LinearRanker(np.zeros(3)), comparator="team_draft"), k=0),
        "k must be >= 1",
    ),
    "sample_ranking empty candidates": (
        lambda: sample_ranking(LinearRanker(np.zeros(3)), np.zeros((0, 3)), 10, np.random.default_rng(0)),
        "candidates must be a non-empty (n_docs, dim) matrix",
    ),
}


@pytest.mark.parametrize("name", list(CASES))
def test_rejected_with_the_same_message(name):
    call, message = CASES[name]
    with pytest.raises(ValueError) as excinfo:
        call()
    assert str(excinfo.value) == message
