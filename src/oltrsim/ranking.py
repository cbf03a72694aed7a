"""Linear ranking models, deterministic ranking and Plackett-Luce sampling.

Every displayed list holds the top ``DISPLAY_CUTOFF`` = 10 documents, or
all of a shorter query's (Hofmann et al. 2011; Oosterhuis & de Rijke
2018).  No function takes the length: :func:`sample_ranking` and the
interleavers of :mod:`oltrsim.dbgd` show ``min(DISPLAY_CUTOFF, n)``
documents, and :func:`rank_deterministic` returns the whole order, which
held-out evaluation cuts to the metric's own top 10.

All randomized operations take an explicit ``numpy.random.Generator`` so
that every caller controls its own stream; the functions themselves hold
no state and are safe to use from multiple threads as long as each thread
owns its generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DISPLAY_CUTOFF = 10


@dataclass
class LinearRanker:
    """Linear scoring model: a document ``d`` scores ``weights @ d``."""

    weights: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.ndim != 1:
            raise ValueError("weights must be a 1-D vector")
        if not np.logical_and.reduce(np.isfinite(self.weights)):
            raise ValueError("weights must be finite")

    @property
    def dim(self) -> int:
        return self.weights.shape[0]

    def score_all(self, features: np.ndarray) -> np.ndarray:
        """Score every row of an ``(n_docs, dim)`` feature matrix."""
        features = np.asarray(features, dtype=np.float64)
        if features.shape[-1] != self.dim:
            raise ValueError(
                f"feature dimension {features.shape[-1]} does not match "
                f"ranker dimension {self.dim}"
            )
        return features @ self.weights


def zero_ranker(dim: int) -> LinearRanker:
    """Zero-initialized model, the standard starting point for online runs."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    return LinearRanker(np.zeros(dim))


def _check_candidates(candidates: np.ndarray) -> np.ndarray:
    candidates = np.asarray(candidates, dtype=np.float64)
    if candidates.ndim != 2 or candidates.shape[0] == 0:
        raise ValueError("candidates must be a non-empty (n_docs, dim) matrix")
    return candidates


def check_ranking(ranking: np.ndarray, n_docs: int) -> np.ndarray:
    """Validate a ranking: distinct integer indices into a candidate set."""
    ranking = np.asarray(ranking)
    if ranking.ndim != 1 or ranking.size == 0:
        raise ValueError("ranking must be a non-empty 1-D index array")
    if ranking.dtype.kind not in "iu":
        raise ValueError("ranking indices must be integers")
    # A display list is short: Python's min, max and set on its indices
    # beat numpy's reductions and an n_docs-long mask.
    indices = ranking.tolist()
    if min(indices) < 0 or max(indices) >= n_docs:
        raise ValueError("ranking index out of range")
    if len(set(indices)) != len(indices):
        raise ValueError("ranking contains duplicate indices")
    return ranking


def rank_deterministic(ranker: LinearRanker, candidates: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Every document by descending score, random tie-breaking.

    Ties are broken by shuffling the candidates uniformly before a stable
    sort, so equal-scored documents appear in uniformly random relative
    order.  Zero-initialized models therefore produce uniformly random
    rankings instead of a frozen one.
    """
    return _order_by_score(ranker.score_all(_check_candidates(candidates)), rng)


def _order_by_score(scores: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Every index of ``scores`` by descending score, ties in uniformly random order.

    The shuffle-then-stable-sort of :func:`rank_deterministic`, without its
    checks, for callers that built ``scores`` themselves.
    """
    perm = rng.permutation(scores.shape[0])
    return perm.take((-scores.take(perm)).argsort(kind="stable"))


def sample_ranking(ranker: LinearRanker, candidates: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Sample a top-``min(DISPLAY_CUTOFF, n)`` ranking from the model's Plackett-Luce distribution.

    Sequentially draws documents without replacement, each with probability
    ``exp(score) / sum(exp(score) over remaining documents)``.  Implemented
    with the Gumbel-max trick (argsort of score + Gumbel noise), which
    realizes exactly that sequential distribution in one vectorized pass
    and is stable for unbounded scores.
    """
    return _sample_from_scores(ranker.score_all(_check_candidates(candidates)), rng)


def _sample_from_scores(scores: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """The Plackett-Luce top-``min(DISPLAY_CUTOFF, n)`` of :func:`sample_ranking`, without its checks.

    For callers that built ``scores`` themselves.
    """
    return (-(scores + rng.gumbel(size=scores.shape[0]))).argsort()[:DISPLAY_CUTOFF]


def sigmoid(x):
    """Numerically stable logistic function, elementwise.

    ``1 / (1 + e)`` for ``x >= 0`` and ``e / (1 + e)`` below, with
    ``e = exp(-|x|)`` in [0, 1], so no exponential can overflow.
    """
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def sample_unit_sphere(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Uniformly random direction on the unit sphere in ``dim`` dimensions."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    while True:
        v = rng.normal(size=dim)
        norm = math.sqrt(v @ v)
        if norm > 0:
            return v / norm
