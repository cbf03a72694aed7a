"""Ranking quality metrics and statistical comparison of run outcomes.

Only :func:`welch_t_test` needs scipy, and it imports ``scipy.special``
when it is called: runs, which evaluate but never compare, load no scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datasets import Query
from .ranking import LinearRanker, rank_deterministic

# Fixed stream for tie-breaking during held-out evaluation, so repeated
# evaluations of the same model return identical values.
EVAL_TIE_SEED = 271828


@dataclass
class MetricTrace:
    """Held-out NDCG@10 measured at increasing impression counts."""

    impressions: np.ndarray
    ndcg: np.ndarray

    def __post_init__(self):
        self.impressions = np.asarray(self.impressions, dtype=np.int64)
        self.ndcg = np.asarray(self.ndcg, dtype=np.float64)
        if self.impressions.shape != self.ndcg.shape or self.impressions.ndim != 1:
            raise ValueError("impressions and ndcg must be 1-D and aligned")
        if self.impressions.size and np.any(np.diff(self.impressions) <= 0):
            raise ValueError("impression counts must be strictly increasing")
        # Written so that NaN, which fails every comparison, is refused too.
        outside = self.ndcg[~((self.ndcg >= 0.0) & (self.ndcg <= 1.0))]
        if outside.size:
            raise ValueError(f"ndcg values must lie in [0, 1], got {float(outside[0])!r}")

    def checkpoints(self) -> list[tuple[int, float]]:
        return [(int(i), float(v)) for i, v in zip(self.impressions, self.ndcg)]

    @property
    def final(self) -> float:
        if self.ndcg.size == 0:
            raise ValueError("empty trace")
        return float(self.ndcg[-1])


_DISCOUNTS = 1.0 / np.log2(np.arange(2, 2 + 64))


def _discounts(length: int) -> np.ndarray:
    global _DISCOUNTS
    if length > _DISCOUNTS.size:
        _DISCOUNTS = 1.0 / np.log2(np.arange(2, 2 + 2 * length))
    return _DISCOUNTS[:length]


def ndcg_at_k(ranking: np.ndarray, grades: np.ndarray, k: int = 10) -> float:
    """NDCG@k with gains ``2**grade - 1`` and discounts ``log2(rank + 1)``.

    ``grades`` covers the whole candidate set; the ideal ranking is the
    best achievable over all candidates, not just the displayed ones.
    Returns 0 when every candidate has grade 0.
    """
    grades = np.asarray(grades)
    ranking = np.asarray(ranking)[:k]
    gains = 2.0 ** grades - 1.0
    ideal = np.sort(gains)[::-1][:k]
    idcg = float(ideal @ _discounts(ideal.size))
    if idcg == 0.0:
        return 0.0
    dcg = float(gains[ranking] @ _discounts(ranking.size))
    return dcg / idcg


def evaluate_heldout(ranker: LinearRanker, test: list[Query], k: int = 10) -> float:
    """Mean NDCG@k of the ranker's deterministic rankings over test queries.

    Tie-breaking uses a fixed internal seed, so the result is a pure
    function of the ranker and the test set.
    """
    if not test:
        raise ValueError("test set is empty")
    rng = np.random.default_rng(EVAL_TIE_SEED)
    total = 0.0
    for q in test:
        ranking = rank_deterministic(ranker, q.features, k, rng)
        total += ndcg_at_k(ranking, q.relevance, k)
    return total / len(test)


def welch_t_test(a, b) -> tuple[float, float]:
    """Two-sided Welch (unequal-variance) t-test.

    Returns ``(t_statistic, p_value)``.  Degenerate zero-variance inputs
    yield ``t = 0, p = 1`` for equal means and ``t = ±inf, p = 0``
    otherwise.  For other inputs ``p`` is ``2 * stdtr(dof, -|t|)`` capped
    at 1, the same float as ``2 * scipy.stats.t.sf(|t|, dof)``.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size < 2 or b.size < 2:
        raise ValueError("welch_t_test needs at least 2 samples per side")
    va = a.var(ddof=1) / a.size
    vb = b.var(ddof=1) / b.size
    diff = a.mean() - b.mean()
    denom_sq = va + vb
    if denom_sq == 0.0:
        if diff == 0.0:
            return 0.0, 1.0
        return float(np.copysign(np.inf, diff)), 0.0
    t = diff / np.sqrt(denom_sq)
    dof = denom_sq**2 / (va**2 / (a.size - 1) + vb**2 / (b.size - 1))
    # Imported here so that runs, which never compare, load no scipy.
    from scipy.special import stdtr

    p = 2.0 * float(stdtr(dof, -abs(t)))
    return float(t), min(p, 1.0)
