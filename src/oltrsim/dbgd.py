"""Dueling-bandit gradient descent with interleaved or oracle comparisons.

Each impression perturbs the current model along a random unit direction,
ranks the query with both models, and asks a comparator whether the
perturbed candidate is preferred.  Only a win for the candidate moves the
weights, by ``learning_rate * sphere_radius`` along the perturbation.

:func:`dbgd_step` makes one pass over an impression and builds each
intermediate once.  It scores both models, ranks them with the shuffle and
stable sort of :func:`ranking.rank_deterministic`, and, for probabilistic
interleaving, softens each ranking into masses ``1 / rank**tau`` once; the
interleaving and the credit both read those two mass vectors.  It calls the
private cores that :func:`probabilistic_interleave` and
:func:`infer_preference_probabilistic` wrap, so it skips only their checks
on the rankings, which the step has just built as permutations of the
query's documents.

The cores give bit-identical results to drawing one number at a time and
masking the masses anew at every position:

* Every display position draws exactly one side coin and then one document
  draw, so one ``rng.random(2 * m)`` call yields the same numbers in the
  same order.
* Interleaving keeps a live copy of each mass vector in which the
  displayed documents are zero.  For finite masses, ``mass * True`` is
  ``mass`` and ``mass * False`` is ``0.0``, so that copy equals
  ``masses * remaining`` element for element and its running sum is the
  same.  ``DbgdState`` refuses a non-finite ``tau`` (runs use the fixed
  tau = 3), so the masses are finite in ``[0, 1]``.
* Credit still sums the remaining masses afresh at each clicked position
  and accumulates the per-position terms in display order.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .clicks import ClickModelSpec, simulate
from .datasets import Query
from .evaluation import ndcg_at_k
from .ranking import LinearRanker, _order_by_score, sample_unit_sphere

PROBABILISTIC = "probabilistic"
TEAM_DRAFT = "team_draft"
ORACLE = "oracle"

COMPARATORS = (PROBABILISTIC, TEAM_DRAFT, ORACLE)


class ComparisonOutcome(enum.Enum):
    CURRENT = "current"
    CANDIDATE = "candidate"
    TIE = "tie"


@dataclass
class DbgdState:
    """Current model plus the exploration and update hyperparameters."""

    ranker: LinearRanker
    learning_rate: float = 0.001
    sphere_radius: float = 1.0
    comparator: str = PROBABILISTIC
    tau: float = 3.0

    def __post_init__(self):
        for name in ("learning_rate", "sphere_radius", "tau"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if self.comparator not in COMPARATORS:
            raise ValueError(f"unknown comparator {self.comparator!r}, expected one of {COMPARATORS}")


def _rank_softness(ranking: np.ndarray, tau: float) -> np.ndarray:
    """Per-document mass ``1 / rank**tau`` implied by a full ranking."""
    n = ranking.size
    ranks = np.empty(n)
    ranks[ranking] = np.arange(1, n + 1)
    return ranks**-tau


def _check_ranking_pair(r_a: np.ndarray, r_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    r_a = np.asarray(r_a)
    r_b = np.asarray(r_b)
    if r_a.size == 0 or r_b.size == 0:
        raise ValueError("rankings must be non-empty")
    if r_a.size != r_b.size or not np.array_equal(np.sort(r_a), np.sort(r_b)):
        raise ValueError("both rankings must cover the same candidate set")
    return r_a, r_b


def probabilistic_interleave(
    r_a: np.ndarray,
    r_b: np.ndarray,
    k: int,
    rng: np.random.Generator,
    tau: float = 3.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw a displayed list by mixing rank-softened versions of two rankings.

    Each ranking is softened into a distribution with mass proportional to
    ``1 / rank**tau``.  For every display position a fair coin picks one
    ranking, a document is drawn from its distribution renormalized over
    the not-yet-displayed documents, and that document is removed from
    both distributions.

    Returns ``(displayed, assignments)`` where ``assignments[p]`` is 0 or 1
    for the ranking whose distribution produced position ``p``.
    """
    r_a, r_b = _check_ranking_pair(r_a, r_b)
    if k < 1:
        raise ValueError("k must be >= 1")
    return _interleave_from_masses(_rank_softness(r_a, tau), _rank_softness(r_b, tau), min(k, r_a.size), rng)


def _interleave_from_masses(
    mass_a: np.ndarray, mass_b: np.ndarray, m: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Probabilistic interleaving of ``m`` positions from two softened rankings' masses."""
    n = mass_a.size
    # Per position: the side coin, then the document draw.
    draws = rng.random(2 * m).tolist()
    live = (mass_a.copy(), mass_b.copy())  # displayed documents zeroed
    remaining = np.ones(n, dtype=bool)
    cumulative = np.empty(n)
    displayed = np.empty(m, dtype=np.int64)
    assignments = np.empty(m, dtype=np.int64)
    for pos in range(m):
        side = int(draws[2 * pos] < 0.5)
        np.add.accumulate(live[side], out=cumulative)
        doc = int(cumulative.searchsorted(draws[2 * pos + 1] * cumulative[-1], side="right"))
        if doc >= n or not remaining[doc]:
            # u * total can round up to exactly total; fall back to the
            # last document still in play.
            doc = int(np.flatnonzero(remaining)[-1])
        displayed[pos] = doc
        assignments[pos] = side
        remaining[doc] = False
        live[0][doc] = 0.0
        live[1][doc] = 0.0
    return displayed, assignments


def infer_preference_probabilistic(
    displayed: np.ndarray,
    clicks: np.ndarray,
    r_a: np.ndarray,
    r_b: np.ndarray,
    tau: float = 3.0,
) -> ComparisonOutcome:
    """Expected click-credit comparison, marginalized over coin assignments.

    Every assignment sequence that could have produced the displayed list
    is weighted by its posterior probability; a ranking's credit is the
    number of clicked positions assigned to it.  Because the candidate
    pool at each position depends only on the displayed prefix, the
    posterior factorizes per position, so the expectation is computed in
    closed form rather than by enumerating all ``2**m`` sequences.

    Zero expected credit difference (including no clicks at all) is a tie.
    """
    r_a, r_b = _check_ranking_pair(r_a, r_b)
    displayed = np.asarray(displayed)
    clicks = np.asarray(clicks, dtype=bool)
    if clicks.shape != displayed.shape:
        raise ValueError("clicks must align with the displayed list")
    return _infer_from_masses(displayed, clicks, _rank_softness(r_a, tau), _rank_softness(r_b, tau))


def _infer_from_masses(
    displayed: np.ndarray, clicks: np.ndarray, mass_a: np.ndarray, mass_b: np.ndarray
) -> ComparisonOutcome:
    """Probabilistic-interleaving credit from the two softened rankings' masses."""
    remaining = np.ones(mass_a.size, dtype=bool)
    credit_diff = 0.0
    shown = 0
    for pos in np.flatnonzero(clicks):
        remaining[displayed[shown:pos]] = False
        shown = pos
        doc = displayed[pos]
        # Fresh sums keep equal-probability positions exactly tied (the
        # last displayed position in particular always contributes 0),
        # and the antisymmetric form makes swapped roles cancel exactly.
        w_a = mass_a[doc] / mass_a[remaining].sum()
        w_b = mass_b[doc] / mass_b[remaining].sum()
        credit_diff += (w_a - w_b) / (w_a + w_b)
    if credit_diff > 0:
        return ComparisonOutcome.CURRENT
    if credit_diff < 0:
        return ComparisonOutcome.CANDIDATE
    return ComparisonOutcome.TIE


def team_draft_interleave(
    r_a: np.ndarray,
    r_b: np.ndarray,
    k: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Alternating team picks: each side contributes its best remaining document.

    A coin decides which side picks first in each round.  Returns
    ``(displayed, teams)`` with ``teams[p]`` 0 or 1 for the side that
    contributed position ``p``.
    """
    r_a, r_b = _check_ranking_pair(r_a, r_b)
    n = r_a.size
    if k < 1:
        raise ValueError("k must be >= 1")
    m = min(k, n)
    rankings = (r_a, r_b)
    pointers = [0, 0]
    used = np.zeros(n, dtype=bool)
    displayed = np.empty(m, dtype=np.int64)
    teams = np.empty(m, dtype=np.int64)
    filled = 0
    while filled < m:
        first = int(rng.random() < 0.5)
        for side in (first, 1 - first):
            if filled == m:
                break
            ranking = rankings[side]
            ptr = pointers[side]
            while used[ranking[ptr]]:
                ptr += 1
            pointers[side] = ptr
            doc = ranking[ptr]
            displayed[filled] = doc
            teams[filled] = side
            used[doc] = True
            filled += 1
    return displayed, teams


def team_draft_infer(teams: np.ndarray, clicks: np.ndarray) -> ComparisonOutcome:
    """Compare click counts on each team's contributed documents."""
    teams = np.asarray(teams)
    clicks = np.asarray(clicks, dtype=bool)
    if teams.shape != clicks.shape:
        raise ValueError("clicks must align with the team assignments")
    credit_a = int(np.sum(clicks & (teams == 0)))
    credit_b = int(np.sum(clicks & (teams == 1)))
    if credit_a > credit_b:
        return ComparisonOutcome.CURRENT
    if credit_b > credit_a:
        return ComparisonOutcome.CANDIDATE
    return ComparisonOutcome.TIE


def oracle_compare(r_a: np.ndarray, r_b: np.ndarray, grades: np.ndarray, k: int = 10) -> ComparisonOutcome:
    """Judge by true NDCG@k on the current query; ties favor neither."""
    ndcg_a = ndcg_at_k(r_a, grades, k)
    ndcg_b = ndcg_at_k(r_b, grades, k)
    if ndcg_a > ndcg_b:
        return ComparisonOutcome.CURRENT
    if ndcg_b > ndcg_a:
        return ComparisonOutcome.CANDIDATE
    return ComparisonOutcome.TIE


def dbgd_step(
    state: DbgdState,
    query: Query,
    click_spec: ClickModelSpec | None,
    rng: np.random.Generator,
    k: int = 10,
) -> DbgdState:
    """One impression of perturb, compare, and conditionally update.

    Draws, in order: the direction, the tie-breaking shuffle of the current
    model's ranking and then the candidate's, the interleaving, the clicks.
    """
    if query.n_docs < 1:
        raise ValueError("query has no documents")
    direction = sample_unit_sphere(state.ranker.dim, rng)
    candidate = LinearRanker(state.ranker.weights + state.sphere_radius * direction)
    features = query.features
    ranking_current = _order_by_score(state.ranker.score_all(features), rng)
    ranking_candidate = _order_by_score(features @ candidate.weights, rng)

    if state.comparator == ORACLE:
        outcome = oracle_compare(ranking_current, ranking_candidate, query.relevance, k)
    else:
        if click_spec is None:
            raise ValueError(f"comparator {state.comparator!r} needs a click model")
        if state.comparator == PROBABILISTIC:
            if k < 1:
                raise ValueError("k must be >= 1")
            mass_current = _rank_softness(ranking_current, state.tau)
            mass_candidate = _rank_softness(ranking_candidate, state.tau)
            displayed, _ = _interleave_from_masses(mass_current, mass_candidate, min(k, query.n_docs), rng)
            interaction = simulate(displayed, query.relevance[displayed], click_spec, rng)
            outcome = _infer_from_masses(displayed, interaction.clicks, mass_current, mass_candidate)
        else:
            displayed, teams = team_draft_interleave(ranking_current, ranking_candidate, k, rng)
            interaction = simulate(displayed, query.relevance[displayed], click_spec, rng)
            outcome = team_draft_infer(teams, interaction.clicks)

    if outcome is not ComparisonOutcome.CANDIDATE:
        return state
    step = state.learning_rate * state.sphere_radius * direction
    return replace(state, ranker=LinearRanker(state.ranker.weights + step))
