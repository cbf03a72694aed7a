"""Dueling-bandit gradient descent with interleaved or oracle comparisons.

Each impression perturbs the current model along a random unit direction,
ranks the query with both models, and asks a comparator whether the
perturbed candidate is preferred.  Runs follow Hofmann et al. 2011: the
direction is drawn from the unit sphere, the interleavers show the top
``ranking.DISPLAY_CUTOFF`` = 10 (all of a shorter query), probabilistic
interleaving softens rankings with ``TAU`` = 3, the oracle compares the two
rankings' NDCG@10, and only a win for the candidate moves the weights, by
``LEARNING_RATE`` = 0.001 along the direction.

:func:`dbgd_step` makes one pass over an impression and builds each
intermediate once.  It scores both models, ranks them with the shuffle and
stable sort of :func:`ranking.rank_deterministic`, and, for probabilistic
interleaving, softens each ranking into masses ``1 / rank**TAU`` once; the
interleaving and the credit both read those two mass vectors.  It calls the
private cores that the checked public functions wrap:
:func:`_interleave_from_masses` and :func:`_infer_from_masses` for
:func:`probabilistic_interleave` and :func:`infer_preference_probabilistic`,
and :func:`_team_draft` for :func:`team_draft_interleave`.  So it skips only
their checks on the rankings, which the step has just built as
permutations of the query's documents.  It calls :func:`team_draft_infer`
and :func:`oracle_compare` themselves.

The cores give bit-identical results to drawing one number at a time and
masking the masses anew at every position:

* Every display position draws exactly one side coin and then one document
  draw, so one ``rng.random(2 * m)`` call for ``m = min(DISPLAY_CUTOFF, n)``
  positions yields the same numbers in the same order.  Team-draft draws
  one coin per round of two picks, its ``ceil(m / 2)`` coins in one call.
* Interleaving keeps a live copy of each mass vector in which the
  displayed documents are zero.  For finite masses, ``mass * True`` is
  ``mass`` and ``mass * False`` is ``0.0``, so that copy equals
  ``masses * remaining`` element for element and its running sum is the
  same.  ``TAU`` is positive and finite, so the masses are finite in
  ``[0, 1]``.  A zeroed mass adds nothing to the running sum, so
  ``searchsorted(side="right")`` of ``u * total >= 0`` never lands on a
  displayed document; only an index past the end, when ``u * total``
  rounds up to the total, needs the fallback to the last document still in
  play.
* Credit still sums the remaining masses afresh at each clicked position
  and accumulates the per-position terms in display order.  It sums with
  ``np.add.reduce``, the reduction that ``ndarray.sum`` calls.
* The oracle computes the gains and the ideal DCG@10 once and divides both
  rankings' DCGs by that one ideal: the expressions of two
  :func:`evaluation.ndcg_at_k` calls, so the same floats and the same ties.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from .clicks import ClickModelSpec, simulate
from .datasets import Query
from .evaluation import _discounts
from .ranking import DISPLAY_CUTOFF, LinearRanker, _order_by_score, sample_unit_sphere

PROBABILISTIC = "probabilistic"
TEAM_DRAFT = "team_draft"
ORACLE = "oracle"

COMPARATORS = (PROBABILISTIC, TEAM_DRAFT, ORACLE)

LEARNING_RATE = 0.001
TAU = 3.0


class ComparisonOutcome(enum.Enum):
    CURRENT = "current"
    CANDIDATE = "candidate"
    TIE = "tie"


@dataclass
class DbgdState:
    """Current model plus the comparator that judges its perturbations."""

    ranker: LinearRanker
    comparator: str = PROBABILISTIC

    def __post_init__(self):
        if self.comparator not in COMPARATORS:
            raise ValueError(f"unknown comparator {self.comparator!r}, expected one of {COMPARATORS}")


def _rank_softness(ranking: np.ndarray) -> np.ndarray:
    """Per-document mass ``1 / rank**TAU`` implied by a full ranking."""
    masses = np.empty(ranking.size)
    masses[ranking] = _softness_by_rank(ranking.size)
    return masses


@functools.cache
def _softness_by_rank(n: int) -> np.ndarray:
    """Read-only ``arange(1, n + 1) ** -TAU``: the mass of each rank in a ranking of ``n``.

    Built once per ranking length and kept, at 8 bytes per rank: a run
    keeps one table per query length of its dataset, each no larger than
    the feature matrix of a query of that length.
    """
    masses = np.arange(1, n + 1, dtype=np.float64) ** -TAU
    masses.flags.writeable = False
    return masses


def _outcome(current, candidate) -> ComparisonOutcome:
    """``CURRENT`` if ``current`` is the greater, ``CANDIDATE`` if ``candidate`` is, else ``TIE``."""
    if current > candidate:
        return ComparisonOutcome.CURRENT
    if candidate > current:
        return ComparisonOutcome.CANDIDATE
    return ComparisonOutcome.TIE


def _check_ranking_pair(r_a: np.ndarray, r_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    r_a = np.asarray(r_a)
    r_b = np.asarray(r_b)
    if r_a.size == 0 or r_b.size == 0:
        raise ValueError("rankings must be non-empty")
    if r_a.size != r_b.size or not np.array_equal(np.sort(r_a), np.sort(r_b)):
        raise ValueError("both rankings must cover the same candidate set")
    return r_a, r_b


def probabilistic_interleave(
    r_a: np.ndarray, r_b: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw a displayed list of ``min(DISPLAY_CUTOFF, n)`` by mixing rank-softened versions of two rankings.

    Each ranking is softened into a distribution with mass proportional to
    ``1 / rank**TAU``.  For every display position a fair coin picks one
    ranking, a document is drawn from its distribution renormalized over
    the not-yet-displayed documents, and that document is removed from
    both distributions.

    Returns ``(displayed, assignments)`` where ``assignments[p]`` is 0 or 1
    for the ranking whose distribution produced position ``p``.
    """
    r_a, r_b = _check_ranking_pair(r_a, r_b)
    return _interleave_from_masses(_rank_softness(r_a), _rank_softness(r_b), rng)


def _interleave_from_masses(
    mass_a: np.ndarray, mass_b: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Probabilistic interleaving of ``min(DISPLAY_CUTOFF, n)`` positions from two softened rankings' masses."""
    n = mass_a.size
    m = min(DISPLAY_CUTOFF, n)
    # Per position: the side coin, then the document draw.
    draws = rng.random(2 * m).tolist()
    live = (mass_a.copy(), mass_b.copy())  # displayed documents zeroed
    cumulative = np.empty(n)
    displayed = np.empty(m, dtype=np.int64)
    assignments = np.empty(m, dtype=np.int64)
    for pos in range(m):
        side = int(draws[2 * pos] < 0.5)
        np.add.accumulate(live[side], out=cumulative)
        # A zeroed mass leaves the running sum unchanged, so the first
        # entry above u * total >= 0 is never a displayed document.
        doc = int(cumulative.searchsorted(draws[2 * pos + 1] * cumulative[-1], side="right"))
        if doc >= n:
            # u * total can round up to exactly total; fall back to the
            # last document still in play.
            doc = int(np.flatnonzero(live[side])[-1])
        displayed[pos] = doc
        assignments[pos] = side
        live[0][doc] = 0.0
        live[1][doc] = 0.0
    return displayed, assignments


def infer_preference_probabilistic(
    displayed: np.ndarray,
    clicks: np.ndarray,
    r_a: np.ndarray,
    r_b: np.ndarray,
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
    return _infer_from_masses(displayed, clicks, _rank_softness(r_a), _rank_softness(r_b))


def _infer_from_masses(
    displayed: np.ndarray, clicks: np.ndarray, mass_a: np.ndarray, mass_b: np.ndarray
) -> ComparisonOutcome:
    """Probabilistic-interleaving credit from the two softened rankings' masses."""
    remaining = np.ones(mass_a.size, dtype=bool)
    credit_diff = 0.0
    shown = 0
    for pos in clicks.nonzero()[0].tolist():
        remaining[displayed[shown:pos]] = False
        shown = pos
        doc = displayed[pos]
        # Fresh sums keep equal-probability positions exactly tied (the
        # last displayed position in particular always contributes 0),
        # and the antisymmetric form makes swapped roles cancel exactly.
        # np.add.reduce is the reduction ndarray.sum calls, without its wrapper.
        w_a = mass_a[doc] / np.add.reduce(mass_a[remaining])
        w_b = mass_b[doc] / np.add.reduce(mass_b[remaining])
        credit_diff += (w_a - w_b) / (w_a + w_b)
    return _outcome(credit_diff, 0.0)


def team_draft_interleave(
    r_a: np.ndarray, r_b: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Alternating team picks: each side contributes its best remaining document.

    A coin decides which side picks first in each round, until
    ``min(DISPLAY_CUTOFF, n)`` documents are shown.  Returns
    ``(displayed, teams)`` with ``teams[p]`` 0 or 1 for the side that
    contributed position ``p``.
    """
    r_a, r_b = _check_ranking_pair(r_a, r_b)
    return _team_draft(r_a, r_b, rng)


def _team_draft(r_a: np.ndarray, r_b: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Team-draft interleaving of two rankings of the same documents, unchecked.

    Each round of two picks draws one coin, so the ``ceil(m / 2)`` coins of
    ``m = min(DISPLAY_CUTOFF, n)`` picks come from one ``rng.random`` call.
    A side's next pick lies within its first ``m`` entries: every entry
    before it is one of the fewer than ``m`` documents already shown.
    """
    m = min(DISPLAY_CUTOFF, r_a.size)
    teams = []
    for coin in rng.random((m + 1) // 2).tolist():
        teams += (1, 0) if coin < 0.5 else (0, 1)
    del teams[m:]
    rankings = (r_a[:m].tolist(), r_b[:m].tolist())
    pointers = [0, 0]
    used = set()
    displayed = []
    for side in teams:
        ranking = rankings[side]
        ptr = pointers[side]
        while ranking[ptr] in used:
            ptr += 1
        pointers[side] = ptr + 1
        doc = ranking[ptr]
        displayed.append(doc)
        used.add(doc)
    return np.array(displayed, dtype=np.int64), np.array(teams, dtype=np.int64)


def team_draft_infer(teams: np.ndarray, clicks: np.ndarray) -> ComparisonOutcome:
    """Compare click counts on each team's contributed documents."""
    teams = np.asarray(teams)
    clicks = np.asarray(clicks, dtype=bool)
    if teams.shape != clicks.shape:
        raise ValueError("clicks must align with the team assignments")
    credit_a = np.count_nonzero(clicks & (teams == 0))
    credit_b = np.count_nonzero(clicks & (teams == 1))
    return _outcome(credit_a, credit_b)


def oracle_compare(r_a: np.ndarray, r_b: np.ndarray, grades: np.ndarray) -> ComparisonOutcome:
    """Judge by true NDCG@``DISPLAY_CUTOFF`` on the current query; ties favor neither.

    The expressions of two :func:`evaluation.ndcg_at_k` calls, with the
    query's gains and ideal DCG computed once for both rankings.
    """
    gains = 2.0 ** np.asarray(grades) - 1.0
    ideal = np.sort(gains)[::-1][:DISPLAY_CUTOFF]
    idcg = float(ideal @ _discounts(ideal.size))
    if idcg == 0.0:
        return ComparisonOutcome.TIE
    top_a = np.asarray(r_a)[:DISPLAY_CUTOFF]
    top_b = np.asarray(r_b)[:DISPLAY_CUTOFF]
    dcg_a = float(gains[top_a] @ _discounts(top_a.size))
    dcg_b = float(gains[top_b] @ _discounts(top_b.size))
    return _outcome(dcg_a / idcg, dcg_b / idcg)


def dbgd_step(state: DbgdState, query: Query, click_spec: ClickModelSpec, rng: np.random.Generator) -> DbgdState:
    """One impression of perturb, compare, and conditionally update.

    Draws, in order: the direction, the tie-breaking shuffle of the current
    model's ranking and then the candidate's, the interleaving, the clicks.
    The oracle comparator draws no interleaving and no clicks, so it never
    reads ``click_spec``.
    """
    direction = sample_unit_sphere(state.ranker.dim, rng)
    features = query.features
    ranking_current = _order_by_score(state.ranker.score_all(features), rng)
    ranking_candidate = _order_by_score(features @ (state.ranker.weights + direction), rng)

    if state.comparator == ORACLE:
        outcome = oracle_compare(ranking_current, ranking_candidate, query.relevance)
    elif state.comparator == PROBABILISTIC:
        mass_current = _rank_softness(ranking_current)
        mass_candidate = _rank_softness(ranking_candidate)
        displayed, _ = _interleave_from_masses(mass_current, mass_candidate, rng)
        interaction = simulate(displayed, query.relevance[displayed], click_spec, rng)
        outcome = _infer_from_masses(displayed, interaction.clicks, mass_current, mass_candidate)
    else:
        displayed, teams = _team_draft(ranking_current, ranking_candidate, rng)
        interaction = simulate(displayed, query.relevance[displayed], click_spec, rng)
        outcome = team_draft_infer(teams, interaction.clicks)

    if outcome is not ComparisonOutcome.CANDIDATE:
        return state
    return DbgdState(LinearRanker(state.ranker.weights + LEARNING_RATE * direction), state.comparator)
