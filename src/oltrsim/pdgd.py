"""Pairwise differentiable gradient descent over sampled rankings.

Each impression displays the top ``ranking.DISPLAY_CUTOFF`` = 10 (all of a
shorter query) of a ranking sampled from the model's Plackett-Luce
distribution.  Clicks are turned into pairwise preferences between clicked
and observed-but-unclicked documents, each weighted to cancel the bias the
displayed ordering introduces, and the model takes one gradient step along
the weighted sum of feature differences.

The pairs of one interaction are a ``PreferencePairs``: two aligned arrays
of display positions, clicked and unclicked, so that an update works on
all of them at once.  The debiasing weights come from swap-index and span
tables built once per display list length, and the weights and
the pair preferences go through one sigmoid call (``_pair_weights``).

Runs take steps of ``LEARNING_RATE`` = 0.1 (Oosterhuis & de Rijke 2018).
A run's impression (``_pdgd_step``) scores the query once to sample the
list and draws the clicks unchecked, but still calls ``pdgd_update`` once
per impression, so that its checks run (the ranking's indices, the feature
dimension, finite weights) and a caller that wraps it sees every model the
run learns.  ``pdgd_update`` scores the query again (about 2 us) until one
run engine passes the scores on.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .clicks import ClickModelSpec, Interaction, _draw_clicks
from .datasets import Query
from .ranking import LinearRanker, _sample_from_scores, check_ranking, sigmoid

LEARNING_RATE = 0.1


@dataclass
class PdgdState:
    """The model's weights."""

    ranker: LinearRanker


@dataclass(eq=False)
class PreferencePairs:
    """Preference pairs as position arrays: ``clicked[p]`` is preferred over ``unclicked[p]``.

    Positions index the displayed list.  ``len()`` is the number of pairs,
    so an interaction without pairs is falsy.
    """

    clicked: np.ndarray
    unclicked: np.ndarray

    def __len__(self) -> int:
        return self.clicked.size


def infer_pairwise_preferences(interaction: Interaction) -> PreferencePairs:
    """Pairs of (clicked, observed-and-unclicked) display positions.

    A document counts as observed if it precedes a clicked document or
    immediately follows the last click.  No clicks means no pairs.  Pairs
    are in clicked-major order: every unclicked position for the first
    click, then for the next one.  A clicked and an unclicked position are
    always distinct and non-negative.
    """
    clicks = np.asarray(interaction.clicks, dtype=bool)
    clicked = clicks.nonzero()[0]
    if clicked.size == 0:
        return PreferencePairs(clicked, clicked)
    unclicked = (~clicks[: clicked[-1] + 2]).nonzero()[0]
    return PreferencePairs(
        clicked.repeat(unclicked.size),
        unclicked[None, :].repeat(clicked.size, axis=0).ravel(),
    )


@functools.cache
def _pair_tables(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only tables indexed by a pair of display positions ``[i, j]``, for lists of ``m``.

    ``swap[i, j]`` is ``arange(m)`` with entries ``i`` and ``j`` exchanged,
    and ``span[i, j]`` marks the positions ``p`` with
    ``min(i, j) < p <= max(i, j)``.  Both are symmetric in ``i`` and ``j``.
    Each size is built once and cached; a table holds ``m**3`` entries,
    9 KB for a full display of ``DISPLAY_CUTOFF`` = 10.
    """
    pos = np.arange(m)
    i, j = np.meshgrid(pos, pos, indexing="ij")
    swap = np.broadcast_to(pos, (m, m, m)).copy()
    swap[i, j, i] = j
    swap[i, j, j] = i
    span = (pos > np.minimum(i, j)[..., None]) & (pos <= np.maximum(i, j)[..., None])
    swap.flags.writeable = False
    span.flags.writeable = False
    return swap, span


def _pair_weights(
    scores: np.ndarray,
    displayed: np.ndarray,
    clicked_pos: np.ndarray,
    unclicked_pos: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per pair, the debiasing weight and the model's preference, from one sigmoid.

    The weight is ``rho = P(R*) / (P(R) + P(R*))`` with ``R*`` the displayed
    ranking with the pair's positions swapped, that is the sigmoid of
    ``log P(R*) - log P(R)``; the preference is ``P(i > j) = sigmoid(s_i - s_j)``
    for the documents at those positions.

    Swapping two display positions keeps the displayed document set and its
    numerator product, so only the sequential denominators strictly between
    the earlier slot (exclusive) and the later slot (inclusive) differ.
    Denominators are suffix sums of positive masses (never differences), so
    widely spread scores cannot cancel them into zero or negative values.
    Every denominator is at least the undisplayed mass ``tail``; only when
    that is 0 (every document displayed, or every undisplayed mass
    underflowed) can one be 0.  Then the last one is 0, and the logs of
    both rows of denominators are taken as log-sum-exp suffixes of the
    displayed scores instead, which stay finite.
    """
    m = displayed.size
    exp_scores = np.exp(scores - scores.max())
    placed = exp_scores[displayed]
    is_displayed = np.zeros(exp_scores.size, dtype=bool)
    is_displayed[displayed] = True
    tail = exp_scores[~is_displayed].sum()
    denoms = tail + placed[::-1].cumsum()[::-1]

    swap, span = _pair_tables(m)
    swapped = swap[clicked_pos, unclicked_pos]
    placed_star = placed[swapped]
    denoms_star = tail + placed_star[:, ::-1].cumsum(axis=1)[:, ::-1]
    placed_scores = scores[displayed]
    if tail == 0 and not (denoms[-1] and denoms_star[:, -1].all()):
        shifted = placed_scores - scores.max()
        log_denoms = np.logaddexp.accumulate(shifted[::-1])[::-1]
        log_denoms_star = np.logaddexp.accumulate(shifted[swapped][:, ::-1], axis=1)[:, ::-1]
        log_ratio = log_denoms - log_denoms_star
    else:
        log_ratio = np.log(denoms) - np.log(denoms_star)
    log_odds = np.where(span[clicked_pos, unclicked_pos], log_ratio, 0.0).sum(axis=1)

    margin = placed_scores[clicked_pos] - placed_scores[unclicked_pos]
    both = sigmoid(np.concatenate((log_odds, margin)))
    return both[: log_odds.size], both[log_odds.size :]


def pdgd_update(state: PdgdState, query: Query, interaction: Interaction) -> PdgdState:
    """One gradient step from the preferences inferred in an interaction.

    Each pair contributes ``rho * P(i>j) * P(j>i) * (d_i - d_j)``; with no
    clicks the state is returned unchanged, before the ranking is checked.
    """
    pairs = infer_pairwise_preferences(interaction)
    if not pairs:
        return state

    displayed = check_ranking(interaction.ranking, query.n_docs)
    scores = state.ranker.score_all(query.features)
    rho, p_ij = _pair_weights(scores, displayed, pairs.clicked, pairs.unclicked)
    pair_scale = rho * p_ij * (1.0 - p_ij)

    placed = query.features[displayed]
    diffs = placed[pairs.clicked] - placed[pairs.unclicked]
    gradient = pair_scale @ diffs
    return PdgdState(LinearRanker(state.ranker.weights + LEARNING_RATE * gradient))


def _pdgd_step(state: PdgdState, query: Query, click_spec: ClickModelSpec, rng: np.random.Generator) -> PdgdState:
    """One PDGD impression: sample a top-``DISPLAY_CUTOFF`` list, draw its clicks, update.

    Draws and returns what ``sample_ranking``, ``clicks.simulate`` and
    ``pdgd_update`` would in turn, but scores the query once for the sample
    and skips the first two's checks: the run's dataset fixed the feature
    dimension and the grades.  ``pdgd_update`` is looked up as a module
    global at every call, so its checks run and a wrapper of it sees every
    update.
    """
    displayed = _sample_from_scores(query.features @ state.ranker.weights, rng)
    clicked = _draw_clicks(click_spec.prob_array[query.relevance[displayed]], click_spec, rng)
    return pdgd_update(state, query, Interaction(displayed, clicked))
