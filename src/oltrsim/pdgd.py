"""Pairwise differentiable gradient descent over sampled rankings.

Each impression displays the top ``ranking.DISPLAY_CUTOFF`` = 10 (all of a
shorter query) of a ranking sampled from the model's Plackett-Luce
distribution.  Clicks are turned into pairwise preferences between clicked
and observed-but-unclicked documents, each weighted to cancel the bias the
displayed ordering introduces, and the model takes one gradient step along
the weighted sum of feature differences.

The pairs of one interaction are a ``PreferencePairs``: two aligned arrays
of display positions, clicked and unclicked, so that an update works on
all of them at once.  They depend on the click vector alone, so each
vector's pairs, with their rows in the pair tables, are built once and
kept in a cache bounded by the ``2 ** (DISPLAY_CUTOFF + 1) - 2`` = 2,046
click vectors a run can display, about 1 KB each.  The debiasing weights come from
swap-index and span tables built once per display list length, one
contiguous row per pair, and the weights and the pair preferences go
through one sigmoid call (``_pair_weights``).

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
from .ranking import DISPLAY_CUTOFF, LinearRanker, _sample_from_scores, check_ranking, sigmoid

LEARNING_RATE = 0.1


@dataclass
class PdgdState:
    """The model's weights."""

    ranker: LinearRanker


@dataclass(frozen=True, eq=False, slots=True)
class PreferencePairs:
    """Preference pairs as position arrays: ``clicked[p]`` is preferred over ``unclicked[p]``.

    Positions index the displayed list.  ``rows`` are rows of the tables of
    ``_pair_tables(m)`` for a list of ``m``: ``rows[0]`` is 0, the row of
    the pair ``(0, 0)``, whose swap leaves the list as displayed, and
    ``rows[1 + p]`` is ``clicked[p] * m + unclicked[p]``, the row of pair
    ``p``.  ``len()`` is the number of pairs, so an interaction without
    pairs is falsy.
    """

    clicked: np.ndarray
    unclicked: np.ndarray
    rows: np.ndarray

    def __len__(self) -> int:
        return self.clicked.size


def infer_pairwise_preferences(interaction: Interaction) -> PreferencePairs:
    """Pairs of (clicked, observed-and-unclicked) display positions.

    A document counts as observed if it precedes a clicked document or
    immediately follows the last click.  No clicks means no pairs.  Pairs
    are in clicked-major order: every unclicked position for the first
    click, then for the next one.  A clicked and an unclicked position are
    always distinct and non-negative.  The pairs of a click vector are
    built once and shared, so their arrays are read-only.
    """
    return _pairs_of_clicks(np.asarray(interaction.clicks, dtype=bool).tobytes())


@functools.lru_cache(maxsize=2 ** (DISPLAY_CUTOFF + 1) - 2)
def _pairs_of_clicks(clicks: bytes) -> PreferencePairs:
    """The read-only pairs of one click vector, given as the bytes of its booleans.

    The cache holds every click vector a run can display, of length 1 to
    ``DISPLAY_CUTOFF`` (2,046 of them), and forgets the least recently used
    beyond that, so its memory stays bounded for any caller.  The three
    arrays of a vector are views of one ``bytes`` block, which makes them
    read-only and keeps an entry to one allocation of data.
    """
    clicks = np.frombuffer(clicks, dtype=bool)
    clicked = clicks.nonzero()[0]
    unclicked = (~clicks[: clicked[-1] + 2]).nonzero()[0] if clicked.size else clicked
    clicked, unclicked = clicked.repeat(unclicked.size), np.tile(unclicked, clicked.size)
    positions = np.concatenate((clicked, unclicked, [0], clicked * clicks.size + unclicked), dtype=np.intp)
    block, count, size = positions.tobytes(), clicked.size, positions.itemsize
    return PreferencePairs(
        np.frombuffer(block, np.intp, count),
        np.frombuffer(block, np.intp, count, count * size),
        np.frombuffer(block, np.intp, count + 1, 2 * count * size),
    )


@functools.cache
def _pair_tables(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``(m*m, m)`` tables with one row per pair of display positions, for lists of ``m``.

    Row ``i * m + j`` of ``swap_reversed`` is ``arange(m)`` with entries
    ``i`` and ``j`` exchanged, read from the last position to the first;
    row ``i * m + j`` of ``span`` marks the positions ``p`` with
    ``min(i, j) < p <= max(i, j)``.  Rows are contiguous, so a gather of
    rows and a running sum along them read memory in order.  Each size is
    built once and cached; the two tables take ``9 * m**3`` bytes, 9 KB
    for a full display of ``DISPLAY_CUTOFF`` = 10.
    """
    pos = np.arange(m)
    i, j = np.meshgrid(pos, pos, indexing="ij")
    swap = np.broadcast_to(pos, (m, m, m)).copy()
    swap[i, j, i] = j
    swap[i, j, j] = i
    span = (pos > np.minimum(i, j)[..., None]) & (pos <= np.maximum(i, j)[..., None])
    swap_reversed = np.ascontiguousarray(swap[..., ::-1]).reshape(m * m, m)
    span = span.reshape(m * m, m)
    swap_reversed.flags.writeable = False
    span.flags.writeable = False
    return swap_reversed, span


def _pair_weights(scores: np.ndarray, displayed: np.ndarray, pairs: PreferencePairs) -> tuple[np.ndarray, np.ndarray]:
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
    the denominators of both rankings are taken as log-sum-exp suffixes of
    the displayed scores instead, which stay finite.
    """
    top = np.maximum.reduce(scores)
    exp_scores = np.exp(scores - top)
    placed = exp_scores.take(displayed)
    undisplayed = np.ones(exp_scores.size, dtype=bool)
    undisplayed[displayed] = False
    tail = np.add.reduce(exp_scores[undisplayed])

    # Row 0 orders the displayed list itself, row 1 + p the list with pair
    # p swapped, each from the last position to the first, so a running sum
    # along a row gives its denominators in reverse.
    swap_reversed, span = _pair_tables(displayed.size)
    orders = swap_reversed.take(pairs.rows, axis=0)
    denoms = tail + np.add.accumulate(placed.take(orders), axis=1)
    placed_scores = scores.take(displayed)
    if tail == 0 and not np.logical_and.reduce(denoms[:, 0]):
        log_denoms = np.logaddexp.accumulate((placed_scores - top).take(orders), axis=1)
    else:
        log_denoms = np.log(denoms)
    log_ratio = log_denoms[0, ::-1] - log_denoms[1:, ::-1]

    count = len(pairs)
    both = np.empty(2 * count)
    np.add.reduce(np.where(span.take(pairs.rows[1:], axis=0), log_ratio, 0.0), axis=1, out=both[:count])
    np.subtract(placed_scores.take(pairs.clicked), placed_scores.take(pairs.unclicked), out=both[count:])
    both = sigmoid(both)
    return both[:count], both[count:]


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
    rho, p_ij = _pair_weights(scores, displayed, pairs)
    pair_scale = rho * p_ij * (1.0 - p_ij)

    placed = query.features.take(displayed, axis=0)
    diffs = placed.take(pairs.clicked, axis=0) - placed.take(pairs.unclicked, axis=0)
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
