"""Exact expected-update enumeration for small display lists, and the pair quantities it needs.

Enumerates every sampled ranking and every click outcome of a 3-document
query under the perfect (non-stopping) behavior model, pushes each outcome
through the package's preference inference and pair weighting, and
decomposes the expected update into one coefficient per document pair.
Ranking and click probabilities are computed independently of the package.
"""

import itertools

import numpy as np

from oltrsim.clicks import Interaction
from oltrsim.pdgd import PreferencePairs, _pair_weights, infer_pairwise_preferences
from oltrsim.ranking import LinearRanker, sigmoid

from _oracles import pl_ranking_probability


def pair_weights(scores, displayed, clicked_idx, unclicked_idx):
    """``(rho, P(i > j))`` of one pair of display positions, from the package's ``_pair_weights``.

    ``scores`` covers the whole candidate set and ``displayed`` indexes it.
    """
    displayed = np.asarray(displayed)
    pair = PreferencePairs(
        np.array([clicked_idx]),
        np.array([unclicked_idx]),
        np.array([0, clicked_idx * displayed.size + unclicked_idx]),
    )
    rho, p_ij = _pair_weights(np.asarray(scores, dtype=np.float64), displayed, pair)
    return float(rho[0]), float(p_ij[0])


def pair_preference(weights, d_i, d_j):
    """``P(d_i before d_j) = sigmoid(s_i - s_j)``, from the package's ``score_all`` and ``sigmoid``."""
    s_i, s_j = LinearRanker(weights).score_all(np.stack([d_i, d_j]))
    return float(sigmoid(s_i - s_j))


def expected_update_pair_coefficients(scores, grades, click_probs=(0.0, 0.2, 0.4, 0.8, 1.0)):
    """alpha[(i, j)] such that E[update] = sum alpha_ij (d_i - d_j), i < j.

    Assumes every displayed position is observed (perfect user, stop
    probability zero), so click patterns factor into independent
    Bernoullis.
    """
    scores = np.asarray(scores, dtype=float)
    grades = np.asarray(grades)
    n = scores.size
    alphas = {(i, j): 0.0 for i in range(n) for j in range(i + 1, n)}

    for ranking in itertools.permutations(range(n)):
        ranking = np.asarray(ranking)
        p_ranking = pl_ranking_probability(scores, ranking)
        doc_click_probs = [click_probs[grades[doc]] for doc in ranking]
        for pattern in itertools.product((0, 1), repeat=n):
            p_clicks = 1.0
            for clicked, p in zip(pattern, doc_click_probs):
                p_clicks *= p if clicked else (1.0 - p)
            if p_clicks == 0.0:
                continue
            weight = p_ranking * p_clicks
            pairs = infer_pairwise_preferences(
                Interaction(ranking=ranking, clicks=np.asarray(pattern, dtype=bool))
            )
            for clicked_idx, unclicked_idx in zip(pairs.clicked.tolist(), pairs.unclicked.tolist()):
                doc_i = int(ranking[clicked_idx])
                doc_j = int(ranking[unclicked_idx])
                rho, p_ij = pair_weights(scores, ranking, clicked_idx, unclicked_idx)
                term = weight * rho * p_ij * (1.0 - p_ij)
                if doc_i < doc_j:
                    alphas[(doc_i, doc_j)] += term
                else:
                    alphas[(doc_j, doc_i)] -= term
    return alphas
