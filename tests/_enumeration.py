"""Exact expected-update enumeration for small display lists.

Enumerates every sampled ranking and every click outcome of a 3-document
query under the perfect (non-stopping) behavior model, pushes each outcome
through the package's preference inference and pair weighting, and
decomposes the expected update into one coefficient per document pair.
Ranking and click probabilities are computed independently of the package.
"""

import itertools

import numpy as np

from oltrsim.clicks import Interaction
from oltrsim.pdgd import PreferencePair, infer_pairwise_preferences, pair_weight_rho
from oltrsim.ranking import LinearRanker, pair_preference_probability

from _oracles import pl_ranking_probability


def expected_update_pair_coefficients(scores, grades, click_probs=(0.0, 0.2, 0.4, 0.8, 1.0)):
    """alpha[(i, j)] such that E[update] = sum alpha_ij (d_i - d_j), i < j.

    Assumes every displayed position is observed (perfect user, stop
    probability zero), so click patterns factor into independent
    Bernoullis.
    """
    scores = np.asarray(scores, dtype=float)
    grades = np.asarray(grades)
    n = scores.size
    ranker = LinearRanker([1.0])
    candidates = scores.reshape(-1, 1)
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
                rho = pair_weight_rho(ranker, ranking, candidates, PreferencePair(clicked_idx, unclicked_idx))
                p_ij = pair_preference_probability(
                    ranker, candidates[doc_i], candidates[doc_j]
                )
                term = weight * rho * p_ij * (1.0 - p_ij)
                if doc_i < doc_j:
                    alphas[(doc_i, doc_j)] += term
                else:
                    alphas[(doc_j, doc_i)] -= term
    return alphas
