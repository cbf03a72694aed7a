"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from first principles (plain
Python / small numpy, direct products, brute-force enumeration) and must
not import from oltrsim, so tests compare two genuinely different routes
to the same quantity.  The one exception is :func:`reference_dbgd_step`,
the DBGD step as it was before it became one pass: it calls the package's
direction sampler and ``LinearRanker``, and ``evaluation.ndcg_at_k``,
which the one-pass step no longer calls.  It brings its own copy of
everything else: both interleavers, the click simulators and the
team-draft credit.  It still takes the display length ``k``.
"""

import functools
import itertools
import math
from fractions import Fraction

import numpy as np


def pl_ranking_probability(scores, ranking):
    """Plackett-Luce probability of a (possibly truncated) ranking.

    Direct sequential product: at each position, exp(score) over the sum
    of exp(score) across not-yet-placed documents.
    """
    weights = [math.exp(s) for s in scores]
    remaining = list(range(len(weights)))
    prob = 1.0
    for doc in ranking:
        total = sum(weights[d] for d in remaining)
        prob *= weights[doc] / total
        remaining.remove(doc)
    return prob


def log_pl_probability(scores, ranking):
    """Log Plackett-Luce probability of a (possibly truncated) ranking, in log space.

    The denominator at each position is a log-sum-exp over the documents
    not yet placed, with max-subtraction, so arbitrarily large scores do
    not overflow.  ``exp`` of the result lies in ``(0, 1]``.
    """
    shifted = np.asarray(scores, dtype=np.float64)
    shifted = shifted - shifted.max()
    remaining = np.ones(shifted.size, dtype=bool)
    total = 0.0
    for doc in ranking:
        total += shifted[doc] - _logsumexp(shifted[remaining])
        remaining[doc] = False
    return total


def _logsumexp(values):
    m = values.max()
    return float(m + np.log(np.sum(np.exp(values - m))))


def pl_all_full_rankings(scores):
    """All n! full rankings with their Plackett-Luce probabilities."""
    n = len(scores)
    return {
        perm: pl_ranking_probability(scores, perm)
        for perm in itertools.permutations(range(n))
    }


def softened_mass(ranking, tau=3.0):
    """Per-document mass 1 / rank**tau for a full ranking (rank is 1-based)."""
    n = len(ranking)
    mass = [0.0] * n
    for position, doc in enumerate(ranking):
        mass[doc] = 1.0 / (position + 1) ** tau
    return mass


def enumerate_interleave_credit(displayed, clicks, r_a, r_b, tau=3):
    """Expected credit difference, brute-forced over all 2^m assignments.

    Each assignment sequence is weighted by the probability that its coin
    flips produced the displayed list from the two softened distributions;
    credit difference per sequence is (#clicked positions assigned to a)
    minus (#assigned to b).  Computed in exact rational arithmetic so the
    sign (win / loss / tie) carries no floating-point ambiguity; requires
    an integer tau.
    """
    if int(tau) != tau:
        raise ValueError("exact enumeration needs an integer tau")
    n = len(r_a)
    mass = [[Fraction(0)] * n, [Fraction(0)] * n]
    for side, ranking in enumerate((r_a, r_b)):
        for position, doc in enumerate(ranking):
            mass[side][doc] = Fraction(1, (position + 1) ** int(tau))
    m = len(displayed)
    total_weight = Fraction(0)
    total_diff = Fraction(0)
    for assignment in itertools.product((0, 1), repeat=m):
        weight = Fraction(1)
        pool = list(range(n))
        for position, doc in enumerate(displayed):
            side = assignment[position]
            denom = sum(mass[side][d] for d in pool)
            weight *= mass[side][doc] / denom
            pool.remove(doc)
        diff = sum(
            (1 if assignment[p] == 0 else -1)
            for p in range(m)
            if clicks[p]
        )
        total_weight += weight
        total_diff += weight * diff
    return total_diff / total_weight


def cascade_click_position_probs(grades, click_probs, stop_prob):
    """Exact per-position click probabilities for the cascading scan.

    Enumerated recursively over click/stop outcomes: position p is
    observed only if no earlier click triggered a stop.
    """
    probs = []
    observe = 1.0
    for grade in grades:
        p_click = click_probs[grade]
        probs.append(observe * p_click)
        observe = observe * (1.0 - p_click * stop_prob)
    return probs


def noncascading_click_position_probs(grades, click_probs):
    """Exact per-position click probabilities under 1/rank observation."""
    return [click_probs[g] / (r + 1.0) for r, g in enumerate(grades)]


def _reference_check_click_args(ranking, grades, spec, allowed_names):
    ranking = np.asarray(ranking)
    grades = np.asarray(grades, dtype=np.int64)
    if grades.shape != ranking.shape:
        raise ValueError("grades must align with the displayed ranking")
    if spec.name not in allowed_names:
        raise ValueError(f"click model {spec.name!r} not valid here, expected one of {allowed_names}")
    if grades.size and (grades.min() < 0 or grades.max() > 4):
        raise ValueError("grade outside [0, 4]")
    return ranking, grades


def reference_simulate_cascading(ranking, grades, spec, rng):
    """Cascading clicks as first written: one-call draw when nothing stops, else a stop loop."""
    ranking, grades = _reference_check_click_args(
        ranking, grades, spec, ("perfect", "almost_random_cascading")
    )
    if spec.stop_prob_after_click == 0:
        return rng.random(len(ranking)) < np.asarray(spec.click_probs)[grades]
    probs = spec.click_probs
    clicks = np.zeros(len(ranking), dtype=bool)
    for pos, grade in enumerate(grades):
        if rng.random() < probs[grade]:
            clicks[pos] = True
            if rng.random() < spec.stop_prob_after_click:
                break
    return clicks


def reference_simulate_noncascading(ranking, grades, spec, rng):
    """Non-cascading clicks as first written: observe rank r with probability 1/r."""
    ranking, grades = _reference_check_click_args(ranking, grades, spec, ("almost_random_noncascading",))
    m = len(ranking)
    observed = rng.random(m) < 1.0 / np.arange(1, m + 1)
    click_probs = np.asarray(spec.click_probs)[grades]
    return observed & (rng.random(m) < click_probs)


def reference_simulate(ranking, grades, spec, rng):
    """Click vector of the two simulators above, chosen by the model's name.

    Returns the clicks only; the package's ``simulate`` must draw the same
    clicks and leave ``rng`` in the same state.
    """
    if spec.name == "almost_random_noncascading":
        return reference_simulate_noncascading(ranking, grades, spec, rng)
    return reference_simulate_cascading(ranking, grades, spec, rng)


def _betacf(a, b, x, max_iter=300, eps=3e-14):
    """Continued fraction for the regularized incomplete beta function."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < 1e-300:
        d = 1e-300
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < 1e-300:
            d = 1e-300
        c = 1.0 + aa / c
        if abs(c) < 1e-300:
            c = 1e-300
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < 1e-300:
            d = 1e-300
        c = 1.0 + aa / c
        if abs(c) < 1e-300:
            c = 1e-300
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise RuntimeError("incomplete beta continued fraction did not converge")


def incomplete_beta(a, b, x):
    """Regularized incomplete beta I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log(1.0 - x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_two_sided_p(t, dof):
    """Two-sided p-value of Student's t via the incomplete beta function."""
    x = dof / (dof + t * t)
    return incomplete_beta(dof / 2.0, 0.5, x)


def ndcg_direct(ranking, grades, k=10):
    """Plain NDCG@k: gains 2^grade - 1, discounts log2(position + 1)."""
    gains = [2.0 ** g - 1.0 for g in grades]
    top = list(ranking)[:k]
    dcg = sum(gains[d] / math.log2(r + 2.0) for r, d in enumerate(top))
    ideal = sorted(gains, reverse=True)[:k]
    idcg = sum(g / math.log2(r + 2.0) for r, g in enumerate(ideal))
    if idcg == 0.0:
        return 0.0
    return dcg / idcg


def central_difference_gradient(f, x, h=1e-6):
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        grad[i] = (f(x + step) - f(x - step)) / (2.0 * h)
    return grad


def synthetic_generating_weights(feature_dim, seed):
    """The hidden unit weight vector ``make_synthetic`` derives its grades from: its seed's first draw."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=feature_dim)
    return v / np.linalg.norm(v)


def reference_checkpoint_schedule(impressions, num_checkpoints):
    """The checkpoint schedule built point by point: 0, the horizon and every rounded log-spaced point.

    Its cost grows with ``num_checkpoints`` however few points survive.
    """
    points = {0, impressions}
    if impressions > 1 and num_checkpoints > 1:
        logs = np.logspace(0.0, np.log10(impressions), num_checkpoints)
        points.update(int(round(x)) for x in logs)
    return sorted(p for p in points if 0 <= p <= impressions)


def reference_parse_letor(path, feature_dim=None):
    """LETOR/SVMlight parsing one dict per line, as the loader first did.

    Returns ``([(qid, features, grades), ...], dim)`` with queries in order
    of first appearance, and raises the same ``<path>: line N: ...``
    ``ValueError``s the package's parser must raise.
    """
    rows = []
    max_fid = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            comment = line.find("#")
            if comment >= 0:
                line = line[:comment]
            tokens = line.split()
            if not tokens:
                continue
            if len(tokens) < 2 or not tokens[1].startswith("qid:"):
                raise ValueError(f"{path}: line {lineno}: expected '<grade> qid:<id> ...', got {line.strip()!r}")
            try:
                grade = int(tokens[0])
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: grade {tokens[0]!r} is not an integer") from None
            if grade < 0 or grade > 4:
                raise ValueError(f"{path}: line {lineno}: grade {grade} outside [0, 4]")
            qid = tokens[1][len("qid:"):]
            if not qid:
                raise ValueError(f"{path}: line {lineno}: empty query id")
            values = {}
            for token in tokens[2:]:
                fid_str, sep, val_str = token.partition(":")
                if not sep:
                    raise ValueError(f"{path}: line {lineno}: malformed feature token {token!r}")
                try:
                    fid = int(fid_str)
                    val = float(val_str)
                except ValueError:
                    raise ValueError(f"{path}: line {lineno}: malformed feature token {token!r}") from None
                if fid < 1:
                    raise ValueError(f"{path}: line {lineno}: feature id must be >= 1, got {fid}")
                if not math.isfinite(val):
                    raise ValueError(f"{path}: line {lineno}: non-finite feature value {token!r}")
                values[fid] = val
            rows.append((grade, qid, values))
            if values:
                max_fid = max(max_fid, max(values))
    if not rows:
        raise ValueError(f"{path}: no documents found")
    dim = feature_dim if feature_dim is not None else max_fid
    if dim < 1:
        raise ValueError(f"{path}: could not infer a feature dimension")
    if max_fid > dim:
        raise ValueError(f"{path}: feature id {max_fid} exceeds feature_dim {dim}")
    grouped = {}
    for grade, qid, values in rows:
        grouped.setdefault(qid, []).append((grade, values))
    queries = []
    for qid, docs in grouped.items():
        features = np.zeros((len(docs), dim))
        grades = np.zeros(len(docs), dtype=np.int64)
        for i, (grade, values) in enumerate(docs):
            grades[i] = grade
            for fid, val in values.items():
                features[i, fid - 1] = val
        queries.append((qid, features, grades))
    return queries, dim


def reference_write_letor(queries, path):
    """The LETOR writer formatting one numpy scalar at a time with ``float(v)!r``, as the package first did."""
    with open(path, "w", encoding="utf-8") as fh:
        for q in queries:
            for grade, doc in zip(q.relevance, q.features):
                feats = " ".join(f"{fid + 1}:{float(v)!r}" for fid, v in enumerate(doc))
                fh.write(f"{int(grade)} qid:{q.qid} {feats}\n")


def reference_normalize_query_level(features):
    """One query's features min-max normalized per column into a new array.

    The out-of-place formula: ``(x - lo) / span`` where the column varies
    and 0 where it is constant.
    """
    lo = features.min(axis=0)
    span = features.max(axis=0) - lo
    safe = np.where(span > 0, span, 1.0)
    return np.where(span > 0, (features - lo) / safe, 0.0)


def reference_infer_pairwise_preferences(clicks):
    """(clicked, unclicked) display-position pairs as a list, as PDGD first inferred them.

    Observed means above a click or right after the last one; clicked-major
    order.
    """
    clicks = np.asarray(clicks, dtype=bool)
    clicked = np.flatnonzero(clicks)
    if clicked.size == 0:
        return []
    observed_end = min(int(clicked[-1]) + 2, clicks.size)
    unclicked = [o for o in range(observed_end) if not clicks[o]]
    return [(int(c), int(o)) for c in clicked for o in unclicked]


def reference_sigmoid(x):
    """Piecewise logistic function over an array: masked writes per sign."""
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    out = np.empty_like(arr)
    pos = arr >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
    ex = np.exp(arr[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def reference_pair_flip_log_odds(scores, displayed, pos_hi, pos_lo):
    """log P(swapped) - log P(displayed) per pair, one tiled copy of the list per pair.

    The logs are of the denominators themselves.  A denominator of 0
    (every document displayed, and masses underflowed) warns "divide by
    zero encountered in log"; the package takes its logs in log-sum-exp
    form there, so it agrees with this reference bit for bit only where
    that warning is not raised.
    """
    m = displayed.size
    exp_scores = np.exp(scores - scores.max())
    placed = exp_scores[displayed]
    mask = np.ones(exp_scores.size, dtype=bool)
    mask[displayed] = False
    tail = float(exp_scores[mask].sum())
    denoms = tail + np.cumsum(placed[::-1])[::-1]

    a = np.minimum(pos_hi, pos_lo)
    b = np.maximum(pos_hi, pos_lo)
    rows = np.arange(a.size)
    placed_star = np.tile(placed, (a.size, 1))
    placed_star[rows, a] = placed[b]
    placed_star[rows, b] = placed[a]
    denoms_star = tail + np.cumsum(placed_star[:, ::-1], axis=1)[:, ::-1]

    positions = np.arange(m)
    in_span = (positions[None, :] > a[:, None]) & (positions[None, :] <= b[:, None])
    log_ratio = np.where(in_span, np.log(denoms)[None, :] - np.log(denoms_star), 0.0)
    return log_ratio.sum(axis=1)


@functools.cache
def reference_pair_tables(m):
    """Read-only ``(m, m, m)`` tables indexed by a pair of display positions ``[i, j]``.

    ``swap[i, j]`` is ``arange(m)`` with entries ``i`` and ``j`` exchanged,
    and ``span[i, j]`` marks the positions ``p`` with
    ``min(i, j) < p <= max(i, j)``: the package's tables before they
    became one contiguous row per pair.
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


def _reference_stable_sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def reference_pair_weights(scores, displayed, clicked_pos, unclicked_pos):
    """``(rho, P(i > j))`` per pair, as the package computed them before it cached pairs per click vector.

    A verbatim copy of that ``_pair_weights``, with its two 2-index table
    gathers, its running sums over reversed views and one ``concatenate``
    into the sigmoid, so the package's faster core can be held to it bit
    for bit, the log-sum-exp fallback at ``tail == 0`` included.
    """
    m = displayed.size
    exp_scores = np.exp(scores - scores.max())
    placed = exp_scores[displayed]
    is_displayed = np.zeros(exp_scores.size, dtype=bool)
    is_displayed[displayed] = True
    tail = exp_scores[~is_displayed].sum()
    denoms = tail + placed[::-1].cumsum()[::-1]

    swap, span = reference_pair_tables(m)
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
    both = _reference_stable_sigmoid(np.concatenate((log_odds, margin)))
    return both[: log_odds.size], both[log_odds.size :]


def reference_pdgd_update(weights, features, ranking, clicks, learning_rate):
    """New PDGD weights after one interaction, as the first implementation computed them.

    Pairs come from a Python list of position tuples, and the debiasing
    weights and pair preferences from two separate sigmoid calls.  Returns
    ``weights`` itself when there are no pairs; the result may be
    non-finite, which the package must refuse.
    """
    pairs = reference_infer_pairwise_preferences(clicks)
    if not pairs:
        return weights
    displayed = np.asarray(ranking)
    features = np.asarray(features, dtype=np.float64)
    scores = features @ weights
    clicked_pos = np.array([c for c, _ in pairs])
    unclicked_pos = np.array([u for _, u in pairs])

    rho = reference_sigmoid(reference_pair_flip_log_odds(scores, displayed, clicked_pos, unclicked_pos))
    docs_i = displayed[clicked_pos]
    docs_j = displayed[unclicked_pos]
    margin = scores[docs_i] - scores[docs_j]
    p_ij = reference_sigmoid(margin)
    pair_scale = rho * p_ij * (1.0 - p_ij)

    diffs = features[docs_i] - features[docs_j]
    gradient = pair_scale @ diffs
    return weights + learning_rate * gradient


def reference_pdgd_impression(weights, features, grades, spec, rng, k, learning_rate=0.1):
    """One PDGD impression as a run first made it: sample a list, draw its clicks, update.

    The list is a Plackett-Luce sample by Gumbel noise and argsort of the
    scores ``features @ weights``, the clicks those of
    :func:`reference_simulate` on its grades, and the new weights those of
    :func:`reference_pdgd_update`, which scores the query again.  Draws
    from ``rng`` in that order.
    """
    scores = features @ weights
    displayed = np.argsort(-(scores + rng.gumbel(size=scores.size)))[:k]
    clicks = reference_simulate(displayed, grades[displayed], spec, rng)
    return reference_pdgd_update(weights, features, displayed, clicks, learning_rate)


def _reference_rank_softness(ranking, tau):
    n = ranking.size
    ranks = np.empty(n)
    ranks[ranking] = np.arange(1, n + 1)
    return ranks**-tau


def _reference_check_ranking_pair(r_a, r_b):
    r_a = np.asarray(r_a)
    r_b = np.asarray(r_b)
    if r_a.size == 0 or r_b.size == 0:
        raise ValueError("rankings must be non-empty")
    if r_a.size != r_b.size or not np.array_equal(np.sort(r_a), np.sort(r_b)):
        raise ValueError("both rankings must cover the same candidate set")
    return r_a, r_b


def reference_probabilistic_interleave(r_a, r_b, k, rng, tau=3.0):
    """Probabilistic interleaving as first written: two draws and a masked cumsum per position."""
    r_a, r_b = _reference_check_ranking_pair(r_a, r_b)
    n = r_a.size
    m = min(k, n)
    if k < 1:
        raise ValueError("k must be >= 1")
    masses = (_reference_rank_softness(r_a, tau), _reference_rank_softness(r_b, tau))
    remaining = np.ones(n, dtype=bool)
    displayed = np.empty(m, dtype=np.int64)
    assignments = np.empty(m, dtype=np.int64)
    for pos in range(m):
        side = int(rng.random() < 0.5)
        cumulative = np.cumsum(masses[side] * remaining)
        doc = int(np.searchsorted(cumulative, rng.random() * cumulative[-1], side="right"))
        if doc >= n or not remaining[doc]:
            doc = int(np.flatnonzero(remaining)[-1])
        displayed[pos] = doc
        assignments[pos] = side
        remaining[doc] = False
    return displayed, assignments


def reference_team_draft_interleave(r_a, r_b, k, rng):
    """Team-draft interleaving of ``min(k, n)`` positions: one coin per round for the side that picks first."""
    r_a, r_b = _reference_check_ranking_pair(r_a, r_b)
    if k < 1:
        raise ValueError("k must be >= 1")
    m = min(k, r_a.size)
    rankings = (r_a.tolist(), r_b.tolist())
    displayed, teams = [], []
    while len(displayed) < m:
        first = int(rng.random() < 0.5)
        for side in (first, 1 - first):
            if len(displayed) < m:
                displayed.append(next(doc for doc in rankings[side] if doc not in displayed))
                teams.append(side)
    return np.array(displayed, dtype=np.int64), np.array(teams, dtype=np.int64)


def reference_team_draft_infer(teams, clicks):
    """Team-draft credit as plain counts: ``"current"``, ``"candidate"`` or ``"tie"``."""
    credit = [0, 0]
    for team, clicked in zip(teams.tolist(), clicks.tolist()):
        credit[team] += clicked
    if credit[0] > credit[1]:
        return "current"
    if credit[1] > credit[0]:
        return "candidate"
    return "tie"


def reference_infer_preference_probabilistic(displayed, clicks, r_a, r_b, tau=3.0):
    """Probabilistic-interleaving credit as first written; ``"current"``, ``"candidate"`` or ``"tie"``."""
    r_a, r_b = _reference_check_ranking_pair(r_a, r_b)
    displayed = np.asarray(displayed)
    clicks = np.asarray(clicks, dtype=bool)
    if clicks.shape != displayed.shape:
        raise ValueError("clicks must align with the displayed list")
    if not clicks.any():
        return "tie"
    mass_a = _reference_rank_softness(r_a, tau)
    mass_b = _reference_rank_softness(r_b, tau)
    remaining = np.ones(r_a.size, dtype=bool)
    credit_diff = 0.0
    for pos, doc in enumerate(displayed):
        if clicks[pos]:
            w_a = mass_a[doc] / mass_a[remaining].sum()
            w_b = mass_b[doc] / mass_b[remaining].sum()
            credit_diff += (w_a - w_b) / (w_a + w_b)
        remaining[doc] = False
    if credit_diff > 0:
        return "current"
    if credit_diff < 0:
        return "candidate"
    return "tie"


def reference_dbgd_step(state, query, click_spec, rng, k=10, *, learning_rate, sphere_radius, tau):
    """The DBGD step as first written: checked ranking, interleaving and credit calls.

    Takes and returns a ``DbgdState``; the step size, the radius of the
    sphere the direction is scaled to and the interleaving's ``tau`` are
    arguments.  At the package's constants it draws the same numbers in the
    same order as the package's step must.
    """
    from dataclasses import replace

    from oltrsim import dbgd, evaluation, ranking

    if query.n_docs < 1:
        raise ValueError("query has no documents")
    direction = ranking.sample_unit_sphere(state.ranker.dim, rng)
    candidate = ranking.LinearRanker(state.ranker.weights + sphere_radius * direction)
    orders = []
    for model in (state.ranker, candidate):
        scores = model.score_all(query.features)
        perm = rng.permutation(scores.shape[0])
        orders.append(perm[np.argsort(-scores[perm], kind="stable")])
    ranking_current, ranking_candidate = orders

    if state.comparator == dbgd.ORACLE:
        ndcg_a, ndcg_b = (evaluation.ndcg_at_k(r, query.relevance, k) for r in (ranking_current, ranking_candidate))
        outcome = "current" if ndcg_a > ndcg_b else "candidate" if ndcg_b > ndcg_a else "tie"
    else:
        if click_spec is None:
            raise ValueError(f"comparator {state.comparator!r} needs a click model")
        if state.comparator == dbgd.PROBABILISTIC:
            displayed, _ = reference_probabilistic_interleave(ranking_current, ranking_candidate, k, rng, tau)
            clicked = reference_simulate(displayed, query.relevance[displayed], click_spec, rng)
            outcome = reference_infer_preference_probabilistic(
                displayed, clicked, ranking_current, ranking_candidate, tau
            )
        else:
            displayed, teams = reference_team_draft_interleave(ranking_current, ranking_candidate, k, rng)
            clicked = reference_simulate(displayed, query.relevance[displayed], click_spec, rng)
            outcome = reference_team_draft_infer(teams, clicked)

    if outcome != "candidate":
        return state
    step = learning_rate * sphere_radius * direction
    return replace(state, ranker=ranking.LinearRanker(state.ranker.weights + step))
