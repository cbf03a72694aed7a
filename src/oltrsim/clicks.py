"""Simulated user click behavior on displayed rankings.

Three behavior models are supported:

* ``perfect`` — observes every displayed document, clicks purely by grade.
* ``almost_random_cascading`` — scans top-down, clicks near-randomly and
  stops after a click with probability 0.5, so lower positions may go
  unobserved.
* ``almost_random_noncascading`` — observes each position independently
  with probability ``1/rank``, so a click does not imply the documents
  above it were observed.

``CLICK_MODELS`` is the one table of the three (click probabilities, stop
rule and observation rule); ``click_model(name)`` looks one up, and
``simulate`` draws the clicks of any of them: it is the checks around
``_draw_clicks``, which a run's PDGD impression calls directly on grades
that ``datasets.Query`` checked when it was built.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

PERFECT = "perfect"
ALMOST_RANDOM_CASCADING = "almost_random_cascading"
ALMOST_RANDOM_NONCASCADING = "almost_random_noncascading"

# P(click | grade, observed) for grades 0..4.
PERFECT_CLICK_PROBS = (0.00, 0.20, 0.40, 0.80, 1.00)
ALMOST_RANDOM_CLICK_PROBS = (0.40, 0.45, 0.50, 0.55, 0.60)


@dataclass(frozen=True)
class ClickModelSpec:
    """Behavior model: per-grade click probabilities, stop rule, observation rule."""

    name: str
    click_probs: tuple[float, ...]
    stop_prob_after_click: float = 0.0
    # False: rank r is observed with probability 1/r, independent of clicks.
    cascading: bool = True
    # click_probs as a read-only array, indexed by the displayed grades.
    prob_array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        probs = np.asarray(self.click_probs)
        probs.flags.writeable = False
        object.__setattr__(self, "prob_array", probs)


CLICK_MODELS = {
    # The perfect user observes all displayed documents: never stops.
    PERFECT: ClickModelSpec(PERFECT, PERFECT_CLICK_PROBS),
    ALMOST_RANDOM_CASCADING: ClickModelSpec(
        ALMOST_RANDOM_CASCADING, ALMOST_RANDOM_CLICK_PROBS, stop_prob_after_click=0.5
    ),
    ALMOST_RANDOM_NONCASCADING: ClickModelSpec(
        ALMOST_RANDOM_NONCASCADING, ALMOST_RANDOM_CLICK_PROBS, cascading=False
    ),
}

MODEL_NAMES = tuple(CLICK_MODELS)


def click_model(name: str) -> ClickModelSpec:
    """One of the named behavior models."""
    try:
        return CLICK_MODELS[name]
    except (KeyError, TypeError):
        raise ValueError(f"unknown click model {name!r}, expected one of {MODEL_NAMES}") from None


@dataclass
class Interaction:
    """A displayed ranking together with the simulated click vector."""

    ranking: np.ndarray
    clicks: np.ndarray

    def __post_init__(self):
        self.ranking = np.asarray(self.ranking)
        self.clicks = np.asarray(self.clicks, dtype=bool)
        if self.clicks.shape != self.ranking.shape:
            raise ValueError("clicks must align with the displayed ranking")


def simulate(ranking, grades, spec: ClickModelSpec, rng: np.random.Generator) -> Interaction:
    """Draw the clicks of ``spec``'s user on a displayed ranking.

    ``grades`` are the grades of the displayed documents, position-aligned
    with ``ranking``: whole numbers in [0, 4], as ``datasets.Query`` takes
    them.  A cascading scan leaves positions after a realized stop
    unobserved and therefore unclicked.
    """
    ranking = np.asarray(ranking)
    grades = np.asarray(grades)
    if grades.shape != ranking.shape:
        raise ValueError("grades must align with the displayed ranking")
    if grades.dtype.kind not in "biu":  # a cast to int64 would truncate 1.7 to 1
        grades = grades.astype(np.float64)
        if not np.all(grades == np.trunc(grades)):
            raise ValueError("grade that is not a whole number")
    # Python's min and max on a displayed list's grades beat two numpy reductions.
    grade_list = grades.ravel().tolist()
    if grade_list and (min(grade_list) < 0 or max(grade_list) > 4):
        raise ValueError("grade outside [0, 4]")
    grades = grades.astype(np.int64, copy=False)
    return Interaction(ranking=ranking, clicks=_draw_clicks(spec.prob_array[grades], spec, rng))


def _draw_clicks(click_probs: np.ndarray, spec: ClickModelSpec, rng: np.random.Generator) -> np.ndarray:
    """The click vector of ``spec``'s user, given each displayed position's click probability.

    The draws of :func:`simulate`, without its checks.
    """
    m = len(click_probs)
    if not spec.cascading:
        observed = rng.random(m) < 1.0 / np.arange(1, m + 1)
        return observed & (rng.random(m) < click_probs)
    if spec.stop_prob_after_click == 0:
        # A user who never stops draws one number per position, in one call
        # (tests/_oracles.reference_simulate_cascading).  This is that user's
        # stream, not a shortcut for the loop below, which draws a stop coin
        # after every click even at probability 0: do not fold it in there.
        return rng.random(m) < click_probs
    clicks = np.zeros(m, dtype=bool)
    for pos, prob in enumerate(click_probs.tolist()):
        if rng.random() < prob:
            clicks[pos] = True
            if rng.random() < spec.stop_prob_after_click:
                break
    return clicks
