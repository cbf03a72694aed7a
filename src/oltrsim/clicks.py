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
``simulate`` draws the clicks of any of them.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    with ``ranking``.  A cascading scan leaves positions after a realized
    stop unobserved and therefore unclicked.
    """
    ranking = np.asarray(ranking)
    grades = np.asarray(grades, dtype=np.int64)
    if grades.shape != ranking.shape:
        raise ValueError("grades must align with the displayed ranking")
    if grades.size and (grades.min() < 0 or grades.max() > 4):
        raise ValueError("grade outside [0, 4]")
    m = len(ranking)
    click_probs = np.asarray(spec.click_probs)[grades]
    if not spec.cascading:
        observed = rng.random(m) < 1.0 / np.arange(1, m + 1)
        clicks = observed & (rng.random(m) < click_probs)
    elif spec.stop_prob_after_click == 0:
        # Nothing stops the scan, so the loop below would draw exactly one
        # number per position: draw them in one call from the same stream.
        clicks = rng.random(m) < click_probs
    else:
        clicks = np.zeros(m, dtype=bool)
        for pos, prob in enumerate(click_probs.tolist()):
            if rng.random() < prob:
                clicks[pos] = True
                if rng.random() < spec.stop_prob_after_click:
                    break
    return Interaction(ranking=ranking, clicks=clicks)
