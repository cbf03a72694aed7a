"""Simulated user click behavior on displayed rankings.

Three behavior models are supported:

* ``perfect`` — observes every displayed document, clicks purely by grade.
* ``almost_random_cascading`` — scans top-down, clicks near-randomly and
  stops after a click with probability 0.5, so lower positions may go
  unobserved.
* ``almost_random_noncascading`` — observes each position independently
  with probability ``1/rank``, so a click does not imply the documents
  above it were observed.

``CLICK_MODELS`` holds the three as fixed ``ClickModelSpec`` entries, and
``click_model(name)`` looks one up.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PERFECT = "perfect"
ALMOST_RANDOM_CASCADING = "almost_random_cascading"
ALMOST_RANDOM_NONCASCADING = "almost_random_noncascading"

MODEL_NAMES = (PERFECT, ALMOST_RANDOM_CASCADING, ALMOST_RANDOM_NONCASCADING)

# P(click | grade, observed) for grades 0..4.
PERFECT_CLICK_PROBS = (0.00, 0.20, 0.40, 0.80, 1.00)
ALMOST_RANDOM_CLICK_PROBS = (0.40, 0.45, 0.50, 0.55, 0.60)


@dataclass(frozen=True)
class ClickModelSpec:
    """Behavior model: per-grade click probabilities plus the stop rule."""

    name: str
    click_probs: tuple[float, ...]
    stop_prob_after_click: float = 0.0

    @property
    def cascading(self) -> bool:
        return self.name != ALMOST_RANDOM_NONCASCADING


CLICK_MODELS = {
    # The perfect user observes all displayed documents: never stops.
    PERFECT: ClickModelSpec(PERFECT, PERFECT_CLICK_PROBS),
    ALMOST_RANDOM_CASCADING: ClickModelSpec(
        ALMOST_RANDOM_CASCADING, ALMOST_RANDOM_CLICK_PROBS, stop_prob_after_click=0.5
    ),
    ALMOST_RANDOM_NONCASCADING: ClickModelSpec(ALMOST_RANDOM_NONCASCADING, ALMOST_RANDOM_CLICK_PROBS),
}


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


def _check_args(ranking, grades, spec, allowed_names):
    ranking = np.asarray(ranking)
    grades = np.asarray(grades, dtype=np.int64)
    if grades.shape != ranking.shape:
        raise ValueError("grades must align with the displayed ranking")
    if spec.name not in allowed_names:
        raise ValueError(f"click model {spec.name!r} not valid here, expected one of {allowed_names}")
    if grades.size and (grades.min() < 0 or grades.max() > 4):
        raise ValueError("grade outside [0, 4]")
    return ranking, grades


def simulate_cascading(ranking, grades, spec: ClickModelSpec, rng: np.random.Generator) -> Interaction:
    """Top-down scan: click by grade, then maybe stop scanning.

    ``grades`` are the grades of the displayed documents, position-aligned
    with ``ranking``.  Positions after a realized stop are unobserved and
    therefore unclicked.
    """
    ranking, grades = _check_args(ranking, grades, spec, (PERFECT, ALMOST_RANDOM_CASCADING))
    if spec.stop_prob_after_click == 0:
        # Nothing stops the scan, so the loop below would draw exactly one
        # number per position: draw them in one call from the same stream.
        clicks = rng.random(len(ranking)) < np.asarray(spec.click_probs)[grades]
        return Interaction(ranking=ranking, clicks=clicks)
    probs = spec.click_probs
    clicks = np.zeros(len(ranking), dtype=bool)
    for pos, grade in enumerate(grades):
        if rng.random() < probs[grade]:
            clicks[pos] = True
            if rng.random() < spec.stop_prob_after_click:
                break
    return Interaction(ranking=ranking, clicks=clicks)


def simulate_noncascading(ranking, grades, spec: ClickModelSpec, rng: np.random.Generator) -> Interaction:
    """Independent observation per position with probability ``1/rank``."""
    ranking, grades = _check_args(ranking, grades, spec, (ALMOST_RANDOM_NONCASCADING,))
    m = len(ranking)
    observed = rng.random(m) < 1.0 / np.arange(1, m + 1)
    click_probs = np.asarray(spec.click_probs)[grades]
    clicks = observed & (rng.random(m) < click_probs)
    return Interaction(ranking=ranking, clicks=clicks)


def simulate(ranking, grades, spec: ClickModelSpec, rng: np.random.Generator) -> Interaction:
    """Dispatch to the cascading or non-cascading simulator by model name."""
    if spec.cascading:
        return simulate_cascading(ranking, grades, spec, rng)
    return simulate_noncascading(ranking, grades, spec, rng)
