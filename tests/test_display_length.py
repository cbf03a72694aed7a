"""Every display holds ``min(DISPLAY_CUTOFF, n)`` distinct documents of an ``n``-document query.

The samplers and interleavers are called directly; a run's PDGD and DBGD
impressions are watched where they hand the displayed list on: PDGD's to
``pdgd_update``, DBGD's to ``clicks.simulate``.
"""

import numpy as np
import pytest

from oltrsim import dbgd, experiments, pdgd
from oltrsim.ranking import DISPLAY_CUTOFF, LinearRanker, sample_ranking

LENGTHS = [1, 9, 10, 11, 50]


def assert_display(displayed, n):
    displayed = np.asarray(displayed)
    assert displayed.shape == (min(DISPLAY_CUTOFF, n),)
    assert np.unique(displayed).size == displayed.size
    assert displayed.min() >= 0 and displayed.max() < n


@pytest.mark.parametrize("n", LENGTHS)
def test_sampler_and_interleavers(n):
    rng = np.random.default_rng(n)
    for _ in range(20):
        assert_display(sample_ranking(LinearRanker(rng.normal(size=3)), rng.normal(size=(n, 3)), rng), n)
        r_a, r_b = rng.permutation(n), rng.permutation(n)
        for interleave in (dbgd.probabilistic_interleave, dbgd.team_draft_interleave):
            displayed, sides = interleave(r_a, r_b, rng)
            assert_display(displayed, n)
            assert sides.shape == displayed.shape


def run_displays(monkeypatch, module, name, ranking_of, n, **fields):
    """The lists that a 5-impression run hands to ``module.name``, on a dataset of ``n``-document queries."""
    shown = []
    original = getattr(module, name)

    def spy(*args):
        shown.append(ranking_of(*args))
        return original(*args)

    monkeypatch.setattr(module, name, spy)
    spec = experiments.SyntheticSpec(num_queries=4, docs_per_query=n, feature_dim=3, seed=n)
    config = experiments.ExperimentConfig(synthetic=spec, impressions=5, repeats=1, **fields)
    experiments.run_with_dataset(config, 0, experiments.load_config_dataset(config))
    return shown


@pytest.mark.parametrize("n", LENGTHS)
def test_pdgd_impression(monkeypatch, n):
    shown = run_displays(
        monkeypatch, pdgd, "pdgd_update", lambda state, query, interaction: interaction.ranking, n, algorithm="pdgd"
    )
    assert len(shown) == 5
    for displayed in shown:
        assert_display(displayed, n)


@pytest.mark.parametrize("comparator", [dbgd.PROBABILISTIC, dbgd.TEAM_DRAFT])
@pytest.mark.parametrize("n", LENGTHS)
def test_dbgd_impression(monkeypatch, n, comparator):
    shown = run_displays(
        monkeypatch,
        dbgd,
        "simulate",
        lambda ranking, grades, spec, rng: ranking,
        n,
        algorithm="dbgd",
        comparator=comparator,
    )
    assert len(shown) == 5
    for displayed in shown:
        assert_display(displayed, n)
