"""Online learning-to-rank simulations: DBGD and PDGD under click models."""

from .clicks import Interaction, click_model
from .datasets import Dataset, Query, load_dataset, make_synthetic, parse_letor
from .dbgd import ComparisonOutcome, DbgdState, dbgd_step
from .evaluation import MetricTrace, evaluate_heldout, ndcg_at_k, welch_t_test
from .experiments import (
    BUNDLED_SYNTHETIC,
    ExperimentConfig,
    RunResult,
    SyntheticSpec,
    emit_outputs,
    run_experiment,
)
from .pdgd import PdgdState, pdgd_update
from .ranking import LinearRanker, rank_deterministic, sample_ranking

__version__ = "0.1.0"

__all__ = [
    "BUNDLED_SYNTHETIC",
    "ComparisonOutcome",
    "Dataset",
    "DbgdState",
    "ExperimentConfig",
    "Interaction",
    "LinearRanker",
    "MetricTrace",
    "PdgdState",
    "Query",
    "RunResult",
    "SyntheticSpec",
    "click_model",
    "dbgd_step",
    "emit_outputs",
    "evaluate_heldout",
    "load_dataset",
    "make_synthetic",
    "ndcg_at_k",
    "parse_letor",
    "pdgd_update",
    "rank_deterministic",
    "run_experiment",
    "sample_ranking",
    "welch_t_test",
]
