"""Output checks computed apart from the program.

None of these compare against stored output: they check required
properties (trace shape, learning on perfect users) or recompute a value
from first principles (NDCG, min-max normalization), so they keep passing
after a change that legitimately alters the random streams.
"""

from __future__ import annotations

import csv
import json
import math
import os
import xml.etree.ElementTree as ET

import numpy as np


def reference_ndcg10(weights: np.ndarray, features: np.ndarray, grades: np.ndarray) -> float | None:
    """NDCG@10 of the linear model on one query; None when the model ties documents.

    Gains ``2**g - 1``, discounts ``1 / log2(rank + 1)``, ideal over all
    candidates.  Ties are left to the caller because the program breaks
    them at random.
    """
    scores = features @ weights
    if np.unique(scores).size != scores.size:
        return None
    gains = [2.0 ** int(g) - 1.0 for g in grades]
    order = sorted(range(len(gains)), key=lambda i: -scores[i])[:10]
    ideal = sorted(gains, reverse=True)[:10]
    idcg = sum(g / math.log2(r + 2) for r, g in enumerate(ideal))
    if idcg == 0.0:
        return 0.0
    return sum(gains[d] / math.log2(r + 2) for r, d in enumerate(order)) / idcg


def reference_heldout(weights: np.ndarray, test) -> float | None:
    """Mean reference NDCG@10 over test queries; None if any query has tied scores."""
    values = [reference_ndcg10(weights, q.features, q.relevance) for q in test]
    if any(v is None for v in values):
        return None
    return sum(values) / len(values)


def trace_errors(run_id: int, points: list[tuple[int, float]], schedule: list[int], horizon: int) -> list[str]:
    """One finite NDCG@10 in [0, 1] per checkpoint of the schedule, ending at the horizon."""
    impressions = [i for i, _ in points]
    errors = []
    if impressions != schedule:
        errors.append(f"run {run_id}: checkpoints {impressions} != schedule {schedule}")
    if not impressions or impressions[-1] != horizon:
        errors.append(f"run {run_id}: trace does not end at impression {horizon}")
    if not all(math.isfinite(v) and 0.0 <= v <= 1.0 for _, v in points):
        errors.append(f"run {run_id}: NDCG values non-finite or outside [0, 1]")
    return errors


def learning_errors(arm_name: str, click_model: str, curves: list[list[tuple[int, float]]]) -> list[str]:
    """Under a perfect user the mean final NDCG@10 must beat the mean at impression 0."""
    if click_model != "perfect":
        return []
    start = float(np.mean([points[0][1] for points in curves]))
    final = float(np.mean([points[-1][1] for points in curves]))
    if not final > start:
        return [f"{arm_name}: mean final NDCG@10 {final:.4f} not above start {start:.4f}"]
    return []


def min_max_reference(features: np.ndarray) -> np.ndarray:
    """Per-feature (x - min) / (max - min) within one query; constant features map to 0."""
    out = np.zeros_like(features)
    for j in range(features.shape[1]):
        column = features[:, j]
        lo, hi = column.min(), column.max()
        if hi > lo:
            out[:, j] = (column - lo) / (hi - lo)
    return out


def dataset_errors(loaded, reference) -> list[str]:
    """The loaded, normalized dataset must equal the normalized generator arrays."""
    errors = []
    for split in ("train", "test"):
        got, want = getattr(loaded, split), getattr(reference, split)
        if [q.qid for q in got] != [q.qid for q in want]:
            errors.append(f"{split}: query order differs from the generator's")
            continue
        for g, w in zip(got, want):
            if not np.array_equal(g.relevance, w.relevance):
                errors.append(f"{split} query {g.qid}: grades differ")
            elif g.features.shape != w.features.shape or not np.allclose(
                g.features, min_max_reference(w.features), rtol=0.0, atol=1e-12
            ):
                errors.append(f"{split} query {g.qid}: features differ from min-max normalization")
    return errors


def read_trace_rows(path: str) -> dict[int, list[tuple[int, float]]]:
    """trace.csv as run_id -> [(impressions, ndcg10)], read with the csv module."""
    rows: dict[int, list[tuple[int, float]]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            rows.setdefault(int(row["run_id"]), []).append((int(row["impressions"]), float(row["ndcg10"])))
    return rows


def cli_output_errors(out_dir: str, repeats: int) -> tuple[list[str], dict]:
    """trace.csv must give summary.json's per-run finals; curve.svg must parse as XML.

    Returns the errors and the trace rows, which the per-run checks reuse.
    """
    errors = []
    rows = read_trace_rows(os.path.join(out_dir, "trace.csv"))
    with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    if sorted(rows) != list(range(repeats)):
        errors.append(f"{out_dir}: trace.csv has runs {sorted(rows)}, expected 0..{repeats - 1}")
    elif [rows[r][-1][1] for r in range(repeats)] != summary.get("per_run_final"):
        errors.append(f"{out_dir}: trace.csv finals differ from summary.json per_run_final")
    try:
        root = ET.parse(os.path.join(out_dir, "curve.svg")).getroot()
        if not root.tag.endswith("svg"):
            errors.append(f"{out_dir}: curve.svg root is <{root.tag}>, not <svg>")
    except ET.ParseError as exc:
        errors.append(f"{out_dir}: curve.svg is not XML: {exc}")
    return errors, rows
