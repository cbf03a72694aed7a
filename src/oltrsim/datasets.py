"""Ranking dataset handling: SVMlight/LETOR parsing, normalization, synthesis.

The on-disk format is one document per line::

    <grade> qid:<id> <fid>:<val> <fid>:<val> ... # optional comment

with integer grades in [0, 4], 1-based feature ids, and documents grouped
by query id.  Missing feature ids are treated as 0.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from operator import getitem

import numpy as np

MIN_GRADE = 0
MAX_GRADE = 4


@dataclass
class Query:
    """One query: a document feature matrix plus relevance grades."""

    qid: str
    features: np.ndarray  # (n_docs, feature_dim)
    relevance: np.ndarray  # (n_docs,) integer grades in [0, 4]

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.relevance = np.asarray(self.relevance, dtype=np.int64)
        if self.features.ndim != 2 or self.features.shape[0] == 0:
            raise ValueError(f"query {self.qid}: features must be a non-empty 2-D matrix")
        if self.relevance.shape != (self.features.shape[0],):
            raise ValueError(f"query {self.qid}: relevance length does not match document count")
        if not np.all(np.isfinite(self.features)):
            raise ValueError(f"query {self.qid}: non-finite feature value")
        if self.relevance.min() < MIN_GRADE or self.relevance.max() > MAX_GRADE:
            raise ValueError(f"query {self.qid}: relevance grade outside [{MIN_GRADE}, {MAX_GRADE}]")

    @property
    def n_docs(self) -> int:
        return self.features.shape[0]


@dataclass
class Dataset:
    """Train/test query collections sharing one feature dimension."""

    train: list[Query] = field(default_factory=list)
    test: list[Query] = field(default_factory=list)
    feature_dim: int = 0

    def __post_init__(self):
        if self.feature_dim < 1:
            raise ValueError("feature_dim must be >= 1")
        for q in list(self.train) + list(self.test):
            if q.features.shape[1] != self.feature_dim:
                raise ValueError(
                    f"query {q.qid}: feature dimension {q.features.shape[1]} != {self.feature_dim}"
                )


def _parse_head(tokens: list[str], line: str, lineno: int) -> tuple[int, str]:
    """The grade and query id of a non-empty data line."""
    if len(tokens) < 2 or not tokens[1].startswith("qid:"):
        raise ValueError(f"line {lineno}: expected '<grade> qid:<id> ...', got {line.strip()!r}")
    try:
        grade = int(tokens[0])
    except ValueError:
        raise ValueError(f"line {lineno}: grade {tokens[0]!r} is not an integer") from None
    if grade < MIN_GRADE or grade > MAX_GRADE:
        raise ValueError(f"line {lineno}: grade {grade} outside [{MIN_GRADE}, {MAX_GRADE}]")
    qid = tokens[1][len("qid:"):]
    if not qid:
        raise ValueError(f"line {lineno}: empty query id")
    return grade, qid


def _feature_values(tokens: list[str], lineno: int) -> dict[int, float]:
    """Read ``fid:val`` tokens one by one; a repeated fid keeps its last value."""
    values: dict[int, float] = {}
    for token in tokens:
        fid_str, sep, val_str = token.partition(":")
        if not sep:
            raise ValueError(f"line {lineno}: malformed feature token {token!r}")
        try:
            fid = int(fid_str)
            val = float(val_str)
        except ValueError:
            raise ValueError(f"line {lineno}: malformed feature token {token!r}") from None
        if fid < 1:
            raise ValueError(f"line {lineno}: feature id must be >= 1, got {fid}")
        values[fid] = val
    return values


def _read_features(tokens: list[str], lineno: int, dense: tuple[tuple[str, ...], tuple[slice, ...]]):
    """Columns, values and largest feature id of a line's ``fid:val`` tokens.

    A line that lists features ``1..m`` in order, as MSLR and LETOR 4.0
    files do, converts its values in one pass: ``dense`` holds the
    prefixes ``"1:"``, ``"2:"``, ... and the slices that cut them off.  Any
    other line, or one with a value that does not convert, is read token by
    token, which also raises the error naming the first bad token.
    """
    prefixes, cuts = dense
    if all(map(str.startswith, tokens, prefixes)):
        try:
            return slice(0, len(tokens)), list(map(float, map(getitem, tokens, cuts))), len(tokens)
        except ValueError:
            pass
    values = _feature_values(tokens, lineno)
    return np.fromiter(values, np.intp, len(values)) - 1, list(values.values()), max(values)


def _count_line_breaks(path: str | os.PathLike) -> int:
    """Line-break bytes in a file: with one added, at least its number of lines."""
    with open(path, "rb") as fh:
        return sum(chunk.count(b"\n") + chunk.count(b"\r") for chunk in iter(lambda: fh.read(1 << 20), b""))


def parse_letor(path: str | os.PathLike) -> tuple[list[Query], int]:
    """Parse a LETOR/SVMlight file into queries grouped by qid.

    Documents keep file order within each query; queries are ordered by
    first appearance.  Returns ``(queries, feature_dim)`` where the
    dimension is the largest feature id seen; :func:`load_dataset` pads
    the narrower of a train/test pair to the wider one's width.

    The file is read once, line by line, and each line's grade, query and
    features are written straight into preallocated arrays; each query's
    arrays are slices of them.
    """
    capacity = _count_line_breaks(path) + 1
    features = np.zeros((capacity, 0))
    grades = np.empty(capacity, dtype=np.int64)
    owners = np.empty(capacity, dtype=np.intp)
    qids: dict[str, int] = {}
    dense: tuple[tuple[str, ...], tuple[slice, ...]] = ((), ())
    n = max_fid = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            comment = line.find("#")
            if comment >= 0:
                line = line[:comment]
            tokens = line.split()
            if not tokens:
                continue
            grade, qid = _parse_head(tokens, line, lineno)
            if len(tokens) > 2:
                if len(tokens) - 2 > len(dense[0]):
                    prefixes = tuple(f"{fid}:" for fid in range(1, len(tokens) - 1))
                    dense = prefixes, tuple(slice(len(p), None) for p in prefixes)
                cols, vals, top = _read_features(tokens[2:], lineno, dense)
                max_fid = max(max_fid, top)
                if top > features.shape[1]:
                    # Grow geometrically so a file whose ids keep rising copies O(log dim) times.
                    grown = np.zeros((capacity, max(top, features.shape[1] * 3 // 2)))
                    grown[:n, : features.shape[1]] = features[:n]
                    features = grown
                features[n, cols] = vals
            grades[n] = grade
            owners[n] = qids.setdefault(qid, len(qids))
            n += 1
    if not n:
        raise ValueError(f"{path}: no documents found")
    if max_fid < 1:
        raise ValueError(f"{path}: could not infer a feature dimension")

    features = np.ascontiguousarray(features[:n, :max_fid])
    grades, owners = grades[:n], owners[:n]
    if np.any(owners[1:] < owners[:-1]):  # a query's documents are not contiguous: gather them
        order = np.argsort(owners, kind="stable")
        features, grades, owners = features[order], grades[order], owners[order]
    ends = np.cumsum(np.bincount(owners))
    starts = ends - np.bincount(owners)
    return [
        Query(qid=qid, features=features[a:b], relevance=grades[a:b])
        for qid, a, b in zip(qids, starts, ends)
    ], max_fid


def write_letor(queries: list[Query], path: str | os.PathLike) -> None:
    """Serialize queries in the same format :func:`parse_letor` reads.

    Every feature id is written explicitly (zeros included) so the feature
    dimension round-trips, and floats use ``repr`` so values round-trip
    exactly.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for q in queries:
            for grade, doc in zip(q.relevance, q.features):
                feats = " ".join(f"{fid + 1}:{float(v)!r}" for fid, v in enumerate(doc))
                fh.write(f"{int(grade)} qid:{q.qid} {feats}\n")


def normalize_query_level(queries: list[Query]) -> list[Query]:
    """Min-max normalize each feature to [0, 1] within each query.

    A feature that is constant within a query maps to 0.  Idempotent.
    """
    out = []
    for q in queries:
        lo = q.features.min(axis=0)
        hi = q.features.max(axis=0)
        span = hi - lo
        safe = np.where(span > 0, span, 1.0)
        normalized = np.where(span > 0, (q.features - lo) / safe, 0.0)
        out.append(Query(qid=q.qid, features=normalized, relevance=q.relevance.copy()))
    return out


def sample_query(dataset: Dataset, rng: np.random.Generator) -> Query:
    """Uniformly sample one training query."""
    if not dataset.train:
        raise ValueError("dataset has no training queries")
    return dataset.train[rng.integers(len(dataset.train))]


QUINTILE_GRADE_BINS = (0.2, 0.4, 0.6, 0.8)


def make_synthetic(
    num_queries: int,
    docs_per_query: int,
    feature_dim: int,
    seed: int,
    hardness: float = 0.0,
    grade_bins: tuple[float, ...] = QUINTILE_GRADE_BINS,
) -> Dataset:
    """Generate a learnable synthetic dataset, deterministic per seed.

    Draws a hidden unit weight vector ``w``, gives every document
    independent standard-normal features, and assigns grades by binning
    the hidden relevance score into within-query quantiles (``grade_bins``
    are the cumulative rank-fraction thresholds separating grades 0..4,
    equal quintiles by default).  With the default ``hardness`` of 0 the
    relevance score is exactly ``w @ d``, so a ranker using ``w`` orders
    every query ideally.  A positive ``hardness`` adds a quadratic
    interaction along a second hidden direction, which no linear model can
    express; this caps achievable NDCG below 1 and makes the benchmark
    behave like feature sets that only partially explain relevance.

    ``num_queries`` queries are generated for each of train and test.
    """
    if num_queries < 1 or docs_per_query < 1 or feature_dim < 1:
        raise ValueError("num_queries, docs_per_query and feature_dim must all be >= 1")
    if not np.isfinite(hardness):
        raise ValueError(f"hardness must be finite, got {hardness!r}")
    if len(grade_bins) != 4 or list(grade_bins) != sorted(grade_bins):
        raise ValueError("grade_bins must be 4 increasing rank-fraction thresholds")
    if hardness and feature_dim < 2:
        raise ValueError("hardness > 0 needs feature_dim >= 2 for an orthogonal direction")
    rng = np.random.default_rng(seed)
    hidden = rng.normal(size=feature_dim)
    hidden /= np.linalg.norm(hidden)
    cross = None
    if hardness:
        cross = rng.normal(size=feature_dim)
        cross -= (cross @ hidden) * hidden
        cross /= np.linalg.norm(cross)
    bins = np.asarray(grade_bins)

    def gen_split(prefix: str) -> list[Query]:
        queries = []
        for i in range(num_queries):
            features = rng.normal(size=(docs_per_query, feature_dim))
            signal = features @ hidden
            if cross is not None:
                signal = signal + hardness * ((features @ cross) ** 2 - 1.0)
            ranks = np.argsort(np.argsort(signal))
            fractions = (ranks + 1) / docs_per_query
            grades = (fractions[:, None] > bins[None, :]).sum(axis=1)
            queries.append(Query(qid=f"{prefix}{i + 1}", features=features, relevance=grades))
        return queries

    return Dataset(train=gen_split("tr"), test=gen_split("te"), feature_dim=feature_dim)


def _zero_pad(queries: list[Query], dim: int) -> list[Query]:
    """Queries widened to ``dim`` features with zero columns, as absent feature ids read."""
    padded = []
    for q in queries:
        missing = dim - q.features.shape[1]
        if missing:
            q = Query(qid=q.qid, features=np.pad(q.features, ((0, 0), (0, missing))), relevance=q.relevance)
        padded.append(q)
    return padded


def load_dataset(train_path: str | os.PathLike, test_path: str | os.PathLike) -> Dataset:
    """Load a train/test pair of LETOR files, min-max normalized per query.

    Each file is parsed once; the split with fewer features is zero-padded
    to the other's width, and then every feature is normalized within each
    query (:func:`normalize_query_level`), as LETOR 4.0's QueryLevelNorm
    files are.
    """
    train, dim_train = parse_letor(train_path)
    test, dim_test = parse_letor(test_path)
    dim = max(dim_train, dim_test)
    train = normalize_query_level(_zero_pad(train, dim))
    test = normalize_query_level(_zero_pad(test, dim))
    return Dataset(train=train, test=test, feature_dim=dim)
