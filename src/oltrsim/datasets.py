"""Ranking dataset handling: SVMlight/LETOR parsing, normalization, synthesis.

The on-disk format is one document per line::

    <grade> qid:<id> <fid>:<val> <fid>:<val> ... # optional comment

with integer grades in [0, 4], 1-based feature ids, and documents grouped
by query id.  Missing feature ids are treated as 0.
"""

from __future__ import annotations

import contextlib
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from multiprocessing import get_context
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


def _parse_head(tokens: list[str], line: str) -> tuple[int, str]:
    """The grade and query id of a non-empty data line."""
    if len(tokens) < 2 or not tokens[1].startswith("qid:"):
        raise ValueError(f"expected '<grade> qid:<id> ...', got {line.strip()!r}")
    try:
        grade = int(tokens[0])
    except ValueError:
        raise ValueError(f"grade {tokens[0]!r} is not an integer") from None
    if grade < MIN_GRADE or grade > MAX_GRADE:
        raise ValueError(f"grade {grade} outside [{MIN_GRADE}, {MAX_GRADE}]")
    qid = tokens[1][len("qid:"):]
    if not qid:
        raise ValueError("empty query id")
    return grade, qid


def _feature_values(tokens: list[str]) -> dict[int, float]:
    """Read ``fid:val`` tokens one by one; a repeated fid keeps its last value."""
    values: dict[int, float] = {}
    for token in tokens:
        fid_str, sep, val_str = token.partition(":")
        if not sep:
            raise ValueError(f"malformed feature token {token!r}")
        try:
            fid = int(fid_str)
            val = float(val_str)
        except ValueError:
            raise ValueError(f"malformed feature token {token!r}") from None
        if fid < 1:
            raise ValueError(f"feature id must be >= 1, got {fid}")
        if not math.isfinite(val):
            raise ValueError(f"non-finite feature value {token!r}")
        values[fid] = val
    return values


def _read_features(tokens: list[str], dense: tuple[tuple[str, ...], tuple[slice, ...]]):
    """Columns, values and largest feature id of a line's ``fid:val`` tokens.

    A line that lists features ``1..m`` in order, as MSLR and LETOR 4.0
    files do, converts its values in one pass: ``dense`` holds the
    prefixes ``"1:"``, ``"2:"``, ... and the slices that cut them off.  Any
    other line, or one with a value that does not convert or is not finite
    (a finite sum rules out NaN and infinities), is read token by token,
    which also raises the error naming the first bad token.
    """
    prefixes, cuts = dense
    if all(map(str.startswith, tokens, prefixes)):
        try:
            values = list(map(float, map(getitem, tokens, cuts)))
        except ValueError:
            pass
        else:
            if math.isfinite(sum(values)):
                return slice(0, len(tokens)), values, len(tokens)
    values = _feature_values(tokens)
    return np.fromiter(values, np.intp, len(values)) - 1, list(values.values()), max(values)


def _dense_prefixes(width: int) -> tuple[tuple[str, ...], tuple[slice, ...]]:
    """The ``dense`` argument of :func:`_read_features` for lines of up to ``width`` features."""
    prefixes = tuple(f"{fid}:" for fid in range(1, width + 1))
    return prefixes, tuple(slice(len(p), None) for p in prefixes)


def _check_utf8(line: str) -> None:
    """Refuse a line that held bytes which are not UTF-8 (read in as lone surrogates)."""
    try:
        line.encode("utf-8", "surrogateescape").decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"not UTF-8 text ({exc.reason})") from None


def parse_letor(path: str | os.PathLike) -> tuple[list[Query], int]:
    """Parse a LETOR/SVMlight file into queries grouped by qid, in one pass.

    Documents keep file order within each query; queries are ordered by
    first appearance.  Returns ``(queries, feature_dim)`` where the
    dimension is the largest feature id seen; :func:`load_dataset` pads
    the narrower of a train/test pair to the wider one's width.

    Rows go straight into arrays preallocated from a count of line breaks.
    A bad file raises ``<path>: line N: ...`` for its first bad line, lines
    counted as text reading counts them; bytes that are not UTF-8 fail the
    line that holds them.
    """
    with open(path, "rb") as fh:
        chunks = iter(lambda: fh.read(1 << 20), b"")
        capacity = 1 + sum(chunk.count(b"\n") + chunk.count(b"\r") for chunk in chunks)  # >= the line count
    features = np.zeros((capacity, 0))
    grades = np.empty(capacity, dtype=np.int64)
    owners = np.empty(capacity, dtype=np.intp)
    qids: dict[str, int] = {}
    dense: tuple[tuple[str, ...], tuple[slice, ...]] = ((), ())
    n = max_fid = 0
    with open(path, encoding="utf-8", errors="surrogateescape") as text:
        for lineno, line in enumerate(text, start=1):
            try:
                if not line.isascii():
                    _check_utf8(line)
                comment = line.find("#")
                if comment >= 0:
                    line = line[:comment]
                tokens = line.split()
                if not tokens:
                    continue
                grade, qid = _parse_head(tokens, line)
                if len(tokens) > 2:
                    if len(tokens) - 2 > len(dense[0]):
                        dense = _dense_prefixes(len(tokens) - 2)
                    cols, vals, top = _read_features(tokens[2:], dense)
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
            if len(tokens) > 2:
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
    features, grades, owners = np.ascontiguousarray(features[:n, :max_fid]), grades[:n], owners[:n]

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
    if not np.all(np.isfinite(grade_bins)):
        raise ValueError(f"grade_bins must be finite, got {grade_bins!r}")
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


# With more than one worker, a test file of at least this size is parsed in
# one forked process while this one parses train.  Forking and returning the
# rows cost about 10 ms, as long as parsing ~450 KiB of a 136-feature file.
_MIN_FORK_BYTES = 1 << 19


def _parse_forked(path: str | os.PathLike) -> tuple[list[Query], int]:
    """:func:`parse_letor`, under a name the pool pickles that stays bound
    when a tracer (``bench/tracer.py``) rebinds ``parse_letor`` to a closure."""
    return parse_letor(path)


def load_dataset(train_path: str | os.PathLike, test_path: str | os.PathLike, workers: int = 1) -> Dataset:
    """Load a train/test pair of LETOR files, min-max normalized per query.

    Each file is parsed once (:func:`parse_letor`).  With ``workers`` > 1
    and a test file of at least 512 KiB, one forked process parses the test
    file while this one parses train; either way a bad train line is
    reported before a bad test line.  The split with fewer features is
    zero-padded to the other's width, and then every feature is normalized
    within each query (:func:`normalize_query_level`), as LETOR 4.0's
    QueryLevelNorm files are.
    """
    # A missing test file forks nothing, so parse_letor reports it after train's errors.
    fork = workers > 1 and os.path.isfile(test_path) and os.path.getsize(test_path) >= _MIN_FORK_BYTES
    with ProcessPoolExecutor(1, mp_context=get_context("fork")) if fork else contextlib.nullcontext() as pool:
        parse_test = pool.submit(_parse_forked, test_path).result if fork else partial(parse_letor, test_path)
        train, dim_train = parse_letor(train_path)
        test, dim_test = parse_test()
    dim = max(dim_train, dim_test)
    train = normalize_query_level(_zero_pad(train, dim))
    test = normalize_query_level(_zero_pad(test, dim))
    return Dataset(train=train, test=test, feature_dim=dim)
