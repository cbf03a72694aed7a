"""Ranking dataset handling: SVMlight/LETOR parsing, normalization, synthesis.

The on-disk format is one document per line::

    <grade> qid:<id> <fid>:<val> <fid>:<val> ... # optional comment

with integer grades in [0, 4], 1-based feature ids, and documents grouped
by query id.  Missing feature ids are treated as 0.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import re
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


# A file is cut into at most one byte range per worker, and into no range
# shorter than this.  Forking a worker and returning its rows costs about
# 10 ms, as long as parsing ~450 KiB of a 136-feature file takes: on a 2-core
# VM two ranges broke even on a 1 MiB file and were 1.3x faster on 2 MiB.  A
# file under twice this size is parsed in-process and forks nothing.
_MIN_RANGE_BYTES = 1 << 19
_LINE_BREAK = re.compile(rb"\r\n?|\n")


class _ByteRange(io.RawIOBase):
    """The next ``length`` bytes of an open binary file, as a stream that ends there."""

    def __init__(self, raw: io.FileIO, length: int):
        super().__init__()
        self._raw = raw
        self._left = length

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        with memoryview(buffer) as view:
            count = self._raw.readinto(view[: self._left])
        self._left -= count
        return count


@contextlib.contextmanager
def _open_range(path: str | os.PathLike, start: int, end: int):
    """Bytes ``[start, end)`` of the file at ``path`` as a buffered binary stream."""
    with open(path, "rb", buffering=0) as raw:
        raw.seek(start)
        yield io.BufferedReader(_ByteRange(raw, end - start))


def _line_start(fh, offset: int) -> int:
    """The first offset at or after ``offset`` (> 0) where a line starts, else the file's size.

    A line starts after ``\\n``, after ``\\r\\n`` and after a ``\\r`` that no
    ``\\n`` follows, as universal-newline text iteration splits lines.
    """
    position = offset - 1
    fh.seek(position)
    while chunk := fh.read(1 << 16):
        found = _LINE_BREAK.search(chunk)
        if found:
            if found.end() == len(chunk) and chunk.endswith(b"\r") and fh.read(1) == b"\n":
                return position + found.end() + 1
            return position + found.end()
        position += len(chunk)
    return position


def _line_ranges(path: str | os.PathLike, workers: int) -> list[tuple[int, int]]:
    """Byte ranges that cover the file in order, each starting at a line start.

    There are at most ``workers`` of them, of near-equal size and none
    shorter than ``_MIN_RANGE_BYTES`` before it is moved to a line start.
    """
    size = os.path.getsize(path)
    parts = max(1, min(workers, size // _MIN_RANGE_BYTES))
    with open(path, "rb") as fh:
        inner = {_line_start(fh, size * k // parts) for k in range(1, parts)}
    cuts = [0, *sorted(inner - {0, size}), size]
    return list(zip(cuts, cuts[1:]))


class _BadLine(Exception):
    """A line a range could not parse: ``args`` are its number within the range and the reason."""


@dataclass
class _Block:
    """The rows of one byte range of a LETOR file, in file order."""

    features: np.ndarray  # (rows, largest feature id in the range)
    grades: np.ndarray
    owners: np.ndarray  # each row's index into qids
    qids: list[str]  # the range's query ids in order of first appearance
    lines: int  # lines read, blank and comment lines included


def _parse_range(path: str | os.PathLike, start: int, end: int) -> _Block:
    """Parse the lines in bytes ``[start, end)``, straight into preallocated arrays.

    Raises :class:`_BadLine` for the range's first bad line, numbered from 1
    at ``start``.  Bytes that are not UTF-8 fail the line that holds them.
    """
    with _open_range(path, start, end) as stream:
        chunks = iter(lambda: stream.read(1 << 20), b"")
        capacity = 1 + sum(chunk.count(b"\n") + chunk.count(b"\r") for chunk in chunks)  # >= the line count
    features = np.zeros((capacity, 0))
    grades = np.empty(capacity, dtype=np.int64)
    owners = np.empty(capacity, dtype=np.intp)
    qids: dict[str, int] = {}
    dense: tuple[tuple[str, ...], tuple[slice, ...]] = ((), ())
    n = max_fid = lines = 0
    with _open_range(path, start, end) as stream, io.TextIOWrapper(
        stream, encoding="utf-8", errors="surrogateescape"
    ) as text:
        for lines, line in enumerate(text, start=1):
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
                raise _BadLine(lines, str(exc)) from None
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
    return _Block(np.ascontiguousarray(features[:n, :max_fid]), grades[:n], owners[:n], list(qids), lines)


def _parse_ranges(path: str | os.PathLike, ranges: list[tuple[int, int]]) -> list[_Block]:
    """Each range's block, in order: the first parsed here, each other in a forked worker.

    The error raised is the file's first bad line, numbered in the file.
    """
    pool = (
        ProcessPoolExecutor(len(ranges) - 1, mp_context=get_context("fork"))
        if len(ranges) > 1
        else contextlib.nullcontext()
    )
    with pool:
        later = [pool.submit(_parse_range, path, start, end).result for start, end in ranges[1:]]
        blocks: list[_Block] = []
        offset = 0
        for parse in (partial(_parse_range, path, *ranges[0]), *later):
            try:
                blocks.append(parse())
            except _BadLine as bad:
                lineno, reason = bad.args
                raise ValueError(f"{path}: line {offset + lineno}: {reason}") from None
            offset += blocks[-1].lines
    return blocks


def parse_letor(path: str | os.PathLike, workers: int = 1) -> tuple[list[Query], int]:
    """Parse a LETOR/SVMlight file into queries grouped by qid.

    Documents keep file order within each query; queries are ordered by
    first appearance.  Returns ``(queries, feature_dim)`` where the
    dimension is the largest feature id seen; :func:`load_dataset` pads
    the narrower of a train/test pair to the wider one's width.

    The file is cut at line starts into up to ``workers`` byte ranges of
    at least 512 KiB, so a file under 1 MiB forks nothing; this process
    parses the first range and forked workers the others, and their rows
    are joined in file order.
    The result, and the error a bad file raises (``<path>: line N: ...``
    for its first bad line), are the same for every worker count.
    """
    blocks = _parse_ranges(path, _line_ranges(path, workers))
    qids: dict[str, int] = {}
    owners = []
    for block in blocks:
        to_file = np.array([qids.setdefault(qid, len(qids)) for qid in block.qids], dtype=np.intp)
        owners.append(to_file[block.owners])
    owners = np.concatenate(owners)
    grades = np.concatenate([block.grades for block in blocks])
    if not grades.size:
        raise ValueError(f"{path}: no documents found")
    max_fid = max(block.features.shape[1] for block in blocks)
    if max_fid < 1:
        raise ValueError(f"{path}: could not infer a feature dimension")
    if len(blocks) == 1:
        features = blocks[0].features
    else:  # narrower blocks read 0 in the columns they lack, as absent feature ids do
        features = np.zeros((grades.size, max_fid))
        row = 0
        for block in blocks:
            features[row : row + len(block.grades), : block.features.shape[1]] = block.features
            row += len(block.grades)

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


def load_dataset(train_path: str | os.PathLike, test_path: str | os.PathLike, workers: int = 1) -> Dataset:
    """Load a train/test pair of LETOR files, min-max normalized per query.

    Each file is parsed once, with up to ``workers`` processes
    (:func:`parse_letor`); the split with fewer features is zero-padded
    to the other's width, and then every feature is normalized within each
    query (:func:`normalize_query_level`), as LETOR 4.0's QueryLevelNorm
    files are.
    """
    train, dim_train = parse_letor(train_path, workers)
    test, dim_test = parse_letor(test_path, workers)
    dim = max(dim_train, dim_test)
    train = normalize_query_level(_zero_pad(train, dim))
    test = normalize_query_level(_zero_pad(test, dim))
    return Dataset(train=train, test=test, feature_dim=dim)
