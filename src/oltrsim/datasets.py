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
import pickle
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


def _letor_arrays(path: str | os.PathLike) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[str], int]:
    """The rows of a LETOR file as arrays: ``(features, grades, counts, qids, dim)``.

    ``features`` is one C-contiguous ``(n_docs, dim)`` float64 buffer of
    exactly the rows read, grouped by query in order of first appearance;
    ``counts[i]`` is the number of documents of query ``qids[i]``.  Raises
    the errors :func:`parse_letor` documents.
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
    # The capacity counts every \r and \n, so blank lines, comments and each
    # \r\n leave unused rows.  Cut them off before any view exists: in place
    # when the width is exact, as it is for files that list every feature id.
    if features.shape[1] == max_fid:
        features.resize((n, max_fid), refcheck=False)
    else:
        features = features[:n, :max_fid].copy()
    grades.resize(n, refcheck=False)
    owners = owners[:n]
    if np.any(owners[1:] < owners[:-1]):  # a query's documents are not contiguous: gather them
        order = np.argsort(owners, kind="stable")
        features, grades = features[order], grades[order]
    return features, grades, np.bincount(owners), list(qids), max_fid


def _queries(features: np.ndarray, grades: np.ndarray, counts: np.ndarray, qids: list[str]) -> list[Query]:
    """The queries of :func:`_letor_arrays`'s result, as views of its arrays."""
    ends = np.cumsum(counts)
    return [
        Query(qid=qid, features=features[end - count:end], relevance=grades[end - count:end])
        for qid, count, end in zip(qids, counts, ends)
    ]


def parse_letor(path: str | os.PathLike) -> tuple[list[Query], int]:
    """Parse a LETOR/SVMlight file into queries grouped by qid, in one pass.

    Documents keep file order within each query; queries are ordered by
    first appearance.  Returns ``(queries, feature_dim)`` where the
    dimension is the largest feature id seen; :func:`load_dataset` pads
    the narrower of a train/test pair to the wider one's width.

    Rows go straight into one array preallocated from a count of line
    breaks and cut to the rows read; every query's features and grades
    are views of it, so the file's features are held once.  A bad file
    raises ``<path>: line N: ...`` for its first bad line, lines counted
    as text reading counts them; bytes that are not UTF-8 fail the line
    that holds them.
    """
    features, grades, counts, qids, dim = _letor_arrays(path)
    return _queries(features, grades, counts, qids), dim


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
    """Min-max normalize each feature to [0, 1] within each query, in place.

    Overwrites each query's features and returns the same queries, so a
    loaded file's features stay one array.  A feature that is constant
    within a query maps to 0.  Idempotent.  ``x -= lo``, ``x /= span``
    (1 for a constant column) and writing 0 over the constant columns,
    where ``x - lo`` may be -0.0, are, element for element, the operations
    of ``np.where(span > 0, (x - lo) / span, 0.0)``, so the values are
    bit-identical to normalizing into a copy.
    """
    for q in queries:
        x = q.features
        lo = x.min(axis=0)
        span = x.max(axis=0) - lo
        if np.isinf(span).any():  # finite values whose range overflows would normalize to NaN
            raise ValueError(f"query {q.qid}: non-finite feature value")
        varies = span > 0
        x -= lo
        x /= np.where(varies, span, 1.0)
        x[:, ~varies] = 0.0
    return queries


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


def _write_all(fd: int, data) -> None:
    """Write every byte of ``data`` to ``fd``, however many writes the pipe takes."""
    view = memoryview(data).cast("B")
    while view:
        view = view[os.write(fd, view):]


def _read_into(pipe, buffer, path: str | os.PathLike) -> None:
    """Fill ``buffer`` from ``pipe``; the pipe closing first means the child died."""
    view = memoryview(buffer).cast("B")
    while view:
        got = pipe.readinto(view)
        if not got:
            raise RuntimeError(f"{path}: the forked parse ended before sending its rows")
        view = view[got:]


def _send_rows(path: str | os.PathLike, fd: int) -> None:
    """In the forked child: parse ``path`` and write its rows, or its error, to the pipe ``fd``.

    A length-prefixed pickled header (the features' shape, grades, counts,
    qids and width, or the exception) comes first, then the raw feature
    bytes straight from the parse buffer.
    """
    try:
        features, *rest = _letor_arrays(path)
        header = (features.shape, *rest)
    except Exception as exc:
        features, header = None, exc
    blob = pickle.dumps(header)
    _write_all(fd, len(blob).to_bytes(8, "little") + blob)
    if features is not None:
        _write_all(fd, features)
    os.close(fd)


def _receive_rows(pipe, path: str | os.PathLike) -> tuple[list[Query], int]:
    """Read what :func:`_send_rows` wrote: :func:`parse_letor`'s result, or raise its error."""
    prefix = bytearray(8)
    _read_into(pipe, prefix, path)
    blob = bytearray(int.from_bytes(prefix, "little"))
    _read_into(pipe, blob, path)
    header = pickle.loads(blob)
    if isinstance(header, Exception):
        raise header
    shape, grades, counts, qids, dim = header
    features = np.empty(shape)
    _read_into(pipe, features, path)
    return _queries(features, grades, counts, qids), dim


@contextlib.contextmanager
def _forked_parse(path: str | os.PathLike):
    """Parse ``path`` in a forked process; yields a function that returns its :func:`parse_letor` result.

    The rows come back through a pipe and are read straight into the
    features array, which is their only copy in this process.  If the body
    raises (a bad train line), the child is terminated at once; it is
    joined on every path.
    """
    read_fd, write_fd = os.pipe()
    with open(read_fd, "rb", buffering=0) as pipe:
        child = get_context("fork").Process(target=_send_rows, args=(path, write_fd))
        try:
            child.start()
        finally:
            os.close(write_fd)  # the child's copy is now the only write end
        try:
            yield partial(_receive_rows, pipe, path)
        except BaseException:
            child.terminate()
            raise
        finally:
            pipe.close()  # a child still writing then fails instead of blocking the join
            child.join()


def load_dataset(train_path: str | os.PathLike, test_path: str | os.PathLike, workers: int = 1) -> Dataset:
    """Load a train/test pair of LETOR files, min-max normalized per query.

    Each file is parsed once, train by :func:`parse_letor`.  With
    ``workers`` > 1, one forked process parses the test file while this
    one parses train, and sends the rows back through a pipe straight into
    their array; with 1 worker, this process parses test after train.
    The errors do not depend on the worker count: a missing or bad train
    file is reported before a missing or bad test file, and a bad train
    line stops the forked parse at once.  The split with fewer
    features is zero-padded to the other's width, and then every feature
    is normalized within each query, in place
    (:func:`normalize_query_level`), as LETOR 4.0's QueryLevelNorm files
    are.  Each split's features are thus held once, from the parse through
    the runs: in one float64 array, unless the split was padded.
    """
    with _forked_parse(test_path) if workers > 1 else contextlib.nullcontext(partial(parse_letor, test_path)) as parse_test:
        train, dim_train = parse_letor(train_path)
        test, dim_test = parse_test()
    dim = max(dim_train, dim_test)
    train = normalize_query_level(_zero_pad(train, dim))
    test = normalize_query_level(_zero_pad(test, dim))
    return Dataset(train=train, test=test, feature_dim=dim)
