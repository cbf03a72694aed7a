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
import pickle
from dataclasses import dataclass
from functools import partial
from multiprocessing import get_context

import numpy as np

MIN_GRADE = 0
MAX_GRADE = 4


@dataclass(frozen=True)
class Query:
    """One query's feature matrix and grades, checked when made: no field can then be reassigned."""

    qid: str
    features: np.ndarray  # (n_docs, feature_dim)
    relevance: np.ndarray  # (n_docs,) integer grades in [0, 4]

    def __post_init__(self):
        features = np.asarray(self.features, dtype=np.float64)
        relevance = np.asarray(self.relevance)
        if relevance.dtype.kind not in "biu":  # a cast to int64 would truncate 1.7 to 1
            relevance = relevance.astype(np.float64)
            if not np.all(relevance == np.trunc(relevance)):
                raise ValueError(f"query {self.qid}: relevance grade that is not a whole number")
        if features.ndim != 2 or features.shape[0] == 0:
            raise ValueError(f"query {self.qid}: features must be a non-empty 2-D matrix")
        if relevance.shape != (features.shape[0],):
            raise ValueError(f"query {self.qid}: relevance length does not match document count")
        if not np.all(np.isfinite(features)):
            raise ValueError(f"query {self.qid}: non-finite feature value")
        if relevance.min() < MIN_GRADE or relevance.max() > MAX_GRADE:
            raise ValueError(f"query {self.qid}: relevance grade outside [{MIN_GRADE}, {MAX_GRADE}]")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "relevance", relevance.astype(np.int64, copy=False))

    @property
    def n_docs(self) -> int:
        return self.features.shape[0]


@dataclass(frozen=True)
class Dataset:
    """Non-empty train/test splits of queries of ``feature_dim`` features, checked when made and held as tuples."""

    train: tuple[Query, ...]
    test: tuple[Query, ...]
    feature_dim: int

    def __post_init__(self):
        object.__setattr__(self, "train", tuple(self.train))
        object.__setattr__(self, "test", tuple(self.test))
        if self.feature_dim < 1:
            raise ValueError("feature_dim must be >= 1")
        if not self.train or not self.test:
            raise ValueError("experiment dataset needs non-empty train and test splits")
        for q in self.train + self.test:
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


def _check_utf8(line: str) -> None:
    """Refuse a line that held bytes which are not UTF-8 (read in as lone surrogates)."""
    try:
        line.encode("utf-8", "surrogateescape").decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"not UTF-8 text ({exc.reason})") from None


class _Rows:
    """A parse's rows so far, in arrays preallocated with one row per line break of the file.

    ``features`` starts with no columns and widens as feature ids rise;
    ``owners[i]`` is the index in ``qids`` of row ``i``'s query.
    """

    def __init__(self, capacity: int):
        self.features = np.zeros((capacity, 0))
        self.grades = np.empty(capacity, dtype=np.int64)
        self.owners = np.empty(capacity, dtype=np.intp)
        self.qids: dict[str, int] = {}
        self.n = self.max_fid = 0

    def widen(self, top: int) -> None:
        """Make room for feature id ``top``."""
        self.max_fid = max(self.max_fid, top)
        width = self.features.shape[1]
        if top > width:
            # Grow geometrically so a file whose ids keep rising copies O(log dim) times.
            grown = np.zeros((len(self.grades), max(top, width * 3 // 2)))
            grown[: self.n, :width] = self.features[: self.n]
            self.features = grown

    def add(self, grades: list[int], qids: list[str]) -> None:
        """Close the next ``len(grades)`` rows, whose features are already in place."""
        end = self.n + len(grades)
        self.grades[self.n : end] = grades
        self.owners[self.n : end] = [self.qids.setdefault(qid, len(self.qids)) for qid in qids]
        self.n = end


def _read_lines(rows: _Rows, block: bytes, path: str | os.PathLike, lineno: int) -> int:
    """The line reader: parse ``block`` into ``rows`` one text line at a time.

    ``lineno`` lines of the file come before the block; returns the number
    of the block's last line.  It reads any line, and it is the only place
    a parse raises an error about a line: ``<path>: line N: ...`` for the
    block's first bad line.  Lines are counted as text reading counts them
    (``\r\n`` once and a lone ``\r`` as a break); bytes that are not UTF-8
    fail the line that holds them.
    """
    text = io.TextIOWrapper(io.BytesIO(block), encoding="utf-8", errors="surrogateescape")
    for lineno, line in enumerate(text, start=lineno + 1):
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
            values = _feature_values(tokens[2:])
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
        if values:
            rows.widen(max(values))
            rows.features[rows.n, np.fromiter(values, np.intp, len(values)) - 1] = list(values.values())
        rows.add([grade], [qid])
    return lineno


# A block's text is held about three times over while it converts, so the
# block size adds to a load's peak memory: on 136-feature lines about 1 MB
# at 256 KiB against 0.15 MB at 64 KiB, where a parse is a few percent slower.
_BLOCK_BYTES = 1 << 16
_NUMBER_BYTES = b"0123456789+-.eE"  # the characters of the numbers in a canonical line's tokens


def _read_block(rows: _Rows, block: bytes) -> int | None:
    """Parse a canonical block into ``rows`` in bulk and return its line count; None for any other block.

    A block is canonical when it is ASCII, every ``\r`` in it is part of a
    ``\r\n``, and each line, its ``#`` comment and then trailing spaces
    cut, is blank or reads ``<grade> qid:<id> 1:<v> 2:<v> ... m:<v>``: one
    space between tokens, a printable query id, only the characters of
    numbers around each ``:``, the same ``m`` on every line, and finite
    values.  The heads go through :func:`_parse_head`, and all the block's
    ``id:value`` tokens through one :func:`numpy.loadtxt` call.  The line
    reader would read the same rows from such a block; from any other,
    ``rows`` is left as it was.
    """
    if not block.isascii() or (b"\r" in block and block.count(b"\r") != block.count(b"\r\n")):
        return None
    lines = block.decode("ascii").split("\n")
    grades, qids, bodies = [], [], []
    for line in lines:
        comment = line.find("#")
        if comment >= 0:
            line = line[:comment]
        line = line.rstrip(" \r")
        if not line:
            continue
        tokens = line.split(" ", 2)
        if len(tokens) < 3 or not tokens[1].isprintable():
            return None
        if not bodies:
            width = tokens[2].count(" ") + 1
            separators = (b": " * width)[:-1]
        # The separators, read in order, must alternate ":" and " ": a value
        # that holds a ":" or lacks one would otherwise shift the columns.
        # Other whitespace fails here too, which loadtxt would strip.
        if tokens[2].encode("ascii").translate(None, _NUMBER_BYTES) != separators:
            return None
        try:
            grade, qid = _parse_head(tokens, line)
        except ValueError:
            return None
        grades.append(grade)
        qids.append(qid)
        bodies.append(tokens[2])
    line_count = len(lines) - (not lines[-1])
    if not bodies:
        return line_count
    del lines  # the bodies copy all that is still needed
    pair = np.dtype([("id", np.int64), ("value", np.float64)])
    try:
        pairs = np.loadtxt(
            (body.replace(":", " ") for body in bodies),
            dtype=np.dtype([("pairs", pair, (width,))]),
            delimiter=" ",
            comments=None,
            max_rows=len(bodies),
            ndmin=1,
        )["pairs"]
    except ValueError:
        return None
    values = pairs["value"]
    if np.any(pairs["id"] != np.arange(1, width + 1)) or not np.isfinite(values).all():
        return None
    rows.widen(width)
    rows.features[rows.n : rows.n + len(grades), :width] = values
    rows.add(grades, qids)
    return line_count


def _letor_arrays(path: str | os.PathLike) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[str], int]:
    """The rows of a LETOR file as arrays: ``(features, grades, counts, qids, dim)``.

    ``features`` is one C-contiguous ``(n_docs, dim)`` float64 buffer of
    exactly the rows read, grouped by query in order of first appearance;
    ``counts[i]`` is the number of documents of query ``qids[i]``.  The
    file is read in blocks of about 64 KiB that end at a line break.  A
    canonical block (:func:`_read_block`), as dense LETOR 4.0 and MSLR
    files are made of, converts in bulk; any other block goes through the
    line reader (:func:`_read_lines`), which raises the errors
    :func:`parse_letor` documents.
    """
    lineno = 0
    with open(path, "rb") as fh:
        chunks = iter(lambda: fh.read(1 << 20), b"")
        rows = _Rows(1 + sum(chunk.count(b"\n") + chunk.count(b"\r") for chunk in chunks))  # >= the line count
        fh.seek(0)
        while block := fh.read(_BLOCK_BYTES):
            if not block.endswith(b"\n"):
                block += fh.readline()  # a block ends at a line break
            lines = _read_block(rows, block)
            lineno = _read_lines(rows, block, path, lineno) if lines is None else lineno + lines
    n, max_fid, features = rows.n, rows.max_fid, rows.features
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
    grades = rows.grades
    grades.resize(n, refcheck=False)
    owners = rows.owners[:n]
    if np.any(owners[1:] < owners[:-1]):  # a query's documents are not contiguous: gather them
        order = np.argsort(owners, kind="stable")
        features, grades = features[order], grades[order]
    return features, grades, np.bincount(owners), list(rows.qids), max_fid


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
    are views of it, so the file's features are held once.  The file is
    read in blocks of about 64 KiB.  A block of dense lines, each listing
    feature ids ``1..m`` in order as LETOR 4.0 and MSLR files do, converts
    in one :func:`numpy.loadtxt` call; any other block is read line by
    line, with the same result.  A bad file raises ``<path>: line N: ...``
    for its first bad line, lines counted as text reading counts them;
    bytes that are not UTF-8 fail the line that holds them.
    """
    features, grades, counts, qids, dim = _letor_arrays(path)
    return _queries(features, grades, counts, qids), dim


def write_letor(queries: list[Query], path: str | os.PathLike) -> None:
    """Serialize queries in the same format :func:`parse_letor` reads.

    Every feature id is written explicitly (zeros included) so the feature
    dimension round-trips, and floats use ``repr`` so values round-trip
    exactly.
    """
    rows: dict[int, str] = {}  # feature dimension -> "{} qid:{} 1:{!r} 2:{!r} ...\n"
    with open(path, "w", encoding="utf-8") as fh:
        for q in queries:
            dim = q.features.shape[1]
            if dim not in rows:
                rows[dim] = "{} qid:{} " + " ".join(f"{fid}:{{!r}}" for fid in range(1, dim + 1)) + "\n"
            for grade, values in zip(q.relevance.tolist(), q.features.tolist()):
                fh.write(rows[dim].format(grade, q.qid, *values))


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
    """Uniformly sample one training query; a dataset always has one."""
    return dataset.train[rng.integers(len(dataset.train))]


QUINTILE_GRADE_BINS = (0.2, 0.4, 0.6, 0.8)


def check_synthetic(
    num_queries: int, docs_per_query: int, feature_dim: int, seed: int, hardness: float, grade_bins: tuple[float, ...]
) -> None:
    """Refuse, naming it, an argument that :func:`make_synthetic` cannot generate from."""
    if num_queries < 1 or docs_per_query < 1 or feature_dim < 1:
        raise ValueError("num_queries, docs_per_query and feature_dim must all be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed!r}")
    if not np.isfinite(hardness):
        raise ValueError(f"hardness must be finite, got {hardness!r}")
    if not np.all(np.isfinite(grade_bins)):
        raise ValueError(f"grade_bins must be finite, got {grade_bins!r}")
    if len(grade_bins) != 4 or list(grade_bins) != sorted(grade_bins):
        raise ValueError("grade_bins must be 4 increasing rank-fraction thresholds")
    if hardness and feature_dim < 2:
        raise ValueError("hardness > 0 needs feature_dim >= 2 for an orthogonal direction")


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
    :func:`check_synthetic` refuses a bad argument first, as a ``SyntheticSpec`` does when made.
    """
    check_synthetic(num_queries, docs_per_query, feature_dim, seed, hardness, grade_bins)
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


def _send_rows(path: str | os.PathLike, fd: int) -> None:
    """In the forked child: parse ``path`` and write its rows, or its error, to the pipe ``fd``.

    A pickled header (the features' shape, grades, counts, qids and width,
    or the exception) comes first, then the raw feature bytes straight
    from the parse buffer.
    """
    try:
        features, *rest = _letor_arrays(path)
        header = (features.shape, *rest)
    except Exception as exc:
        features, header = None, exc
    with open(fd, "wb") as pipe:
        pickle.dump(header, pipe)
        if features is not None:
            pipe.write(features)


def _receive_rows(pipe, path: str | os.PathLike) -> tuple[list[Query], int]:
    """Read what :func:`_send_rows` wrote to the buffered ``pipe``: :func:`parse_letor`'s result, or raise its error."""
    died = RuntimeError(f"{path}: the forked parse ended before sending its rows")
    try:
        header = pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):
        raise died from None
    if isinstance(header, Exception):
        raise header
    shape, grades, counts, qids, dim = header
    features = np.empty(shape)
    if pipe.readinto(features) != features.nbytes:
        raise died
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
    with open(read_fd, "rb") as pipe:
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
