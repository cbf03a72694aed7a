import multiprocessing
import os
import pickle
import re
import time
from dataclasses import FrozenInstanceError
from multiprocessing import get_context
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oltrsim import datasets
from oltrsim.datasets import (
    Dataset,
    Query,
    load_dataset,
    make_synthetic,
    normalize_query_level,
    parse_letor,
    sample_query,
    write_letor,
)
from oltrsim.evaluation import evaluate_heldout
from oltrsim.experiments import SyntheticSpec
from oltrsim.ranking import LinearRanker

from _oracles import (
    reference_normalize_query_level,
    reference_parse_letor,
    reference_write_letor,
    synthetic_generating_weights,
)


def write_tmp(tmp_path, text, name="data.txt"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestQuery:
    @pytest.mark.parametrize("grades", [[1.7, 2.2], [2.0, 0.5], np.array([np.nan, 1.0])])
    def test_fractional_grade_refused(self, grades):
        with pytest.raises(ValueError, match="^query q7: relevance grade that is not a whole number$"):
            Query("q7", np.zeros((2, 3)), grades)

    @pytest.mark.parametrize("grades", [[1.0, 2.0], [True, False], np.array([4, 0], dtype=np.uint8)])
    def test_whole_grades_accepted(self, grades):
        relevance = Query("q", np.zeros((2, 3)), grades).relevance
        assert relevance.dtype == np.int64
        assert relevance.tolist() == [int(g) for g in grades]


class TestDataset:
    def test_empty_train_or_test_split_refused(self):
        # Runs sample training queries and evaluate on test ones without checking either.
        data = make_synthetic(1, 2, 2, seed=0)
        message = "^experiment dataset needs non-empty train and test splits$"
        with pytest.raises(ValueError, match=message):
            Dataset(train=[], test=data.test, feature_dim=2)
        with pytest.raises(ValueError, match=message):
            Dataset(train=data.train, test=(), feature_dim=2)

    def test_splits_cannot_be_replaced_or_emptied(self):
        data = make_synthetic(2, 2, 2, seed=0)
        with pytest.raises(FrozenInstanceError):
            data.train = []
        assert isinstance(data.train, tuple) and len(data.train) == 2


class TestParseLetor:
    def test_line_format(self, tmp_path):
        queries, dim = parse_letor(write_tmp(tmp_path, "2 qid:1 1:0.5 3:1.0\n"))
        assert dim == 3
        q = queries[0]
        assert q.qid == "1"
        assert q.relevance.tolist() == [2]
        assert q.features.tolist() == [[0.5, 0.0, 1.0]]

    def test_grouping_by_qid(self, tmp_path):
        text = "1 qid:1 1:0.1\n0 qid:1 1:0.2\n2 qid:2 1:0.3\n"
        queries, _ = parse_letor(write_tmp(tmp_path, text))
        assert [q.qid for q in queries] == ["1", "2"]
        assert [q.n_docs for q in queries] == [2, 1]

    def test_grade_out_of_range(self, tmp_path):
        with pytest.raises(ValueError, match="line 1"):
            parse_letor(write_tmp(tmp_path, "5 qid:1 1:0.1\n"))

    def test_malformed_line_reports_line_number(self, tmp_path):
        with pytest.raises(ValueError, match="line 2"):
            parse_letor(write_tmp(tmp_path, "1 qid:1 1:0.1\n1 qid:2 junk\n"))

    def test_missing_qid_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="line 1"):
            parse_letor(write_tmp(tmp_path, "1 1:0.5\n"))

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no documents"):
            parse_letor(write_tmp(tmp_path, "\n# only a comment\n"))

    def test_comments_stripped(self, tmp_path):
        queries, dim = parse_letor(write_tmp(tmp_path, "1 qid:7 1:2.0 2:3.0 # docid=44\n"))
        assert dim == 2
        assert queries[0].features.tolist() == [[2.0, 3.0]]

    def test_non_contiguous_qids_grouped(self, tmp_path):
        text = "1 qid:a 1:1.0\n0 qid:b 1:2.0\n2 qid:a 1:3.0\n3 qid:c 1:4.0\n4 qid:b 1:5.0\n"
        queries, _ = parse_letor(write_tmp(tmp_path, text))
        assert [q.qid for q in queries] == ["a", "b", "c"]
        assert queries[0].features[:, 0].tolist() == [1.0, 3.0]
        assert queries[0].relevance.tolist() == [1, 2]
        assert queries[1].features[:, 0].tolist() == [2.0, 5.0]
        assert queries[1].relevance.tolist() == [0, 4]

    @pytest.mark.parametrize("token", ["1:", ":5", "1:2:3", "abc", "1.5:0.2", "0:1", "1 : 5"])
    def test_malformed_token_names_its_line(self, tmp_path, token):
        for prefix in ("", "1:0.5 2:0.25 "):  # after a sparse start, and after dense ids 1, 2
            path = write_tmp(tmp_path, f"1 qid:1 1:0.5\n2 qid:1 {prefix}{token}\n")
            with pytest.raises(ValueError, match="line 2") as raised:
                parse_letor(path)
            with pytest.raises(ValueError) as expected:
                reference_parse_letor(path)
            assert str(raised.value) == str(expected.value)

    def test_duplicate_fid_keeps_last_value(self, tmp_path):
        queries, dim = parse_letor(write_tmp(tmp_path, "1 qid:1 2:0.5 1:0.25 2:0.75\n"))
        assert dim == 2
        assert queries[0].features.tolist() == [[0.25, 0.75]]

    def test_sparse_lines_read_zero(self, tmp_path):
        text = "1 qid:1 3:0.5\n0 qid:1 1:0.2\n2 qid:1 1:0.1 2:0.3 3:0.4\n"
        queries, dim = parse_letor(write_tmp(tmp_path, text))
        assert dim == 3
        assert queries[0].features.tolist() == [[0.0, 0.0, 0.5], [0.2, 0.0, 0.0], [0.1, 0.3, 0.4]]

    @pytest.mark.parametrize("text, token", [
        ("1 qid:1 1:0.5 2:nan\n", "2:nan"),  # a dense line
        ("1 qid:1 2:inf 1:0.5\n", "2:inf"),  # a sparse line
        ("1 qid:1 1:-Infinity\n", "1:-Infinity"),
    ])
    def test_non_finite_value_names_its_line(self, tmp_path, text, token):
        path = write_tmp(tmp_path, "0 qid:1 1:0.25\n" + text + "0 qid:1 1:x\n")
        with pytest.raises(ValueError) as raised:
            parse_letor(path)
        assert str(raised.value) == f"{path}: line 2: non-finite feature value {token!r}"

    def test_finite_values_whose_sum_overflows_accepted(self, tmp_path):
        queries, _ = parse_letor(write_tmp(tmp_path, "1 qid:1 1:1e308 2:1e308\n"))
        assert queries[0].features.tolist() == [[1e308, 1e308]]

    def test_error_names_the_file(self, tmp_path):
        path = write_tmp(tmp_path, "1 qid:1 1:0.5\n\n# comment\n1 qid:1 1:x\n")
        with pytest.raises(ValueError) as raised:
            parse_letor(path)
        assert str(raised.value) == f"{path}: line 4: malformed feature token '1:x'"

    def test_bytes_that_are_not_utf8_name_their_line(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_bytes("1 qid:1 1:0.5 # café\n".encode() + b"0 qid:1 1:0.25 # \xff\n")
        with pytest.raises(ValueError) as raised:
            parse_letor(path)
        assert str(raised.value) == f"{path}: line 2: not UTF-8 text (invalid start byte)"

    def test_line_without_features_accepted(self, tmp_path):
        queries, dim = parse_letor(write_tmp(tmp_path, "3 qid:1\n0 qid:1 1:0.3\n"))
        assert dim == 1
        assert queries[0].features.tolist() == [[0.0], [0.3]]
        assert queries[0].relevance.tolist() == [3, 0]


# Pieces of LETOR lines for comparing the parser with the reference one.  One
# line in eight may also draw ill-formed pieces.
_GOOD = {
    "grade": ["0", "1", "4", "+2"],
    "qid": ["qid:1", "qid:2", "qid:a"],
    "token": ["1:0.5", "2:-1.25", "3:1e-3", "4:7", "2:0.125", "01:3", "+1:2", "1_0:4", "3:1_5"],
    "dense_value": ["0.5", "-2", "1e2", "7"],
}
_BAD = {
    "grade": ["5", "-1", "x"],
    "qid": ["qid:", "qd:1"],
    "token": ["1:", ":5", "1:2:3", "abc", "1.5:0.2", "0:1", "-2:1", ":", "2:x", "2:nan", "1:-inf"],
    "dense_value": ["1:2", "x", "", "inf", "NaN"],
}


def _letor_line(draw):
    pool = _GOOD if draw(st.integers(0, 7)) else {k: _GOOD[k] + _BAD[k] for k in _GOOD}
    parts = [draw(st.sampled_from(pool["grade"])), draw(st.sampled_from(pool["qid"]))]
    if draw(st.booleans()):  # a dense prefix 1..m, as full-width files write every line
        width = draw(st.integers(0, 4))
        parts += [f"{fid}:{draw(st.sampled_from(pool['dense_value']))}" for fid in range(1, width + 1)]
    parts += draw(st.lists(st.sampled_from(pool["token"]), max_size=4))
    line = " ".join(parts)
    return draw(st.sampled_from([line, line, line + " # c", "", "# only a comment", "  " + line + "\t"]))


class TestParserMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_same_queries_or_same_error(self, tmp_path_factory, data):
        lines = [_letor_line(data.draw) for _ in range(data.draw(st.integers(1, 6)))]
        path = tmp_path_factory.mktemp("letor") / "data.txt"
        path.write_text("\n".join(lines) + data.draw(st.sampled_from(["", "\n"])))
        try:
            expected, expected_dim = reference_parse_letor(path)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                parse_letor(path)
            assert str(raised.value) == str(exc)
            return
        queries, dim = parse_letor(path)
        assert dim == expected_dim
        assert [q.qid for q in queries] == [qid for qid, _, _ in expected]
        for q, (_, features, grades) in zip(queries, expected):
            assert np.array_equal(q.features, features)
            assert np.array_equal(q.relevance, grades)


# Values as LETOR files write them, for canonical lines of the block tests.
_CANONICAL_VALUES = ["0.5", "-2", "1e2", "7", "-0.0", "5e-324", "1e308", "0.001", "-1.25e-3", "3.141592653589793"]
_BLOCK_WIDTH = 5


def _canonical_lines(rng, count: int) -> list[str]:
    """``count`` lines of ``_BLOCK_WIDTH`` features listing ids 1..m in order, in queries of up to 4 documents."""
    lines = []
    for i in range(count):
        values = rng.choice(_CANONICAL_VALUES, size=_BLOCK_WIDTH)
        line = f"{rng.integers(0, 5)} qid:{i // 4} " + " ".join(f"{fid}:{v}" for fid, v in enumerate(values, 1))
        lines.append(line + (" #docid = 7" if rng.integers(3) == 0 else ""))
    return lines


def _tokens(edit):
    """A line mutation that edits the line's space-separated tokens."""
    return lambda line: " ".join(edit(line.split(" ")))


# name -> (edit of one line, edits every line from there on, the line stays
# canonical); a width change is canonical when it falls on a block boundary.
_MUTATIONS = {
    "sparse ids": (_tokens(lambda t: t[:3] + t[4:]), False, False),
    "repeated id": (_tokens(lambda t: t[:4] + t[3:]), False, False),
    "out-of-order ids": (_tokens(lambda t: t[:2] + [t[3], t[2]] + t[4:]), False, False),
    "01: id": (_tokens(lambda t: t[:2] + ["0" + t[2]] + t[3:]), False, True),
    "+1: id": (_tokens(lambda t: t[:2] + ["+" + t[2]] + t[3:]), False, True),
    "1_0 value": (_tokens(lambda t: t[:3] + ["2:1_0"] + t[4:]), False, False),
    "nan": (_tokens(lambda t: t[:3] + ["2:nan"] + t[4:]), False, False),
    "inf": (_tokens(lambda t: t[:3] + ["2:inf"] + t[4:]), False, False),
    "1e500": (_tokens(lambda t: t[:3] + ["2:1e500"] + t[4:]), False, False),
    "1:2:3 token": (_tokens(lambda t: t[:2] + [t[2] + ":2", t[3][2:]] + t[4:]), False, False),  # "1:v:2 w"
    "tab separator": (lambda line: line.replace(" ", "\t", 3), False, False),
    "trailing spaces": (lambda line: line + "   ", False, True),
    "CRLF": (lambda line: line + "\r", False, True),
    "lone CR between lines": (lambda line: line + "\r" + line, False, False),
    "lone CR in a line": (lambda line: line.replace(" 3:", "\r3:"), False, False),
    **{
        f"{ord(char):#04x} {where}": (edit, False, False)
        for char in "\x0b\x0c\x1c\x1d\x1e\x1f"
        for where, edit in (
            ("separator", lambda line, char=char: line.replace(" 2:", char + "2:")),
            ("after the qid", lambda line, char=char: line.replace(" 1:", char + " 1:")),
            ("in a value", lambda line, char=char: line.replace(" 2:", " 2:" + char)),
        )
    },
    "UTF-8 comment": (lambda line: line + " # café", False, False),
    "not UTF-8": (lambda line: line + " # \udcff", False, False),
    "wider from here": (lambda line: line.split(" #")[0] + f" {_BLOCK_WIDTH + 1}:0.25", True, None),
    "narrower from here": (lambda line: line.split(" #")[0].rsplit(" ", 1)[0], True, None),
    "non-contiguous qid": (_tokens(lambda t: [t[0], "qid:0"] + t[2:]), False, True),
}


class TestBlockParser:
    """Files of many small blocks: a canonical block converts in bulk, any other goes through the line reader.

    Each file has one mutation at a random line; the result, or the error
    and the line it names, must be the reference parser's.
    """

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(datasets, "_BLOCK_BYTES", 200)  # two or three lines a block
        self.line_reads = []
        read_lines = datasets._read_lines

        def counted(rows, block, path, lineno):
            self.line_reads.append(lineno)
            return read_lines(rows, block, path, lineno)

        monkeypatch.setattr(datasets, "_read_lines", counted)

    @staticmethod
    def assert_parses_as_reference(path):
        try:
            expected, expected_dim = reference_parse_letor(path)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                parse_letor(path)
            assert str(raised.value) == str(exc)
            return
        queries, dim = parse_letor(path)
        assert dim == expected_dim
        assert [q.qid for q in queries] == [qid for qid, _, _ in expected]
        for q, (_, features, grades) in zip(queries, expected):
            assert q.features.view(np.int64).tolist() == features.view(np.int64).tolist()  # -0.0 too
            assert q.relevance.tolist() == grades.tolist()

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("name", list(_MUTATIONS))
    def test_one_mutated_line(self, tmp_path, name, seed):
        edit, from_here, canonical = _MUTATIONS[name]
        rng = np.random.default_rng([seed, len(name)])
        lines = _canonical_lines(rng, 30)
        at = int(rng.integers(len(lines)))
        lines[at:] = [edit(line) for line in lines[at:]] if from_here else [edit(lines[at])] + lines[at + 1:]
        bad_end = seed % 2 == 1  # a last bad line, numbered after every block before it
        path = tmp_path / "data.txt"
        path.write_bytes(_rows(lines + ["0 qid:9 1:x"] * bad_end).encode("utf-8", "surrogateescape"))
        if name == "not UTF-8":  # the reference decodes strictly
            with pytest.raises(ValueError) as raised:
                parse_letor(path)
            assert str(raised.value) == f"{path}: line {at + 1}: not UTF-8 text (invalid start byte)"
        else:
            self.assert_parses_as_reference(path)
        if not bad_end:
            assert len(self.line_reads) in {True: [0], False: [1], None: [0, 1]}[canonical]

    def test_canonical_files_never_reach_the_line_reader(self, tmp_path):
        rng = np.random.default_rng(5)
        for newline in ("\n", "\r\n"):
            lines = _canonical_lines(rng, 40)
            lines[3] += "   "
            lines[9] = lines[9].replace("qid:2", "qid:0")
            lines[12] = lines[12].replace(" 1:", " 01:")
            lines[17:17] = ["", "# a comment", "   "]
            path = tmp_path / "data.txt"
            path.write_bytes(newline.join(lines).encode())  # the last line has no line break
            self.assert_parses_as_reference(path)
        assert self.line_reads == []

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_number_tokens(self, tmp_path_factory, data):
        # Ids and values drawn from the characters a canonical block lets through.
        number = st.text(alphabet="0123456789+-.eE", min_size=1, max_size=5)
        lines = _canonical_lines(np.random.default_rng(data.draw(st.integers(0, 9))), 12)
        at = data.draw(st.integers(0, len(lines) - 1))
        tokens = lines[at].split(" #")[0].split(" ")
        at_token = data.draw(st.integers(2, len(tokens) - 1))  # feature id at_token - 1
        fid = data.draw(st.one_of(st.just(str(at_token - 1)), number))
        tokens[at_token] = fid + ":" + data.draw(number)
        lines[at] = " ".join(tokens)
        path = tmp_path_factory.mktemp("letor") / "data.txt"
        path.write_text(_rows(lines))
        self.assert_parses_as_reference(path)


class TestRoundTrip:
    def test_write_then_parse_is_identity(self, tmp_path):
        for seed in range(25):
            rng = np.random.default_rng(seed)
            queries = []
            for i in range(int(rng.integers(1, 4))):
                n = int(rng.integers(1, 5))
                queries.append(
                    Query(qid=f"q{i}", features=rng.normal(size=(n, 3)), relevance=rng.integers(0, 5, size=n))
                )
            path = tmp_path / f"rt_{seed}.txt"
            write_letor(queries, path)
            parsed, dim = parse_letor(path)
            assert dim == 3
            assert len(parsed) == len(queries)
            for original, recovered in zip(queries, parsed):
                assert recovered.qid == original.qid
                assert np.array_equal(recovered.features, original.features)
                assert np.array_equal(recovered.relevance, original.relevance)


    def test_writes_the_bytes_of_the_reference_writer(self, tmp_path):
        special = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0, -3.0, 1e16, 2.0**53, 0.1, 1 / 3])
        for seed in range(10):
            rng = np.random.default_rng(seed)
            queries = []
            for i in range(int(rng.integers(1, 5))):
                n, width = int(rng.integers(1, 5)), int(rng.integers(0, 6))
                features = rng.normal(size=(n, width)) * 10.0 ** rng.integers(-5, 6, size=(n, width))
                picks = rng.random(size=features.shape) < 0.5
                features[picks] = rng.choice(special, size=int(picks.sum()))
                queries.append(Query(qid=f"q{i}", features=features, relevance=rng.integers(0, 5, size=n)))
            write_letor(queries, tmp_path / "new.txt")
            reference_write_letor(queries, tmp_path / "old.txt")
            assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "old.txt").read_bytes()


class TestNormalize:
    def test_min_max(self):
        q = Query(qid="1", features=np.array([[2.0], [4.0], [6.0]]), relevance=[0, 1, 2])
        out = normalize_query_level([q])[0]
        assert out.features[:, 0].tolist() == [0.0, 0.5, 1.0]

    def test_constant_feature_maps_to_zero(self):
        q = Query(qid="1", features=np.array([[3.0], [3.0]]), relevance=[0, 1])
        out = normalize_query_level([q])[0]
        assert out.features[:, 0].tolist() == [0.0, 0.0]

    def test_single_doc_query(self):
        q = Query(qid="1", features=np.array([[42.0]]), relevance=[3])
        assert normalize_query_level([q])[0].features[0, 0] == 0.0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    def test_idempotent_and_bounded(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 8))
        q = Query(qid="1", features=rng.normal(scale=100.0, size=(n, 4)), relevance=rng.integers(0, 5, size=n))
        once = normalize_query_level([q])[0].features.copy()  # the next call overwrites it in place
        twice = normalize_query_level([q])[0].features
        assert np.array_equal(once, twice)
        assert once.min() >= 0.0
        assert once.max() <= 1.0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    def test_in_place_equals_the_out_of_place_formula(self, seed):
        rng = np.random.default_rng(seed)
        queries, expected = [], []
        for i in range(int(rng.integers(1, 5))):
            n = int(rng.integers(1, 6))  # single-document queries included: every column constant
            features = rng.normal(scale=10.0 ** rng.integers(-3, 4), size=(n, 5))
            features[:, rng.random(5) < 0.4] = rng.normal()  # constant columns
            features[:, 0] = rng.choice([0.0, -0.0], size=n)  # constant too: x - lo may be -0.0
            expected.append(reference_normalize_query_level(features))
            queries.append(Query(qid=str(i), features=features, relevance=rng.integers(0, 5, size=n)))
        out = normalize_query_level(queries)
        assert len(out) == len(queries) and all(a is b for a, b in zip(out, queries))
        for q, want in zip(out, expected):
            assert q.features.tobytes() == want.tobytes()  # bit for bit, signs of zeros included

    def test_range_that_overflows_rejected(self):
        q = Query(qid="7", features=np.array([[1e308], [-1e308]]), relevance=[0, 1])
        with pytest.raises(ValueError, match="^query 7: non-finite feature value$"):
            with np.errstate(over="ignore"):
                normalize_query_level([q])


class TestSampleQuery:
    def test_single_query(self, rng):
        data = make_synthetic(1, 3, 2, seed=0)
        assert sample_query(data, rng).qid == data.train[0].qid

    def test_uniform(self):
        rng = np.random.default_rng(13)
        data = make_synthetic(4, 3, 2, seed=0)
        counts = {q.qid: 0 for q in data.train}
        draws = 40000
        for _ in range(draws):
            counts[sample_query(data, rng).qid] += 1
        for count in counts.values():
            assert abs(count / draws - 0.25) < 0.01

    def test_never_returns_test_queries(self):
        rng = np.random.default_rng(14)
        data = make_synthetic(3, 3, 2, seed=0)
        test_qids = {q.qid for q in data.test}
        for _ in range(300):
            assert sample_query(data, rng).qid not in test_qids



class TestMakeSynthetic:
    def test_deterministic(self):
        a = make_synthetic(5, 6, 3, seed=42)
        b = make_synthetic(5, 6, 3, seed=42)
        for qa, qb in zip(a.train + a.test, b.train + b.test):
            assert np.array_equal(qa.features, qb.features)
            assert np.array_equal(qa.relevance, qb.relevance)

    def test_invariants(self):
        data = make_synthetic(50, 20, 10, seed=1)
        assert data.feature_dim == 10
        assert len(data.train) == 50 and len(data.test) == 50
        for q in data.train + data.test:
            assert q.features.shape == (20, 10)
            assert q.relevance.min() >= 0 and q.relevance.max() <= 4
            assert np.all(np.isfinite(q.features))

    def test_generating_weights_rank_ideally(self):
        data = make_synthetic(40, 20, 8, seed=3)
        ranker = LinearRanker(synthetic_generating_weights(8, 3))
        assert evaluate_heldout(ranker, data.test) > 0.95

    def test_hardness_caps_linear_performance(self):
        data = make_synthetic(40, 20, 8, seed=3, hardness=1.5)
        ranker = LinearRanker(synthetic_generating_weights(8, 3))
        assert evaluate_heldout(ranker, data.test) < 0.9

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            make_synthetic(0, 5, 2, seed=0)
        with pytest.raises(ValueError):
            make_synthetic(5, 5, 2, seed=0, grade_bins=(0.9, 0.5, 0.2, 0.1))

    @pytest.mark.parametrize("hardness", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_hardness_rejected(self, hardness):
        # A NaN hardness once graded every query 0-4 in file order, unrelated to its features.
        with pytest.raises(ValueError, match=f"^hardness must be finite, got {hardness!r}$"):
            make_synthetic(5, 5, 3, 3, hardness=hardness)
        fields = {"num_queries": 5, "docs_per_query": 5, "feature_dim": 3, "seed": 3, "hardness": hardness}
        with pytest.raises(ValueError, match=f"^hardness must be finite, got {hardness!r}$"):
            SyntheticSpec.from_dict(fields)

    @pytest.mark.parametrize(
        "grade_bins",
        [(0.2, 0.4, 0.6, float("inf")), (0.2, 0.4, 0.6, float("nan")), (float("nan"), 0.5, 0.6, 0.7)],
        ids=["inf last", "nan last", "nan first"],
    )
    def test_non_finite_grade_bins_rejected(self, grade_bins):
        # These once graded 3 x 20 documents [12 12 12 24 0] and [30 6 6 18 0]: no grade 4 at all.
        with pytest.raises(ValueError, match="^" + re.escape(f"grade_bins must be finite, got {grade_bins!r}") + "$"):
            make_synthetic(3, 20, 3, 1, grade_bins=grade_bins)
        fields = {"num_queries": 3, "docs_per_query": 20, "feature_dim": 3, "seed": 1, "grade_bins": list(grade_bins)}
        with pytest.raises(ValueError, match="^" + re.escape(f"grade_bins must be finite, got {grade_bins!r}") + "$"):
            SyntheticSpec.from_dict(fields)

    def test_negative_seed_rejected_by_name(self):
        # numpy's default_rng once refused it with "expected non-negative integer", naming no argument.
        with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
            make_synthetic(3, 4, 2, -1)
        with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
            SyntheticSpec(num_queries=3, docs_per_query=4, feature_dim=2, seed=-1)


class TestLoadDataset:
    def test_aligns_dimensions_and_normalizes(self, tmp_path):
        train = write_tmp(tmp_path, "1 qid:1 1:10.0\n0 qid:1 1:30.0\n", "train.txt")
        test = write_tmp(tmp_path, "2 qid:9 1:5.0 2:1.0\n0 qid:9 1:7.0 2:3.0\n", "test.txt")
        data = load_dataset(train, test)
        assert data.feature_dim == 2
        assert data.train[0].features.shape == (2, 2)
        assert data.train[0].features[:, 0].tolist() == [0.0, 1.0]

    def test_differing_widths_parse_each_file_once(self, tmp_path, monkeypatch):
        calls = []
        parse = datasets.parse_letor

        def counted_parse(path, *args, **kwargs):
            calls.append(path)
            return parse(path, *args, **kwargs)

        monkeypatch.setattr(datasets, "parse_letor", counted_parse)
        train = write_tmp(tmp_path, "1 qid:1 1:10.0\n0 qid:1 1:30.0\n", "train.txt")
        test = write_tmp(tmp_path, "2 qid:9 1:5.0 3:1.0\n0 qid:9 2:7.0\n", "test.txt")
        data = load_dataset(train, test)
        assert calls == [train, test]
        assert data.feature_dim == 3
        # Normalized per query; train's two padded columns are constant, so they read 0.
        assert data.train[0].features.tolist() == [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
        assert data.test[0].features.tolist() == [[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]


WORKER_COUNTS = (1, 2, 5)


def _rows(lines: list[str]) -> str:
    return "".join(line + "\n" for line in lines)


def _dense_query(qid: str, docs: int, width: int, seed: int) -> list[str]:
    rng = np.random.default_rng(seed)
    return [
        f"{rng.integers(0, 5)} qid:{qid} " + " ".join(f"{fid}:{float(v)!r}" for fid, v in enumerate(rng.normal(size=width), 1))
        for _ in range(docs)
    ]


class TestWorkerCountInvariance:
    """``load_dataset`` gives the same arrays, qids, width and errors for every worker count.

    With more than one worker the test file, however small, is parsed in a
    forked process.
    """

    @staticmethod
    def assert_invariant(train, test):
        want = load_dataset(train, test, workers=1)
        for workers in WORKER_COUNTS[1:]:
            got = load_dataset(train, test, workers=workers)
            assert got.feature_dim == want.feature_dim
            for split in ("train", "test"):
                got_split, want_split = getattr(got, split), getattr(want, split)
                assert [q.qid for q in got_split] == [q.qid for q in want_split]
                for g, w in zip(got_split, want_split, strict=True):
                    assert np.array_equal(g.features, w.features)
                    assert np.array_equal(g.relevance, w.relevance)
        return want

    @staticmethod
    def assert_same_error(train, test, message):
        for workers in WORKER_COUNTS:
            with pytest.raises(ValueError) as raised:
                load_dataset(train, test, workers=workers)
            assert str(raised.value) == message

    def write_pair(self, tmp_path, train: bytes | str, test: bytes | str):
        paths = []
        for name, content in (("train.txt", train), ("test.txt", test)):
            path = tmp_path / name
            path.write_bytes(content if isinstance(content, bytes) else content.encode())
            paths.append(path)
        return paths

    @pytest.mark.parametrize("newline", ["\r\n", "\r", "\n"])
    def test_line_endings(self, tmp_path, newline):
        lines = _dense_query("1", 4, 3, seed=1) + ["", "# comment"] + _dense_query("2", 5, 3, seed=2)
        text = newline.join(lines) + newline
        train, test = self.write_pair(tmp_path, text, text.replace("qid:", "qid:t"))
        data = self.assert_invariant(train, test)
        assert [q.n_docs for q in data.train] == [4, 5]
        # Each split's features are one buffer of exactly its rows, however
        # many line breaks, blank lines and comments the file has.
        for workers in (1, 2):
            data = load_dataset(train, test, workers=workers)
            for split in (data.train, data.test):
                (buffer,) = {id(q.features.base): q.features.base for q in split}.values()
                assert buffer.flags.owndata
                assert buffer.nbytes == sum(q.n_docs for q in split) * data.feature_dim * 8
        # A \r\n counts once and a lone \r is a break, as in universal-newline text reading.
        self.write_pair(tmp_path, text + f"1 qid:3 1:x{newline}", text)
        self.assert_same_error(train, test, f"{train}: line 12: malformed feature token '1:x'")

    def test_comments_and_blank_lines(self, tmp_path):
        lines = ["# header", ""] + _dense_query("a", 3, 2, seed=3)
        lines[3] += "  # docid = 7"
        lines += ["", "   ", "#", "\t"] + _dense_query("b", 3, 2, seed=4) + ["# trailer"]
        train, test = self.write_pair(tmp_path, _rows(lines), _rows(lines[2:]))
        data = self.assert_invariant(train, test)
        assert [q.qid for q in data.train] == ["a", "b"]

    def test_sparse_lines_and_differing_widths(self, tmp_path):
        train = _rows(["1 qid:1 3:0.5", "0 qid:1 1:0.2", "2 qid:2 1:0.1 2:0.3 3:0.4", "1 qid:2 2:9", "0 qid:3 7:1.5"])
        test = _rows(["2 qid:9 1:5.0 2:1.0", "0 qid:9 1:7.0 2:3.0", "1 qid:9 2:2.0"])
        data = self.assert_invariant(*self.write_pair(tmp_path, train, test))
        assert data.feature_dim == 7

    def test_non_contiguous_qids(self, tmp_path):
        text = _rows(["1 qid:a 1:1.0", "0 qid:b 1:2.0", "2 qid:a 1:3.0", "3 qid:c 1:4.0", "4 qid:b 1:5.0", "1 qid:a 1:6.0"])
        data = self.assert_invariant(*self.write_pair(tmp_path, text, text))
        assert [q.qid for q in data.train] == ["a", "b", "c"]
        assert data.train[0].relevance.tolist() == [1, 2, 1]

    def test_fewer_lines_than_workers(self, tmp_path):
        train, test = self.write_pair(tmp_path, "1 qid:1 1:0.5\n0 qid:1 1:0.25\n", "2 qid:2 1:1.0 2:3.0")
        data = self.assert_invariant(train, test)
        assert data.feature_dim == 2

    def test_bad_line_in_the_last_range(self, tmp_path):
        # The test file's last line; with more than one worker it is raised in the forked process.
        lines = _dense_query("1", 6, 3, seed=8)
        train, test = self.write_pair(tmp_path, _rows(lines), _rows(lines[:-1] + ["0 qid:1 1:0.5 2:nan"]))
        self.assert_same_error(train, test, f"{test}: line 6: non-finite feature value '2:nan'")

    def test_earlier_of_two_bad_lines_reported(self, tmp_path):
        lines = _dense_query("1", 9, 3, seed=9)
        lines[2], lines[7] = "7 qid:1 1:0.5", "1 qid:1 0:0.5"
        train, test = self.write_pair(tmp_path, _rows(lines), "1 qid:x\n")
        self.assert_same_error(train, test, f"{train}: line 3: grade 7 outside [0, 4]")
        # The train file's error comes before any in the test file.
        self.write_pair(tmp_path, _rows(lines[:7] + ["1 qid:1 0:0.5"]), "9 qid:x\n")
        self.assert_same_error(train, test, f"{train}: line 3: grade 7 outside [0, 4]")

    def test_bytes_that_are_not_utf8(self, tmp_path):
        lines = [line.encode() for line in _dense_query("1", 6, 3, seed=10)]
        lines[4] += b" # \xc3("
        train, test = self.write_pair(tmp_path, b"\n".join(lines) + b"\n", _rows(_dense_query("2", 2, 3, seed=11)))
        self.assert_same_error(train, test, f"{train}: line 5: not UTF-8 text (invalid continuation byte)")
        lines[1] += b" 4:x"  # a malformed token on an earlier line wins
        self.write_pair(tmp_path, b"\n".join(lines) + b"\n", _rows(_dense_query("2", 2, 3, seed=11)))
        self.assert_same_error(train, test, f"{train}: line 2: malformed feature token '4:x'")

    def test_more_than_one_worker_always_forks(self, tmp_path, monkeypatch):
        children = []

        def spy_context(method):
            context = get_context(method)

            def process(*args, **kwargs):
                child = context.Process(*args, **kwargs)
                children.append((context.get_start_method(), child))
                return child

            return SimpleNamespace(Process=process)

        monkeypatch.setattr(datasets, "get_context", spy_context)
        lines = _dense_query("1", 300, 136, seed=12)
        sizes = []
        for test_lines in (lines[:3], lines[:150], lines):
            train, test = self.write_pair(tmp_path, _rows(lines[:2]), _rows(test_lines))
            sizes.append(test.stat().st_size)
            for workers in (2, 5):
                children.clear()
                assert load_dataset(train, test, workers=workers).feature_dim == 136
                assert [(method, child.exitcode) for method, child in children] == [("fork", 0)]
            children.clear()
            assert load_dataset(train, test, workers=1).feature_dim == 136
            assert children == []
        assert sizes[0] < sizes[1] < 1 << 19 < sizes[2]  # a few lines, and under and over 512 KiB

    def test_missing_test_file(self, tmp_path):
        lines = _dense_query("1", 6, 3, seed=16)
        train, test = self.write_pair(tmp_path, _rows(lines), "")
        test.unlink()
        for workers in WORKER_COUNTS:
            with pytest.raises(FileNotFoundError) as raised:
                load_dataset(train, test, workers=workers)
            assert str(raised.value) == f"[Errno 2] No such file or directory: '{test}'"
            assert multiprocessing.active_children() == []
        # A bad train line is still reported first.
        train.write_text(_rows(["1 qid:1 1:x"] + lines))
        self.assert_same_error(train, test, f"{train}: line 1: malformed feature token '1:x'")

    def test_bad_train_line_stops_the_forked_parse(self, tmp_path, monkeypatch):
        lines = _dense_query("1", 6, 3, seed=13)
        lines[1] = "1 qid:1 1:x"
        train, test = self.write_pair(tmp_path, _rows(lines), _rows(_dense_query("2", 6, 3, seed=14)))
        arrays = datasets._letor_arrays

        def slow_test_parse(path):  # the forked child inherits this
            if path == test:
                time.sleep(60)
            return arrays(path)

        monkeypatch.setattr(datasets, "_letor_arrays", slow_test_parse)
        start = time.perf_counter()
        with pytest.raises(ValueError) as raised:
            load_dataset(train, test, workers=2)
        assert time.perf_counter() - start < 10
        assert str(raised.value) == f"{train}: line 2: malformed feature token '1:x'"
        assert multiprocessing.active_children() == []

    def test_no_process_left_running(self, tmp_path, monkeypatch):
        lines = _dense_query("1", 6, 3, seed=15)
        train, test = self.write_pair(tmp_path, _rows(lines), _rows(lines[:3] + ["1 qid:1 1:x"]))
        with pytest.raises(ValueError) as raised:
            load_dataset(train, test, workers=2)  # the child's error
        assert str(raised.value) == f"{test}: line 4: malformed feature token '1:x'"
        assert multiprocessing.active_children() == []
        self.write_pair(tmp_path, _rows(lines), _rows(lines))
        assert len(load_dataset(train, test, workers=2).test) == 1
        assert multiprocessing.active_children() == []
        arrays = datasets._letor_arrays
        pid = os.getpid()  # only a forked child dies; a parse in this process would end the test run

        def dying_test_parse(path):
            if path == test and os.getpid() != pid:
                os._exit(3)
            return arrays(path)

        monkeypatch.setattr(datasets, "_letor_arrays", dying_test_parse)
        with pytest.raises(RuntimeError, match="^" + re.escape(f"{test}: the forked parse ended before sending its rows") + "$"):
            load_dataset(train, test, workers=2)
        assert multiprocessing.active_children() == []

    def test_rows_cut_short_are_refused(self, tmp_path, monkeypatch):
        # The child sends its header and then dies inside the feature bytes.
        lines = _dense_query("1", 6, 3, seed=15)
        train, test = self.write_pair(tmp_path, _rows(lines), _rows(lines))
        arrays = datasets._letor_arrays

        def cut_short(path, fd):
            features, *rest = arrays(path)
            with open(fd, "wb") as pipe:
                pickle.dump((features.shape, *rest), pipe)
                pipe.write(features.tobytes()[:-8])

        monkeypatch.setattr(datasets, "_send_rows", cut_short)
        with pytest.raises(RuntimeError, match="^" + re.escape(f"{test}: the forked parse ended before sending its rows") + "$"):
            load_dataset(train, test, workers=2)
        assert multiprocessing.active_children() == []
