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
    synthetic_generating_weights,
    write_letor,
)
from oltrsim.evaluation import evaluate_heldout
from oltrsim.ranking import LinearRanker

from _oracles import reference_parse_letor


def write_tmp(tmp_path, text, name="data.txt"):
    path = tmp_path / name
    path.write_text(text)
    return path


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
    "token": ["1:", ":5", "1:2:3", "abc", "1.5:0.2", "0:1", "-2:1", ":", "2:x"],
    "dense_value": ["1:2", "x", ""],
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
        once = normalize_query_level([q])
        twice = normalize_query_level(once)
        assert np.array_equal(once[0].features, twice[0].features)
        assert once[0].features.min() >= 0.0
        assert once[0].features.max() <= 1.0


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

    def test_empty_train_rejected(self, rng):
        data = make_synthetic(1, 2, 2, seed=0)
        empty = Dataset(train=[], test=data.test, feature_dim=2)
        with pytest.raises(ValueError):
            sample_query(empty, rng)


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
