from pathlib import Path

import numpy as np
import pytest

from phraseindex.encode.wordvectors import (
    QuestionChannels,
    WordVectorTable,
    read_word_vectors,
    toy_word_vector_table,
    write_word_vectors,
)
from phraseindex.errors import SchemaError


def tables_equal(a: WordVectorTable, b: WordVectorTable) -> bool:
    if a.dim != b.dim or a.documents.keys() != b.documents.keys():
        return False
    if a.questions.keys() != b.questions.keys():
        return False
    for doc_id, ca in a.documents.items():
        cb = b.documents[doc_id]
        for name in ("base", "sa_key", "sa_query"):
            va, vb = getattr(ca, name), getattr(cb, name)
            if (va is None) != (vb is None):
                return False
            if va is not None and not np.array_equal(va, vb):
                return False
    for qid, qa in a.questions.items():
        qb = b.questions[qid]
        if not np.array_equal(qa.base, qb.base):
            return False
        if qa.scores.keys() != qb.scores.keys():
            return False
        if any(not np.array_equal(qa.scores[k], qb.scores[k]) for k in qa.scores):
            return False
    return True


def test_toy_table_shapes(mini_corpus, toy_vectors):
    assert toy_vectors.dim == 8
    assert set(toy_vectors.documents) == {0, 1}
    for doc in mini_corpus.documents:
        chan = toy_vectors.documents[doc.doc_id]
        assert chan.base.shape == (len(doc), 8)
        assert chan.sa_key.shape == (len(doc), 8)
        assert chan.sa_query.shape == (len(doc), 8)
        assert chan.base.dtype == np.float32
    for ex in mini_corpus.examples:
        q = toy_vectors.questions[ex.question_id]
        assert q.base.shape == (len(ex.question_tokens), 8)
        assert set(q.scores) == {0, 1, 2, 3}
        assert q.scores[0].shape == (len(ex.question_tokens),)


def test_toy_table_is_deterministic(mini_corpus):
    a = toy_word_vector_table(mini_corpus, dim=8, seed=7)
    b = toy_word_vector_table(mini_corpus, dim=8, seed=7)
    c = toy_word_vector_table(mini_corpus, dim=8, seed=8)
    assert tables_equal(a, b)
    assert not tables_equal(a, c)


def test_write_read_round_trip(tmp_path, toy_vectors):
    path = str(tmp_path / "wv.txt")
    write_word_vectors(toy_vectors, path)
    loaded = read_word_vectors(path)
    assert tables_equal(toy_vectors, loaded)
    # a second write of the loaded table is byte-identical
    path2 = str(tmp_path / "wv2.txt")
    write_word_vectors(loaded, path2)
    assert Path(path).read_text() == Path(path2).read_text()


def test_id_namespace_rules(tmp_path):
    path = tmp_path / "wv.txt"
    path.write_text(
        "base 0 1 2\n0 1.5 -2\n"
        "sa_key 0 1 2\n0 0.5 0.5\n"
        "sa_query 0 1 2\n0 1 0\n"
        "base q-one 2 2\n0 3 4\n1 5 6\n"
        "score0 q-one 2 1\n0 0.25\n1 -0.75\n"
    )
    table = read_word_vectors(str(path))
    assert list(table.documents) == [0]
    assert list(table.questions) == ["q-one"]
    np.testing.assert_array_equal(table.documents[0].base, [[1.5, -2.0]])
    np.testing.assert_array_equal(table.questions["q-one"].scores[0], [0.25, -0.75])
    assert table.dim == 2


def test_positions_may_arrive_out_of_order(tmp_path):
    path = tmp_path / "wv.txt"
    path.write_text("base 0 2 1\n1 2.0\n0 1.0\n")
    table = read_word_vectors(str(path))
    np.testing.assert_array_equal(table.documents[0].base, [[1.0], [2.0]])


@pytest.mark.parametrize(
    "content, needle",
    [
        ("base 0 1\n", "bad header"),
        ("base 0 one 2\n", "non-integer"),
        ("base 0 2 2\n0 1 2\n", "truncated"),
        ("base 0 1 2\n0 1\n", "expected 3 fields"),
        ("base 0 1 2\n7 1 2\n", "position"),
        ("base 0 1 2\n0 1 2\nbase 0 1 2\n0 1 2\n", "duplicate"),
        ("score0 q 1 2\n0 1 2\n", "dim 1"),
        ("wobble 0 1 2\n0 1 2\n", "unknown channel"),
        ("sa_key 0 1 2\n0 1 2\n", "no base"),
        ("base 0 1 2\n0 1 2\nbase 1 1 3\n0 1 2 3\n", "inconsistent"),
        ("base 0 2 2\n0 1 2\n0 3 4\n", "repeated position"),
        ("score1 q 1 1\n0 1\n", "no base"),
        ("base 0 1 2\n0 1 2\nsa_key 0 2 2\n0 1 2\n1 3 4\n", "covers"),
        ("base 0 -1 4\n", "bad header"),
        ("base 0 2 -3\n0\n1\n", "bad header"),
        ("base 0 99999999999 99999\n0 1\n", "truncated"),
    ],
)
def test_malformed_files_raise_schema_errors(tmp_path, content, needle):
    path = tmp_path / "bad.txt"
    path.write_text(content)
    with pytest.raises(SchemaError) as err:
        read_word_vectors(str(path))
    assert needle in str(err.value)


@pytest.mark.parametrize("content", [b"base 0 1 2\n0 1 \xff\n", b"base \xe90 1 2\n0 1 2\n"],
                         ids=["value", "header"])
def test_non_utf8_bytes_raise_schema_errors(tmp_path, content):
    path = tmp_path / "bad.txt"
    path.write_bytes(content)
    with pytest.raises(SchemaError, match="not valid UTF-8") as err:
        read_word_vectors(str(path))
    assert str(err.value).startswith(f"{path}: ")  # names the file


@pytest.mark.parametrize(
    "value",
    ["nan", "inf", "-inf",
     pytest.param("1e39", marks=pytest.mark.filterwarnings("ignore:overflow"))],
)
def test_non_finite_values_raise_schema_errors(tmp_path, value):
    path = tmp_path / "bad.txt"
    path.write_text(f"base 0 1 2\n0 1 2\nbase q1 2 2\n1 3 {value}\n0 1 2\n")
    with pytest.raises(SchemaError) as err:
        read_word_vectors(str(path))
    # names the file, the block's header line and the token position
    assert f"{path}:3: base q1 " in str(err.value)
    assert "non-finite value at position 1" in str(err.value)


@pytest.mark.parametrize(
    "line, needle",
    [("0 1 abc", "could not convert string to float: 'abc'"), ("x 1 2", "invalid literal")],
)
def test_non_numeric_fields_raise_schema_errors(tmp_path, line, needle):
    path = tmp_path / "bad.txt"
    path.write_text(f"base 0 1 2\n0 1 2\nbase 1 1 2\n{line}\n")
    with pytest.raises(SchemaError) as err:
        read_word_vectors(str(path))
    assert str(err.value).startswith(f"{path}:4: ")  # the file and the line
    assert needle in str(err.value)


def test_lookup_errors():
    table = WordVectorTable(dim=2)
    table.questions["q"] = QuestionChannels("q", base=np.zeros((1, 2), dtype=np.float32))
    assert table.question("q") is table.questions["q"]
    with pytest.raises(SchemaError):
        table.question("nope")
