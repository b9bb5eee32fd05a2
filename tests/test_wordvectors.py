import os
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from phraseindex.encode import wordvectors
from phraseindex.encode.wordvectors import (
    DocChannels,
    QuestionChannels,
    WordVectorTable,
    read_word_vectors,
    toy_word_vector_table,
    write_word_vectors,
)
from phraseindex.errors import SchemaError
from phraseindex.evaluation import evaluate
from phraseindex.service import QueryEngine, question_encoder


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


def test_ids_of_non_ascii_digits_name_questions(tmp_path):
    # "\u00b2" (superscript two) and "\u0663" (Arabic-Indic three) pass str.isdigit
    path = tmp_path / "wv.txt"
    path.write_text("base 3 1 2\n0 1 2\nbase \u00b2 1 2\n0 3 4\nbase \u0663 1 2\n0 5 6\n",
                    encoding="utf-8")
    table = read_word_vectors(str(path))
    assert list(table.documents) == [3]
    assert list(table.questions) == ["\u00b2", "\u0663"]
    np.testing.assert_array_equal(table.documents[3].base, [[1.0, 2.0]])
    np.testing.assert_array_equal(table.questions["\u0663"].base, [[5.0, 6.0]])


def test_positions_may_arrive_out_of_order(tmp_path):
    path = tmp_path / "wv.txt"
    path.write_text("base 0 2 1\n1 2.0\n0 1.0\n")
    table = read_word_vectors(str(path))
    np.testing.assert_array_equal(table.documents[0].base, [[1.0], [2.0]])


# faults in a document block's value lines, which surface at the document's first lookup
DOCUMENT_VALUE_FAULTS = ("expected 3 fields", "position", "repeated position")


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
        ("base 0 1 2\n0 1 2\nsa_key \u00b2 1 2\n0 1 2\n", "needs a document id"),
        ("base 3 1 2\n0 1 2\nsa_key \u0663 1 2\n0 1 2\n", "needs a document id"),
        ("base 0 1 2\n0 1 2\nsa_query q 1 2\n0 1 2\n", "needs a document id"),
        ("base q1 0 2\nscore0 q1 0 1\n", "question 'q1' has no positions"),
    ],
)
def test_malformed_files_raise_schema_errors(tmp_path, content, needle):
    path = tmp_path / "bad.txt"
    path.write_text(content)
    if needle in DOCUMENT_VALUE_FAULTS:  # the read passes; document 0's lookup raises
        table = read_word_vectors(str(path))
        with pytest.raises(SchemaError) as err:
            table.documents[0]
    else:
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
    table = read_word_vectors(str(path))  # the fault is in document 1's value lines
    with pytest.raises(SchemaError) as err:
        table.documents[1]
    assert str(err.value).startswith(f"{path}:4: ")  # the file and the line
    assert needle in str(err.value)


@pytest.mark.parametrize(
    "block, message",
    [
        ("base 1 1 2\n0 1\n", ":6: expected 3 fields, got 2"),
        ("base 1 2 2\n0 1 2\n0 3 4\n", ":7: bad or repeated position 0"),
        ("base 1 1 2\n0 1 abc\n", ":6: could not convert string to float: 'abc'"),
        ("base 1 1 2\n0 1 2\nsa_key 1 1 2\n0 inf 2\n", ":7: sa_key 1 has a non-finite value"),
        # two faults: the one reported is the file's first
        ("sa_key 1 1 2\n0 1 x\nbase 1 1 2\n0 y 2\n", ":6: could not convert string to float: 'x'"),
    ],
)
def test_faults_in_document_values_surface_at_first_lookup(tmp_path, block, message):
    path = tmp_path / "wv.txt"
    path.write_text(f"base 0 1 2\n0 1 2\nbase q 1 2\n0 5 6\n{block}")
    table = read_word_vectors(str(path))  # headers, ids and coverage are checked here
    assert list(table.documents) == [0, 1] and table.dim == 2
    np.testing.assert_array_equal(table.questions["q"].base, [[5.0, 6.0]])
    np.testing.assert_array_equal(table.documents[0].base, [[1.0, 2.0]])
    for _ in range(2):  # a failed lookup stays failed
        with pytest.raises(SchemaError) as err:
            table.documents[1]
        assert str(err.value).startswith(f"{path}{message}")


def test_a_short_document_block_is_refused_at_read(tmp_path):
    path = tmp_path / "wv.txt"
    path.write_text("base 0 1 2\n0 1 2\nbase 1 3 2\n0 1 2\n")
    with pytest.raises(SchemaError, match=r":5: truncated block for base 1$"):
        read_word_vectors(str(path))


def test_answering_questions_parses_no_document_block(tmp_path, toy_vectors, dense_index,
                                                      mini_corpus):
    path = str(tmp_path / "wv.txt")
    write_word_vectors(toy_vectors, path)
    table = read_word_vectors(path)
    encode = question_encoder(dense_index, table)
    engine = QueryEngine(dense_index, corpus=mini_corpus, word_vectors=table)
    with mock.patch.object(wordvectors, "_parse_block", wraps=wordvectors._parse_block) as spy:
        metrics = evaluate(dense_index, mini_corpus,
                           lambda ex: encode(ex.question_tokens, ex.question_id))
        answers, _ = engine.answer("q1", top_k=3)
        assert metrics.count == len(mini_corpus.examples) and len(answers) == 3
        assert spy.call_count == 0
        assert tables_equal(table, toy_vectors)  # looks up every document
        assert spy.call_count == 3 * len(mini_corpus.documents)


def replace_file(path: Path):
    """The same bytes under the same path, as a new file."""
    fresh = path.with_suffix(".new")
    fresh.write_bytes(path.read_bytes())
    os.replace(fresh, path)


def rewrite_file(path: Path):
    """The same file, rewritten in place: same size, a new modification time."""
    before = path.stat()
    path.write_text(path.read_text().replace("0 1 2", "0 3 4"))
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns + 1_000_000_000))
    assert path.stat().st_size == before.st_size and path.stat().st_ino == before.st_ino


def extend_file(path: Path):
    with path.open("a") as f:
        f.write("base 2 1 2\n0 5 6\n")


@pytest.mark.parametrize("change", [replace_file, rewrite_file, extend_file])
def test_a_file_changed_after_the_read_is_refused_at_lookup(tmp_path, change):
    path = tmp_path / "wv.txt"
    path.write_text("base 0 1 2\n0 1 2\nbase 1 1 2\n0 1 2\nbase q 1 2\n0 5 6\n")
    table = read_word_vectors(str(path))
    table.documents[0]
    change(path)
    np.testing.assert_array_equal(table.documents[0].base, [[1.0, 2.0]])  # parsed before
    with pytest.raises(SchemaError, match="changed since it was read") as err:
        table.documents[1]
    assert str(err.value).startswith(f"{path}: ")


def test_read_documents_behave_as_a_dict(tmp_path, toy_vectors):
    path = str(tmp_path / "wv.txt")
    write_word_vectors(toy_vectors, path)
    docs = read_word_vectors(path).documents
    assert len(docs) == 2 and 0 in docs and 5 not in docs and list(docs) == [0, 1]
    assert docs.setdefault(0, None) is docs[0] and docs.get(5) is None
    chan = DocChannels(5, base=np.zeros((1, 8), dtype=np.float32))
    assert docs.setdefault(5, chan) is chan and docs[5] is chan
    docs[5] = chan = DocChannels(5, base=np.ones((1, 8), dtype=np.float32))
    assert [d for d, _ in docs.items()] == [0, 1, 5] and list(docs.values())[-1] is chan
    del docs[5]
    assert dict(docs.items()).keys() == toy_vectors.documents.keys()
    with pytest.raises(KeyError):
        docs[5]


def test_lookup_errors():
    table = WordVectorTable(dim=2)
    table.questions["q"] = QuestionChannels("q", base=np.zeros((1, 2), dtype=np.float32))
    assert table.question("q") is table.questions["q"]
    with pytest.raises(SchemaError):
        table.question("nope")


# ------------------------------------------------- numpy pass against line parser


def table_arrays(table: WordVectorTable) -> list:
    """Every array of a table in insertion order, with all that makes two arrays
    bit-identical: dtype, shape, strides and bytes."""
    named = []
    for doc_id, chan in table.documents.items():
        named.extend((doc_id, name, getattr(chan, name)) for name in ("base", "sa_key", "sa_query"))
    for qid, q in table.questions.items():
        named.append((qid, "base", q.base))
        named.extend((qid, k, s) for k, s in q.scores.items())
    return [(key, name, None if a is None else (a.dtype.str, a.shape, a.strides, a.tobytes()))
            for key, name, a in named]


def read_each_way(path: str) -> tuple:
    """(what read_word_vectors returns, what it returns with every block parsed
    line by line, whether the numpy pass took each block it was given). What a
    read returns is the table's arrays or the text of the error it raised."""
    numpy_pass, taken = wordvectors._parse_canonical_block, []

    def spied(lines, dim):
        rows = numpy_pass(lines, dim)
        taken.append(rows is not None)
        return rows

    def outcome():
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # loadtxt would warn on a block of no lines
            try:
                return table_arrays(read_word_vectors(path))
            except (SchemaError, RuntimeWarning) as exc:  # RuntimeWarning: float32 overflow
                return f"{type(exc).__name__}: {exc}"

    with mock.patch.object(wordvectors, "_parse_canonical_block", spied):
        fast = outcome()
    with mock.patch.object(wordvectors, "_parse_canonical_block", lambda lines, dim: None):
        lines = outcome()
    return fast, lines, taken


@pytest.fixture(scope="module")
def wv_path(tmp_path_factory) -> str:
    return str(tmp_path_factory.mktemp("wv") / "wv.txt")


finite32 = st.floats(width=32, allow_nan=False, allow_infinity=False)


@st.composite
def random_tables(draw) -> WordVectorTable:
    dim = draw(st.integers(1, 5))

    def rows(n, width=dim):
        return draw(hnp.arrays(np.float32, (n, width), elements=finite32))

    table = WordVectorTable(dim=dim)
    for doc_id in range(draw(st.integers(0, 3))):
        m = draw(st.integers(0, 4))
        sa = draw(st.booleans())
        table.documents[doc_id] = DocChannels(
            doc_id, rows(m), rows(m) if sa else None, rows(m) if sa else None
        )
    for j in range(draw(st.integers(0, 2))):
        n = draw(st.integers(1, 4))  # a question of no positions is refused
        q = table.questions[f"q{j}"] = QuestionChannels(f"q{j}", rows(n))
        q.scores = {k: rows(n, 1)[:, 0] for k in range(4) if draw(st.booleans())}
    return table


@settings(max_examples=150, deadline=None)
@given(table=random_tables())
def test_numpy_pass_matches_the_line_parser_on_written_tables(wv_path, table):
    write_word_vectors(table, wv_path)
    fast, lines, taken = read_each_way(wv_path)
    assert fast == lines
    headers = [line.split() for line in Path(wv_path).read_text().splitlines()
               if not line[0].isdigit()]
    # every block with rows: the read parses the question blocks, then
    # table_arrays looks up the documents, which the writer puts first
    has_rows = {True: [], False: []}
    for _, ident, count, _ in headers:
        has_rows[ident.isdigit()].append(int(count) > 0)
    assert taken == has_rows[False] + has_rows[True]


# (spelling, whether loadtxt reads it): float() reads all of them
SPELLED_VALUES = [
    ("1E5", True), (".5", True), ("5.", True), ("-0", True), ("+0", True), ("-.5e-3", True),
    ("4.9e-324", True), ("1e-45", True), ("7e-46", True), ("1.17549435e-38", True),
    ("3.4028235e38", True), ("1e39", True), ("nan", True), ("-Infinity", True),
    ("1_0", False), ("\u0661", False), ("0x10", False),
]
spelled_value = st.one_of(
    st.sampled_from(SPELLED_VALUES),
    st.tuples(
        st.sampled_from([repr, "%.17g".__mod__, "%.9g".__mod__, "%E".__mod__]),
        st.one_of(finite32, st.floats(-1e30, 1e30)),
    ).map(lambda spell: (spell[0](spell[1]), True)),
)


@st.composite
def spelled_files(draw) -> tuple[str, list[bool]]:
    """A file of base blocks with hand-spelled values and positions, and for each
    block whether it is plain enough that the numpy pass must take it."""
    dim, text, plain_blocks = draw(st.integers(1, 4)), [], []
    for doc_id in range(draw(st.integers(1, 3))):
        count = draw(st.integers(0, 4))
        order = draw(st.one_of(st.just(list(range(count))), st.permutations(range(count))))
        text.append(f"base {doc_id} {count} {dim}\n")
        plain = order == list(range(count))
        for pos in order:
            spelled_pos = draw(st.sampled_from([str(pos)] * 4 + [f"+{pos}", f"0{pos}", f"{pos}.0"]))
            values = draw(st.lists(spelled_value, min_size=dim, max_size=dim))
            sep = draw(st.sampled_from([" "] * 4 + ["  ", "\t"]))
            end = draw(st.sampled_from([""] * 3 + [" ", "\t"]))
            text.append(sep.join([spelled_pos] + [v for v, _ in values]) + end + "\n")
            plain &= spelled_pos == str(pos) and sep == " " and end == ""
            plain &= all(numpy_reads for _, numpy_reads in values)
        plain_blocks.append(count > 0 and plain)
    return "".join(text), plain_blocks


@settings(max_examples=300, deadline=None)
@given(spelled=spelled_files())
def test_numpy_pass_matches_the_line_parser_on_spelled_values(wv_path, spelled):
    text, plain_blocks = spelled
    Path(wv_path).write_text(text, encoding="utf-8")
    fast, lines, taken = read_each_way(wv_path)
    assert fast == lines  # the same table, or the same error
    # zip stops at the block a read stopped at
    assert all(took for took, plain in zip(taken, plain_blocks) if plain)
