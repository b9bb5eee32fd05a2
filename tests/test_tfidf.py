import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from phraseindex.candidates import CandidateSpan
from phraseindex.corpus import Document, tokenize
from phraseindex.encode.tfidf import IdfTable, SparseVector, tfidf_question_encode, weigh_bags

from .oracles import tfidf_bag_encode, tfidf_phrase_encode


class FixedIdf:
    """Idf stub with hand-set values, for the worked examples."""

    def __init__(self, values: dict[str, float]):
        self.values = values
        self._ids = {t: i for i, t in enumerate(sorted(values))}

    def idf(self, term: str) -> float:
        return self.values[term]

    @property
    def idf_by_id(self) -> np.ndarray:
        return np.array([self.values[t] for t in sorted(self.values)])

    def ids(self, tokens) -> np.ndarray:
        return np.array([self._ids.get(t, -1) for t in tokens], dtype=np.int64)


def make_doc(text: str) -> Document:
    tokens, offsets = tokenize(text)
    return Document(doc_id=0, tokens=tokens, char_offsets=offsets, raw_text=text)


def as_dict(vec: SparseVector, idf) -> dict[str, float]:
    names = {v: k for k, v in idf._ids.items()}
    return {names[int(t)]: float(w) for t, w in zip(vec.term_ids, vec.weights)}


def test_single_token_doc():
    doc = make_doc("x")
    vec = tfidf_phrase_encode(doc, CandidateSpan(0, 0, 0), 7, FixedIdf({"x": 1.0}))
    assert vec.term_ids.tolist() == [0]
    assert vec.weights.tolist() == [1.0]


def test_window_one_uniform_idf():
    idf = FixedIdf({"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0})
    doc = make_doc("a b c d")
    vec = tfidf_phrase_encode(doc, CandidateSpan(0, 1, 1), 1, idf)
    expected = 1 / math.sqrt(3)
    got = as_dict(vec, idf)
    assert set(got) == {"a", "b", "c"}
    for w in got.values():
        assert w == pytest.approx(expected, abs=1e-12)


def test_repeated_token_weighting():
    idf = FixedIdf({"a": 2.0, "b": 1.0})
    doc = make_doc("a a b")
    vec = tfidf_phrase_encode(doc, CandidateSpan(0, 0, 0), 2, idf)
    got = as_dict(vec, idf)
    norm = math.sqrt(17)
    assert got["a"] == pytest.approx(4 / norm, abs=1e-12)
    assert got["b"] == pytest.approx(1 / norm, abs=1e-12)


def test_context_only_excludes_phrase_tokens():
    idf = FixedIdf({"a": 1.0, "b": 1.0, "c": 1.0})
    doc = make_doc("a b c")
    vec = tfidf_phrase_encode(doc, CandidateSpan(0, 1, 1), 1, idf, include_phrase=False)
    got = as_dict(vec, idf)
    assert set(got) == {"a", "c"}


def test_question_encode_examples():
    assert tfidf_question_encode([], FixedIdf({"cat": 1.0})).term_ids.size == 0

    vec = tfidf_question_encode(["cat"], FixedIdf({"cat": 1.0}))
    assert vec.weights.tolist() == [1.0]

    idf = FixedIdf({"big": 1.0, "dog": 1.0})
    vec = tfidf_question_encode(["big", "big", "dog"], idf)
    got = as_dict(vec, idf)
    assert got["big"] == pytest.approx(2 / math.sqrt(5), abs=1e-12)
    assert got["dog"] == pytest.approx(1 / math.sqrt(5), abs=1e-12)


def test_oov_terms_are_skipped():
    vec = tfidf_question_encode(["known", "unknown"], FixedIdf({"known": 1.0}))
    assert len(vec.term_ids) == 1


def test_idf_table_formula():
    table = IdfTable(df={"common": 9, "rare": 0}, num_documents=9)
    assert table.idf("common") == pytest.approx(1.0)
    assert table.idf("rare") == pytest.approx(math.log(10) + 1)
    # unseen term: df treated as 0
    assert table.idf("never-seen") == pytest.approx(math.log(10) + 1)
    assert table.idf("common") > 0


def test_idf_table_ids_are_sorted_vocab_positions():
    table = IdfTable(df={"zebra": 1, "apple": 1, "mango": 1}, num_documents=3)
    assert table.vocab == ["apple", "mango", "zebra"]
    assert table.ids(["apple", "zebra", "missing"]).tolist() == [0, 2, -1]


@given(
    st.lists(
        st.lists(st.integers(-1, 30), min_size=0, max_size=12), min_size=1, max_size=6
    ).map(lambda rows: [row + [-1] * (12 - len(row)) for row in rows]),
    st.lists(st.floats(0.01, 10), min_size=31, max_size=31),
)
def test_sparse_vector_unit_norm_property(bags, idf):
    sizes, terms, weights = weigh_bags(np.array(bags, dtype=np.int64), np.array(idf))
    assert sizes.sum() == len(terms) == len(weights)
    ends = np.cumsum(sizes).tolist()
    for bag, size, end in zip(bags, sizes.tolist(), ends):
        ids, w = terms[end - size : end], weights[end - size : end]
        assert ids.tolist() == sorted({t for t in bag if t >= 0})  # strictly increasing
        if size:
            assert math.sqrt(w @ w) == pytest.approx(1.0, abs=1e-12)


@given(st.lists(st.integers(0, 60).map("t{:02d}".format), max_size=40))
def test_question_encode_matches_the_counter_reference(tokens):
    # Terms t00-t39 have ids, the rest do not. The reference sums the squares
    # with w @ w, in another order than the term-order sum: 4 float64 ulp.
    idf = IdfTable(df={f"t{i:02d}": i % 7 for i in range(40)}, num_documents=9)
    got, expected = tfidf_question_encode(tokens, idf), tfidf_bag_encode(tokens, idf)
    assert got.term_ids.dtype == np.int64 and got.weights.dtype == np.float64
    assert np.array_equal(got.term_ids, expected.term_ids)
    np.testing.assert_array_max_ulp(got.weights, expected.weights, maxulp=4)


def test_phrase_encode_validates_inputs():
    doc = make_doc("a b c")
    idf = FixedIdf({"a": 1.0, "b": 1.0, "c": 1.0})
    with pytest.raises(ValueError):
        tfidf_phrase_encode(doc, CandidateSpan(0, 2, 1), 7, idf)
    with pytest.raises(ValueError):
        tfidf_phrase_encode(doc, CandidateSpan(0, 0, 3), 7, idf)
    with pytest.raises(ValueError):
        tfidf_phrase_encode(doc, CandidateSpan(0, 0, 0), -1, idf)
