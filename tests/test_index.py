import dataclasses
import math
import struct
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phraseindex import index as index_module
from phraseindex.candidates import CandidateSpan, span_bounds, span_count
from phraseindex.corpus import Corpus, Document, tokenize
from phraseindex.encode.dense import sa_all
from phraseindex.encode.tfidf import IdfTable, SparseVector
from phraseindex.encode.wordvectors import toy_word_vector_table
from phraseindex.errors import BuildError, FormatError
from phraseindex.index import (
    METADATA_DTYPE,
    PhraseIndex,
    _top_k,
    bench_scan,
    build_index,
    load_index,
    save_index,
    search_exact,
    synthetic_dense_index,
)

from .oracles import (
    compose_phrase_lstm,
    compose_phrase_lstm_sa,
    csr_postings,
    enumerate_spans,
    gemm_search,
    per_span_dense_build,
    tfidf_phrase_encode,
    vectors_index,
)


def make_corpus(texts):
    docs = []
    for i, text in enumerate(texts):
        toks, offs = tokenize(text)
        docs.append(Document(i, text, toks, offs))
    vocab_df: dict[str, int] = {}
    for d in docs:
        for t in set(d.tokens):
            vocab_df[t] = vocab_df.get(t, 0) + 1
    return Corpus(documents=docs, examples=[], vocab_df=vocab_df, num_documents=len(docs))


def make_meta(counts):
    """Metadata with counts[d] length-1 spans (s, s) for document d."""
    rows = [(doc_id, s, s) for doc_id, c in enumerate(counts) for s in range(c)]
    arr = np.zeros(len(rows), dtype=METADATA_DTYPE)
    for i, (d, s, e) in enumerate(rows):
        arr[i] = (d, s, e)
    return arr


def quantized(shape, seed):
    """Sixteenths in [-0.5, 0.5]: float32 dot products of these are exact."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    return (rng.integers(-8, 9, size=shape) / 16.0).astype(np.float32)


def brute_force(matrix, q, k):
    """Float64 double-loop oracle: (ordinal, score) by score desc, ordinal asc."""
    scored = sorted(
        (-float(np.dot(row.astype(np.float64), np.asarray(q, dtype=np.float64))), i)
        for i, row in enumerate(matrix)
    )
    return [(i, -neg) for neg, i in scored[:k]]


# ---------------------------------------------------------------- building


def test_build_sparse_single_doc_enumerates_all_spans():
    index = build_index(make_corpus(["aa bb cc"]))
    assert index.kind == "sparse"
    assert len(index) == 6
    spans = [index.span(i) for i in range(6)]
    assert spans == [
        CandidateSpan(0, 0, 0),
        CandidateSpan(0, 0, 1),
        CandidateSpan(0, 0, 2),
        CandidateSpan(0, 1, 1),
        CandidateSpan(0, 1, 2),
        CandidateSpan(0, 2, 2),
    ]


def test_build_two_ten_token_docs():
    text = "t0 t1 t2 t3 t4 t5 t6 t7 t8 t9"
    index = build_index(make_corpus([text, text]))
    assert len(index) == 2 * span_count(10, 7) == 98
    assert index.doc_range(0) == (0, 49)
    assert index.doc_range(1) == (49, 98)
    assert list(index.doc_ids()) == [0, 1]


def test_build_rejects_bad_inputs(mini_corpus):
    with pytest.raises(ValueError):
        build_index(mini_corpus, encoder="bm25")
    with pytest.raises(BuildError, match="word-vector"):
        build_index(mini_corpus, encoder="lstm")


def test_build_rejects_oversized_document():
    n = 65536
    doc = Document(0, "a " * n, ["a"] * n, [(2 * i, 2 * i + 1) for i in range(n)])
    corpus = Corpus(documents=[doc], examples=[], vocab_df={"a": 1}, num_documents=1)
    with pytest.raises(BuildError, match="65535"):
        build_index(corpus)


@pytest.mark.parametrize("encoder", ["tfidf", "lstm_sa"])
def test_build_rejects_2_to_the_32_candidates_before_allocating(
    monkeypatch, mini_corpus, toy_vectors, encoder
):
    """Ordinals and table indexes are u32. The count is checked before the
    metadata is made, so the spans are never enumerated."""
    assert len(mini_corpus.documents) == 2
    monkeypatch.setattr(index_module, "span_count", lambda n, m: 2**31)
    monkeypatch.setattr(index_module, "span_bounds", mock.Mock(side_effect=AssertionError))
    with pytest.raises(BuildError, match="4294967296 candidate spans"):
        build_index(mini_corpus, encoder, word_vectors=toy_vectors)


def test_dense_build_matches_composition(mini_corpus, toy_vectors):
    index = build_index(mini_corpus, encoder="lstm_sa", word_vectors=toy_vectors)
    assert index.kind == "dense"
    assert index.dim == 4 * toy_vectors.dim
    assert len(index) == sum(span_count(len(d), 7) for d in mini_corpus.documents)
    for ordinal in (0, 1, len(index) // 2, len(index) - 1):
        span = index.span(ordinal)
        chan = toy_vectors.documents[span.doc_id]
        expected = compose_phrase_lstm_sa(chan, span, sa_matrix=sa_all(chan))
        np.testing.assert_array_equal(index.vectors[ordinal], expected.astype(np.float32))


def test_dense_lstm_build_dim_and_rows(mini_corpus, toy_vectors):
    index = build_index(mini_corpus, encoder="lstm", word_vectors=toy_vectors)
    assert index.dim == 2 * toy_vectors.dim
    span = index.span(5)
    chan = toy_vectors.documents[span.doc_id]
    expected = compose_phrase_lstm(chan, span).astype(np.float32)
    np.testing.assert_array_equal(index.vectors[5], expected)


@settings(max_examples=60, deadline=None)
@given(
    lengths=st.lists(st.integers(0, 12), min_size=1, max_size=5),
    max_span_len=st.integers(1, 8),
    dim=st.integers(1, 5),
    seed=st.integers(0, 2**16),
)
def test_dense_build_equals_per_span_composition(lengths, max_span_len, dim, seed):
    """Bit for bit, on documents shorter and longer than max_span_len, and empty."""
    docs = [Document(i, "", ["w"] * n, [(0, 0)] * n) for i, n in enumerate(lengths)]
    corpus = Corpus(documents=docs, examples=[], vocab_df={}, num_documents=len(docs))
    vectors = toy_word_vector_table(corpus, dim=dim, seed=seed)
    for encoder in ("lstm", "lstm_sa"):
        built = build_index(corpus, encoder, max_span_len=max_span_len, word_vectors=vectors)
        metadata, rows = per_span_dense_build(corpus, encoder, vectors, max_span_len)
        assert built.metadata.tobytes() == metadata.tobytes()
        assert built.vectors.dtype == np.float32 and built.vectors.shape == rows.shape
        assert built.vectors.tobytes() == rows.tobytes()


def test_build_is_deterministic(tmp_path, mini_corpus, toy_vectors):
    for name, kwargs in [
        ("sparse", dict(encoder="tfidf")),
        ("dense", dict(encoder="lstm_sa", word_vectors=toy_vectors)),
    ]:
        a = build_index(mini_corpus, **kwargs)
        b = build_index(mini_corpus, **kwargs)
        assert a == b
        pa, pb = str(tmp_path / f"{name}_a.idx"), str(tmp_path / f"{name}_b.idx")
        save_index(a, pa)
        save_index(b, pb)
        assert Path(pa).read_bytes() == Path(pb).read_bytes()


def test_equality_and_construction_build_no_derived_state(mini_corpus, toy_vectors):
    """A dense == compares rows chunk by chunk and keeps no vector block; a sparse
    index builds its postings dict on first access only."""
    for kwargs in (dict(encoder="tfidf"), dict(encoder="lstm_sa", word_vectors=toy_vectors)):
        a, b = build_index(mini_corpus, **kwargs), build_index(mini_corpus, **kwargs)
        assert a == b
        assert "vectors" not in a.__dict__ and "vectors" not in b.__dict__
        assert "postings" not in a.__dict__ and "postings" not in b.__dict__
    sparse = build_index(mini_corpus, encoder="tfidf")
    t = int(np.flatnonzero(np.diff(sparse.indptr))[0])
    ordinals, weights = sparse.postings.get(t)
    run = slice(sparse.indptr[t], sparse.indptr[t + 1])
    assert ordinals.tolist() == sparse.ordinals[run].tolist()
    assert weights.tolist() == sparse.weights[run].tolist()
    assert sparse.postings is sparse.postings
    rows = quantized((5, 4), seed=3)
    changed = rows.copy()
    changed[4, 3] += 0.0625
    assert vectors_index(make_meta([5]), rows) != vectors_index(make_meta([5]), changed)
    assert vectors_index(make_meta([5]), rows) == vectors_index(make_meta([5]), rows.copy())
    empty = make_meta([0])
    assert vectors_index(empty, np.zeros((0, 4))) != vectors_index(empty, np.zeros((0, 2)))


# ---------------------------------------------------------------- exact search


def test_search_orthonormal_rows():
    index = vectors_index(make_meta([4]), np.eye(4, dtype=np.float32))
    q = np.zeros(4, dtype=np.float32)
    q[2] = 1.0
    hits = search_exact(index, q, k_top=4)
    assert [(h.span.s, h.score) for h in hits] == [(2, 1.0), (0, 0.0), (1, 0.0), (3, 0.0)]


@pytest.mark.parametrize("seed", range(30))
def test_search_matches_brute_force(seed):
    rng = np.random.Generator(np.random.Philox(key=1000 + seed))
    n = int(rng.integers(1, 201))
    dim = int(rng.integers(2, 33))
    vectors = quantized((n, dim), seed)
    q = quantized(dim, 5000 + seed)
    index = vectors_index(make_meta([n]), vectors)
    for k in {1, min(3, n), n}:
        hits = search_exact(index, q, k_top=k)
        expected = brute_force(vectors, q, k)
        assert [(h.span.s, h.score) for h in hits] == [(o, s) for o, s in expected]


def test_search_restricted_to_one_document():
    vectors = quantized((60, 8), 3)
    index = vectors_index(make_meta([20, 20, 20]), vectors)
    q = quantized(8, 4)
    hits = search_exact(index, q, k_top=5, doc_id=1)
    assert all(h.span.doc_id == 1 for h in hits)
    expected = brute_force(vectors[20:40], q, 5)
    assert [(h.span.s, h.score) for h in hits] == [(o, s) for o, s in expected]
    assert search_exact(index, q, doc_id=7) == []


def test_search_scaling_leaves_ranking_fixed():
    vectors = quantized((50, 8), 11)
    q = quantized(8, 12)
    a = vectors_index(make_meta([50]), vectors)
    b = vectors_index(make_meta([50]), vectors * 4.0)
    ha = search_exact(a, q, k_top=50)
    hb = search_exact(b, q, k_top=50)
    assert [h.span for h in ha] == [h.span for h in hb]
    for x, y in zip(ha, hb):
        assert y.score == 4.0 * x.score


def test_search_k_beyond_n_returns_each_candidate_once():
    index = vectors_index(make_meta([7]), quantized((7, 4), 2))
    hits = search_exact(index, quantized(4, 9), k_top=100)
    assert sorted(h.span.s for h in hits) == list(range(7))


def test_search_input_validation():
    index = vectors_index(make_meta([3]), np.eye(3, dtype=np.float32))
    with pytest.raises(ValueError):
        search_exact(index, np.zeros(5, dtype=np.float32))
    with pytest.raises(ValueError):
        search_exact(index, np.zeros(3, dtype=np.float32), k_top=0)


# --------------------------------------------------------- batched exact search


@st.composite
def block_cases(draw):
    """A dense index over several documents (some empty, so absent) with planted
    duplicate rows, a query block and a scope. Values are small integers, so every
    score is exact whatever order a GEMM or a GEMV sums in, and ties are exact."""
    counts = draw(st.lists(st.integers(0, 12), min_size=1, max_size=4))
    n, dim = sum(counts), draw(st.integers(1, 6))
    cells = st.integers(-3, 3)
    vectors = np.array(draw(st.lists(cells, min_size=n * dim, max_size=n * dim)),
                       dtype=np.float32).reshape(n, dim)
    ordinal = st.integers(0, max(0, n - 1))
    for src, dst in draw(st.lists(st.tuples(ordinal, ordinal), max_size=4 if n else 0)):
        vectors[dst] = vectors[src]
    m = draw(st.integers(1, 7))
    queries = np.array(draw(st.lists(cells, min_size=m * dim, max_size=m * dim)),
                       dtype=np.float32).reshape(m, dim)
    doc_id = draw(st.none() | st.integers(0, len(counts)))  # len(counts): never indexed
    k_top = draw(st.integers(1, n + 2))
    rows_per_chunk = draw(st.sampled_from([1, 2, 3, None]))  # None: the default budget
    return counts, vectors, queries, doc_id, k_top, rows_per_chunk


@settings(max_examples=200, deadline=None)
@given(block_cases())
def test_block_search_equals_row_by_row_search(case):
    counts, vectors, queries, doc_id, k_top, rows_per_chunk = case
    index = vectors_index(make_meta(counts), vectors)
    lo, hi = (0, len(index)) if doc_id is None else index.doc_range(doc_id)
    block_rows = index_module._block_rows
    if rows_per_chunk is not None:  # blocks of rows_per_chunk x (hi - lo) // m index rows
        block_rows = lambda m: max(1, rows_per_chunk * max(1, hi - lo) // m)  # noqa: E731
    with mock.patch.object(index_module, "_block_rows", block_rows):
        block = search_exact(index, queries, k_top=k_top, doc_id=doc_id)
    assert len(block) == len(queries)
    for q, hits in zip(queries, block):
        single = search_exact(index, q, k_top=k_top, doc_id=doc_id)
        assert [h.span for h in hits] == [h.span for h in single]
        assert [h.score for h in hits] == pytest.approx([h.score for h in single], rel=1e-5)


def test_block_search_over_an_empty_range_gives_one_empty_list_per_row():
    index = vectors_index(make_meta([3, 0, 2]), quantized((5, 4), 1))
    assert search_exact(index, quantized((3, 4), 2), k_top=2, doc_id=1) == [[], [], []]
    assert search_exact(index, quantized((3, 4), 2), k_top=2, doc_id=9) == [[], [], []]


def test_block_search_rejects_a_wrong_dim_block():
    index = vectors_index(make_meta([3]), np.eye(3, dtype=np.float32))
    for bad in (np.zeros((2, 4)), np.zeros((2, 2)), np.zeros((1, 2, 3))):
        with pytest.raises(ValueError, match="does not match index dim"):
            search_exact(index, bad)
        with pytest.raises(ValueError, match="does not match index dim"):
            search_exact(index, bad, doc_id=7)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(-2, 2), min_size=1, max_size=40),
    st.sampled_from([np.float32, np.float64]),
)
def test_top_one_is_the_first_of_the_general_ranking(values, dtype):
    scores = np.array(values, dtype=dtype)
    first = np.lexsort((np.arange(len(scores)), -scores.astype(np.float64)))[0]
    assert _top_k(scores, 1).tolist() == [first]
    assert _top_k(scores, 1).tolist() == _top_k(scores, 2)[:1].tolist()


@pytest.mark.parametrize(
    "values, expected",
    [
        # the rankings the general path gave before top-1 had its own path
        ([1.0, np.nan, 3.0, 2.0], []),
        ([np.nan], [0]),
        ([np.nan, np.nan], []),
        ([2.0, np.nan, 2.0], []),
        ([5.0, 1.0, np.nan, 5.0], []),
    ],
)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_top_one_of_a_nan_row_keeps_the_general_result(values, expected, dtype):
    assert _top_k(np.array(values, dtype=dtype), 1).tolist() == expected


def _reference_top_k(scores, k):
    """The partition of the last n - k scores, which _top_k's first-k partition replaced."""
    if k == 1:
        best = int(scores.argmax())
        if not np.isnan(scores[best]):
            return np.array([best])
    n = len(scores)
    if k >= n:
        picked = np.arange(n)
    else:
        part = np.argpartition(scores, n - k)[n - k:]
        threshold = scores[part].min()
        above = np.flatnonzero(scores > threshold)
        at = np.flatnonzero(scores == threshold)
        picked = np.concatenate([above, at[: k - len(above)]])
    order = np.lexsort((picked, -scores[picked].astype(np.float64)))
    return picked[order]


# Mostly zeros, as in a sparse score row, with ties, NaN and infinities mixed in.
tie_heavy_value = st.sampled_from([0.0] * 6 + [1.0, -1.0, 2.0, 0.5, np.nan, np.inf, -np.inf])


@settings(max_examples=300, deadline=None)
@given(
    st.lists(tie_heavy_value, min_size=1, max_size=30),
    st.sampled_from([np.float32, np.float64]),
)
def test_top_k_matches_the_last_k_partition_on_tie_heavy_rows(values, dtype):
    scores = np.array(values, dtype=dtype)
    for k in range(1, len(scores) + 3):
        assert _top_k(scores, k).tolist() == _reference_top_k(scores, k).tolist()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_top_k_pins(dtype):
    assert _top_k(np.array([1.0, np.nan, 3.0, 2.0], dtype=dtype), 2).tolist() == []
    rng = np.random.Generator(np.random.Philox(key=3))
    scores = np.zeros(36_000, dtype=dtype)
    scores[rng.integers(0, len(scores), 500)] = rng.integers(1, 4, 500)
    expected = _reference_top_k(scores, 5).tolist()
    assert _top_k(scores, 5).tolist() == expected
    assert scores[expected].tolist() == [3.0] * 5


def _reference_doc_range(index, doc_id):
    """Two searchsorted calls with the key as given, which the uint32 key replaced."""
    ids = index.metadata["doc_id"]
    lo = int(np.searchsorted(ids, doc_id, side="left"))
    return lo, int(np.searchsorted(ids, doc_id, side="right"))


@pytest.mark.parametrize("as_numpy", [False, True])
def test_doc_range_matches_two_searchsorted_calls(as_numpy):
    index = vectors_index(make_meta([3, 0, 2, 4]), np.zeros((9, 2), np.float32))
    for doc_id in (-1, 0, 1, 2, 3, 4, 2**32 - 1, 2**32, 2**40):
        key = np.int64(doc_id) if as_numpy else doc_id
        assert index.doc_range(key) == _reference_doc_range(index, doc_id)
    assert index.doc_range(2) == (3, 5)


def test_block_search_of_a_nan_row_matches_the_single_search():
    index = vectors_index(make_meta([4]), quantized((4, 3), 5))
    queries = np.array([[np.nan, 0.0, 0.0], [1.0, 0.0, 0.0]], dtype=np.float32)
    block = search_exact(index, queries)
    assert block[0] == search_exact(index, queries[0]) == []
    assert block[1] == search_exact(index, queries[1])


def sparse_fixture(seed=21, n=80, terms=10):
    """Sparse index with quantized weights plus its dense materialization."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    dense = np.zeros((n, terms), dtype=np.float32)
    mask = rng.random((n, terms)) < 0.4
    dense[mask] = (rng.integers(1, 9, size=int(mask.sum())) / 16.0).astype(np.float32)
    postings = {}
    for t in range(terms):
        ords = np.flatnonzero(dense[:, t]).astype(np.uint64)
        if len(ords):
            postings[t] = (ords, dense[ords.astype(np.int64), t])
    df = {f"t{k}": 1 for k in range(terms)}  # t0 < t1 < ... sorts to ids 0..9
    idf = IdfTable(df=df, num_documents=1)
    index = PhraseIndex("sparse", make_meta([n]), postings=csr_postings(postings, terms), idf=idf)
    return index, dense


def test_sparse_search_matches_brute_force():
    index, dense = sparse_fixture()
    q_dense = np.zeros(10)
    q_dense[[1, 4, 7]] = [0.25, 0.5, 0.125]
    q = SparseVector(
        term_ids=np.array([1, 4, 7], dtype=np.int64),
        weights=np.array([0.25, 0.5, 0.125]),
    )
    hits = search_exact(index, q, k_top=10)
    expected = brute_force(dense, q_dense, 10)
    assert [(h.span.s, h.score) for h in hits] == [(o, s) for o, s in expected]


def test_sparse_zero_overlap_fills_in_ordinal_order():
    index, _ = sparse_fixture()
    q = SparseVector(term_ids=np.array([999], dtype=np.int64), weights=np.array([1.0]))
    hits = search_exact(index, q, k_top=4)
    assert [(h.span.s, h.score) for h in hits] == [(0, 0.0), (1, 0.0), (2, 0.0), (3, 0.0)]


def test_sparse_and_dense_agree_on_shared_weights():
    sparse, dense_matrix = sparse_fixture(seed=33)
    dense = vectors_index(make_meta([80]), dense_matrix)
    q_ids = np.array([0, 3, 9], dtype=np.int64)
    q_w = np.array([0.5, 0.25, 0.0625])
    q_dense = np.zeros(10, dtype=np.float32)
    q_dense[q_ids] = q_w
    hs = search_exact(sparse, SparseVector(term_ids=q_ids, weights=q_w), k_top=80)
    hd = search_exact(dense, q_dense, k_top=80)
    assert [h.span for h in hs] == [h.span for h in hd]
    assert [h.score for h in hs] == [h.score for h in hd]


def test_sparse_query_type_checked():
    index, _ = sparse_fixture()
    with pytest.raises(ValueError, match="SparseVector"):
        search_exact(index, np.zeros(10, dtype=np.float32))


# ------------------------------------------- flat CSR postings vs per-term oracle


def _reference_sparse_scores(postings, query, lo, hi):
    """The per-term searchsorted loop the CSR gather replaced."""
    scores = np.zeros(hi - lo, dtype=np.float64)
    for term_id, weight in zip(query.term_ids, query.weights):
        group = postings.get(int(term_id))
        if group is None:
            continue
        ords, ws = group
        a = int(np.searchsorted(ords, lo, side="left"))
        b = int(np.searchsorted(ords, hi, side="left"))
        sel = ords[a:b].astype(np.int64) - lo
        scores[sel] += float(weight) * ws[a:b].astype(np.float64)
    return scores


weights32 = st.floats(-2, 2, allow_nan=False, width=32).filter(lambda w: w != 0)


@st.composite
def csr_cases(draw):
    """A sparse index (some terms empty), a query reaching past the vocabulary, a scope."""
    counts = draw(st.lists(st.integers(1, 12), min_size=1, max_size=4))
    n, num_terms = sum(counts), draw(st.integers(1, 10))
    postings = {}
    for t in range(num_terms):
        ords = sorted(draw(st.sets(st.integers(0, n - 1), max_size=n)))
        if ords:
            ws = draw(st.lists(weights32, min_size=len(ords), max_size=len(ords)))
            postings[t] = (np.array(ords, np.uint64), np.array(ws, np.float32))
    idf = IdfTable(df={f"t{i:02d}": 1 for i in range(num_terms)}, num_documents=1)
    index = PhraseIndex(
        "sparse", make_meta(counts), postings=csr_postings(postings, num_terms), idf=idf
    )
    ids = sorted(draw(st.sets(st.integers(0, num_terms + 3), max_size=num_terms + 4)))
    qw = draw(st.lists(st.floats(-2, 2, allow_nan=False), min_size=len(ids), max_size=len(ids)))
    query = SparseVector(np.array(ids, dtype=np.int64), np.array(qw, dtype=np.float64))
    doc_id = draw(st.one_of(st.none(), st.integers(0, len(counts) - 1)))
    return index, postings, query, doc_id, draw(st.integers(1, n + 3))


@settings(max_examples=200, deadline=None)
@given(csr_cases())
def test_sparse_search_matches_the_per_term_loop(case):
    index, postings, query, doc_id, k = case
    lo, hi = (0, len(index)) if doc_id is None else index.doc_range(doc_id)
    scores = _reference_sparse_scores(postings, query, lo, hi)
    expected = index_module._hits(index, scores, k, lo)
    got = search_exact(index, query, k, doc_id=doc_id)
    assert got == expected  # spans and float scores, bit for bit
    assert len(got) == min(k, hi - lo)


def _reference_tfidf_postings(corpus, max_span_len, window, include_phrase):
    """Per-(span, term) appends, the build the stable sort by term replaced."""
    idf = IdfTable.from_corpus(corpus)
    by_term, ordinal = {}, 0
    for doc in corpus.documents:
        for s, e in enumerate_spans(len(doc), max_span_len):
            span = CandidateSpan(doc.doc_id, s, e)
            vec = tfidf_phrase_encode(doc, span, window, idf, include_phrase=include_phrase)
            for term_id, weight in zip(vec.term_ids, vec.weights):
                ords, ws = by_term.setdefault(int(term_id), ([], []))
                ords.append(ordinal)
                ws.append(np.float32(weight))
            ordinal += 1
    return {t: (np.array(o, np.uint64), np.array(w, np.float32)) for t, (o, w) in by_term.items()}


def _assert_same_postings(got, expected):
    assert got.keys() == expected.keys()
    for t, (ords, ws) in expected.items():
        assert got[t][0].dtype == np.uint32 and got[t][1].dtype == np.float32
        assert np.array_equal(got[t][0], ords) and np.array_equal(got[t][1], ws)


@pytest.mark.parametrize("include_phrase", [True, False])
def test_tfidf_build_matches_the_per_span_reference(mini_corpus, include_phrase):
    index = build_index(mini_corpus, encoder="tfidf", include_phrase=include_phrase)
    expected = _reference_tfidf_postings(mini_corpus, 7, 7, include_phrase)
    _assert_same_postings(index.postings, expected)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.lists(st.sampled_from("ab cd ef gh ij".split()), min_size=1, max_size=12),
        min_size=1, max_size=3,
    ),
    st.integers(1, 4),
    st.integers(0, 3),
    st.booleans(),
)
def test_tfidf_build_matches_the_per_span_reference_on_small_corpora(
    texts, max_span_len, window, include_phrase
):
    corpus = make_corpus([" ".join(words) for words in texts])
    index = build_index(corpus, "tfidf", max_span_len, window, include_phrase=include_phrase)
    expected = _reference_tfidf_postings(corpus, max_span_len, window, include_phrase)
    _assert_same_postings(index.postings, expected)


def _tfidf_csr(corpus, max_span_len, window, include_phrase) -> tuple:
    """build_index's CSR postings and the per-span reference's."""
    index = build_index(corpus, "tfidf", max_span_len, window, include_phrase=include_phrase)
    expected = _reference_tfidf_postings(corpus, max_span_len, window, include_phrase)
    return (index.indptr, index.ordinals, index.weights), csr_postings(expected, len(index.idf.vocab))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(0, 39).map("w{:02d}".format), min_size=0, max_size=70),
        min_size=1, max_size=3,
    ),
    st.integers(1, 12),
    st.integers(0, 90),
    st.booleans(),
)
def test_tfidf_build_matches_the_per_span_reference_on_long_bags(
    texts, max_span_len, window, include_phrase
):
    # Bags of 16 or more distinct terms, where the reference's w @ w may sum
    # the squares in another order than the build's term-order sum.
    corpus = make_corpus([" ".join(words) for words in texts])
    got, expected = _tfidf_csr(corpus, max_span_len, window, include_phrase)
    assert np.array_equal(got[0], expected[0]) and np.array_equal(got[1], expected[1])
    assert got[2].dtype == np.float32
    np.testing.assert_array_max_ulp(got[2], expected[2].astype(np.float32), maxulp=1)


@pytest.mark.parametrize("include_phrase", [True, False])
def test_tfidf_window_past_every_document_is_the_longest_document(mini_corpus, include_phrase):
    longest = max(len(doc) for doc in mini_corpus.documents)
    huge = build_index(mini_corpus, "tfidf", window=10**6, include_phrase=include_phrase)
    clamped = build_index(mini_corpus, "tfidf", window=longest, include_phrase=include_phrase)
    assert huge == clamped


# ---------------------------------------------------------------- bookkeeping


def test_total_words_is_max_end_plus_one_per_doc():
    rows = [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 0, 0), (1, 2, 4)]
    arr = np.zeros(len(rows), dtype=METADATA_DTYPE)
    for i, r in enumerate(rows):
        arr[i] = r
    index = vectors_index(arr, np.zeros((5, 2), dtype=np.float32))
    assert index.total_words() == 2 + 5
    empty = vectors_index(np.zeros(0, dtype=METADATA_DTYPE), np.zeros((0, 2), dtype=np.float32))
    assert empty.total_words() == 0


def test_index_constructor_validation():
    with pytest.raises(ValueError):
        PhraseIndex("fuzzy", make_meta([1]))
    with pytest.raises(ValueError):
        vectors_index(make_meta([2]), np.zeros((1, 2), dtype=np.float32))
    with pytest.raises(ValueError):
        PhraseIndex("sparse", make_meta([1]))


# ---------------------------------------------------------------- persistence


def test_dense_round_trip_is_bit_exact(tmp_path, dense_index):
    path = str(tmp_path / "dense.idx")
    save_index(dense_index, path)
    loaded = load_index(path)
    assert loaded == dense_index
    assert loaded.metadata.dtype == METADATA_DTYPE
    path2 = str(tmp_path / "dense2.idx")
    save_index(loaded, path2)
    assert Path(path).read_bytes() == Path(path2).read_bytes()


def test_loaded_vectors_are_built_once_and_searches_do_not_read_them(tmp_path, dense_index):
    path = str(tmp_path / "dense.idx")
    save_index(dense_index, path)
    loaded = load_index(path)
    queries = quantized((3, loaded.dim), 4)
    before = search_exact(loaded, queries, k_top=3)
    vectors = loaded.vectors
    assert vectors is loaded.vectors and vectors.flags.writeable
    assert vectors.shape == (len(loaded), loaded.dim) and vectors.dtype == np.float32
    assert vectors.tobytes() == dense_index.vectors.tobytes()
    vectors[3] += 1.0
    assert loaded.vectors[3].tobytes() == vectors[3].tobytes()
    assert search_exact(loaded, queries, k_top=3) == before


def test_sparse_round_trip_is_bit_exact(tmp_path, sparse_index):
    path = str(tmp_path / "sparse.idx")
    save_index(sparse_index, path)
    loaded = load_index(path)
    assert loaded == sparse_index
    assert loaded.idf.df == sparse_index.idf.df
    assert loaded.idf.num_documents == sparse_index.idf.num_documents
    path2 = str(tmp_path / "sparse2.idx")
    save_index(loaded, path2)
    assert Path(path).read_bytes() == Path(path2).read_bytes()


def _saved_bytes(tmp_path, index):
    path = tmp_path / "x.idx"
    save_index(index, str(path))
    return path, bytearray(path.read_bytes())


def test_load_rejects_bad_magic(tmp_path, sparse_index):
    path, raw = _saved_bytes(tmp_path, sparse_index)
    raw[:4] = b"NOPE"
    path.write_bytes(raw)
    with pytest.raises(FormatError, match="bad magic") as err:
        load_index(str(path))
    assert err.value.offset == 0
    assert "byte offset 0" in str(err.value)


def test_load_rejects_unknown_version(tmp_path, sparse_index):
    path, raw = _saved_bytes(tmp_path, sparse_index)
    raw[4] = 99
    path.write_bytes(raw)
    with pytest.raises(FormatError, match="version") as err:
        load_index(str(path))
    assert err.value.offset == 4


@pytest.mark.parametrize("kind", ["dense", "sparse"])
def test_load_rejects_version_one(tmp_path, request, kind):
    path, raw = _saved_bytes(tmp_path, request.getfixturevalue(f"{kind}_index"))
    raw[4:8] = struct.pack("<I", 1)
    path.write_bytes(raw)
    with pytest.raises(FormatError, match="unsupported version 1") as err:
        load_index(str(path))
    assert err.value.offset == 4


def test_load_rejects_unknown_kind(tmp_path, dense_index):
    path, raw = _saved_bytes(tmp_path, dense_index)
    raw[8] = 7
    path.write_bytes(raw)
    with pytest.raises(FormatError, match="kind") as err:
        load_index(str(path))
    assert err.value.offset == 8


@pytest.mark.parametrize("keep", [0, 3, 7, 12, 20, 200])
def test_load_rejects_truncation(tmp_path, dense_index, keep):
    path, raw = _saved_bytes(tmp_path, dense_index)
    assert keep < len(raw)
    path.write_bytes(raw[:keep])
    with pytest.raises(FormatError, match="truncated"):
        load_index(str(path))


def test_load_rejects_trailing_data(tmp_path, sparse_index):
    path, raw = _saved_bytes(tmp_path, sparse_index)
    path.write_bytes(bytes(raw) + b"\x00\x00")
    with pytest.raises(FormatError, match="trailing") as err:
        load_index(str(path))
    assert err.value.offset == len(raw)


def test_load_keeps_postings_across_empty_terms(tmp_path):
    # Ordinals may fall from one term to the next, across empty terms too.
    postings = {
        1: (np.array([5, 9], dtype=np.uint64), np.array([0.5, 0.25], dtype=np.float32)),
        3: (np.array([1, 2], dtype=np.uint64), np.array([1.0, 0.75], dtype=np.float32)),
    }
    idf = IdfTable(df={f"t{k}": 1 for k in range(5)}, num_documents=1)
    index = PhraseIndex("sparse", make_meta([10]), postings=csr_postings(postings, 5), idf=idf)
    path, _ = _saved_bytes(tmp_path, index)
    assert load_index(str(path)) == index


@pytest.mark.parametrize(
    "case, needle",
    [
        ("first ordinal out of range", "ordinal beyond the index"),
        ("reversed list", "not strictly increasing"),
        ("non-finite weight", "non-finite weight"),
    ],
)
def test_load_rejects_unusable_postings(tmp_path, sparse_index, case, needle):
    term_id = min(t for t, (o, _) in sparse_index.postings.items() if len(o) >= 2)
    ords, ws = sparse_index.postings[term_id]
    if case == "first ordinal out of range":
        ords = np.r_[np.uint64(10**9), ords[1:]]
    elif case == "reversed list":
        ords, ws = ords[::-1], ws[::-1]
    else:
        ws = np.r_[ws[:-1], np.float32(np.nan)]
    postings = {**sparse_index.postings, term_id: (ords, ws)}
    csr = csr_postings(postings, len(sparse_index.idf.vocab))
    bad = PhraseIndex("sparse", sparse_index.metadata, postings=csr, idf=sparse_index.idf)
    path, raw = _saved_bytes(tmp_path, bad)
    with pytest.raises(FormatError, match=needle) as err:
        load_index(str(path))
    assert f"term {term_id} " in str(err.value)
    # The offset is the term's first ordinal.
    assert struct.unpack_from("<I", raw, err.value.offset)[0] == int(ords[0])


def _term_records(raw, count):
    """(offset, df, utf-8 term) of each term-table record of a saved sparse index."""
    at = 21 + count * METADATA_DTYPE.itemsize
    num_terms, _ = struct.unpack_from("<QQ", raw, at)
    at += 16
    for _ in range(num_terms):
        df, length = struct.unpack_from("<IH", raw, at)
        yield at, df, bytes(raw[at + 6 : at + 6 + length])
        at += 6 + length


def test_load_rejects_terms_out_of_order(tmp_path, sparse_index):
    path, raw = _saved_bytes(tmp_path, sparse_index)
    records = list(_term_records(raw, len(sparse_index)))
    # one term written twice: the term table keeps its byte length
    i = next(i for i in range(1, len(records)) if len(records[i][2]) == len(records[i - 1][2]))
    at, _, term = records[i]
    raw[at + 6 : at + 6 + len(term)] = records[i - 1][2]
    path.write_bytes(raw)
    with pytest.raises(FormatError, match=f"term {i} is not after the one before") as err:
        load_index(str(path))
    assert err.value.offset == at


def test_load_rejects_df_above_the_document_count(tmp_path, sparse_index):
    path, raw = _saved_bytes(tmp_path, sparse_index)
    at, _, _ = list(_term_records(raw, len(sparse_index)))[3]
    struct.pack_into("<I", raw, at, sparse_index.idf.num_documents + 1)
    path.write_bytes(raw)
    with pytest.raises(FormatError, match="term 3 has df") as err:
        load_index(str(path))
    assert err.value.offset == at


def test_load_rejects_posting_counts_that_wrap(tmp_path, sparse_index):
    path, raw = _saved_bytes(tmp_path, sparse_index)
    at, _, term = list(_term_records(raw, len(sparse_index)))[-1]
    counts_at = at + 6 + len(term)
    struct.pack_into("<Q", raw, counts_at, 2**64 - 1)  # with the next count, wraps past zero
    path.write_bytes(raw)
    with pytest.raises(FormatError, match="past 2\\*\\*64") as err:
        load_index(str(path))
    assert err.value.offset == counts_at


@pytest.mark.parametrize(
    "case, record, needle",
    [("reversed", 1, "not after the one before"), ("s > e", -1, "starts after it ends")],
)
def test_load_rejects_unusable_metadata(tmp_path, sparse_index, case, record, needle):
    metadata = sparse_index.metadata.copy()
    if case == "reversed":
        metadata = metadata[::-1]
    else:
        metadata[record]["s"] = metadata[record]["e"] + 1
    postings = (sparse_index.indptr, sparse_index.ordinals, sparse_index.weights)
    bad = PhraseIndex("sparse", metadata, postings=postings, idf=sparse_index.idf)
    path, _ = _saved_bytes(tmp_path, bad)
    with pytest.raises(FormatError, match=needle) as err:
        load_index(str(path))
    record %= len(metadata)
    assert f"metadata record {record} " in str(err.value)
    assert err.value.offset == 21 + record * METADATA_DTYPE.itemsize


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_load_rejects_non_finite_vectors(tmp_path, dense_index, value):
    # Column 3 of row 5 is in its start half, column -1 in its end half.
    half = dense_index.dim // 2
    for h, name, col, width in [(0, "start", 3, half), (1, "end", -1, dense_index.dim - half)]:
        vectors = dense_index.vectors.copy()
        vectors[5, col] = value
        bad = vectors_index(dense_index.metadata, vectors)
        path, raw = _saved_bytes(tmp_path, bad)
        sizes_at = 21 + len(dense_index) * METADATA_DTYPE.itemsize
        sizes = struct.unpack_from("<QQ", raw, sizes_at)
        ids_at = sizes_at + 16
        # The table row that holds row 5's half, and where that table row starts.
        row = struct.unpack_from("<I", raw, ids_at + 4 * (h * len(dense_index) + 5))[0]
        at = ids_at + 8 * len(dense_index) + 4 * (h * sizes[0] * half + row * width)
        with pytest.raises(FormatError, match=f"{name} table row {row} is not finite") as err:
            load_index(str(path))
        assert err.value.offset == at
        inner = col % dense_index.dim - h * half  # the column within the table row
        assert np.isnan(value) or struct.unpack_from("<f", raw, at + 4 * inner)[0] == value


# ---------------------------------------------------------------- benchmarking


def test_bench_scan_reports_consistent_rates():
    index = synthetic_dense_index(2600, 16, seed=1)
    result = bench_scan(index, num_queries=4, seed=0)
    assert result.num_candidates == 2600
    assert result.total_words == index.total_words()
    assert result.mean_query_seconds > 0
    assert result.words_per_second == pytest.approx(
        result.total_words / result.mean_query_seconds
    )
    assert result.candidates_per_second == pytest.approx(2600 / result.mean_query_seconds)
    keys = set(dataclasses.asdict(result))
    assert keys == {
        "words_per_second",
        "candidates_per_second",
        "mean_query_seconds",
        "num_candidates",
        "total_words",
        "dim",
    }


def test_bench_scan_requires_dense():
    index, _ = sparse_fixture()
    with pytest.raises(ValueError):
        bench_scan(index)


def _min_scan_seconds(indexes, repeats=200):
    # The scans alternate, so that every index sees the same host state, and
    # each keeps its minimum: preemption only adds time. A process can run
    # every GEMV at a flat ~8 ms for up to about a second (seen on a 2-vCPU
    # VM, most often right after start or after a large GEMM); 200 pairs
    # outlast that, because slow pairs also take longer.
    rng = np.random.Generator(np.random.Philox(key=3))
    q = rng.normal(size=indexes[0].dim).astype(np.float32)
    best = [float("inf")] * len(indexes)
    for _ in range(repeats):
        for i, index in enumerate(indexes):
            t0 = time.perf_counter()
            index.vectors @ q
            best[i] = min(best[i], time.perf_counter() - t0)
    return best


def test_scan_time_scales_linearly_with_candidates():
    small = synthetic_dense_index(100_000, 64, seed=5)
    big = synthetic_dense_index(200_000, 64, seed=5)
    small_s, big_s = _min_scan_seconds([small, big])
    assert 1.4 <= big_s / small_s <= 2.6


def test_synthetic_index_layout_matches_requested_ratio():
    index = synthetic_dense_index(2600, 8, seed=0)
    assert len(index) == 2600
    assert index.total_words() == 2000
    assert len(index) / index.total_words() == pytest.approx(1.3)
    meta = index.metadata
    order = np.lexsort((meta["e"], meta["s"], meta["doc_id"]))
    assert np.array_equal(order, np.arange(len(meta)))
    again = synthetic_dense_index(2600, 8, seed=0)
    assert index == again
    other = synthetic_dense_index(2600, 8, seed=1)
    assert not np.array_equal(index.vectors, other.vectors)


# ------------------------------------------- block search by blocks of index rows


def _exact_key(hits):
    """Spans and score bits; every NaN score is alike (its sign bit is the product's choice)."""
    return [(h.span, None if math.isnan(h.score) else np.float64(h.score).tobytes()) for h in hits]


def _search_in_blocks(index, queries, k_top, doc_id=None, rows_per_block=1, query_rows=None):
    """Block search that scores rows_per_block index rows per block."""
    query_rows = query_rows or index_module._QUERY_ROWS
    with mock.patch.object(index_module, "_block_rows", lambda m: rows_per_block), \
            mock.patch.object(index_module, "_QUERY_ROWS", query_rows):
        return search_exact(index, queries, k_top=k_top, doc_id=doc_id)


@settings(max_examples=200, deadline=None)
@given(block_cases(), st.sampled_from([1, 2]), st.sampled_from([1, 2, 3, None]))
def test_block_search_with_one_or_two_index_rows_per_block(case, rows_per_block, query_rows):
    counts, vectors, queries, doc_id, k_top, _ = case
    index = vectors_index(make_meta(counts), vectors)
    block = _search_in_blocks(index, queries, k_top, doc_id, rows_per_block, query_rows)
    assert len(block) == len(queries)
    for q, hits in zip(queries, block):
        assert hits == search_exact(index, q, k_top=k_top, doc_id=doc_id)


# Small integers with infinities and NaN: every score is exact or non-finite
# whatever order a product sums in, so ties and NaN rows are exact too.
block_cell = st.sampled_from([0.0] * 4 + [1.0, -1.0, 2.0, -2.0, np.inf, -np.inf, np.nan])


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(0, 6), min_size=1, max_size=3),
    st.integers(1, 3),
    st.integers(1, 4),
    st.sampled_from([1, 2, 3]),
    st.data(),
)
def test_block_hits_equal_top_k_of_the_full_score_row(counts, dim, m, rows_per_block, data):
    n = sum(counts)
    cells = st.lists(block_cell, min_size=(n + m) * dim, max_size=(n + m) * dim)
    values = np.array(data.draw(cells), dtype=np.float32).reshape(n + m, dim)
    index = vectors_index(make_meta(counts), values[:n])
    queries = values[n:]
    doc_id = data.draw(st.none() | st.integers(0, len(counts) - 1))
    lo, hi = (0, n) if doc_id is None else index.doc_range(doc_id)
    with np.errstate(invalid="ignore"):  # inf * 0 and inf - inf
        full = queries @ index.vectors[lo:hi].T
        for k in range(1, hi - lo + 3):
            block = _search_in_blocks(index, queries, k, doc_id, rows_per_block)
            for row, hits in zip(full, block):
                expected = [] if hi == lo else index_module._hits(index, row, k, lo)
                assert _exact_key(hits) == _exact_key(expected)


def test_block_search_equal_best_rows_in_two_blocks_keep_the_lower_ordinal():
    index = vectors_index(make_meta([4]), np.array([[0], [5], [5], [5]], np.float32))
    queries = np.ones((2, 1), np.float32)
    assert [h.span.s for h in _search_in_blocks(index, queries, 1)[0]] == [1]
    assert [h.span.s for h in _search_in_blocks(index, queries, 1, rows_per_block=2)[1]] == [1]
    assert [h.span.s for h in _search_in_blocks(index, queries, 2, rows_per_block=2)[0]] == [1, 2]
    assert [h.span.s for h in _search_in_blocks(index, queries, 3, rows_per_block=2)[0]] == [1, 2, 3]


@pytest.mark.parametrize("rows_per_block", [1, 2, 3])
def test_block_search_with_a_nan_only_in_the_last_block(rows_per_block):
    vectors = np.array([[1], [2], [3], [np.nan]], np.float32)
    index = vectors_index(make_meta([4]), vectors)
    queries = np.ones((3, 1), np.float32)
    for k in (1, 2, 3):
        assert _search_in_blocks(index, queries, k, rows_per_block=rows_per_block) == [[]] * 3
    for k in (4, 9):  # k >= n: every row, the NaN one last
        for hits in _search_in_blocks(index, queries, k, rows_per_block=rows_per_block):
            assert [h.span.s for h in hits] == [2, 1, 0, 3]
            assert [h.score for h in hits[:3]] == [3.0, 2.0, 1.0] and math.isnan(hits[3].score)


def test_block_search_with_a_nan_row_and_k_at_least_n_returns_every_row_nan_last():
    vectors = np.array([[1], [np.nan], [3], [np.nan], [1]], np.float32)
    index = vectors_index(make_meta([5]), vectors)
    for rows_per_block in (1, 2, 5):
        (hits,) = _search_in_blocks(index, np.ones((1, 1), np.float32), 5, rows_per_block=rows_per_block)
        assert [h.span.s for h in hits] == [2, 0, 4, 1, 3]
        assert _exact_key(hits) == _exact_key(search_exact(index, np.ones(1, np.float32), 5))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_block_search_of_an_all_minus_inf_row_returns_its_lowest_ordinals(k):
    vectors = np.full((5, 1), -np.inf, np.float32)
    index = vectors_index(make_meta([2, 3]), vectors)
    (hits,) = _search_in_blocks(index, np.ones((1, 1), np.float32), k, doc_id=1)
    assert [(h.span.doc_id, h.span.s) for h in hits] == [(1, s) for s in range(k)]
    assert [h.score for h in hits] == [-np.inf] * k


# ------------------------------------------- factored scoring against the block GEMM


@st.composite
def factored_cases(draw):
    """A dense index over documents of (s, e) spans, its (count, dim) vector block,
    a query block, a scope and k from 1 to n + 2. Cells are small integers,
    infinities and NaN. The rows are built as an encoder builds them,
    [words[s][:dim // 2], words[e][dim // 2:]] with words drawn from three rows,
    so that halves recur; or they are independent; or the index is given as
    tables of a few rows and random table indexes, as a load keeps them."""
    lengths = draw(st.lists(st.integers(0, 5), min_size=1, max_size=3), label="lengths")
    max_span_len = draw(st.integers(1, 3), label="max_span_len")
    spans = [
        (d, s, e)
        for d, n in enumerate(lengths)
        for s, e in zip(*(a.tolist() for a in span_bounds(n, max_span_len)))
    ]
    metadata = np.array(spans, dtype=METADATA_DTYPE).reshape(-1)
    n, dim = len(spans), draw(st.integers(0, 7), label="dim")
    half = dim // 2

    def cells(rows, width):
        values = draw(st.lists(block_cell, min_size=rows * width, max_size=rows * width))
        return np.array(values, np.float32).reshape(rows, width)

    rows = draw(st.sampled_from(["encoder", "independent", "tables"]), label="rows")
    if rows == "tables":
        tables = [cells(draw(st.integers(1, 6)), width) for width in (half, dim - half)]
        ids = np.array([draw(st.lists(st.integers(0, len(t) - 1), min_size=n, max_size=n))
                        for t in tables], dtype="<u4").reshape(2, n)
        index = PhraseIndex("dense", metadata, tables=(*tables, ids))
        vectors = np.concatenate([tables[0][ids[0]], tables[1][ids[1]]], axis=1)
    else:
        vectors = cells(n, dim)
        if rows == "encoder":
            picks = draw(st.lists(st.integers(0, 2), min_size=sum(lengths), max_size=sum(lengths)))
            words = np.split(cells(3, dim)[picks], np.cumsum(lengths)[:-1])
            for i, (d, s, e) in enumerate(spans):
                vectors[i] = np.r_[words[d][s][:half], words[d][e][half:]]
        index = vectors_index(metadata, vectors)
    queries = cells(draw(st.integers(1, 4), label="m"), dim)
    doc_id = draw(st.none() | st.integers(0, len(lengths)), label="doc_id")
    k_top = draw(st.integers(1, n + 2), label="k_top")
    return index, vectors, queries, doc_id, k_top


@settings(max_examples=500, deadline=None)
@given(factored_cases(), st.sampled_from([1, 2, 3, None]))
def test_factored_search_returns_the_block_gemm_spans_and_score_bits(case, rows_per_block):
    index, vectors, queries, doc_id, k_top = case
    metadata = index.metadata
    lo, hi = (0, len(index)) if doc_id is None else index.doc_range(doc_id)
    block_rows = index_module._block_rows if rows_per_block is None else lambda m: rows_per_block
    with np.errstate(invalid="ignore"), mock.patch.object(index_module, "_block_rows", block_rows):
        block = search_exact(index, queries, k_top=k_top, doc_id=doc_id)
        expected = gemm_search(vectors, metadata, queries, k_top, lo, hi)
        assert [_exact_key(hits) for hits in block] == [_exact_key(hits) for hits in expected]
        for q in queries:
            hits = search_exact(index, q, k_top=k_top, doc_id=doc_id)
            assert _exact_key(hits) == _exact_key(gemm_search(vectors, metadata, q, k_top, lo, hi))


@pytest.mark.parametrize("doc_id", [None, 1])
@pytest.mark.parametrize("k_top", [1, 5])
def test_factored_search_of_random_rows_matches_the_block_gemm(doc_id, k_top):
    rng = np.random.Generator(np.random.Philox(key=5))
    metadata = make_meta([300, 200, 100])
    vectors = rng.normal(size=(600, 64)).astype(np.float32)
    queries = rng.normal(size=(40, 64)).astype(np.float32)
    index = vectors_index(metadata, vectors)
    lo, hi = (0, len(index)) if doc_id is None else index.doc_range(doc_id)
    block = search_exact(index, queries, k_top=k_top, doc_id=doc_id)
    singles = [search_exact(index, q, k_top=k_top, doc_id=doc_id) for q in queries]
    for got in (block, singles):
        expected = gemm_search(vectors, metadata, queries, k_top, lo, hi)
        assert [[h.span for h in hits] for hits in got] == [
            [h.span for h in hits] for hits in expected
        ]
        for hits, want in zip(got, expected):
            assert [h.score for h in hits] == pytest.approx([h.score for h in want], rel=1e-6)


@pytest.mark.parametrize("rows_per_block", [1, 2, 3, None])
def test_factored_search_of_blocks_whose_table_rows_lie_far_apart(rows_per_block):
    """Rows 0-3 use table rows 0, 3, 1, 2 of each half, rows 4-5 rows 3 and 0:
    a block's run of table rows can be longer than the block, as in a loaded file."""
    start = np.array([[2], [-1], [0], [5]], np.float32)
    end = np.array([[1, 0], [0, 2], [3, -1], [-2, 1]], np.float32)
    ids = np.array([[0, 3, 1, 2, 3, 0], [0, 3, 1, 2, 3, 0]], "<u4")
    index = PhraseIndex("dense", make_meta([6]), tables=(start, end, ids))
    vectors = np.concatenate([start[ids[0]], end[ids[1]]], axis=1)
    queries = np.array([[1, 1, 1], [-1, 2, 0], [0, 0, 1]], np.float32)
    block_rows = index_module._block_rows if rows_per_block is None else lambda m: rows_per_block
    with mock.patch.object(index_module, "_block_rows", block_rows):
        for k in range(1, 8):
            block = search_exact(index, queries, k_top=k)
            assert block == gemm_search(vectors, index.metadata, queries, k, 0, 6)
            for q, hits in zip(queries, block):
                assert hits == gemm_search(vectors, index.metadata, q, k, 0, 6)
