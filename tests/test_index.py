import struct
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phraseindex import index as index_module
from phraseindex.candidates import CandidateSpan, span_count
from phraseindex.corpus import Corpus, Document, tokenize
from phraseindex.encode.dense import compose_phrase_lstm, compose_phrase_lstm_sa, sa_all
from phraseindex.encode.tfidf import IdfTable, SparseVector
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
        assert open(pa, "rb").read() == open(pb, "rb").read()


# ---------------------------------------------------------------- exact search


def test_search_orthonormal_rows():
    index = PhraseIndex("dense", make_meta([4]), vectors=np.eye(4, dtype=np.float32))
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
    index = PhraseIndex("dense", make_meta([n]), vectors=vectors)
    for k in {1, min(3, n), n}:
        hits = search_exact(index, q, k_top=k)
        expected = brute_force(vectors, q, k)
        assert [(h.span.s, h.score) for h in hits] == [(o, s) for o, s in expected]


def test_search_restricted_to_one_document():
    vectors = quantized((60, 8), 3)
    index = PhraseIndex("dense", make_meta([20, 20, 20]), vectors=vectors)
    q = quantized(8, 4)
    hits = search_exact(index, q, k_top=5, doc_id=1)
    assert all(h.span.doc_id == 1 for h in hits)
    expected = brute_force(vectors[20:40], q, 5)
    assert [(h.span.s, h.score) for h in hits] == [(o, s) for o, s in expected]
    assert search_exact(index, q, doc_id=7) == []


def test_search_scaling_leaves_ranking_fixed():
    vectors = quantized((50, 8), 11)
    q = quantized(8, 12)
    a = PhraseIndex("dense", make_meta([50]), vectors=vectors)
    b = PhraseIndex("dense", make_meta([50]), vectors=vectors * 4.0)
    ha = search_exact(a, q, k_top=50)
    hb = search_exact(b, q, k_top=50)
    assert [h.span for h in ha] == [h.span for h in hb]
    for x, y in zip(ha, hb):
        assert y.score == 4.0 * x.score


def test_search_k_beyond_n_returns_each_candidate_once():
    index = PhraseIndex("dense", make_meta([7]), vectors=quantized((7, 4), 2))
    hits = search_exact(index, quantized(4, 9), k_top=100)
    assert sorted(h.span.s for h in hits) == list(range(7))


def test_search_input_validation():
    index = PhraseIndex("dense", make_meta([3]), vectors=np.eye(3, dtype=np.float32))
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
    index = PhraseIndex("dense", make_meta(counts), vectors=vectors)
    lo, hi = (0, len(index)) if doc_id is None else index.doc_range(doc_id)
    budget = index_module._SCORE_BLOCK_BYTES
    if rows_per_chunk is not None:
        budget = rows_per_chunk * 4 * max(1, hi - lo)
    with mock.patch.object(index_module, "_SCORE_BLOCK_BYTES", budget):
        block = search_exact(index, queries, k_top=k_top, doc_id=doc_id)
    assert len(block) == len(queries)
    for q, hits in zip(queries, block):
        single = search_exact(index, q, k_top=k_top, doc_id=doc_id)
        assert [h.span for h in hits] == [h.span for h in single]
        assert [h.score for h in hits] == pytest.approx([h.score for h in single], rel=1e-5)


def test_block_search_over_an_empty_range_gives_one_empty_list_per_row():
    index = PhraseIndex("dense", make_meta([3, 0, 2]), vectors=quantized((5, 4), 1))
    assert search_exact(index, quantized((3, 4), 2), k_top=2, doc_id=1) == [[], [], []]
    assert search_exact(index, quantized((3, 4), 2), k_top=2, doc_id=9) == [[], [], []]


def test_block_search_rejects_a_wrong_dim_block():
    index = PhraseIndex("dense", make_meta([3]), vectors=np.eye(3, dtype=np.float32))
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


def test_block_search_of_a_nan_row_matches_the_single_search():
    index = PhraseIndex("dense", make_meta([4]), vectors=quantized((4, 3), 5))
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
    index = PhraseIndex("sparse", make_meta([n]), postings=postings, idf=idf)
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
    dense = PhraseIndex("dense", make_meta([80]), vectors=dense_matrix)
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


# ---------------------------------------------------------------- bookkeeping


def test_total_words_is_max_end_plus_one_per_doc():
    rows = [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 0, 0), (1, 2, 4)]
    arr = np.zeros(len(rows), dtype=METADATA_DTYPE)
    for i, r in enumerate(rows):
        arr[i] = r
    index = PhraseIndex("dense", arr, vectors=np.zeros((5, 2), dtype=np.float32))
    assert index.total_words() == 2 + 5
    empty = PhraseIndex(
        "dense", np.zeros(0, dtype=METADATA_DTYPE), vectors=np.zeros((0, 2), dtype=np.float32)
    )
    assert empty.total_words() == 0


def test_index_constructor_validation():
    with pytest.raises(ValueError):
        PhraseIndex("fuzzy", make_meta([1]), vectors=np.zeros((1, 2), dtype=np.float32))
    with pytest.raises(ValueError):
        PhraseIndex("dense", make_meta([2]), vectors=np.zeros((1, 2), dtype=np.float32))
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
    assert open(path, "rb").read() == open(path2, "rb").read()


def test_sparse_round_trip_is_bit_exact(tmp_path, sparse_index):
    path = str(tmp_path / "sparse.idx")
    save_index(sparse_index, path)
    loaded = load_index(path)
    assert loaded == sparse_index
    assert loaded.idf.df == sparse_index.idf.df
    assert loaded.idf.num_documents == sparse_index.idf.num_documents
    path2 = str(tmp_path / "sparse2.idx")
    save_index(loaded, path2)
    assert open(path, "rb").read() == open(path2, "rb").read()


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
    index = PhraseIndex("sparse", make_meta([10]), postings=postings, idf=idf)
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
    bad = PhraseIndex("sparse", sparse_index.metadata, postings=postings, idf=sparse_index.idf)
    path, raw = _saved_bytes(tmp_path, bad)
    with pytest.raises(FormatError, match=needle) as err:
        load_index(str(path))
    assert f"term {term_id} " in str(err.value)
    # The offset is the term's group: its posting count, then its first ordinal.
    assert struct.unpack_from("<QQ", raw, err.value.offset) == (len(ords), int(ords[0]))


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
    bad = PhraseIndex("sparse", metadata, postings=sparse_index.postings, idf=sparse_index.idf)
    path, _ = _saved_bytes(tmp_path, bad)
    with pytest.raises(FormatError, match=needle) as err:
        load_index(str(path))
    record %= len(metadata)
    assert f"metadata record {record} " in str(err.value)
    assert err.value.offset == 21 + record * METADATA_DTYPE.itemsize


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_load_rejects_non_finite_vectors(tmp_path, dense_index, value):
    vectors = dense_index.vectors.copy()
    vectors[5, 3] = value
    bad = PhraseIndex("dense", dense_index.metadata, vectors=vectors)
    path, _ = _saved_bytes(tmp_path, bad)
    with pytest.raises(FormatError, match="vector row 5 is not finite") as err:
        load_index(str(path))
    assert err.value.offset == 21 + len(dense_index) * METADATA_DTYPE.itemsize


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
    keys = set(result.to_json())
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
    index = synthetic_dense_index(2600, 8, seed=0, vectors_per_word=1.3)
    assert len(index) == 2600
    assert index.total_words() == 2000
    assert len(index) / index.total_words() == pytest.approx(1.3)
    meta = index.metadata
    order = np.lexsort((meta["e"], meta["s"], meta["doc_id"]))
    assert np.array_equal(order, np.arange(len(meta)))
    again = synthetic_dense_index(2600, 8, seed=0, vectors_per_word=1.3)
    assert index == again
    other = synthetic_dense_index(2600, 8, seed=1, vectors_per_word=1.3)
    assert not np.array_equal(index.vectors, other.vectors)
