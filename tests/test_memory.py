"""Transient memory of every stage, measured with tracemalloc.

numpy reports its array buffers to tracemalloc, so these peaks count every
array a call allocates; they do not depend on the host or on its allocator.
"""

import tracemalloc
from collections import Counter

import numpy as np

from phraseindex import alsh as alsh_module
from phraseindex.candidates import CandidateSpan
from phraseindex.corpus import Corpus, Document, QAExample
from phraseindex.encode.wordvectors import (
    read_word_vectors,
    toy_word_vector_table,
    write_word_vectors,
)
from phraseindex.filtering import train_filter
from phraseindex.index import (
    _SCORE_BLOCK_BYTES,
    build_index,
    load_index,
    save_index,
    search_exact,
    synthetic_dense_index,
)

MiB = 1 << 20


def traced(call):
    """(result, bytes allocated at the peak of call, bytes still held after it),
    both beyond what was live before it."""
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        held, peak = tracemalloc.get_traced_memory()
        return result, peak - before, held - before
    finally:
        tracemalloc.stop()


def traced_peak(call):
    """(result, bytes allocated at the peak of call beyond what was live before it)."""
    result, peak, _ = traced(call)
    return result, peak


def words_corpus(num_docs, doc_len):
    docs = [Document(i, "", ["w"] * doc_len, [(0, 0)] * doc_len) for i in range(num_docs)]
    return Corpus(documents=docs, examples=[], vocab_df={"w": num_docs}, num_documents=num_docs)


def test_dense_save_streams_the_block(tmp_path):
    index = synthetic_dense_index(33_000, 64)
    assert index.vectors.nbytes >= 8 * MiB
    _, peak = traced_peak(lambda: save_index(index, str(tmp_path / "dense.idx")))
    assert peak < MiB


def encoder_built(num_docs=80, doc_len=60):
    """An lstm_sa index whose (count, dim) block is at least 7 MiB."""
    corpus = words_corpus(num_docs, doc_len)
    return build_index(corpus, "lstm_sa", word_vectors=toy_word_vector_table(corpus, dim=16))


def test_encoder_built_dense_save_and_load_hold_their_bounds(tmp_path):
    """Most halves of an encoder-built block are shared: a save writes the
    table the index holds, and a load holds the file's one table and its
    indexes, not the block."""
    index = encoder_built()
    path = str(tmp_path / "dense.idx")
    _, peak = traced_peak(lambda: save_index(index, path))
    assert peak < MiB
    loaded, peak, held = traced(lambda: load_index(path))
    assert loaded.tables[1] is loaded.tables[0]
    arrays = (loaded.tables[0], loaded.table_ids, loaded.metadata)
    assert held <= sum(a.nbytes for a in arrays) + MiB
    assert peak <= held + MiB
    assert loaded.vectors.tobytes() == index.vectors.tobytes()
    assert index.vectors.nbytes >= 7 * MiB


def test_encoder_built_load_and_searches_allocate_no_vector_block(tmp_path):
    """load_index, a block search_exact and search_approx peak below one
    (count, dim) float32 array: none of them expands the tables."""
    index = encoder_built()
    block = 4 * len(index) * index.dim
    assert block >= 7 * MiB
    path = str(tmp_path / "dense.idx")
    save_index(index, path)
    sidecar = alsh_module.build_alsh(index)
    queries = np.random.Generator(np.random.Philox(key=2)).normal(size=(8, index.dim))
    calls = {
        "load_index": lambda: load_index(path),
        "search_exact k=1": lambda: search_exact(index, queries.astype(np.float32), k_top=1),
        "search_exact k=3": lambda: search_exact(index, queries.astype(np.float32), k_top=3),
        "search_approx": lambda: alsh_module.search_approx(sidecar, queries[0], k_top=3),
    }
    for name, call in calls.items():
        _, peak = traced_peak(call)
        assert peak < block, name


def test_dense_build_holds_the_block_and_one_document():
    """The build allocates its output once; per document it adds only that
    document's temporaries, measured here by building one document alone."""
    corpus = words_corpus(80, 60)
    vectors = toy_word_vector_table(corpus, dim=16)
    one = words_corpus(1, 60)
    one_vectors = toy_word_vector_table(one, dim=16)
    _, one_peak = traced_peak(lambda: build_index(one, "lstm_sa", word_vectors=one_vectors))
    built, peak = traced_peak(lambda: build_index(corpus, "lstm_sa", word_vectors=vectors))
    assert built.vectors.nbytes >= 7 * MiB
    assert peak <= built.vectors.nbytes + built.metadata.nbytes + one_peak


def test_alsh_build_holds_codes_tables_and_the_hashing_budget():
    index = synthetic_dense_index(20_000, 128)
    params = alsh_module.AlshParams()
    built, peak = traced_peak(lambda: alsh_module.build_alsh(index, params))
    codes = params.tables * len(index) * 2  # 12-bit codes are stored as uint16
    tables = built.keys.nbytes + built.indptr.nbytes + built.ordinals.nbytes
    hashing = 4 * alsh_module._HASH_CHUNK_BYTES  # see _HASH_CHUNK_BYTES
    assert peak <= codes + tables + built.hyperplanes.nbytes + hashing


def test_filter_training_holds_no_copy_of_the_block():
    """Training keeps a few float64 values per row, never a (rows, dim) array."""
    index = synthetic_dense_index(16_384, 256)
    spans = [CandidateSpan(0, 5, 5), CandidateSpan(3, 17, 17), CandidateSpan(12, 999, 999)]
    examples = [QAExample(f"q{i}", ["w"], s.doc_id, ["w"], [s]) for i, s in enumerate(spans)]
    corpus = Corpus(documents=[], examples=examples, vocab_df={}, num_documents=0)
    _, peak = traced_peak(lambda: train_filter(index, corpus, epochs=3))
    assert index.vectors.nbytes == 16 * MiB
    assert peak <= 16 * 8 * len(index) + MiB


def random_words_corpus(num_docs, doc_len, vocab, seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    docs = []
    for i in range(num_docs):
        tokens = [f"w{t}" for t in rng.integers(0, vocab, size=doc_len)]
        docs.append(Document(i, "", tokens, [(0, 0)] * doc_len))
    df = Counter(term for doc in docs for term in set(doc.tokens))
    return Corpus(documents=docs, examples=[], vocab_df=dict(df), num_documents=num_docs)


def test_loads_hold_no_file_image(tmp_path):
    """Each section is read into the array that keeps it, so beyond what a load
    returns it holds only its checks' temporaries: O(count) keys of the
    metadata, plus, for a dense index, its table indexes (8 bytes a row) and
    one chunk of table rows, for a sparse index, one bool mask over the
    postings at a time (a byte a posting, an eighth of its file), and, for an
    aLSH sidecar, the sort that derives one table's buckets from its codes."""
    dense = synthetic_dense_index(33_000, 64)
    sparse = build_index(random_words_corpus(46, 200, 300, seed=3), "tfidf")
    # 128 tables of u16 codes, 64 bytes a row, so that the sidecar too passes 8 MiB.
    alsh = alsh_module.build_alsh(dense, alsh_module.AlshParams(tables=128))
    save_index(dense, str(tmp_path / "dense.idx"))
    save_index(sparse, str(tmp_path / "sparse.idx"))
    alsh_module.save_alsh(alsh, str(tmp_path / "dense.alsh"))
    loads = {
        "dense.idx": (load_index, lambda size: MiB),
        "sparse.idx": (load_index, lambda size: size // 3),
        "dense.alsh": (lambda path: alsh_module.load_alsh(path, dense), lambda size: MiB),
    }
    for name, (load, extra) in loads.items():
        path = tmp_path / name
        size = path.stat().st_size
        assert size >= 8 * MiB, name
        _, peak, held = traced(lambda: load(str(path)))
        assert held >= 0.9 * size, name  # the returned arrays
        assert peak <= held + extra(size), name


def test_word_vector_read_holds_no_file_image(tmp_path):
    """read_word_vectors reads one block at a time, and a document's first
    lookup reads only its own blocks: beyond the table, the read and the
    lookups of every document hold one block's lines and their float64 parse,
    not the file."""
    path = tmp_path / "wv.txt"
    write_word_vectors(toy_word_vector_table(words_corpus(44, 60), dim=96), str(path))
    assert path.stat().st_size >= 8 * MiB

    def read_and_look_up():
        table = read_word_vectors(str(path))
        return [table.documents[doc_id] for doc_id in table.documents]

    docs, peak = traced_peak(read_and_look_up)
    channels = [getattr(chan, name) for chan in docs for name in ("base", "sa_key", "sa_query")]
    assert peak < sum(a.nbytes for a in channels) + MiB


def test_dense_block_search_holds_one_score_block():
    index = synthetic_dense_index(50_000, 64)
    queries = np.random.Generator(np.random.Philox(key=1)).normal(size=(256, 64))
    rows_per_block = _SCORE_BLOCK_BYTES // (4 * len(queries))
    assert len(index) > 3 * rows_per_block  # four blocks
    for k in (1, 3):
        _, peak = traced_peak(lambda: search_exact(index, queries.astype(np.float32), k_top=k))
        assert peak <= _SCORE_BLOCK_BYTES + MiB, k
