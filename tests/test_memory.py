"""Transient memory of the build stage, measured with tracemalloc.

numpy reports its array buffers to tracemalloc, so these peaks count every
array a call allocates; they do not depend on the host or on its allocator.
"""

import tracemalloc

from phraseindex import alsh as alsh_module
from phraseindex.corpus import Corpus, Document
from phraseindex.encode.wordvectors import toy_word_vector_table
from phraseindex.index import build_index, save_index, synthetic_dense_index

MiB = 1 << 20


def traced_peak(call):
    """(result, bytes allocated at the peak of call beyond what was live before it)."""
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def words_corpus(num_docs, doc_len):
    docs = [Document(i, "", ["w"] * doc_len, [(0, 0)] * doc_len) for i in range(num_docs)]
    return Corpus(documents=docs, examples=[], vocab_df={"w": num_docs}, num_documents=num_docs)


def test_dense_save_streams_the_block(tmp_path):
    index = synthetic_dense_index(33_000, 64)
    assert index.vectors.nbytes >= 8 * MiB
    _, peak = traced_peak(lambda: save_index(index, str(tmp_path / "dense.idx")))
    assert peak < MiB


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
    tables = sum(t.codes.nbytes + t.indptr.nbytes + t.ordinals.nbytes for t in built.buckets)
    hashing = 4 * alsh_module._HASH_CHUNK_BYTES  # see _HASH_CHUNK_BYTES
    assert peak <= codes + tables + built.hyperplanes.nbytes + hashing
