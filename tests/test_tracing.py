"""The benchmark's tracer (perfbench/tracing.py) against the package.

The tracer wraps package functions by module attribute. A rename or a
caller that binds a function early would otherwise show up only in the
benchmark's traced run.
"""

import importlib.util
from pathlib import Path

import pytest

from phraseindex import index as index_module
from phraseindex import service
from phraseindex.encode.tfidf import tfidf_question_encode
from phraseindex.service import QueryEngine

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _recorder():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.phraseindex_recorder()


@pytest.mark.parametrize("kind", ["sparse", "dense"])
def test_tracer_wraps_its_targets_and_an_engine_built_before(
    mini_corpus, sparse_index, dense_index, toy_vectors, kind
):
    if kind == "sparse":
        engine = QueryEngine(sparse_index, corpus=mini_corpus)
        question = "Who won Super Bowl 50?"
    else:
        engine = QueryEngine(dense_index, corpus=mini_corpus, word_vectors=toy_vectors)
        question = mini_corpus.examples[0].question_id
    rec = _recorder()
    rec.install()  # looks up every wrapped name; a missing one raises here
    try:
        engine.answer(question, top_k=2)
    finally:
        rec.uninstall()
    names = [span[0] for span in rec.dump()]
    assert names.count("service.answer") == 1
    assert names.count("encode.question") == 1
    assert names.count(f"index.search_{kind}") == 1
    assert service.search_exact is index_module.search_exact  # originals restored


def test_tracer_counts_the_postings_a_sparse_search_scores(mini_corpus, sparse_index):
    # The benchmark's index.postings_scored_per_q reads index.postings.get.
    example = mini_corpus.examples[0]
    query = tfidf_question_encode(example.question_tokens, sparse_index.idf)
    rec = _recorder()
    rec.install()
    try:
        index_module.search_exact(sparse_index, query, 3, doc_id=example.doc_id)
        index_module.search_exact(sparse_index, query, 3)
    finally:
        rec.uninstall()
    scored = [span[5]["scored"] for span in rec.dump() if span[0] == "index.search_sparse"]
    expected = []
    for lo, hi in (sparse_index.doc_range(example.doc_id), (0, len(sparse_index))):
        groups = (sparse_index.postings.get(int(t)) for t in query.term_ids)
        ords = [o for g in groups if g is not None for o in g[0].tolist()]
        expected.append(sum(lo <= o < hi for o in ords))
    assert scored == expected
    assert 0 < expected[0] < expected[1]
