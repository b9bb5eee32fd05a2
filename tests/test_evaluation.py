import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from phraseindex.alsh import AlshParams, build_alsh
from phraseindex.corpus import Corpus, Document, QAExample, tokenize
from phraseindex.encode.dense import LSTM_SA, compose_question
from phraseindex.errors import EvaluationError
from phraseindex.evaluation import Metrics, evaluate, f1_em_single, normalize_answer
from phraseindex.index import METADATA_DTYPE, search_exact

from .oracles import vectors_index
from .toyset import one_hot_setup

ORACLE = json.loads((Path(__file__).parent / "data" / "metric_oracle.json").read_text())


# -------------------------------------------------------------- normalization


@pytest.mark.parametrize(
    "text, expected",
    [
        ("The Cat sat.", ["cat", "sat"]),
        ("A six-day   trip", ["sixday", "trip"]),
        ("", []),
        ("the the a an", []),
        ("!?!", []),
        ("it's", ["its"]),
        ("Santa Clara, California", ["santa", "clara", "california"]),
    ],
)
def test_normalize_answer(text, expected):
    assert normalize_answer(text) == expected


# ------------------------------------------------------------------- f1 / em


def test_single_pair_worked_examples():
    assert f1_em_single("cat", ["The cat"]) == (1.0, 1)
    f1, em = f1_em_single("six days", ["six"])
    assert em == 0
    assert f1 == pytest.approx(2 / 3)
    assert f1_em_single("", ["x"]) == (0.0, 0)
    assert f1_em_single("cat", ["dog"]) == (0.0, 0)


def test_multiset_token_overlap():
    f1, em = f1_em_single("cat cat", ["cat"])
    assert (em, round(f1, 10)) == (0, round(2 / 3, 10))
    assert f1_em_single("the the cat cat", ["cat cat"]) == (1.0, 1)


def test_best_gold_wins():
    assert f1_em_single("six days", ["seven", "six days", "nothing"]) == (1.0, 1)
    f1, _ = f1_em_single("six days", ["six", "days"])
    assert f1 == pytest.approx(2 / 3)


def test_empty_sides():
    # Gold that normalizes to nothing matches an empty prediction exactly.
    assert f1_em_single("", ["the"]) == (1.0, 1)
    assert f1_em_single("the", ["an"]) == (1.0, 1)
    with pytest.raises(ValueError):
        f1_em_single("x", [])


def test_fifty_case_oracle():
    assert len(ORACLE) == 50
    for case in ORACLE:
        f1, em = f1_em_single(case["prediction"], case["golds"])
        assert abs(f1 - case["f1"]) <= 1e-9, case
        assert float(em) == case["em"], case


answer_text = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd", "Po", "Zs")),
    max_size=40,
)


@given(st.text(max_size=30), st.lists(answer_text, min_size=1, max_size=4), st.randoms())
def test_gold_order_never_matters(pred, golds, rnd):
    shuffled = list(golds)
    rnd.shuffle(shuffled)
    assert f1_em_single(pred, golds) == f1_em_single(pred, shuffled)


@given(answer_text, st.lists(answer_text, min_size=1, max_size=4))
def test_exact_match_implies_perfect_f1(pred, golds):
    f1, em = f1_em_single(pred, golds)
    assert 0.0 <= f1 <= 1.0
    if em == 1:
        assert f1 == 1.0


def test_metrics_json_shape():
    m = Metrics(f1=55.5, em=33.25, count=4)
    assert m.to_json() == {"f1": 55.5, "exact_match": 33.25, "count": 4}


# ------------------------------------------------------------- evaluate loop


def test_perfect_retrieval_scores_hundred():
    corpus, index, encode, _ = one_hot_setup()
    rows = []
    metrics = evaluate(index, corpus, encode, per_example=rows)
    assert (metrics.f1, metrics.em, metrics.count) == (100.0, 100.0, 3)
    assert [r[0] for r in rows] == ["q1", "q2", "q3"]
    assert [r[1] for r in rows] == ["charlie", "foxtrot golf", "juliet"]
    assert all(r[2] == 1.0 and r[3] == 1 for r in rows)
    assert all(r[4] > 0 for r in rows)


def test_mixed_quality_hand_computed():
    corpus, index, _, ordinal_of = one_hot_setup()
    target = {"q1": (2, 2), "q2": (5, 5), "q3": (0, 0)}  # exact, partial, miss

    def encode(ex):
        q = np.zeros(len(index), dtype=np.float32)
        q[ordinal_of[target[ex.question_id]]] = 1.0
        return q

    metrics = evaluate(index, corpus, encode)
    expected_f1 = 100.0 * math.fsum([1.0, 2 * 0.5 * 1.0 / 1.5, 0.0]) / 3
    assert metrics.f1 == pytest.approx(expected_f1, rel=1e-12)
    assert metrics.em == pytest.approx(100.0 / 3, rel=1e-12)
    assert metrics.count == 3


def test_unindexed_document_is_an_error_by_default():
    corpus, index, encode, _ = one_hot_setup()
    corpus.examples.append(QAExample("q9", ["x"], 5, ["whatever"], []))
    with pytest.raises(EvaluationError, match=r"\[5\]"):
        evaluate(index, corpus, encode)


def test_missing_documents_score_zero_when_allowed():
    corpus, index, encode, _ = one_hot_setup()
    corpus.examples.append(QAExample("q9", ["x"], 5, ["whatever"], []))

    def safe_encode(ex):
        if ex.question_id == "q9":
            return np.zeros(len(index), dtype=np.float32)
        return encode(ex)

    rows = []
    metrics = evaluate(index, corpus, safe_encode, allow_missing_docs=True, per_example=rows)
    assert metrics.count == 4
    assert metrics.f1 == pytest.approx(75.0)
    assert rows[-1][:4] == ("q9", "", 0.0, 0)


def two_doc_setup():
    texts = ["aa bb", "cc dd"]
    docs = []
    for i, text in enumerate(texts):
        toks, offs = tokenize(text)
        docs.append(Document(i, text, toks, offs))
    spans = [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 0, 0), (1, 0, 1), (1, 1, 1)]
    metadata = np.zeros(6, dtype=METADATA_DTYPE)
    vectors = np.zeros((6, 6), dtype=np.float32)
    for i, row in enumerate(spans):
        metadata[i] = row
        vectors[i, i] = 2.0
    index = vectors_index(metadata, vectors)
    example = QAExample("g", ["where"], 0, ["cc"], [])
    corpus = Corpus(docs, [example], {"aa": 1, "bb": 1, "cc": 1, "dd": 1}, 2)

    def encode(ex):
        q = np.zeros(6, dtype=np.float32)
        q[3] = 1.0  # ordinal of doc 1, span (0, 0): the token "cc"
        return q

    return corpus, index, encode


def test_global_search_can_leave_the_question_document():
    corpus, index, encode = two_doc_setup()
    restricted = evaluate(index, corpus, encode)
    assert restricted.em == 0.0  # doc 0 has no "cc"
    open_corpus = evaluate(index, corpus, encode, restrict_to_doc=False)
    assert (open_corpus.f1, open_corpus.em) == (100.0, 100.0)


def test_approximate_evaluation_matches_exact_when_buckets_cover_all():
    corpus, index, encode, _ = one_hot_setup()
    alsh = build_alsh(index, AlshParams(bits_per_table=0, tables=1))
    exact = evaluate(index, corpus, encode)
    approx = evaluate(index, corpus, encode, alsh=alsh)
    assert (approx.f1, approx.em, approx.count) == (exact.f1, exact.em, exact.count)


def test_empty_example_list():
    corpus, index, encode, _ = one_hot_setup()
    corpus.examples.clear()
    assert evaluate(index, corpus, encode) == Metrics(0.0, 0.0, 0)


# --------------------------------------------------- batched dense evaluation


def evaluate_one_by_one(index, corpus, encode, restrict_to_doc):
    """evaluate's per_example rows from one 1-D search per question: the loop
    that a dense evaluate ran before it searched a block of questions at once."""
    rows = []
    for ex in corpus.examples:
        doc_filter = ex.doc_id if restrict_to_doc else None
        hits = search_exact(index, encode(ex), 1, doc_id=doc_filter)
        if hits:
            prediction = corpus.document(hits[0].span.doc_id).span_text(hits[0].span)
            score = hits[0].score
        else:
            prediction, score = "", 0.0
        f1, em = f1_em_single(prediction, ex.gold_answers)
        rows.append((ex.question_id, prediction, f1, em, score))
    return rows


def assert_same_rows(got, want):
    assert [r[:4] for r in got] == [r[:4] for r in want]
    assert [r[4] for r in got] == pytest.approx([r[4] for r in want], rel=1e-5)


@pytest.mark.parametrize("restrict_to_doc", [True, False])
def test_batched_rows_match_the_per_question_loop(
    mini_corpus, toy_vectors, dense_index, restrict_to_doc
):
    def encode(ex):
        return compose_question(toy_vectors.question(ex.question_id), LSTM_SA)

    rows = []
    evaluate(dense_index, mini_corpus, encode, restrict_to_doc=restrict_to_doc, per_example=rows)
    assert len(rows) == len(mini_corpus.examples)
    assert_same_rows(rows, evaluate_one_by_one(dense_index, mini_corpus, encode, restrict_to_doc))


@pytest.mark.parametrize("restrict_to_doc", [True, False])
def test_batched_rows_match_the_per_question_loop_with_missing_docs(restrict_to_doc):
    """Three documents, questions interleaved across them, the middle document
    filtered out of the index."""
    texts = ["aa bb cc", "dd ee ff", "gg hh ii"]
    docs = []
    for i, text in enumerate(texts):
        toks, offs = tokenize(text)
        docs.append(Document(i, text, toks, offs))
    rng = np.random.Generator(np.random.Philox(key=8))
    examples = [
        QAExample(f"q{i}", ["w"], int(d), [texts[d].split()[i % 3]], [])
        for i, d in enumerate(rng.integers(0, 3, size=12))
    ]
    corpus = Corpus(docs, examples, {t: 1 for text in texts for t in text.split()}, 3)
    rows = [(d, s, e) for d in (0, 2) for s in range(3) for e in range(s, 3)]
    metadata = np.array(rows, dtype=METADATA_DTYPE)
    vectors = (rng.integers(-4, 5, size=(len(rows), 5)) / 4.0).astype(np.float32)
    index = vectors_index(metadata, vectors)
    queries = {ex.question_id: rng.normal(size=5).astype(np.float32) for ex in examples}

    def encode(ex):
        return queries[ex.question_id]

    got = []
    evaluate(index, corpus, encode, restrict_to_doc=restrict_to_doc, allow_missing_docs=True,
             per_example=got)
    want = evaluate_one_by_one(index, corpus, encode, restrict_to_doc)
    assert_same_rows(got, want)
    if restrict_to_doc:
        assert all(r[1] == "" and r[4] == 0.0 for r, ex in zip(got, examples) if ex.doc_id == 1)
