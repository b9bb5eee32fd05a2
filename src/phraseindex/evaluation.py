"""SQuAD-convention scoring: answer normalization, F1/EM, dataset evaluation."""

from __future__ import annotations

import math
import re
import string
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import EvaluationError

if TYPE_CHECKING:
    from .alsh import AlshIndex
    from .corpus import Corpus
    from .index import PhraseIndex

_PUNCT = set(string.punctuation)
_ARTICLES = re.compile(r"\b(a|an|the)\b")


def normalize_answer(text: str) -> list[str]:
    """Lowercase, strip punctuation, drop articles, collapse whitespace."""
    text = text.lower()
    text = "".join(ch for ch in text if ch not in _PUNCT)
    text = _ARTICLES.sub(" ", text)
    return text.split()


def f1_em_single(prediction: str, gold_answers: list[str]) -> tuple[float, int]:
    """Max-over-golds token F1 and exact match for one prediction.

    Token overlap is multiset-based (duplicates count). When prediction and a
    gold answer both normalize to nothing, the pair counts as a perfect match;
    this keeps em == 1 implying f1 == 1.
    """
    if not gold_answers:
        raise ValueError("gold_answers must be non-empty")
    pred_tokens = normalize_answer(prediction)
    best_f1 = 0.0
    best_em = 0
    for gold in gold_answers:
        gold_tokens = normalize_answer(gold)
        em = int(pred_tokens == gold_tokens)
        if not pred_tokens or not gold_tokens:
            f1 = float(em)
        else:
            common: dict[str, int] = {}
            for t in pred_tokens:
                common[t] = common.get(t, 0) + 1
            num_same = sum(min(c, gold_tokens.count(t)) for t, c in common.items())
            if num_same == 0:
                f1 = 0.0
            else:
                precision = num_same / len(pred_tokens)
                recall = num_same / len(gold_tokens)
                f1 = 2 * precision * recall / (precision + recall)
        if (f1, em) > (best_f1, best_em):
            best_f1, best_em = f1, em
    return best_f1, best_em


@dataclass
class Metrics:
    f1: float  # percent
    em: float  # percent
    count: int

    def to_json(self) -> dict:
        return {"f1": self.f1, "exact_match": self.em, "count": self.count}


def evaluate(
    index: "PhraseIndex",
    corpus: "Corpus",
    encode_question: Callable,
    *,
    restrict_to_doc: bool = True,
    alsh: "AlshIndex | None" = None,
    allow_missing_docs: bool = False,
    per_example: list | None = None,
) -> Metrics:
    """Score top-1 retrieval over every example of a corpus.

    encode_question maps a QAExample to a query vector matching the index
    kind. Search is restricted to the example's document unless
    restrict_to_doc is False (open-corpus mode). Exact dense search encodes
    every question first, then searches each scope's questions as one
    block. Predictions are rendered from raw character offsets so
    normalization sees the original text.

    The corpus must hold every indexed document, each long enough for its
    spans, or ConfigError is raised (PhraseIndex.check_corpus).
    allow_missing_docs permits documents absent from the index (legitimate
    after aggressive filtering); such examples score with an empty
    prediction. per_example, if given, collects
    (question_id, prediction, f1, em, score) rows.
    """
    from .alsh import search_approx
    from .index import search_exact

    index.check_corpus(corpus)
    if restrict_to_doc and not allow_missing_docs:
        indexed = set(int(d) for d in index.doc_ids())
        missing = sorted({ex.doc_id for ex in corpus.examples} - indexed)
        if missing:
            raise EvaluationError(
                f"examples reference unindexed documents: {missing[:20]}"
                + ("..." if len(missing) > 20 else "")
            )

    examples = corpus.examples
    if alsh is None and index.kind == "dense":
        # A GEMM per block of questions instead of a GEMV per question.
        queries = [encode_question(ex) for ex in examples]
        groups: dict[int | None, list[int]] = {}
        for i, ex in enumerate(examples):
            groups.setdefault(ex.doc_id if restrict_to_doc else None, []).append(i)
        results: list = [None] * len(examples)
        for doc_filter, members in groups.items():
            block = np.asarray([queries[i] for i in members], dtype=np.float32)
            for i, hits in zip(members, search_exact(index, block, 1, doc_id=doc_filter)):
                results[i] = hits
    else:
        results = []
        for ex in examples:
            query = encode_question(ex)
            doc_filter = ex.doc_id if restrict_to_doc else None
            if alsh is not None:
                hits, _ = search_approx(alsh, query, 1, doc_id=doc_filter)
            else:
                hits = search_exact(index, query, 1, doc_id=doc_filter)
            results.append(hits)

    f1s: list[float] = []
    ems: list[float] = []
    for ex, hits in zip(examples, results):
        if hits:
            span, score = hits[0].span, hits[0].score
            prediction = corpus.document(span.doc_id).span_text(span)
        else:
            prediction, score = "", 0.0
        f1, em = f1_em_single(prediction, ex.gold_answers)
        f1s.append(f1)
        ems.append(float(em))
        if per_example is not None:
            per_example.append((ex.question_id, prediction, f1, em, score))

    count = len(examples)
    if count == 0:
        return Metrics(0.0, 0.0, 0)
    return Metrics(
        f1=100.0 * math.fsum(f1s) / count,
        em=100.0 * math.fsum(ems) / count,
        count=count,
    )
