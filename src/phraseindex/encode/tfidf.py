"""TF-IDF encoders for phrases (context bags) and questions.

Weighting: tf = raw count in the bag, idf = ln((N+1)/(df+1)) + 1 (smoothed,
always positive), L2 normalization, score = dot product. A phrase's bag is
its own tokens plus the tokens within `window` positions of its endpoints;
`include_phrase=False` restricts the bag to the surrounding context only.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

import numpy as np

if TYPE_CHECKING:
    from ..candidates import CandidateSpan
    from ..corpus import Corpus, Document


@dataclass(frozen=True)
class SparseVector:
    """L2-normalized sparse vector: strictly increasing term ids, float weights."""

    term_ids: np.ndarray  # int64, sorted ascending
    weights: np.ndarray  # float64

    @classmethod
    def empty(cls) -> "SparseVector":
        return cls(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64))

    @classmethod
    def from_weights(cls, by_term: dict[int, float]) -> "SparseVector":
        if not by_term:
            return cls.empty()
        ids = np.array(sorted(by_term), dtype=np.int64)
        w = np.array([by_term[int(t)] for t in ids], dtype=np.float64)
        norm = math.sqrt(float(w @ w))
        if norm > 0:
            w = w / norm
        return cls(ids, w)


@dataclass
class IdfTable:
    """Document frequencies plus the corpus-wide term-id assignment.

    Term ids are positions in the sorted vocabulary, so identical corpora
    always produce identical ids. Out-of-vocabulary terms have no id (they
    cannot match any indexed phrase) and are skipped by the encoders.
    """

    df: dict[str, int]
    num_documents: int
    _term_ids: dict[str, int] = field(init=False, repr=False)
    _terms: list[str] = field(init=False, repr=False)

    def __post_init__(self):
        self._terms = sorted(self.df)
        self._term_ids = {t: i for i, t in enumerate(self._terms)}

    @classmethod
    def from_corpus(cls, corpus: "Corpus") -> "IdfTable":
        return cls(dict(corpus.vocab_df), corpus.num_documents)

    @property
    def vocab(self) -> list[str]:
        return self._terms

    def idf(self, term: str) -> float:
        return math.log((self.num_documents + 1) / (self.df.get(term, 0) + 1)) + 1.0

    def term_id(self, term: str) -> int | None:
        return self._term_ids.get(term)


def _encode_bag(tokens: Iterable[str], idf: IdfTable) -> SparseVector:
    weights: dict[int, float] = {}
    for term, count in Counter(tokens).items():
        tid = idf.term_id(term)
        if tid is None:
            continue
        weights[tid] = count * idf.idf(term)
    return SparseVector.from_weights(weights)


def tfidf_phrase_encode(
    doc: "Document",
    span: "CandidateSpan",
    window: int,
    idf: IdfTable,
    include_phrase: bool = True,
) -> SparseVector:
    """Encode one candidate span as the TF-IDF vector of its context bag."""
    if window < 0:
        raise ValueError(f"window must be >= 0, got {window}")
    if not (0 <= span.s <= span.e < len(doc)):
        raise ValueError(f"span {span} out of range for document of {len(doc)} tokens")
    lo = max(0, span.s - window)
    hi = min(len(doc), span.e + 1 + window)
    bag = doc.tokens[lo:hi]
    if not include_phrase:
        bag = doc.tokens[lo : span.s] + doc.tokens[span.e + 1 : hi]
    return _encode_bag(bag, idf)


def tfidf_question_encode(question_tokens: list[str], idf: IdfTable) -> SparseVector:
    """Encode a question as the TF-IDF vector of its token bag."""
    return _encode_bag(question_tokens, idf)
