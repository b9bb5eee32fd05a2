"""TF-IDF weighting of token bags: candidate phrases and questions.

Weighting: tf = raw count in the bag, idf = ln((N+1)/(df+1)) + 1 (smoothed,
always positive), L2 normalization, score = dot product. A phrase's bag is
its own tokens plus the tokens within `window` positions of its endpoints;
`include_phrase=False` restricts the bag to the surrounding context only.

weigh_bags weighs a batch of bags given as a term-id matrix: the index build
passes a block of spans' bags, a question is a batch of one bag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from ..corpus import Corpus


@dataclass(frozen=True)
class SparseVector:
    """Sparse vector: strictly increasing term ids, float weights."""

    term_ids: np.ndarray  # int64, sorted ascending
    weights: np.ndarray  # float64


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
    idf_by_id: np.ndarray = field(init=False, repr=False)  # float64, the values of idf()

    def __post_init__(self):
        self._terms = sorted(self.df)
        self._term_ids = {t: i for i, t in enumerate(self._terms)}
        self.idf_by_id = np.array([self.idf(t) for t in self._terms], dtype=np.float64)

    @classmethod
    def from_corpus(cls, corpus: "Corpus") -> "IdfTable":
        return cls(dict(corpus.vocab_df), corpus.num_documents)

    @property
    def vocab(self) -> list[str]:
        return self._terms

    def idf(self, term: str) -> float:
        return math.log((self.num_documents + 1) / (self.df.get(term, 0) + 1)) + 1.0

    def ids(self, tokens: list[str]) -> np.ndarray:
        """Term id of each token, int64, -1 for a term with no id."""
        return np.array([self._term_ids.get(t, -1) for t in tokens], dtype=np.int64)


def weigh_bags(bags: np.ndarray, idf_by_id: np.ndarray) -> tuple:
    """TF-IDF vectors of a batch of bags: (sizes, term_ids, weights).

    bags is a (bags, width) int64 matrix of term ids, -1 in an empty slot, and
    idf_by_id the positive idf of each term. A term weighs its count times its
    idf; each bag is L2-normalised, its squares summed in term order. Bag i's
    vector is the next sizes[i] term ids (ascending) and float64 weights.
    """
    width = max(bags.shape[1], 1)
    flat = np.sort(bags, axis=1).ravel()
    # Each run of equal ids within a row starts at a bound; the last bound ends the rows.
    edge = np.empty(flat.size + 1, dtype=bool)
    edge[1:-1] = flat[1:] != flat[:-1]
    edge[::width] = True
    bounds = np.flatnonzero(edge)
    starts, counts = bounds[:-1], bounds[1:] - bounds[:-1]
    used = flat[starts] >= 0
    terms, bag = flat[starts[used]], starts[used] // width
    weights = counts[used] * idf_by_id[terms]
    weights /= np.sqrt(np.bincount(bag, weights=weights * weights, minlength=len(bags)))[bag]
    return np.bincount(bag, minlength=len(bags)), terms, weights


def tfidf_question_encode(question_tokens: list[str], idf: IdfTable) -> SparseVector:
    """Encode a question as the TF-IDF vector of its token bag."""
    _, terms, weights = weigh_bags(idf.ids(question_tokens)[None, :], idf.idf_by_id)
    return SparseVector(terms, weights)
