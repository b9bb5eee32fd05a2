"""Hand-built retrieval fixture with fully predictable behavior.

One ten-token document, three questions whose gold answers are known spans.
Candidate vectors are scaled one-hot rows (dim = candidate count), and the
question encoder returns the unit vector of the gold span's ordinal, so exact
search always retrieves the gold span and every score is knowable by hand.
"""

import numpy as np

from phraseindex.candidates import CandidateSpan
from phraseindex.corpus import Corpus, Document, QAExample, tokenize
from phraseindex.index import METADATA_DTYPE

from .oracles import enumerate_spans, vectors_index

TEXT = "alpha bravo charlie delta echo foxtrot golf hotel india juliet"


def one_hot_setup():
    """Returns (corpus, index, encode_question, ordinal_of) for the toy doc."""
    tokens, offsets = tokenize(TEXT)
    doc = Document(0, TEXT, tokens, offsets)
    examples = [
        QAExample("q1", ["one"], 0, ["charlie"], [CandidateSpan(0, 2, 2)]),
        QAExample("q2", ["two"], 0, ["foxtrot golf"], [CandidateSpan(0, 5, 6)]),
        QAExample("q3", ["three"], 0, ["juliet"], [CandidateSpan(0, 9, 9)]),
    ]
    corpus = Corpus(
        documents=[doc],
        examples=examples,
        vocab_df={t: 1 for t in tokens},
        num_documents=1,
    )
    spans = enumerate_spans(len(tokens), 7)
    n = len(spans)
    metadata = np.zeros(n, dtype=METADATA_DTYPE)
    vectors = np.zeros((n, n), dtype=np.float32)
    ordinal_of = {}
    for i, (s, e) in enumerate(spans):
        metadata[i] = (0, s, e)
        # Distinct magnitudes keep filter scores tie-free across ordinals.
        vectors[i, i] = 2.0 + 0.001 * i
        ordinal_of[(s, e)] = i
    index = vectors_index(metadata, vectors)

    def encode_question(ex):
        q = np.zeros(n, dtype=np.float32)
        gold = ex.gold_spans[0]
        q[ordinal_of[(gold.s, gold.e)]] = 1.0
        return q

    return corpus, index, encode_question, ordinal_of
