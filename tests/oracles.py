"""Per-item reference versions of the package's array code, kept as test oracles.

Each function computes, one span or one ordinal at a time, what the package
now computes in a few array operations: tests compare the two bit for bit.
"""

import numpy as np

from phraseindex.candidates import CandidateSpan, enumerate_spans
from phraseindex.encode.dense import LSTM_SA, sa_all, softmax_pool
from phraseindex.errors import ConfigError
from phraseindex.index import METADATA_DTYPE


def sa_word_vector(channels, position: int) -> np.ndarray:
    """Self-attended word vector: base words pooled by query[j]-key[i] scores."""
    if channels.sa_key is None or channels.sa_query is None:
        raise ConfigError(
            f"document {channels.doc_id} is missing sa_key/sa_query channels"
        )
    scores = channels.sa_key.astype(np.float64) @ channels.sa_query[position].astype(np.float64)
    return softmax_pool(channels.base, scores)


def compose_phrase_lstm(channels, span) -> np.ndarray:
    """Endpoint concatenation [word[s], word[e]]; dim = 2 x word dim."""
    m = len(channels.base)
    if not (0 <= span.s <= span.e < m):
        raise ValueError(f"span {span} out of range for {m} positions")
    base = channels.base.astype(np.float64)
    return np.concatenate([base[span.s], base[span.e]])


def compose_phrase_lstm_sa(channels, span, sa_matrix: np.ndarray | None = None) -> np.ndarray:
    """[word[s], sa[s], word[e], sa[e]]; dim = 4 x word dim.

    sa_matrix, when given, must be sa_all(channels); passing it avoids
    recomputing attention for every span of the same document.
    """
    m = len(channels.base)
    if not (0 <= span.s <= span.e < m):
        raise ValueError(f"span {span} out of range for {m} positions")
    if sa_matrix is None:
        sa_matrix = sa_all(channels)
    base = channels.base.astype(np.float64)
    return np.concatenate(
        [base[span.s], sa_matrix[span.s], base[span.e], sa_matrix[span.e]]
    )


def per_span_dense_build(corpus, encoder, word_vectors, max_span_len=7):
    """(metadata, float32 vectors) of a dense build, one composed row per span."""
    rows, spans = [], []
    for doc in corpus.documents:
        chan = word_vectors.documents[doc.doc_id]
        sa = sa_all(chan) if encoder == LSTM_SA and len(doc) else None
        for s, e in enumerate_spans(len(doc), max_span_len):
            span = CandidateSpan(doc.doc_id, s, e)
            spans.append(span)
            if encoder == LSTM_SA:
                rows.append(compose_phrase_lstm_sa(chan, span, sa_matrix=sa))
            else:
                rows.append(compose_phrase_lstm(chan, span))
    width = (4 if encoder == LSTM_SA else 2) * word_vectors.dim
    vectors = np.array(rows, dtype=np.float32).reshape(len(rows), width)
    return np.array(spans, dtype=METADATA_DTYPE), vectors


def gold_label_mask(index, corpus) -> np.ndarray:
    """1.0 at each ordinal whose span is some question's gold span, one ordinal at a time."""
    gold = {(span.doc_id, span.s, span.e) for ex in corpus.examples for span in ex.gold_spans}
    labels = np.zeros(len(index), dtype=np.float64)
    for ordinal in range(len(index)):
        if tuple(index.span(ordinal)) in gold:
            labels[ordinal] = 1.0
    return labels
