"""Phrase and question encoders: sparse TF-IDF and dense compositional."""

from .dense import (
    LSTM,
    LSTM_SA,
    QUESTION_POOLS,
    candidate_nll,
    compose_question,
    sa_all,
    softmax,
    softmax_pool,
)
from .tfidf import (
    IdfTable,
    SparseVector,
    tfidf_phrase_encode,
    tfidf_question_encode,
)
from .wordvectors import (
    DocChannels,
    QuestionChannels,
    WordVectorTable,
    read_word_vectors,
    toy_word_vector_table,
    write_word_vectors,
)

__all__ = [
    "LSTM",
    "LSTM_SA",
    "QUESTION_POOLS",
    "IdfTable",
    "SparseVector",
    "DocChannels",
    "QuestionChannels",
    "WordVectorTable",
    "candidate_nll",
    "compose_question",
    "read_word_vectors",
    "sa_all",
    "softmax",
    "softmax_pool",
    "tfidf_phrase_encode",
    "tfidf_question_encode",
    "toy_word_vector_table",
    "write_word_vectors",
]
