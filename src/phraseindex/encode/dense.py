"""Dense phrase/question composition from precomputed per-word vectors.

The engine never trains encoders: per-word vectors and attention scores
arrive through a word-vector table (see wordvectors.py). build_index
assembles phrase vectors from them (endpoint concatenation, optionally
augmented with the self-attended words of sa_all), and compose_question
pools question vectors (attention-pooled blocks). All softmaxes subtract the
max score before exponentiation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..errors import ConfigError

if TYPE_CHECKING:
    from .wordvectors import DocChannels, QuestionChannels

LSTM = "lstm"
LSTM_SA = "lstm_sa"

# Score channels a question must carry for each composition mode.
QUESTION_POOLS = {LSTM: 2, LSTM_SA: 4}


def softmax(scores: np.ndarray) -> np.ndarray:
    """Softmax along the last axis, so each row of a 2-D array is one softmax."""
    scores = np.asarray(scores, dtype=np.float64)
    z = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return z / z.sum(axis=-1, keepdims=True)


def sa_all(channels: "DocChannels") -> np.ndarray:
    """Self-attended word vectors: row j pools the base words by softmax(sa_key @ sa_query[j])."""
    if channels.sa_key is None or channels.sa_query is None:
        raise ConfigError(
            f"document {channels.doc_id} is missing sa_key/sa_query channels"
        )
    scores = channels.sa_query.astype(np.float64) @ channels.sa_key.astype(np.float64).T
    return softmax(scores) @ channels.base.astype(np.float64)


def compose_question(channels: "QuestionChannels", mode: str) -> np.ndarray:
    """Concatenate one softmax pool of the question words per score channel.

    Equal, bit for bit, to pooling each channel alone, softmax(scores[k]) @ base:
    one float64 cast of base and one stacked softmax serve every pool.
    """
    if mode not in QUESTION_POOLS:
        raise ConfigError(f"unknown composition mode {mode!r}")
    pools = QUESTION_POOLS[mode]
    missing = [k for k in range(pools) if k not in channels.scores]
    if missing:
        raise ConfigError(
            f"question {channels.question_id!r} is missing score channels {missing} "
            f"required by mode {mode!r}"
        )
    base = np.asarray(channels.base, dtype=np.float64)
    # Channels of unequal lengths make np.array raise ValueError itself.
    scores = np.array([channels.scores[k] for k in range(pools)], dtype=np.float64)
    if base.ndim != 2 or len(base) == 0 or scores.shape != (pools, len(base)):
        raise ValueError(
            f"need one score per question vector in every channel, got {len(base)} "
            f"vectors and {pools} x {scores.shape[1:]} scores"
        )
    return np.concatenate([w @ base for w in softmax(scores)])


def candidate_nll(
    question_vec: np.ndarray,
    candidate_vecs: np.ndarray,
    gold_index: int,
) -> tuple[float, np.ndarray]:
    """Negative log probability of the gold candidate, plus d(loss)/d(question).

    Candidate scores are inner products; the probability is their softmax.
    gradient = sum_i (p_i - 1[i == gold]) * candidate_i.
    """
    q = np.asarray(question_vec, dtype=np.float64)
    cands = np.asarray(candidate_vecs, dtype=np.float64)
    if cands.ndim != 2 or len(cands) == 0:
        raise ValueError("need a non-empty 2-D array of candidate vectors")
    if not 0 <= gold_index < len(cands):
        raise ValueError(f"gold_index {gold_index} out of range for {len(cands)} candidates")
    logits = cands @ q
    shifted = logits - logits.max()
    logsumexp = np.log(np.exp(shifted).sum())
    loss = float(logsumexp - shifted[gold_index])
    p = np.exp(shifted - logsumexp)
    p[gold_index] -= 1.0
    gradient = p @ cands
    return loss, gradient
