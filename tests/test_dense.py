import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phraseindex.encode.dense import (
    LSTM,
    LSTM_SA,
    candidate_nll,
    compose_question,
    sa_all,
    softmax,
)
from phraseindex.encode.wordvectors import DocChannels, QuestionChannels
from phraseindex.candidates import CandidateSpan
from phraseindex.errors import ConfigError

from .oracles import compose_phrase_lstm, compose_phrase_lstm_sa, sa_word_vector, softmax_pool


def doc_channels(base, sa_key=None, sa_query=None, doc_id=0):
    return DocChannels(
        doc_id=doc_id,
        base=np.asarray(base, dtype=np.float32),
        sa_key=None if sa_key is None else np.asarray(sa_key, dtype=np.float32),
        sa_query=None if sa_query is None else np.asarray(sa_query, dtype=np.float32),
    )


def span(s, e):
    return CandidateSpan(0, s, e)


# ---------------------------------------------------------------- softmax


def test_softmax_uniform_and_saturated():
    np.testing.assert_allclose(softmax(np.zeros(4)), np.full(4, 0.25), atol=1e-12)
    w = softmax(np.array([100.0, -100.0]))
    assert w[0] == pytest.approx(1.0, abs=1e-30)
    assert w[1] < 1e-30


def test_softmax_weights_sum_to_one_for_wild_scores():
    rng = np.random.default_rng(0)
    for _ in range(50):
        scores = rng.uniform(-1e4, 1e4, size=rng.integers(1, 9))
        w = softmax(scores)
        assert np.all(w >= 0)
        assert abs(w.sum() - 1.0) <= 1e-9


def test_softmax_pool_uniform_average():
    v = np.array([[2.0, 0.0], [0.0, 4.0]])
    np.testing.assert_allclose(softmax_pool(v, [0.0, 0.0]), [1.0, 2.0], atol=1e-12)


def test_softmax_pool_saturation_picks_first():
    v = np.array([[1.0, 2.0], [-5.0, 9.0]])
    np.testing.assert_allclose(softmax_pool(v, [100.0, -100.0]), v[0], atol=1e-25)


def test_softmax_pool_two_scores_reference_values():
    # softmax([1, 2]) = [1/(1+e), e/(1+e)]
    lo = 1 / (1 + math.e)
    hi = math.e / (1 + math.e)
    assert lo == pytest.approx(0.2689414213699951, abs=1e-15)
    pooled = softmax_pool(np.array([[1.0, 0.0], [0.0, 1.0]]), [1.0, 2.0])
    np.testing.assert_allclose(pooled, [lo, hi], atol=1e-12)


def test_softmax_pool_shift_invariance():
    rng = np.random.default_rng(3)
    vectors = rng.normal(size=(5, 4))
    scores = rng.normal(size=5)
    base = softmax_pool(vectors, scores)
    shifted = softmax_pool(vectors, scores + 123.456)
    np.testing.assert_allclose(base, shifted, atol=1e-9)


def test_softmax_pool_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        softmax_pool(np.zeros((2, 3)), [1.0])
    with pytest.raises(ValueError):
        softmax_pool(np.zeros((0, 3)), [])


# ---------------------------------------------------------- self-attention


def test_sa_single_token_is_identity():
    chan = doc_channels([[3.0, -1.0]], sa_key=[[1.0, 0.0]], sa_query=[[0.5, 0.5]])
    np.testing.assert_allclose(sa_word_vector(chan, 0), [3.0, -1.0], atol=1e-12)


def test_sa_identical_keys_give_mean():
    base = [[1.0, 0.0], [0.0, 1.0], [4.0, 4.0]]
    keys = [[1.0, 1.0]] * 3
    queries = [[0.3, -0.2]] * 3
    chan = doc_channels(base, sa_key=keys, sa_query=queries)
    mean = np.mean(base, axis=0)
    for j in range(3):
        np.testing.assert_allclose(sa_word_vector(chan, j), mean, atol=1e-12)


def test_sa_three_tokens_matches_scalar_brute_force():
    rng = np.random.default_rng(11)
    base = rng.normal(size=(3, 4)).astype(np.float32)
    keys = rng.normal(size=(3, 4)).astype(np.float32)
    queries = rng.normal(size=(3, 4)).astype(np.float32)
    chan = doc_channels(base, sa_key=keys, sa_query=queries)
    for j in range(3):
        scores = [float(np.dot(queries[j].astype(np.float64), keys[i].astype(np.float64)))
                  for i in range(3)]
        mx = max(scores)
        exps = [math.exp(s - mx) for s in scores]
        z = sum(exps)
        expected = sum(
            (w / z) * base[i].astype(np.float64) for i, w in enumerate(exps)
        )
        np.testing.assert_allclose(sa_word_vector(chan, j), expected, atol=1e-12)
        np.testing.assert_allclose(sa_all(chan)[j], expected, atol=1e-12)


def test_sa_missing_channels_raise_config_error():
    chan = doc_channels([[1.0, 2.0]])
    with pytest.raises(ConfigError):
        sa_word_vector(chan, 0)
    with pytest.raises(ConfigError):
        sa_all(chan)


# ------------------------------------------------------------ composition


def test_lstm_single_token_span_duplicates_endpoint():
    chan = doc_channels([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_allclose(compose_phrase_lstm(chan, span(0, 0)), [1, 2, 1, 2])


def test_lstm_unit_basis_endpoints():
    chan = doc_channels(np.eye(4, dtype=np.float32))
    out = compose_phrase_lstm(chan, span(1, 3))
    expected = np.concatenate([np.eye(4)[1], np.eye(4)[3]])
    np.testing.assert_allclose(out, expected)


def test_lstm_matches_concatenation_oracle():
    rng = np.random.default_rng(5)
    base = rng.normal(size=(4, 3)).astype(np.float32)
    chan = doc_channels(base)
    for s in range(4):
        for e in range(s, 4):
            out = compose_phrase_lstm(chan, span(s, e))
            np.testing.assert_array_equal(
                out, np.concatenate([base[s].astype(np.float64), base[e].astype(np.float64)])
            )


def test_lstm_span_ss_has_identical_halves():
    rng = np.random.default_rng(6)
    chan = doc_channels(rng.normal(size=(5, 4)).astype(np.float32))
    for s in range(5):
        out = compose_phrase_lstm(chan, span(s, s))
        np.testing.assert_array_equal(out[:4], out[4:])


def test_lstm_sa_single_token():
    chan = doc_channels([[7.0, -2.0]], sa_key=[[1.0, 1.0]], sa_query=[[1.0, 0.0]])
    out = compose_phrase_lstm_sa(chan, span(0, 0))
    np.testing.assert_allclose(out, [7, -2, 7, -2, 7, -2, 7, -2], atol=1e-12)


def test_lstm_sa_uniform_keys_insert_means():
    base = [[2.0, 0.0], [0.0, 2.0]]
    chan = doc_channels(base, sa_key=[[1.0, 0.0]] * 2, sa_query=[[0.0, 1.0]] * 2)
    out = compose_phrase_lstm_sa(chan, span(0, 1))
    np.testing.assert_allclose(out, [2, 0, 1, 1, 0, 2, 1, 1], atol=1e-12)


def test_lstm_sa_matches_combined_oracle():
    rng = np.random.default_rng(12)
    base = rng.normal(size=(3, 2)).astype(np.float32)
    keys = rng.normal(size=(3, 2)).astype(np.float32)
    queries = rng.normal(size=(3, 2)).astype(np.float32)
    chan = doc_channels(base, sa_key=keys, sa_query=queries)
    for s in range(3):
        for e in range(s, 3):
            expected = np.concatenate(
                [
                    base[s].astype(np.float64),
                    sa_word_vector(chan, s),
                    base[e].astype(np.float64),
                    sa_word_vector(chan, e),
                ]
            )
            got = compose_phrase_lstm_sa(chan, span(s, e))
            np.testing.assert_allclose(got, expected, atol=1e-12)
            with_cache = compose_phrase_lstm_sa(chan, span(s, e), sa_matrix=sa_all(chan))
            np.testing.assert_allclose(with_cache, expected, atol=1e-12)


def test_compose_out_of_range_span():
    chan = doc_channels([[1.0, 2.0]])
    with pytest.raises(ValueError):
        compose_phrase_lstm(chan, span(0, 1))
    with pytest.raises(ValueError):
        compose_phrase_lstm_sa(chan, span(1, 1))


# ---------------------------------------------------------- question side


def question_channels(base, scores, qid="q"):
    return QuestionChannels(
        question_id=qid,
        base=np.asarray(base, dtype=np.float32),
        scores={k: np.asarray(v, dtype=np.float32) for k, v in scores.items()},
    )


def test_question_single_token_concatenates_copies():
    q = question_channels([[1.5, -0.5]], {k: [0.7] for k in range(4)})
    np.testing.assert_allclose(compose_question(q, LSTM), [1.5, -0.5] * 2, atol=1e-12)
    np.testing.assert_allclose(compose_question(q, LSTM_SA), [1.5, -0.5] * 4, atol=1e-12)


def test_question_zero_scores_concatenate_means():
    base = [[2.0, 0.0], [0.0, 4.0]]
    q = question_channels(base, {k: [0.0, 0.0] for k in range(2)})
    np.testing.assert_allclose(compose_question(q, LSTM), [1, 2, 1, 2], atol=1e-12)


def test_question_blocks_match_softmax_pool_oracle():
    rng = np.random.default_rng(8)
    base = rng.normal(size=(2, 3)).astype(np.float32)
    scores = {k: rng.normal(size=2).astype(np.float32) for k in range(4)}
    q = question_channels(base, scores)
    out = compose_question(q, LSTM_SA)
    assert out.shape == (12,)
    for k in range(4):
        block = out[3 * k : 3 * (k + 1)]
        np.testing.assert_allclose(block, softmax_pool(q.base, q.scores[k]), atol=1e-12)


def test_question_missing_score_channels():
    q = question_channels([[1.0]], {0: [0.0]})
    with pytest.raises(ConfigError):
        compose_question(q, LSTM)  # needs score0 and score1
    with pytest.raises(ConfigError):
        compose_question(q, "bogus")


# ------------------------------------------------------------------ loss


def test_nll_equal_logits():
    cands = np.array([[1.0, 0.0], [1.0, 0.0]])
    loss, _ = candidate_nll(np.array([0.3, 0.9]), cands, 0)
    assert loss == pytest.approx(math.log(2), abs=1e-12)


def test_nll_saturated_gold():
    cands = np.array([[50.0], [0.0]])
    loss, _ = candidate_nll(np.array([1.0]), cands, 0)
    assert 0 <= loss < 1e-20


def test_nll_loss_nonnegative_and_gradient_shape():
    rng = np.random.default_rng(21)
    q = rng.normal(size=4)
    cands = rng.normal(size=(5, 4))
    loss, grad = candidate_nll(q, cands, 2)
    assert loss >= 0
    assert grad.shape == (4,)


def finite_difference(q, cands, gold, h=1e-5):
    fd = np.zeros_like(q)
    for j in range(len(q)):
        up = q.copy()
        dn = q.copy()
        up[j] += h
        dn[j] -= h
        fd[j] = (candidate_nll(up, cands, gold)[0] - candidate_nll(dn, cands, gold)[0]) / (2 * h)
    return fd


def test_nll_gradient_matches_finite_differences():
    rng = np.random.default_rng(42)
    for _ in range(25):
        dim = int(rng.integers(1, 9))
        n = int(rng.integers(1, 6))
        q = rng.normal(size=dim)
        cands = rng.normal(size=(n, dim))
        gold = int(rng.integers(0, n))
        _, grad = candidate_nll(q, cands, gold)
        fd = finite_difference(q, cands, gold)
        np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-7)


def test_nll_validates_inputs():
    with pytest.raises(ValueError):
        candidate_nll(np.zeros(2), np.zeros((0, 2)), 0)
    with pytest.raises(ValueError):
        candidate_nll(np.zeros(2), np.zeros((3, 2)), 3)


# ------------------------------------------------- question composer vs its oracle


@st.composite
def question_cases(draw):
    """Float32 question channels of 1-40 tokens and dims 1-64, with scores spread
    up to +-80 so that the softmax saturates on some draws."""
    n, dim = draw(st.integers(1, 40)), draw(st.integers(1, 64))
    seed = draw(st.integers(0, 2**32 - 1))
    spread = draw(st.sampled_from([0.0, 1.0, 10.0, 80.0]))
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(n, dim))
    scores = {k: rng.uniform(-spread, spread, size=n) for k in range(4)}
    return question_channels(base, scores)


@settings(max_examples=200, deadline=None)
@given(question_cases(), st.sampled_from([LSTM, LSTM_SA]))
def test_question_equals_the_concatenated_softmax_pool_oracle_exactly(q, mode):
    pools = 2 if mode == LSTM else 4
    expected = np.concatenate([softmax_pool(q.base, q.scores[k]) for k in range(pools)])
    got = compose_question(q, mode)
    assert got.dtype == np.float64
    assert np.array_equal(got, expected)


@pytest.mark.parametrize(
    "base, scores, error",
    [
        ([[1.0], [2.0]], {0: [0.0, 1.0], 1: [0.0, 1.0, 2.0]}, ValueError),  # score length
        ([[1.0], [2.0]], {0: [0.0], 1: [0.0]}, ValueError),  # both shorter than base
        (np.zeros((0, 3)), {0: [], 1: []}, ValueError),  # empty base
        ([[1.0], [2.0]], {1: [0.0, 1.0]}, ConfigError),  # score0 missing
    ],
)
def test_question_rejects_bad_channels(base, scores, error):
    with pytest.raises(error):
        compose_question(question_channels(base, scores), LSTM)


def test_question_lstm_sa_needs_four_score_channels():
    q = question_channels([[1.0]], {0: [0.0], 1: [0.0]})
    assert compose_question(q, LSTM).shape == (2,)
    with pytest.raises(ConfigError, match=r"\[2, 3\]"):
        compose_question(q, LSTM_SA)
