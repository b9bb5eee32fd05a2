"""Seeded benchmark inputs: a SQuAD-format corpus with planted answers and a
word-vector file with planted question vectors.

Everything is drawn from one numpy Philox stream keyed by the seed, so the
same seed always gives byte-identical files. The program under test sees
only `corpus.json` and `wv.txt`; `truth.npz` holds the generated arrays and
the gold spans for the benchmark's own checks.

Make-up (see README.md for the reasoning):
- vocabulary: 20 English function words at the top ranks, then 4,000
  pseudo-words built from syllables, drawn with Zipf weights 1/(rank+2)^1.05;
- documents: SHAPE paragraphs of sentences of 8-22 words, capitalised,
  with commas and full stops that the tokenizer splits off;
- questions: a gold span of 1-3 word tokens holding at least one content
  word, and a question made of a wh-word, 5 distinct content words drawn
  from the 7 tokens on each side of the span and one random vocabulary
  word (more of those when the window holds fewer than 5 content words),
  so TF-IDF finds the answer often but not always;
- word vectors: 64-d base, sa_key and sa_query rows per token (normal;
  base rows scaled to norm 8, the attention channels by 64^-1/4). Equal
  base norms keep the largest candidate norm, which Sign-ALSH scales every
  row by, nearly the same from seed to seed. Each question's four pooled
  blocks are its gold span's lstm_sa row [base[s], sa[s], base[e], sa[e]]
  plus normal noise of scale NOISE, planted as one question row per block
  with a one-hot score of 60 so the softmax puts all its weight there.
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np

GENERATOR_VERSION = 2
# One SQuAD v1.1 article's worth of paragraphs: 43 of about 120 tokens, with 10 questions
# each (README.md gives the sources). About 5,200 words, 37,000 candidates, 430 questions.
SHAPE = {"docs": 43, "tokens": (90, 151), "questions": 10}
DIM = 64
NOISE = 0.3
PLANT_SCORE = 60.0
CACHED_SEEDS = 12
NEAR = 7  # questions draw their words from this many tokens on each side of the span

FUNCTION_WORDS = (
    "the of and in to a was is for on as by with that from at an its which were"
).split()
_ONSETS = "b c d f g h k l m n p r s t v z br tr st pl gr ch sh th".split()
_VOWELS = "a e i o u ai ea ou".split()
_CODAS = ["", "", "", "n", "r", "s", "l", "m", "nd", "st"]
WH_WORDS = ("what", "which", "who", "when", "where", "how")


def rng_for(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=int(seed) + (GENERATOR_VERSION << 32)))


def make_vocab(rng: np.random.Generator, size: int = 4000) -> list[str]:
    words: list[str] = []
    seen = set(FUNCTION_WORDS) | set(WH_WORDS)
    while len(words) < size:
        syllables = int(rng.integers(1, 4))
        word = "".join(
            _ONSETS[rng.integers(len(_ONSETS))]
            + _VOWELS[rng.integers(len(_VOWELS))]
            + _CODAS[rng.integers(len(_CODAS))]
            for _ in range(syllables)
        )
        if word not in seen:
            seen.add(word)
            words.append(word)
    return FUNCTION_WORDS + words


def make_paragraph(rng, vocab, cdf, tokens) -> tuple[str, list[tuple[int, int]], list[bool]]:
    """Raw text plus (start, end) char offsets and an is-word flag per token."""
    target = int(rng.integers(*tokens))
    pieces: list[str] = []
    offsets: list[tuple[int, int]] = []
    is_word: list[bool] = []
    pos = 0
    while len(offsets) < target:
        length = int(rng.integers(8, 23))
        ids = np.searchsorted(cdf, rng.random(length), side="right")
        for i, wid in enumerate(ids):
            word = vocab[wid]
            if rng.random() < 0.03:
                word = str(int(rng.integers(1000, 2030)))
            if i == 0:
                word = word.capitalize()
            if pieces:
                pieces.append(" ")
                pos += 1
            pieces.append(word)
            offsets.append((pos, pos + len(word)))
            is_word.append(True)
            pos += len(word)
            mark = "." if i == length - 1 else ("," if rng.random() < 0.08 else "")
            if mark:
                pieces.append(mark)
                offsets.append((pos, pos + 1))
                is_word.append(False)
                pos += 1
    return "".join(pieces), offsets, is_word


def plant_question(rng, vocab, text, offsets, is_word, function_words):
    """Pick a gold span and write a question from the words around it."""
    m = len(offsets)
    lower = [text[a:b].lower() for a, b in offsets]
    while True:
        length = int(rng.choice([1, 2, 3], p=[0.4, 0.35, 0.25]))
        s = int(rng.integers(0, m - length + 1))
        e = s + length - 1
        if all(is_word[s : e + 1]) and any(
            lower[i] not in function_words for i in range(s, e + 1)
        ):
            break
    near = [
        i
        for i in list(range(max(0, s - NEAR), s)) + list(range(e + 1, min(m, e + 1 + NEAR)))
        if is_word[i] and lower[i] not in function_words
    ]
    picks = sorted(set(lower[i] for i in near))
    rng.shuffle(picks)
    words = picks[:5]
    while len(words) < 6:
        words.append(vocab[int(rng.integers(len(FUNCTION_WORDS), len(vocab)))])
    rng.shuffle(words)
    question = " ".join([WH_WORDS[int(rng.integers(len(WH_WORDS)))]] + words) + "?"
    return question, s, e, len(words) + 2


def self_attention(base, sa_key, sa_query) -> np.ndarray:
    """Row j: base rows pooled by softmax_i(sa_query[j] . sa_key[i]), in float64."""
    scores = sa_query.astype(np.float64) @ sa_key.astype(np.float64).T
    z = np.exp(scores - scores.max(axis=1, keepdims=True))
    return (z / z.sum(axis=1, keepdims=True)) @ base.astype(np.float64)


def _write_block(out, channel: str, ident, rows: np.ndarray) -> None:
    out.append(f"{channel} {ident} {rows.shape[0]} {rows.shape[1]}\n")
    for pos, row in enumerate(rows.tolist()):
        out.append(f"{pos} " + " ".join(["%.9g" % v for v in row]) + "\n")


def plant_vectors(rng, lengths, gold, question_lengths) -> dict:
    """Word-vector arrays for documents of the given token counts.

    gold[i] = (doc_id, s, e) is question i's answer span; its pooled vector
    is planted as described in the module docstring.
    """
    base, sa_key, sa_query, q_rows = [], [], [], []
    for m in lengths:
        rows = rng.normal(size=(m, DIM))
        base.append((rows * (DIM**0.5 / np.linalg.norm(rows, axis=1, keepdims=True))).astype(
            np.float32))
        sa_key.append((rng.normal(size=(m, DIM)) * DIM ** -0.25).astype(np.float32))
        sa_query.append((rng.normal(size=(m, DIM)) * DIM ** -0.25).astype(np.float32))
    sa = [self_attention(*doc) for doc in zip(base, sa_key, sa_query)]
    for (doc_id, s, e), n in zip(gold, question_lengths):
        b = base[doc_id].astype(np.float64)
        target = np.concatenate([b[s], sa[doc_id][s], b[e], sa[doc_id][e]])
        target += NOISE * rng.normal(size=target.shape)
        rows = rng.normal(size=(n, DIM))
        rows[:4] = target.reshape(4, DIM)
        q_rows.append(rows.astype(np.float32))
    return {"base": base, "sa_key": sa_key, "sa_query": sa_query, "q_rows": q_rows}


def plant_scores(n: int, k: int) -> np.ndarray:
    score = np.zeros(n, dtype=np.float32)
    score[k] = PLANT_SCORE
    return score


def write_word_vectors(path: str, vectors: dict, question_ids: list[str]) -> None:
    """The word-vector text format documented in phraseindex.encode.wordvectors."""
    lines: list[str] = []
    for doc_id, blocks in enumerate(zip(vectors["base"], vectors["sa_key"], vectors["sa_query"])):
        for channel, rows in zip(("base", "sa_key", "sa_query"), blocks):
            _write_block(lines, channel, doc_id, rows)
    for qid, rows in zip(question_ids, vectors["q_rows"]):
        _write_block(lines, "base", qid, rows)
        for k in range(4):
            _write_block(lines, f"score{k}", qid, plant_scores(len(rows), k)[:, None])
    with open(path, "w", encoding="utf-8") as f:
        f.write("".join(lines))


def save_truth(path: str, vectors: dict, gold) -> None:
    np.savez(
        path,
        lengths=np.array([len(b) for b in vectors["base"]], dtype=np.int64),
        base=np.concatenate(vectors["base"]),
        sa_key=np.concatenate(vectors["sa_key"]),
        sa_query=np.concatenate(vectors["sa_query"]),
        q_lengths=np.array([len(r) for r in vectors["q_rows"]], dtype=np.int64),
        q_rows=np.concatenate(vectors["q_rows"]),
        gold=np.array(gold, dtype=np.int64),
    )


def generate(shape: dict, seed: int, out_dir: str) -> None:
    rng = rng_for(seed)
    vocab = make_vocab(rng)
    ranks = np.arange(len(vocab), dtype=np.float64)
    weights = 1.0 / (ranks + 2.0) ** 1.05
    cdf = np.cumsum(weights) / weights.sum()
    function_words = set(FUNCTION_WORDS)

    paragraphs, lengths, gold, question_ids, question_lengths = [], [], [], [], []
    for doc_id in range(shape["docs"]):
        text, offsets, is_word = make_paragraph(rng, vocab, cdf, shape["tokens"])
        lengths.append(len(offsets))
        qas = []
        for j in range(shape["questions"]):
            question, s, e, n = plant_question(rng, vocab, text, offsets, is_word, function_words)
            qid = f"d{doc_id:04d}q{j:02d}"
            start, end = offsets[s][0], offsets[e][1]
            qas.append({"id": qid, "question": question,
                        "answers": [{"text": text[start:end], "answer_start": start}]})
            gold.append((doc_id, s, e))
            question_ids.append(qid)
            question_lengths.append(n)
        paragraphs.append({"context": text, "qas": qas})
    vectors = plant_vectors(rng, lengths, gold, question_lengths)

    tmp = out_dir + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    corpus = {"version": "1.1", "data": [{"title": f"bench_{seed}", "paragraphs": paragraphs}]}
    with open(os.path.join(tmp, "corpus.json"), "w", encoding="utf-8") as f:
        json.dump(corpus, f)
    write_word_vectors(os.path.join(tmp, "wv.txt"), vectors, question_ids)
    save_truth(os.path.join(tmp, "truth.npz"), vectors, gold)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.rename(tmp, out_dir)


def inputs_for(seed: int, cache_root: str) -> str:
    """Directory holding the inputs for a seed, generating them on first use.

    The cache keeps the CACHED_SEEDS most recently used inputs.
    """
    out_dir = os.path.join(cache_root, f"inputs-v{GENERATOR_VERSION}-{seed}")
    if os.path.exists(os.path.join(out_dir, "truth.npz")):
        os.utime(out_dir)
        return out_dir
    os.makedirs(cache_root, exist_ok=True)
    cached = sorted(
        (os.path.getmtime(os.path.join(cache_root, d)), d)
        for d in os.listdir(cache_root)
        if d.startswith("inputs-")
    )
    for _, stale in cached[: max(0, len(cached) - CACHED_SEEDS + 1)]:
        shutil.rmtree(os.path.join(cache_root, stale), ignore_errors=True)
    generate(SHAPE, seed, out_dir)
    return out_dir
