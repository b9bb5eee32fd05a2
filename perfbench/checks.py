"""The benchmark's own answers, computed apart from phraseindex.

Nothing here imports the program's tokenizer, encoders, scoring or metrics:
the SQuAD normalisation, the tokenizer rule, TF-IDF weighting, the lstm_sa
composition and the brute-force search are written again from their
documented definitions. The checks compare the program's outputs against
these and raise CheckError on the first disagreement. `self_test` runs the
checks on the repository's mini SQuAD fixture, once on the program's true
outputs (they must pass) and once on tampered copies (they must fail).
"""

from __future__ import annotations

import copy
import json
import math
import os
import re
import string
import unicodedata
from dataclasses import dataclass

import numpy as np

import gen

MAX_SPAN_LEN = 7
WINDOW = 7
DENSE_TOL = 1e-4  # relative, float32 scoring against float64
SPARSE_TOL = 1e-5  # absolute, scores are cosines of float32 weights
_ARTICLES = re.compile(r"\b(a|an|the)\b")


class CheckError(AssertionError):
    pass


def require(condition, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _is_punct(ch: str) -> bool:
    return ch in string.punctuation or unicodedata.category(ch).startswith("P")


def tokenize(text: str) -> tuple[list[str], list[tuple[int, int]]]:
    """Whitespace chunks with leading and trailing punctuation split off, lowercased."""
    tokens, offsets = [], []
    for chunk in re.finditer(r"\S+", text):
        lo, hi = chunk.start(), chunk.end()
        head = []
        while lo < hi and _is_punct(text[lo]):
            head.append((lo, lo + 1))
            lo += 1
        tail = []
        while hi > lo and _is_punct(text[hi - 1]):
            tail.append((hi - 1, hi))
            hi -= 1
        pieces = head + ([(lo, hi)] if lo < hi else []) + tail[::-1]
        for a, b in pieces:
            tokens.append(text[a:b].lower())
            offsets.append((a, b))
    return tokens, offsets


def normalize(text: str) -> list[str]:
    text = "".join(ch for ch in text.lower() if ch not in string.punctuation)
    return _ARTICLES.sub(" ", text).split()


def f1_score(prediction: str, golds: list[str]) -> float:
    pred = normalize(prediction)
    best = 0.0
    for gold in golds:
        ref = normalize(gold)
        if not pred or not ref:
            best = max(best, float(pred == ref))
            continue
        common = sum(min(pred.count(t), ref.count(t)) for t in set(pred))
        if common:
            p, r = common / len(pred), common / len(ref)
            best = max(best, 2 * p * r / (p + r))
    return best


def span_count(m: int, L: int = MAX_SPAN_LEN) -> int:
    return m * L - L * (L - 1) // 2 if m >= L else m * (m + 1) // 2


def _softmax_rows(scores: np.ndarray) -> np.ndarray:
    z = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return z / z.sum(axis=-1, keepdims=True)


@dataclass
class Question:
    qid: str
    text: str
    doc: int
    golds: list[str]


class Truth:
    """Own view of a corpus: tokens, candidate spans, TF-IDF and dense scores."""

    def __init__(self, corpus_json: dict, vectors: dict | None):
        self.raw, self.tokens, self.offsets, self.questions = [], [], [], []
        for article in corpus_json["data"]:
            for para in article["paragraphs"]:
                doc = len(self.raw)
                tokens, offsets = tokenize(para["context"])
                self.raw.append(para["context"])
                self.tokens.append(tokens)
                self.offsets.append(offsets)
                for qa in para["qas"]:
                    golds = [a["text"] for a in qa["answers"]]
                    self.questions.append(Question(str(qa["id"]), qa["question"], doc, golds))
        self.words = sum(len(t) for t in self.tokens)
        self.spans = [
            [(s, e) for s in range(len(t)) for e in range(s, min(s + MAX_SPAN_LEN, len(t)))]
            for t in self.tokens
        ]
        self._position = [{se: i for i, se in enumerate(spans)} for spans in self.spans]
        self.first = np.cumsum([0] + [len(s) for s in self.spans])
        self.texts = [
            self.raw[d][self.offsets[d][s][0] : self.offsets[d][e][1]]
            for d in range(len(self.raw))
            for s, e in self.spans[d]
        ]
        df: dict[str, int] = {}
        for tokens in self.tokens:
            for t in set(tokens):
                df[t] = df.get(t, 0) + 1
        n = len(self.tokens)
        self.idf = {t: math.log((n + 1) / (c + 1)) + 1.0 for t, c in df.items()}
        self._tfidf: dict[int, tuple[list[str], np.ndarray]] = {}
        self._sa: dict[int, np.ndarray] = {}
        self.vectors = vectors
        self.dense_scores = None if vectors is None else self._dense_scores()

    def ordinal(self, doc: int, s: int, e: int) -> int:
        return int(self.first[doc]) + self._position[doc][(s, e)]

    # --- TF-IDF -----------------------------------------------------------
    def tfidf_rows(self, doc: int) -> tuple[list[str], np.ndarray]:
        """Terms of a document and one L2-normalised tf*idf row per candidate."""
        if doc not in self._tfidf:
            tokens = self.tokens[doc]
            terms = sorted(set(tokens))
            col = {t: i for i, t in enumerate(terms)}
            counts = np.zeros((len(tokens) + 1, len(terms)))
            for i, t in enumerate(tokens):
                counts[i + 1] = counts[i]
                counts[i + 1, col[t]] += 1
            se = np.array(self.spans[doc]).reshape(-1, 2)
            lo = np.maximum(0, se[:, 0] - WINDOW)
            hi = np.minimum(len(tokens), se[:, 1] + 1 + WINDOW)
            rows = (counts[hi] - counts[lo]) * np.array([self.idf[t] for t in terms])
            rows /= np.linalg.norm(rows, axis=1, keepdims=True)
            self._tfidf[doc] = (terms, rows)
        return self._tfidf[doc]

    def question_weights(self, text: str) -> dict[str, float]:
        tokens, _ = tokenize(text)
        w: dict[str, float] = {}
        for t in tokens:
            if t in self.idf:
                w[t] = w.get(t, 0.0) + self.idf[t]
        norm = math.sqrt(sum(v * v for v in w.values()))
        return {t: v / norm for t, v in w.items()} if norm else {}

    def sparse_scores(self, text: str, doc: int | None) -> tuple[int, np.ndarray]:
        """First ordinal of the scope and own scores of every candidate in it."""
        q = self.question_weights(text)
        docs = range(len(self.raw)) if doc is None else [doc]
        parts = []
        for d in docs:
            terms, rows = self.tfidf_rows(d)
            parts.append(rows @ np.array([q.get(t, 0.0) for t in terms]))
        return (0 if doc is None else int(self.first[doc])), np.concatenate(parts)

    # --- dense --------------------------------------------------------------
    def question_vector(self, i: int) -> np.ndarray:
        rows = self.vectors["q_rows"][i].astype(np.float64)
        pools = [_softmax_rows(gen.plant_scores(len(rows), k).astype(np.float64)) @ rows
                 for k in range(4)]
        return np.concatenate(pools)

    def dense_rows(self, doc: int, spans=None) -> np.ndarray:
        """lstm_sa rows [base[s], sa[s], base[e], sa[e]] of a document's candidates."""
        if doc not in self._sa:
            self._sa[doc] = gen.self_attention(
                self.vectors["base"][doc], self.vectors["sa_key"][doc],
                self.vectors["sa_query"][doc])
        base, sa = self.vectors["base"][doc].astype(np.float64), self._sa[doc]
        se = np.array(self.spans[doc] if spans is None else spans).reshape(-1, 2)
        s, e = se[:, 0], se[:, 1]
        return np.hstack([base[s], sa[s], base[e], sa[e]])

    def _dense_scores(self) -> np.ndarray:
        q = np.stack([self.question_vector(i) for i in range(len(self.questions))])
        return np.hstack([q @ self.dense_rows(d).T for d in range(len(self.raw))])


def load_truth(corpus_path: str, truth_path: str | None) -> Truth:
    with open(corpus_path, encoding="utf-8") as f:
        corpus_json = json.load(f)
    vectors = None
    if truth_path:
        z = np.load(truth_path)
        split = np.cumsum(z["lengths"])[:-1]
        q_split = np.cumsum(z["q_lengths"])[:-1]
        vectors = {k: np.split(z[k], split) for k in ("base", "sa_key", "sa_query")}
        vectors["q_rows"] = np.split(z["q_rows"], q_split)
    return Truth(corpus_json, vectors)


def top1_ordinal(truth: Truth, first: int, scores: np.ndarray, text: str, score: float,
                 tol: float) -> int | None:
    """Ordinal of the candidate a reported top-1 (text, score) stands for, or None.

    The report must be a brute-force maximum: its score within tol of the
    best own score, and its text that of a candidate scoring within tol of
    both. Candidates whose own scores tie exactly (identical vectors) must
    resolve to the lowest (doc_id, s, e).
    """
    best = float(scores.max())
    if abs(score - best) > tol:
        return None
    for i in np.flatnonzero(scores >= best - tol):
        if truth.texts[first + i] == text and abs(scores[i] - score) <= tol:
            tied = np.flatnonzero(scores == scores[i])
            if tied[0] != i and truth.texts[first + tied[0]] != text:
                raise CheckError(f"tie at score {score} not broken by lowest (doc_id, s, e)")
            return first + int(i)
    return None


# --- checks on the build -----------------------------------------------------
def check_candidate_counts(truth: Truth, index) -> None:
    for d, tokens in enumerate(truth.tokens):
        lo, hi = index.doc_range(d)
        require(hi - lo == span_count(len(tokens)),
                f"document {d}: {hi - lo} candidates, closed form gives {span_count(len(tokens))}")
    require(len(index) == truth.first[-1], "index holds candidates of no document")


def check_dense_rows(truth: Truth, index, rng, samples: int = 256) -> None:
    for o in sorted(rng.choice(len(index), size=min(samples, len(index)), replace=False)):
        span = index.span(int(o))
        d = span.doc_id
        require(truth.ordinal(d, span.s, span.e) == o, f"row {o} holds span {span} out of order")
        want = truth.dense_rows(d, [(span.s, span.e)])[0]
        require(np.allclose(index.vectors[o], want, rtol=1e-5, atol=1e-6),
                f"dense row {o} {span} differs from [base[s], sa[s], base[e], sa[e]]")


def check_tfidf_weights(truth: Truth, index, tfidf_question_encode, search_exact, rng,
                        samples: int = 24) -> None:
    """Weights read back through one-term questions, which score a row by its weight."""
    for o in sorted(rng.choice(len(index), size=min(samples, len(index)), replace=False)):
        span = index.span(int(o))
        d = span.doc_id
        terms, rows = truth.tfidf_rows(d)
        want = rows[o - truth.first[d]]
        for j in np.flatnonzero(want):
            # A one-term question ranks rows by that term's weight: the span is among the
            # rows weighing at least as much as it does.
            heavier = int(np.count_nonzero(rows[:, j] >= want[j] - 1e-6))
            hits = search_exact(index, tfidf_question_encode([terms[j]], index.idf), heavier, d)
            got = [h.score for h in hits if h.span == span]
            require(len(got) == 1 and abs(got[0] - want[j]) <= 1e-6,
                    f"tf-idf weight of {terms[j]!r} in {span}: {got}, expected {want[j]:.7f}")


# --- checks on the answer passes ---------------------------------------------
def check_f1(truth: Truth, name: str, passed: dict) -> list[float]:
    """Own F1 of every row; returns them after matching evaluate's per-row and mean F1."""
    own = []
    for q, row in zip(truth.questions, passed["rows"]):
        require(row[0] == q.qid, f"{name}: row for {row[0]} where {q.qid} was expected")
        f1 = f1_score(row[1], q.golds)
        require(abs(f1 - row[2]) <= 1e-12, f"{name}: F1 of {q.qid} is {row[2]}, own {f1}")
        own.append(f1)
    require(len(own) == len(truth.questions) == passed["count"], f"{name}: question count")
    require(abs(100.0 * math.fsum(own) / len(own) - passed["f1"]) <= 1e-6,
            f"{name}: mean F1 {passed['f1']} differs from own")
    return own


def check_exact(truth: Truth, passed: dict) -> None:
    for i, row in enumerate(passed["rows"]):
        scores = truth.dense_scores[i]
        tol = DENSE_TOL * max(1.0, abs(float(scores.max())))
        require(top1_ordinal(truth, 0, scores, row[1], row[4], tol) is not None,
                f"exact: {row[0]} answered {row[1]!r} ({row[4]}), not the brute-force top-1")


def check_sparse(truth: Truth, passed: dict, restrict: bool = True) -> None:
    """TF-IDF top-1s within each question's document, or over the whole corpus."""
    for q, row in zip(truth.questions, passed["rows"]):
        first, scores = truth.sparse_scores(q.text, q.doc if restrict else None)
        require(top1_ordinal(truth, first, scores, row[1], row[4], SPARSE_TOL) is not None,
                f"sparse: {q.qid} answered {row[1]!r} ({row[4]}), not the brute-force top-1")


def check_approx(truth: Truth, passed: dict, sidecar, search_approx, num_candidates) -> float:
    """aLSH hits against exact scores; returns recall@1 in percent."""
    hits_at_1 = 0
    for i, row in enumerate(passed["rows"]):
        scores = truth.dense_scores[i]
        tol = DENSE_TOL * max(1.0, abs(float(scores.max())))
        hits, probes = search_approx(sidecar, truth.question_vector(i), 5)
        require(len(hits) <= probes <= num_candidates,
                f"approx: {row[0]} probed {probes} of {num_candidates} for {len(hits)} hits")
        for hit in hits:
            o = truth.ordinal(*hit.span)
            require(abs(scores[o] - hit.score) <= tol and hit.score <= scores.max() + tol,
                    f"approx: {row[0]} hit {hit.span} scored {hit.score}, exact {scores[o]}")
        if not hits:
            require(row[1] == "" and row[4] == 0.0, f"approx: {row[0]} answered without hits")
            continue
        top = hits[0]
        require(row[1] == truth.texts[truth.ordinal(*top.span)] and abs(row[4] - top.score) <= tol,
                f"approx: evaluate's answer to {row[0]} is not search_approx's top hit")
        hits_at_1 += top1_ordinal(truth, 0, scores, row[1], row[4], tol) is not None
    return 100.0 * hits_at_1 / len(passed["rows"])


# --- checks on the service -----------------------------------------------------
def check_reply(truth: Truth, request: dict, status: int, reply: dict) -> int:
    """One /query reply against own TF-IDF; returns the ordinal of its top answer."""
    require(status == 200, f"serve: {request} answered HTTP {status}: {reply}")
    doc = request.get("doc_id")
    first, scores = truth.sparse_scores(request["question"], doc)
    answers = reply["answers"]
    require(len(answers) == min(request["top_k"], len(scores)),
            f"serve: {len(answers)} answers for top_k {request['top_k']}")
    last = math.inf
    for a in answers:
        d, s, e = a["doc_id"], a["s"], a["e"]
        require(doc is None or d == doc, f"serve: answer from document {d}, asked for {doc}")
        require(a["text"] == truth.raw[d][truth.offsets[d][s][0] : truth.offsets[d][e][1]],
                f"serve: text {a['text']!r} is not the document text at ({d}, {s}, {e})")
        o = truth.ordinal(d, s, e)
        require(abs(scores[o - first] - a["score"]) <= SPARSE_TOL,
                f"serve: score {a['score']} of ({d}, {s}, {e}), own {scores[o - first]}")
        require(a["score"] <= last + SPARSE_TOL, "serve: answers not in score order")
        last = a["score"]
    top = answers[0]
    o = top1_ordinal(truth, first, scores, top["text"], top["score"], SPARSE_TOL)
    require(o == truth.ordinal(top["doc_id"], top["s"], top["e"]),
            f"serve: top answer {top} to {request} is not the brute-force top-1")
    return o


# --- self-test -------------------------------------------------------------------
def _align(truth: Truth, doc: int, start: int, length: int) -> tuple[int, int]:
    hit = [i for i, (a, b) in enumerate(truth.offsets[doc]) if b > start and a < start + length]
    return hit[0], hit[-1]


def _must_fail(what: str, fn, *args) -> None:
    try:
        fn(*args)
    except CheckError:
        return
    raise CheckError(f"self-test: the checks accepted {what}")


def self_test(fixture: str, work: str) -> None:
    """Run every check on the mini SQuAD fixture, then on tampered outputs."""
    from phraseindex import alsh, corpus, evaluation, index, service
    from phraseindex.encode import dense, tfidf, wordvectors

    with open(fixture, encoding="utf-8") as f:
        corpus_json = json.load(f)
    plain = Truth(corpus_json, None)
    gold, qids, qlens = [], [], []
    para = [p for a in corpus_json["data"] for p in a["paragraphs"]]
    for q in plain.questions:
        answer = next(a for qa in para[q.doc]["qas"] if str(qa["id"]) == q.qid
                      for a in qa["answers"])
        gold.append((q.doc, *_align(plain, q.doc, answer["answer_start"], len(answer["text"]))))
        qids.append(q.qid)
        qlens.append(max(4, len(tokenize(q.text)[0])))
    vectors = gen.plant_vectors(gen.rng_for(0), [len(t) for t in plain.tokens], gold, qlens)
    wv_path = os.path.join(work, "selftest_wv.txt")
    gen.write_word_vectors(wv_path, vectors, qids)
    truth = Truth(corpus_json, vectors)

    docs = corpus.load_squad(fixture)
    table = wordvectors.read_word_vectors(wv_path)
    sparse_index = index.build_index(docs, encoder="tfidf")
    dense_index = index.build_index(docs, encoder="lstm_sa", word_vectors=table)
    sidecar = alsh.build_alsh(dense_index, alsh.AlshParams(bits_per_table=4, tables=8))
    rng = np.random.Generator(np.random.Philox(key=0))
    for idx in (sparse_index, dense_index):
        check_candidate_counts(truth, idx)
    check_dense_rows(truth, dense_index, rng, samples=64)
    check_tfidf_weights(truth, sparse_index, tfidf.tfidf_question_encode, index.search_exact,
                        rng, samples=8)

    def run(idx, encode, **kw):
        rows: list = []
        m = evaluation.evaluate(idx, docs, encode, per_example=rows, **kw)
        return {"f1": m.f1, "count": m.count, "rows": rows}

    def dense_q(ex):
        return dense.compose_question(table.question(ex.question_id), dense.LSTM_SA)

    exact = run(dense_index, dense_q, restrict_to_doc=False)
    approx = run(dense_index, dense_q, restrict_to_doc=False, alsh=sidecar)
    sparse = run(sparse_index, lambda ex: tfidf.tfidf_question_encode(
        ex.question_tokens, sparse_index.idf))
    for name, passed in (("exact", exact), ("approx", approx), ("sparse", sparse)):
        check_f1(truth, name, passed)
    check_exact(truth, exact)
    check_sparse(truth, sparse)
    check_approx(truth, approx, sidecar, alsh.search_approx, len(dense_index))
    engine = service.QueryEngine(sparse_index, corpus=docs)
    request = {"question": truth.questions[0].text, "doc_id": None, "top_k": 3}
    answers, _ = engine.answer(request["question"], top_k=3)
    reply = json.loads(json.dumps({"answers": answers}))
    check_reply(truth, request, 200, reply)

    def tampered(passed, field, value):
        out = copy.deepcopy(passed)
        row = list(out["rows"][0])
        row[field] = value(row[field])
        out["rows"][0] = tuple(row)
        return out

    _must_fail("a wrong F1", check_f1, truth, "exact", tampered(exact, 2, lambda v: v + 0.5))
    _must_fail("a wrong dense score", check_exact, truth, tampered(exact, 4, lambda v: v + 1.0))
    _must_fail("a wrong dense answer", check_exact, truth, tampered(exact, 1, lambda v: v + " x"))
    _must_fail("a wrong sparse score", check_sparse, truth,
               tampered(sparse, 4, lambda v: v + 0.05))
    _must_fail("a wrong aLSH answer", check_approx, truth,
               tampered(approx, 1, lambda v: "x" + v), sidecar, alsh.search_approx,
               len(dense_index))
    broken = copy.deepcopy(reply)
    broken["answers"][0]["text"] += "x"
    _must_fail("a wrong answer text", check_reply, truth, request, 200, broken)
    broken = copy.deepcopy(reply)
    broken["answers"][-1]["score"] += 0.01
    _must_fail("a wrong answer score", check_reply, truth, request, 200, broken)
    _must_fail("an HTTP error", check_reply, truth, request, 500, reply)
    dense_index.vectors[3] += 1e-3
    _must_fail("a wrong dense row", check_dense_rows, truth, dense_index, rng, 10**6)
