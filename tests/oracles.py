"""Per-item reference versions of the package's array code, kept as test oracles.

Each function computes, one span or one ordinal at a time, what the package
now computes in a few array operations: tests compare the two bit for bit,
or within a stated float ulp bound where the sums run in another order.
"""

import math
from collections import Counter

import numpy as np

from phraseindex import filtering
from phraseindex.alsh import _norm_terms
from phraseindex.candidates import CandidateSpan
from phraseindex.corpus import _is_punct
from phraseindex.encode.dense import LSTM_SA, sa_all, softmax
from phraseindex.encode.tfidf import SparseVector
from phraseindex.errors import ConfigError
from phraseindex.evaluation import evaluate
from phraseindex.filtering import PerceptronFilter
from phraseindex.index import METADATA_DTYPE, PhraseIndex, SearchHit, _grouped, _top_k


def tokenize(text: str) -> tuple[list[str], list[tuple[int, int]]]:
    """corpus.tokenize one character at a time: chunks end at str.isspace, and
    every chunk is peeled, its leading then its trailing punctuation."""
    tokens: list[str] = []
    offsets: list[tuple[int, int]] = []
    i, n = 0, len(text)
    while i < n:
        if text[i].isspace():
            i += 1
            continue
        j = i
        while j < n and not text[j].isspace():
            j += 1
        # Chunk is text[i:j]; peel punctuation off both ends.
        lo, hi = i, j
        while lo < hi and _is_punct(text[lo]):
            tokens.append(text[lo].lower())
            offsets.append((lo, lo + 1))
            lo += 1
        trailing: list[tuple[int, int]] = []
        while hi > lo and _is_punct(text[hi - 1]):
            trailing.append((hi - 1, hi))
            hi -= 1
        if lo < hi:
            tokens.append(text[lo:hi].lower())
            offsets.append((lo, hi))
        for a, b in reversed(trailing):
            tokens.append(text[a].lower())
            offsets.append((a, b))
        i = j
    return tokens, offsets


def align_answer(doc, answer_text: str, answer_start: int) -> CandidateSpan | None:
    """corpus.align_answer by a scan of every token's offsets."""
    if answer_start < 0 or answer_start >= len(doc.raw_text):
        return None
    answer_end = answer_start + len(answer_text)  # exclusive
    s = e = None
    for i, (a, b) in enumerate(doc.char_offsets):
        if b > answer_start and a < answer_end:
            if s is None:
                s = i
            e = i
    if s is None:
        return None
    return CandidateSpan(doc.doc_id, s, e)


def enumerate_spans(doc_len: int, max_span_len: int) -> list[tuple[int, int]]:
    """All (s, e) with 1 <= e-s+1 <= max_span_len, lexicographic by (s, e)."""
    if doc_len < 0:
        raise ValueError(f"doc_len must be >= 0, got {doc_len}")
    if max_span_len < 1:
        raise ValueError(f"max_span_len must be >= 1, got {max_span_len}")
    return [
        (s, e)
        for s in range(doc_len)
        for e in range(s, min(s + max_span_len, doc_len))
    ]


def softmax_pool(vectors, scores) -> np.ndarray:
    """Weighted sum of vectors under softmax(scores)."""
    vectors = np.asarray(vectors, dtype=np.float64)
    scores = np.asarray(scores, dtype=np.float64)
    if vectors.ndim != 2 or scores.ndim != 1 or len(vectors) != len(scores):
        raise ValueError(
            f"need matching non-empty lists, got {len(vectors)} vectors "
            f"and {scores.size} scores"
        )
    if len(vectors) == 0:
        raise ValueError("softmax_pool needs at least one vector")
    return softmax(scores) @ vectors


def preprocess_data(x: np.ndarray, max_norm: float, U: float = 0.75, m: int = 2) -> np.ndarray:
    """Shrink one data vector into the unit ball and append norm corrections."""
    if max_norm <= 0:
        raise ValueError(f"max_norm must be positive, got {max_norm}")
    x = np.asarray(x, dtype=np.float64)
    norm = float(np.linalg.norm(x))
    if norm > max_norm * (1 + 1e-9):
        raise ValueError(f"vector norm {norm} exceeds max_norm {max_norm}")
    scaled = x * (U / max_norm)
    return np.concatenate([scaled, _norm_terms(np.dot(scaled, scaled), m)])


def alsh_row_code(alsh, vector: np.ndarray) -> list[int]:
    """One augmented vector's code in each table: bit j of table t is set when
    hyperplane j of table t has a positive product with the vector zero-padded
    to the hyperplanes' width before its last m columns (the norm terms)."""
    t, b, aug_dim = alsh.hyperplanes.shape
    m = alsh.params.m
    head, terms = vector[: len(vector) - m], vector[len(vector) - m :]
    padded = np.concatenate([head, np.zeros(aug_dim - len(vector)), terms])
    return [
        sum(1 << j for j in range(b) if float(alsh.hyperplanes[ti, j] @ padded) > 0)
        for ti in range(t)
    ]


def alsh_probe_search(alsh, query, k_top: int, doc_id=None) -> tuple[list, int]:
    """search_approx one table row and one span at a time: ((span, score) hits, probes).

    The word table is scaled by its largest row norm. A span is probed when
    its start row's code equals q_s's in some table, or its end row's code
    equals q_e's; its score is the float32 sum of its halves' float32
    products, a start half reading the first dim // 2 columns of its row, and
    hits rank by score descending, then ordinal ascending.
    """
    index = alsh.backing
    m, U = alsh.params.m, alsh.params.U
    norms = [float(np.linalg.norm(row.astype(np.float64))) for row in index.table]
    top = max(norms, default=0.0) or 1.0
    codes = [alsh_row_code(alsh, preprocess_data(row, top, U, m)) for row in index.table]
    q = np.asarray(query, dtype=np.float64)
    halves = np.hsplit(q, [index.dim // 2])
    asked = [alsh_row_code(alsh, np.concatenate([half, np.zeros(m)])) for half in halves]
    lo, hi = (0, len(index)) if doc_id is None else index.doc_range(doc_id)
    probed = [
        i for i in range(lo, hi)
        if any(
            any(a == c for a, c in zip(asked[h], codes[int(index.table_ids[h, i])]))
            for h in (0, 1)
        )
    ]
    scored = []
    for i in probed:
        parts = [
            np.float32(half @ index.table[int(index.table_ids[h, i]), : len(half)].astype(np.float64))
            for h, half in enumerate(halves)
        ]
        scored.append((-float(parts[0] + parts[1]), i))
    scored.sort()
    return [(index.span(i), -neg) for neg, i in scored[:k_top]], len(probed)


def csr_postings(postings: dict, num_terms: int) -> tuple:
    """The CSR triple (indptr, ordinals, weights) of a term id -> (ordinals, weights) dict."""
    empty = (np.empty(0, np.uint64), np.empty(0, np.float32))
    runs = [postings.get(t, empty) for t in range(num_terms)]
    indptr = np.cumsum([0] + [len(o) for o, _ in runs])
    return (indptr, *map(np.concatenate, zip(*runs, empty)))


def vectors_index(metadata, vectors) -> PhraseIndex:
    """A dense index of a (count, dim) vector block, its halves grouped into the
    word table as a build groups them: start halves, padded with a 0.0 column
    when dim is odd, then end halves. A block whose row count is not the
    metadata's makes the constructor raise ValueError."""
    metadata = np.ascontiguousarray(metadata, dtype=METADATA_DTYPE)
    block = np.asarray(vectors, dtype=np.float32)
    n, dim = block.shape
    if n != len(metadata):
        return PhraseIndex("dense", metadata, dim=dim)
    source = np.zeros((2 * n, dim - dim // 2), dtype=np.float32)
    source[:n, : dim // 2], source[n:] = block[:, : dim // 2], block[:, dim // 2 :]
    rows = np.arange(n, dtype="<u4")
    return _grouped(metadata, dim, source, np.stack([rows, rows + n]))


def tfidf_bag_encode(tokens, idf) -> SparseVector:
    """TF-IDF vector of one token bag: counts through a Counter, terms with no
    id skipped, L2-normalised by w @ w."""
    by_term = {}
    for term, count in Counter(tokens).items():
        tid = int(idf.ids([term])[0])
        if tid >= 0:
            by_term[tid] = count * idf.idf(term)
    ids = np.array(sorted(by_term), dtype=np.int64)
    w = np.array([by_term[t] for t in ids.tolist()], dtype=np.float64)
    norm = math.sqrt(float(w @ w))
    return SparseVector(ids, w / norm if norm > 0 else w)


def tfidf_phrase_encode(doc, span, window: int, idf, include_phrase: bool = True) -> SparseVector:
    """One candidate span's TF-IDF vector: the bag of its tokens and the tokens
    within window positions of its endpoints (context only unless include_phrase)."""
    if window < 0:
        raise ValueError(f"window must be >= 0, got {window}")
    if not (0 <= span.s <= span.e < len(doc)):
        raise ValueError(f"span {span} out of range for document of {len(doc)} tokens")
    lo = max(0, span.s - window)
    hi = min(len(doc), span.e + 1 + window)
    bag = doc.tokens[lo:hi]
    if not include_phrase:
        bag = doc.tokens[lo : span.s] + doc.tokens[span.e + 1 : hi]
    return tfidf_bag_encode(bag, idf)


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


def dense_payload_bytes(vectors: np.ndarray, metadata: np.ndarray) -> bytes:
    """A version 5 dense payload, built one half-row use at a time from the format text.

    A start use is worth its row's start half padded with +0.0 to the end
    half's width, an end use its end half. Uses are ordered stably by
    (doc_id, token), the token being s for a start use and e for an end use,
    every start use before every end use; a use joins its neighbour's table
    row when their bytes are equal, and table rows are numbered by first use
    in half-major order (every start use, then every end use).
    """
    rows = np.ascontiguousarray(vectors, dtype="<f4")
    half = rows.shape[1] // 2
    pad = np.zeros(rows.shape[1] % 2, dtype="<f4").tobytes()
    keys = [tuple(rec) for rec in metadata.tolist()]
    uses = [(d, s, rows[i, :half].tobytes() + pad) for i, (d, s, _) in enumerate(keys)]
    uses += [(d, e, rows[i, half:].tobytes()) for i, (d, _, e) in enumerate(keys)]
    order = sorted(range(len(uses)), key=lambda u: uses[u][:2])
    run_of, run = {}, -1
    for pos, u in enumerate(order):
        if pos == 0 or uses[u][2] != uses[order[pos - 1]][2]:
            run += 1
        run_of[u] = run
    label_of, table = {}, []
    for u in range(len(uses)):
        if run_of[u] not in label_of:
            label_of[run_of[u]] = len(table)
            table.append(uses[u][2])
    indexes = np.array([label_of[run_of[u]] for u in range(len(uses))], "<u4")
    return np.array(len(table), "<u8").tobytes() + indexes.tobytes() + b"".join(table)


def gold_label_mask(index, corpus) -> np.ndarray:
    """1.0 at each ordinal whose span is some question's gold span, one ordinal at a time."""
    gold = {(span.doc_id, span.s, span.e) for ex in corpus.examples for span in ex.gold_spans}
    labels = np.zeros(len(index), dtype=np.float64)
    for ordinal in range(len(index)):
        if tuple(index.span(ordinal)) in gold:
            labels[ordinal] = 1.0
    return labels


def sweep_points(index, filt, corpus, encode_question, num_points: int) -> list:
    """sweep_thresholds' curve points, each threshold's index built by apply_filter:
    every row is scored again, and an index built, for every threshold."""
    scores = np.sort(filtering._index_scores(filt, index))
    n = len(scores)
    thresholds = [-math.inf]
    for i in range(1, num_points):
        thresholds.append(float(scores[min(n - 1, int(i / num_points * n))]))
    points = []
    for threshold in thresholds:
        filtered, ratio = filtering.apply_filter(index, filt, threshold)
        if points and ratio >= points[-1].vectors_per_word:
            continue
        metrics = evaluate(filtered, corpus, encode_question, allow_missing_docs=True)
        points.append(filtering.CurvePoint(threshold, ratio, metrics.f1, metrics.em))
    return points


def train_filter_float64(index, corpus, epochs=100, learning_rate=0.5, seed=0):
    """train_filter on float64 copies of the training and held-out rows.

    Returns the filter and every epoch's (held-out loss, weights, bias), so a
    test can tell which epochs tie the best loss within rounding.
    """
    labels = filtering._gold_label_mask(index, corpus)
    n, dim = index.vectors.shape
    rng = np.random.Generator(np.random.Philox(key=seed))
    order = rng.permutation(n)
    held = order[: n // 10]
    train = order[n // 10 :] if n >= 2 else order
    if len(train) == 0 or labels[train].sum() == 0:
        held = train = np.arange(n)

    x = index.vectors[train].astype(np.float64)
    y = labels[train]
    pos = y.sum()
    neg = len(y) - pos
    pos_weight = neg / pos if pos and neg else 1.0
    w_train = np.where(y == 1.0, pos_weight, 1.0)
    x_held = index.vectors[held].astype(np.float64)
    y_held = labels[held]
    w_held = np.where(y_held == 1.0, pos_weight, 1.0)

    weights = np.zeros(dim)
    bias = 0.0
    best = (math.inf, weights.copy(), bias)
    trajectory = []
    for _ in range(epochs):
        z = x @ weights + bias
        p = 1.0 / (1.0 + np.exp(-z))
        residual = w_train * (p - y)
        denom = w_train.sum()
        weights -= learning_rate * (x.T @ residual) / denom
        bias -= learning_rate * residual.sum() / denom
        if len(held):
            loss = filtering._weighted_logistic_loss(x_held @ weights + bias, y_held, w_held)
        else:
            loss = filtering._weighted_logistic_loss(x @ weights + bias, y, w_train)
        trajectory.append((loss, weights.copy(), bias))
        if loss < best[0]:
            best = (loss, weights.copy(), bias)
    _, weights, bias = best
    filt = PerceptronFilter(weights=weights.astype(np.float32), bias=float(np.float32(bias)))
    return filt, trajectory


def gemm_search(vectors, metadata, query, k_top, lo, hi, rows_per_block=None):
    """Dense search_exact over rows [lo, hi) of a whole (count, dim) vector block.

    A 1-D query scores vectors[lo:hi] @ query and ranks it with _top_k. A
    (m, dim) block of queries is scored by blocks of rows_per_block index rows
    (16 MiB of float32 scores when None), with one queries @ vectors[block].T
    each; k == 1 ranks a block with argmax, k > 1 each query's row with _top_k,
    and the winners merge by score descending, then ordinal ascending.
    """
    spans = [CandidateSpan(*rec) for rec in metadata.tolist()]
    n = hi - lo
    if query.ndim == 1:
        if n == 0:
            return []
        scores = vectors[lo:hi] @ query
        return [SearchHit(spans[lo + r], float(scores[r])) for r in _top_k(scores, min(k_top, n))]
    m = len(query)
    if n == 0:
        return [[] for _ in range(m)]
    k = min(k_top, n)
    step = rows_per_block or max(1, (16 << 20) // (4 * m))
    nan = np.zeros(m, dtype=bool)
    for start in range(lo, hi, step):
        block = query @ vectors[start : min(start + step, hi)].T
        if k == 1:
            cols = block.argmax(axis=1)[:, None]  # the first maximum, or the first NaN
        else:
            cols = np.zeros((m, min(k, block.shape[1])), dtype=np.int64)
            rows = range(m)
            if start > lo and neg.shape[1] == k:
                rows = np.flatnonzero(~(block.max(axis=1) <= -neg[:, -1]))
            for r in rows:
                picked = _top_k(block[r], k)
                if len(picked) < cols.shape[1]:
                    nan[r] = True
                else:
                    cols[r] = picked
        top = -np.take_along_axis(block, cols, axis=1)
        nan |= np.isnan(top).any(axis=1)
        cand = cols + start
        if start > lo:
            cand = np.concatenate([ords, cand], axis=1)
            top = np.concatenate([neg, top], axis=1)
        order = np.lexsort((cand, top), axis=1)[:, :k]
        ords = np.take_along_axis(cand, order, axis=1)
        neg = np.take_along_axis(top, order, axis=1)
    nan &= k < n  # as _top_k: a NaN picks nothing unless every row is asked for
    return [
        [] if drop else [SearchHit(spans[o], s) for o, s in zip(row, row_scores)]
        for drop, row, row_scores in zip(nan.tolist(), ords.tolist(), (-neg).tolist())
    ]
