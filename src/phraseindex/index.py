"""Immutable phrase index: build, exact inner-product search, persistence.

A dense index row is [start half; end half]: an encoder-built row is
[words[s], words[e]]. The index holds the distinct halves once, in a start
table (count_s x dim // 2 float32) and an end table (count_e x (dim - dim // 2)),
plus a (2, count) u32 array of each row's start and end table index, the
layout of the file. A search scores a block of rows in two steps: the
question halves' products with the table rows the block uses, then a
gather-add of the two partial scores. PhraseIndex.vectors, the expanded
(count, dim) block, is built on first access and kept; no search reads it.

A sparse index stores its postings in CSR form, term id t owning the
candidate ordinals and weights ``ordinals[indptr[t]:indptr[t + 1]]``, plus
the term dictionary needed to encode questions against it. Metadata is a
packed record array sorted by (doc_id, s, e); the ordinal of a row in that
order is the candidate's identity everywhere (postings, hashes, filters).

File format (all integers little-endian):

    magic "PIQA" | version u32=4 | kind u8 (0 dense, 1 sparse) | dim u32
    | count u64 | count x (doc_id u32, s u16, e u16) | payload

Dense payload: u64 start-table rows S, u64 end-table rows E, count x start
index u32, count x end index u32, then the start table, S x (dim // 2)
float32, and the end table, E x (dim - dim // 2) float32, both row-major.
E = 2**64 - 1 marks a shared table: the end table is the start table, written
once (dim even). Row i of the vector block is start table row start[i]
followed by end table row end[i]. When an index is built, a row shares its
neighbour's table row when that half is bitwise equal, neighbours taken in
(doc_id, s, e) order for the start half and in (doc_id, e, s) order for the
end half, and table rows are numbered by first use in row order, so that each
token's halves are stored about once; the table is shared when the two come
out bitwise equal, as an encoder's do. A load keeps the file's tables (one
array when shared) and indexes as they are, so a loaded file saves to the same
bytes. Sparse payload: u64 term count T, u64 document count, T x (df u32, len
u16, utf-8 term) with terms strictly increasing, then T x posting count u64,
then every term's ordinals u32 (strictly increasing within a term), then
every weight f32, in term order.
"""

from __future__ import annotations

import functools
import itertools
import os
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .candidates import CandidateSpan, span_bounds, span_count
from .encode.dense import LSTM, LSTM_SA, sa_all
from .encode.tfidf import IdfTable, SparseVector, weigh_bags
from .errors import BuildError, ConfigError, FormatError

if TYPE_CHECKING:
    from .corpus import Corpus
    from .encode.wordvectors import WordVectorTable

MAGIC = b"PIQA"
VERSION = 4
KIND_DENSE = 0
KIND_SPARSE = 1
MAX_DOC_TOKENS = 65535  # u16 span endpoints

METADATA_DTYPE = np.dtype([("doc_id", "<u4"), ("s", "<u2"), ("e", "<u2")])
HEADER_DTYPE = np.dtype([("kind", "u1"), ("dim", "<u4"), ("count", "<u8")])
SPARSE_DTYPE = np.dtype([("terms", "<u8"), ("documents", "<u8")])
TERM_DTYPE = np.dtype([("df", "<u4"), ("length", "<u2")])
TABLES_DTYPE = np.dtype([("start", "<u8"), ("end", "<u8")])
SHARED = 2**64 - 1  # the end-table row count of a file whose end table is its start table


@dataclass(frozen=True)
class SearchHit:
    span: CandidateSpan
    score: float


class PhraseIndex:
    """Read-only candidate store; safe for concurrent searches.

    Dense rows: a start and an end table with (2, count) u32 table indexes
    (module docstring), given as tables=(start, end, indexes) and kept as
    they are; end is start (one array) when the table is shared. Sparse
    postings: a CSR triple (indptr, ordinals u32, weights).
    """

    def __init__(
        self,
        kind: str,
        metadata: np.ndarray,
        *,
        tables: tuple | None = None,
        postings: tuple | None = None,
        idf: IdfTable | None = None,
    ):
        if kind not in ("dense", "sparse"):
            raise ValueError(f"unknown index kind {kind!r}")
        self.kind = kind
        self.metadata = np.ascontiguousarray(metadata, dtype=METADATA_DTYPE)
        self.idf = idf
        if kind == "dense":
            if tables is None or np.shape(tables[2]) != (2, len(self.metadata)):
                raise ValueError("dense index needs one vector row per metadata record")
            start, end = (np.ascontiguousarray(t, dtype=np.float32) for t in tables[:2])
            self.tables = (start, start if tables[1] is tables[0] else end)
            self.table_ids = np.ascontiguousarray(tables[2], dtype="<u4")
            self.dim = sum(t.shape[1] for t in self.tables)
            if self.tables[0].shape[1] != self.dim // 2:
                raise ValueError("the start table holds the first dim // 2 columns of a row")
        else:
            if postings is None or idf is None:
                raise ValueError("sparse index needs postings and a term table")
            self.indptr = np.asarray(postings[0], dtype=np.int64)
            self.ordinals = np.asarray(postings[1], dtype=np.uint32)
            self.weights = np.asarray(postings[2], dtype=np.float32)
            self.dim = 0

    def __len__(self) -> int:
        return len(self.metadata)

    def rows(self, at) -> np.ndarray:
        """Rows of the vector block, (n, dim) float32, gathered from the tables:
        at is a slice or an array of ordinals."""
        ids = self.table_ids[:, at]
        out = np.empty((ids.shape[1], self.dim), dtype=np.float32)
        half = self.tables[0].shape[1]
        out[:, :half] = np.take(self.tables[0], ids[0], axis=0)
        out[:, half:] = np.take(self.tables[1], ids[1], axis=0)
        return out

    @functools.cached_property
    def vectors(self) -> np.ndarray | None:
        """The (count, dim) float32 vector block of a dense index, None for a
        sparse one. It is built from the tables on first access and kept, so it
        is one array that stays writable; searches do not read it."""
        if self.kind != "dense":
            return None
        vectors = np.empty((len(self), self.dim), dtype=np.float32)
        for a, b in _chunks(len(self), self.dim):
            vectors[a:b] = self.rows(slice(a, b))
        return vectors

    @functools.cached_property
    def postings(self) -> dict:
        """A sparse index's term id -> (ordinals, weights) CSR views, built on first access."""
        b = self.indptr.tolist()
        return {
            t: (self.ordinals[b[t] : b[t + 1]], self.weights[b[t] : b[t + 1]])
            for t in np.flatnonzero(np.diff(self.indptr)).tolist()
        }

    def __eq__(self, other) -> bool:
        if not isinstance(other, PhraseIndex) or self.kind != other.kind:
            return NotImplemented if not isinstance(other, PhraseIndex) else False
        if not np.array_equal(self.metadata, other.metadata):
            return False
        if self.kind == "dense":  # by row chunks, so that neither side builds its vectors
            chunks = [slice(a, b) for a, b in _chunks(len(self), self.dim)]
            same = (np.array_equal(self.rows(c), other.rows(c)) for c in chunks)
            return self.dim == other.dim and all(same)
        if self.idf.df != other.idf.df or self.idf.num_documents != other.idf.num_documents:
            return False
        csr = ("indptr", "ordinals", "weights")
        return all(np.array_equal(getattr(self, a), getattr(other, a)) for a in csr)

    def span(self, ordinal: int) -> CandidateSpan:
        rec = self.metadata[ordinal]
        return CandidateSpan(int(rec["doc_id"]), int(rec["s"]), int(rec["e"]))

    def doc_ids(self) -> np.ndarray:
        return np.unique(self.metadata["doc_id"])

    def doc_range(self, doc_id: int) -> tuple[int, int]:
        """Half-open ordinal range of one document's candidates."""
        ids = self.metadata["doc_id"]
        if not 0 <= doc_id < 2**32:
            return (0, 0) if doc_id < 0 else (len(ids), len(ids))
        key = np.uint32(doc_id)  # a Python int key would cast the whole column
        return int(ids.searchsorted(key, "left")), int(ids.searchsorted(key, "right"))

    def doc_ends(self) -> tuple[np.ndarray, np.ndarray]:
        """Each indexed document's id, ascending, and the largest end of its spans."""
        ids = self.metadata["doc_id"]
        starts = np.flatnonzero(np.r_[len(ids) > 0, ids[1:] != ids[:-1]])
        return ids[starts], np.maximum.reduceat(self.metadata["e"].astype(np.int64), starts)

    def check_corpus(self, corpus: "Corpus") -> None:
        """Raise ConfigError unless the corpus, which answer text is cut from,
        holds every indexed document, each long enough for its spans."""
        for doc_id, end in zip(*(a.tolist() for a in self.doc_ends())):
            if doc_id >= len(corpus.documents):
                raise ConfigError(
                    f"indexed document {doc_id} is not in the corpus "
                    f"({len(corpus.documents)} documents)"
                )
            if end >= len(corpus.document(doc_id)):
                raise ConfigError(
                    f"indexed document {doc_id} has a span ending at token {end}; "
                    f"the corpus document has {len(corpus.document(doc_id))} tokens"
                )

    def total_words(self) -> int:
        """Document words covered by the metadata (max end+1 per doc).

        Exact for unfiltered indexes; for filtered ones it is a lower
        bound, so storage reports should pass the true count explicitly.
        """
        return int((self.doc_ends()[1] + 1).sum())


def _span_keys(doc_id, s, e) -> np.ndarray:
    """Each (doc_id, s, e) as one u64, doc_id << 32 | s << 16 | e: keys sort as the triples."""
    key = np.asarray(doc_id, np.uint64) << np.uint64(32)
    key |= np.asarray(s, np.uint64) << np.uint64(16)
    key |= np.asarray(e, np.uint64)
    return key


def build_index(
    corpus: "Corpus",
    encoder: str = "tfidf",
    max_span_len: int = 7,
    window: int = 7,
    word_vectors: "WordVectorTable | None" = None,
    include_phrase: bool = True,
) -> PhraseIndex:
    """Encode every candidate span of every document, in canonical order.

    encoder is one of tfidf, lstm, lstm_sa. The sparse encoder derives its
    term table from the corpus; dense encoders compose precomputed per-word
    vectors and need the matching channels for every document.
    include_phrase=False restricts TF-IDF bags to the context window only
    (ablation mode).
    """
    if encoder not in ("tfidf", LSTM, LSTM_SA):
        raise ValueError(f"unknown encoder {encoder!r}")
    if max_span_len < 1:
        raise BuildError(f"max_span_len must be >= 1, got {max_span_len}")
    if window < 0:
        raise BuildError(f"window must be >= 0, got {window}")
    for doc in corpus.documents:
        if len(doc) > MAX_DOC_TOKENS:
            raise BuildError(
                f"document {doc.doc_id} has {len(doc)} tokens; limit is {MAX_DOC_TOKENS}"
            )

    # Every span's (doc_id, s, e) in canonical order; document i owns the
    # rows [runs[i], runs[i + 1]), filled one document at a time.
    sizes = [span_count(len(doc), max_span_len) for doc in corpus.documents]
    runs = np.cumsum([0, *sizes]).tolist()
    if runs[-1] >= 2**32:
        raise BuildError(f"{runs[-1]} candidate spans; an index holds fewer than 2**32")
    metadata = np.empty(runs[-1], dtype=METADATA_DTYPE)
    for doc, lo, hi in zip(corpus.documents, runs, runs[1:]):
        rows = metadata[lo:hi]
        rows["doc_id"], rows["s"], rows["e"] = doc.doc_id, *span_bounds(len(doc), max_span_len)

    if encoder == "tfidf":
        idf = IdfTable.from_corpus(corpus)
        none = np.zeros(0, dtype=np.int64)  # keeps every concatenation non-empty
        parts = [(none, none, np.zeros(0, dtype=np.float32))]
        for doc, lo, hi in zip(corpus.documents, runs, runs[1:]):
            tokens, reach = idf.ids(doc.tokens), min(window, len(doc))
            # A bag is tokens[s - reach : e + 1 + reach] within the document, less
            # [s, e] unless include_phrase: at most 2 reach + max_span_len slots.
            slots = np.arange(min(2 * reach + max_span_len, len(doc)))
            for a, b in _chunks(hi - lo, len(slots)):
                s, e = (metadata[f][lo + a : lo + b, None].astype(np.int64) for f in "se")
                at = np.maximum(s - reach, 0) + slots
                keep = at < np.minimum(e + 1 + reach, len(doc))
                if not include_phrase:
                    keep &= (at < s) | (at > e)
                bags = np.where(keep, tokens[np.minimum(at, len(doc) - 1)], -1)
                sizes, terms, weights = weigh_bags(bags, idf.idf_by_id)
                parts.append((sizes, terms, weights.astype(np.float32)))
        # One stable sort by term keeps each term's ordinals ascending.
        sizes, terms, weights = (np.concatenate(p) for p in zip(*parts))
        order = np.argsort(terms, kind="stable")
        ordinals = np.repeat(np.arange(len(metadata), dtype=np.uint32), sizes)[order]
        weights = weights[order]
        indptr = np.r_[0, np.cumsum(np.bincount(terms, minlength=len(idf.vocab)))]
        return PhraseIndex("sparse", metadata, postings=(indptr, ordinals, weights), idf=idf)

    if word_vectors is None:
        raise BuildError(f"encoder {encoder!r} needs a word-vector table")
    # A row is [words[s], words[e]], words being [base, sa] for lstm_sa ([base]
    # for lstm), cast once to float32: every document's words go into one table
    # that both halves index, and grouping turns it into the start and end tables.
    width = (2 if encoder == LSTM_SA else 1) * word_vectors.dim
    words_of_docs = [np.empty((0, width), dtype=np.float32)]
    token_ids = np.empty((2, len(metadata)), dtype="<u4")
    base = 0
    for doc, lo, hi in zip(corpus.documents, runs, runs[1:]):
        if doc.doc_id not in word_vectors.documents:
            raise BuildError(f"no word vectors for document {doc.doc_id} (channel base)")
        chan = word_vectors.documents[doc.doc_id]
        if len(chan.base) != len(doc):
            raise BuildError(
                f"document {doc.doc_id}: {len(chan.base)} base vectors for {len(doc)} tokens"
            )
        if encoder == LSTM_SA and (chan.sa_key is None or chan.sa_query is None):
            missing = "sa_key" if chan.sa_key is None else "sa_query"
            raise BuildError(f"no word vectors for document {doc.doc_id} (channel {missing})")
        if len(doc) == 0:
            continue
        words = chan.base
        if encoder == LSTM_SA:
            words = np.concatenate([chan.base, sa_all(chan)], axis=1, dtype=np.float32)
        words_of_docs.append(words)
        for ids, field in zip(token_ids, ("s", "e")):
            ids[lo:hi] = metadata[field][lo:hi]
            ids[lo:hi] += base
        base += len(doc)
    words = np.concatenate(words_of_docs, dtype=np.float32)
    del words_of_docs
    tables = _half_tables((words, words), *token_ids, metadata)
    return PhraseIndex("dense", metadata, tables=tables)


def _top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Exact top-k row indices: score descending, then index ascending."""
    if k == 1:
        # argmax returns the first maximum, the lowest index; a NaN maximum
        # (argmax stops at the first NaN) takes the general path below.
        best = int(scores.argmax())
        if not np.isnan(scores[best]):
            return np.array([best])
    n = len(scores)
    if k >= n:
        picked = np.arange(n)
    else:
        # Partitioning the negated row for its first k is linear even when most
        # scores tie, unlike asking for the last k. A NaN anywhere picks nothing.
        part = np.argpartition(-scores, k - 1)[:k]
        threshold = np.nan if np.isnan(scores).any() else scores[part].min()
        above = np.flatnonzero(scores > threshold)
        at = np.flatnonzero(scores == threshold)
        picked = np.concatenate([above, at[: k - len(above)]])
    order = np.lexsort((picked, -scores[picked].astype(np.float64)))
    return picked[order]


def search_exact(
    index: PhraseIndex,
    query,
    k_top: int = 1,
    doc_id: int | None = None,
) -> list[SearchHit] | list[list[SearchHit]]:
    """Exhaustive maximum-inner-product search.

    Dense queries are 1-D arrays of the index dim, or a (m, dim) block of
    m queries, which returns one hit list per row; sparse queries are
    SparseVector instances. doc_id restricts the scan to one document's
    candidates. Ties break by (doc_id, s, e) ascending. Sparse candidates
    sharing no term with the query score zero and fill trailing slots only
    when fewer than k_top candidates score above zero.
    """
    if k_top < 1:
        raise ValueError("k_top must be >= 1")
    lo, hi = (0, len(index)) if doc_id is None else index.doc_range(doc_id)

    if index.kind == "dense":
        q = np.asarray(query, dtype=np.float32)
        if q.ndim not in (1, 2) or q.shape[-1] != index.dim:
            raise ValueError(f"query dim {q.shape} does not match index dim {index.dim}")
        hits = _search_dense_block(index, np.atleast_2d(q), k_top, lo, hi)
        return hits if q.ndim == 2 else hits[0]
    if hi == lo:
        return []
    if not isinstance(query, SparseVector):
        raise ValueError("sparse index expects a SparseVector query")
    # The query terms' CSR runs in query order: bincount adds each score in that order.
    # Each concatenation starts with an empty run, for a query with no known term.
    known = (query.term_ids >= 0) & (query.term_ids < len(index.indptr) - 1)
    ids = query.term_ids[known]
    starts, stops = index.indptr[ids], index.indptr[ids + 1]
    runs = [slice(a, z) for a, z in zip(starts.tolist(), stops.tolist())]
    ords = np.concatenate([index.ordinals[:0], *(index.ordinals[r] for r in runs)], dtype=np.int64)
    products = np.concatenate([index.weights[:0], *(index.weights[r] for r in runs)], dtype=float)
    products *= np.repeat(query.weights[known], stops - starts)
    inside = (ords >= lo) & (ords < hi)
    scores = np.bincount(ords[inside] - lo, weights=products[inside], minlength=hi - lo)
    return _hits(index, scores, k_top, lo)


# Budget of the arrays a dense search scores a block of index rows with: a pass
# over m query rows walks [lo, hi) in blocks of _block_rows(m) index rows, so
# that four (rows, m) float32 arrays and the rows' gather indexes stay within
# it: both halves' products with the table rows the block uses, their columns
# that get ranked, and the score block with one gathered half. Ranking adds an
# (m, 2k) merge and a copy of the score block (k == 1) or the temporaries of
# one _top_k call on one column (k > 1). PerceptronFilter.score casts its rows
# to float64 within the same budget. Blocks that keep a score block within a
# core's L2 cache scan faster: over the 36,183-row, 256-d seed-1 benchmark
# index, 430 questions took 27-30 ms in blocks of 1,024-1,216 rows (8 MiB) and
# 33-35 ms in blocks of 2,437 rows (16 MiB), min of 15 passes on a 2-core x86
# VM with 2 MiB of L2 per core.
_SCORE_BLOCK_BYTES = 8 << 20
# Query rows per pass. Over a 36,183-row, 256-d encoder-built index on a 2-core
# x86 VM, 16,384 random questions took 0.06-0.07 ms each at 1,024 rows per
# pass (blocks of 511 index rows), 0.09-0.10 ms at 256 or 4,096 rows.
_QUERY_ROWS = 1024


def _block_rows(m: int) -> int:
    """Index rows per block of a pass over m query rows (see _SCORE_BLOCK_BYTES)."""
    return max(1, _SCORE_BLOCK_BYTES // (16 * m + 16))


def _search_dense_block(
    index: PhraseIndex, queries: np.ndarray, k_top: int, lo: int, hi: int
) -> list[list[SearchHit]]:
    """Each pass of up to _QUERY_ROWS query rows walks [lo, hi) block by block."""
    n = hi - lo
    if n == 0:
        return [[] for _ in queries]
    k = min(k_top, n)
    out: list[list[SearchHit]] = []
    for start in range(0, len(queries), _QUERY_ROWS):
        batch = queries[start : start + _QUERY_ROWS]
        ords, scores, nan = _block_top_k(index, batch, k, lo, hi)
        nan &= k < n  # as _top_k: a NaN picks nothing unless every row is asked for
        spans = index.metadata[ords].tolist()  # (doc_id, s, e) per hit
        out.extend(
            [] if drop else [SearchHit(CandidateSpan(*sp), s) for sp, s in zip(row, row_scores)]
            for drop, row, row_scores in zip(nan.tolist(), spans, scores.tolist())
        )
    return out


def _half_products(index: PhraseIndex, halves: list, ids: np.ndarray) -> list:
    """Each half's (products, at) for m queries split at dim // 2 (np.hsplit) and
    the rows with table indexes ids, (2, rows): products[at] is table[ids] @ queries.T.

    products is the queries' product with the run of table rows from ids.min()
    to ids.max(). A run longer than ids, which no canonical grouping makes for
    the start half, gathers the table rows first.
    """
    parts = []
    for queries, table, half_ids in zip(halves, index.tables, ids):
        a, b = int(half_ids.min()), int(half_ids.max()) + 1
        if b - a > len(half_ids):
            parts.append((np.take(table, half_ids, axis=0) @ queries.T, np.arange(len(half_ids))))
        else:
            parts.append((table[a:b] @ queries.T, half_ids - a))
    return parts


def _row_scores(parts: list) -> np.ndarray:
    """(rows, m) float32 scores from _half_products: the two halves' gathered products, added."""
    (start, start_at), (end, end_at) = parts
    scores = np.take(start, start_at, axis=0)  # np.take: faster than fancy indexing
    scores += np.take(end, end_at, axis=0)
    return scores


def _block_top_k(
    index: PhraseIndex, queries: np.ndarray, k: int, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each query row's top k of rows [lo, hi): (m, k) ordinals and scores, plus NaN flags.

    A block of index rows is scored as a (rows, m) array, the start halves'
    products plus the end halves'. A row scores at most the sum of the largest
    products of its halves (rounding is monotone), so once a query has k
    winners, a block whose bound is at or below its k-th score can add none:
    its column is not scored (a NaN or infinite bound is). k == 1 ranks a
    scored column with argmax, k > 1 with _top_k. The winners merge into a
    running (m, k) set by score descending, then ordinal ascending, so an
    equal score in a later block never displaces an earlier, lower ordinal.
    nan flags the query rows whose scores hold a NaN anywhere in [lo, hi).
    """
    m = len(queries)
    step = _block_rows(m)
    halves = np.hsplit(queries, [index.dim // 2])
    nan = np.zeros(m, dtype=bool)
    for start in range(lo, hi, step):
        stop = min(start + step, hi)
        parts = _half_products(index, halves, index.table_ids[:, start:stop])
        ranked = np.arange(m)
        if start > lo and neg.shape[1] == k:
            bound = parts[0][0].max(axis=0) + parts[1][0].max(axis=0)
            ranked = np.flatnonzero(~(bound <= -neg[:, -1]) | ~np.isfinite(bound))
            parts = [(np.take(products, ranked, axis=1), at) for products, at in parts]
        block = _row_scores(parts)
        cols = np.zeros((len(ranked), min(k, stop - start)), dtype=np.int64)
        if k == 1:  # the first maximum, or the first NaN
            cols[:, 0] = block.argmax(axis=0)
        else:
            for j, r in enumerate(ranked.tolist()):
                picked = _top_k(block[:, j], k)
                if len(picked) < cols.shape[1]:
                    nan[r] = True  # _top_k picks nothing from a row holding a NaN
                else:
                    cols[j] = picked
        # Negated scores, as lexsort ascends. A column left out adds candidates
        # that sort after its running set: score -inf at ordinal hi.
        top = np.full((m, cols.shape[1]), np.inf, dtype=np.float32)
        cand = np.full((m, cols.shape[1]), hi, dtype=np.int64)
        top[ranked] = -block[cols, np.arange(len(ranked))[:, None]]
        cand[ranked] = cols + start
        del block  # before the next products, so one score block is alive at a time
        nan |= np.isnan(top).any(axis=1)
        if start > lo:
            cand = np.concatenate([ords, cand], axis=1)
            top = np.concatenate([neg, top], axis=1)
        order = np.lexsort((cand, top), axis=1)[:, :k]
        ords = np.take_along_axis(cand, order, axis=1)
        neg = np.take_along_axis(top, order, axis=1)
    return ords, -neg, nan


def _hits(index: PhraseIndex, scores: np.ndarray, k_top: int, lo: int) -> list[SearchHit]:
    picked = _top_k(scores, min(k_top, len(scores)))
    return [SearchHit(index.span(lo + int(r)), float(scores[r])) for r in picked]


@dataclass
class BenchResult:
    words_per_second: float
    candidates_per_second: float
    mean_query_seconds: float
    num_candidates: int
    total_words: int
    dim: int


def bench_scan(index: PhraseIndex, num_queries: int = 16, seed: int = 0) -> BenchResult:
    """Time search_exact over synthetic queries on a dense index, one query at a time.

    Throughput is reported in document words per second: candidates
    scanned per second divided by the index's candidates-per-word ratio.
    """
    if index.kind != "dense":
        raise ValueError("bench_scan needs a dense index")
    if num_queries < 1:
        raise ValueError("num_queries must be >= 1")
    rng = np.random.Generator(np.random.Philox(key=seed))
    queries = rng.normal(size=(num_queries, index.dim)).astype(np.float32)
    for q in queries[:2]:  # warm caches and BLAS threads
        search_exact(index, q)
    elapsed = []
    for q in queries:
        t0 = time.perf_counter()
        search_exact(index, q)
        elapsed.append(time.perf_counter() - t0)
    mean_s = sum(elapsed) / len(elapsed)
    n = len(index)
    words = max(1, index.total_words())
    return BenchResult(
        words_per_second=words / mean_s,
        candidates_per_second=n / mean_s,
        mean_query_seconds=mean_s,
        num_candidates=n,
        total_words=words,
        dim=index.dim,
    )


def synthetic_dense_index(num_candidates: int, dim: int, seed: int = 0) -> PhraseIndex:
    """Random dense index shaped like a filtered real one, for benchmarks.

    Fabricates documents of 1000 words keeping 1.3 spans per word (length-1
    spans everywhere plus length-2 spans on the first 300 words), so
    total_words() reflects that ratio.
    """
    if num_candidates < 1 or dim < 1:
        raise ValueError("num_candidates and dim must be positive")
    per_doc = np.array([(s, e) for s in range(1000) for e in range(s, s + 1 + (s < 300))])
    at = np.arange(num_candidates)
    metadata = np.zeros(num_candidates, dtype=METADATA_DTYPE)
    metadata["doc_id"] = at // len(per_doc)
    metadata["s"], metadata["e"] = per_doc[at % len(per_doc)].T
    rng = np.random.Generator(np.random.Philox(key=seed))
    # Rows go straight into the two tables, which share no row.
    half = dim // 2
    start_table = np.empty((num_candidates, half), dtype=np.float32)
    end_table = np.empty((num_candidates, dim - half), dtype=np.float32)
    step = max(1, (1 << 22) // dim)  # ~16 MB float32 chunks
    for start in range(0, num_candidates, step):
        stop = min(num_candidates, start + step)
        rows = rng.normal(size=(stop - start, dim)).astype(np.float32)
        start_table[start:stop], end_table[start:stop] = rows[:, :half], rows[:, half:]
    ids = np.arange(num_candidates, dtype="<u4")
    tables = _half_tables((start_table, end_table), ids, ids, metadata)
    return PhraseIndex("dense", metadata, tables=tables)


class _Reader:
    """Cursor over a file past its magic and version; errors carry the byte offset.

    Each array is read into a buffer of its own, so it is aligned (the dense
    payload starts at the odd offset 21 + 8 count). A with block closes the file.
    """

    def __init__(self, path: str, magic: bytes, version: int):
        self.file = open(path, "rb")
        self.size = os.fstat(self.file.fileno()).st_size
        self.pos = 0
        self.path = path
        try:
            if (got := self.record("S4", "magic")) != magic:
                raise FormatError(f"{path}: bad magic {got!r}", offset=0)
            if (got := self.record("<u4", "version")) != version:
                raise FormatError(f"{path}: unsupported version {got}", offset=4)
        except BaseException:
            self.file.close()
            raise

    def __enter__(self) -> "_Reader":
        return self

    def __exit__(self, *exc) -> None:
        self.file.close()

    def finish(self) -> None:
        """Reject bytes past the last field read."""
        if self.pos != self.size:
            extra = self.size - self.pos
            raise FormatError(f"{self.path}: {extra} bytes of trailing data", offset=self.pos)

    def array(self, dtype, count: int, what: str) -> np.ndarray:
        nbytes = int(count) * np.dtype(dtype).itemsize
        # Allocate only what the file can fill: a corrupt count may be huge.
        out = np.empty(int(count), dtype) if self.pos + nbytes <= self.size else None
        if out is None or self.file.readinto(out.view(np.uint8)) != nbytes:
            raise FormatError(f"{self.path}: truncated while reading {what}", offset=self.pos)
        self.pos += nbytes
        return out

    def record(self, dtype, what: str):
        """One value of dtype as Python values: a tuple of fields for a record dtype."""
        return self.array(dtype, 1, what)[0].item()


def _write(path: str, magic: bytes, version: int, parts) -> None:
    """Write magic, version u32 and the parts: bytes, or numpy values in file byte order.

    Each part goes to the file from its own buffer: a contiguous array is not
    copied.
    """
    with open(path, "wb") as f:
        for part in itertools.chain([magic, np.array(version, "<u4")], parts):
            f.write(part if isinstance(part, bytes) else np.ascontiguousarray(part))


# Budget of one chunk of rows when dense halves are grouped, checked on load or
# expanded: a step takes _CHUNK_BYTES // (4 dim) rows of width dim.
_CHUNK_BYTES = 1 << 18


def _chunks(count: int, dim: int):
    """Consecutive (start, stop) row ranges covering count rows of width dim."""
    step = max(1, _CHUNK_BYTES // (4 * max(dim, 1)))
    return [(a, min(a + step, count)) for a in range(0, count, step)]


def _group_half(table: np.ndarray, ids: np.ndarray, order: np.ndarray | None):
    """One half's canonical table and u32 indexes, for rows whose half is table[ids].

    A run of bitwise-equal neighbours in order (row order when None) is one
    table row, first used by its lowest row; table rows are numbered by first
    use in row order and hold that row's half. Bits are compared, so -0.0 and
    0.0 fall in different table rows. The table comes back as it is when its
    rows are already those, in that order.
    """
    n = len(ids)
    at = ids if order is None else ids[order]  # each position's table row
    bits = table.view("<u4")
    first = np.ones(n, dtype=bool)
    for a, b in _chunks(n, table.shape[1]):
        a = max(a, 1)
        rows = bits[at[a - 1 : b]]
        first[a:b] = (rows[1:] != rows[:-1]).any(axis=1)
    del at
    group = np.cumsum(first, dtype="<u4")
    group -= 1
    if order is not None:
        # Runs are numbered in order, then renumbered by the rank of their lowest row.
        lowest = np.full(int(group[-1]) + 1 if n else 0, n, dtype="<u4")
        np.minimum.at(lowest, group, order)
        first[:] = False
        first[lowest] = True
        rank = np.cumsum(first, dtype="<u4")[lowest]
        rank -= 1
        del lowest
        group[order] = rank[group]  # group is read in full before the write
    source = ids[first]  # the table row of each first user, in row order
    if not np.array_equal(source, np.arange(len(table))):
        table = table[source]
    return table, group


def _half_tables(tables, start_ids, end_ids, metadata: np.ndarray) -> tuple:
    """(start table, end table, (2, count) u32 table indexes), grouped as a save
    writes them (module docstring), of rows whose start half is
    tables[0][start_ids] and whose end half is tables[1][end_ids]. The end
    table is the start table when the two are bitwise equal."""
    start, start_ids = _group_half(tables[0], start_ids, None)
    by_end = np.argsort(_span_keys(metadata["doc_id"], metadata["e"], metadata["s"]))
    end, end_ids = _group_half(tables[1], end_ids, by_end.astype("<u4"))
    if start.shape == end.shape and np.array_equal(start.view("<u4"), end.view("<u4")):
        end = start
    return start, end, np.stack([start_ids, end_ids])


def _table_sizes(index: PhraseIndex) -> tuple[int, int]:
    """A dense index's (start rows, end rows), end SHARED when the end table is the start table."""
    start, end = index.tables
    return len(start), SHARED if end is start else len(end)


def save_index(index: PhraseIndex, path: str) -> None:
    kind = KIND_DENSE if index.kind == "dense" else KIND_SPARSE
    parts = [np.array((kind, index.dim, len(index)), HEADER_DTYPE), index.metadata]
    if index.kind == "dense":
        sizes = _table_sizes(index)
        stored = index.tables[: 2 - (sizes[1] == SHARED)]
        parts += [np.array(sizes, TABLES_DTYPE), index.table_ids, *stored]
    else:
        idf = index.idf
        raws = [term.encode("utf-8") for term in idf.vocab]
        heads = np.array([(idf.df[t], len(b)) for t, b in zip(idf.vocab, raws)], TERM_DTYPE)
        parts += [
            np.array((len(raws), idf.num_documents), SPARSE_DTYPE),
            b"".join(head.tobytes() + raw for head, raw in zip(heads, raws)),
            np.diff(index.indptr).astype("<u8"),
            np.asarray(index.ordinals, "<u4"),
            np.asarray(index.weights, "<f4"),
        ]
    _write(path, MAGIC, VERSION, parts)


def _first_bad(*checks: tuple) -> tuple[int, str] | None:
    """Position of the first True in the first mask holding one, with its message.
    A check is (function making the mask, message): one mask is alive at a time."""
    for mask, problem in checks:
        bad = mask()
        if bad.any():
            return int(bad.argmax()), problem
        del bad
    return None


def _read_dense(r: _Reader, count: int, dim: int) -> tuple:
    """The start table, end table and (2, count) table indexes of a dense payload.

    The indexes must be in range, in first-use order, as a save writes them,
    and use every table row; the table rows must be finite.
    """
    sizes_at = r.pos
    sizes = r.record(TABLES_DTYPE, "table sizes")
    shared = sizes[1] == SHARED
    if shared and dim % 2:  # the halves are dim // 2 and dim - dim // 2 wide
        raise FormatError(f"{r.path}: shared table with an odd dim {dim}", offset=sizes_at + 8)
    sizes = (sizes[0], sizes[0]) if shared else sizes
    ids_at = r.pos
    ids = r.array("<u4", 2 * count, "table indexes").reshape(2, count)
    for h, (half, rows) in enumerate(zip(TABLES_DTYPE.names, sizes)):
        top = np.maximum.accumulate(ids[h])
        found = _first_bad(
            (lambda: ids[h] >= rows, f"is past the {half} table's {rows} rows"),
            (lambda: np.r_[ids[h, :1] != 0, ids[h, 1:] > top[:-1] + 1],
             "is not in first-use order"),
        )
        if found:
            i, problem = found
            at = ids_at + 4 * (h * count + i)
            raise FormatError(f"{r.path}: {half} index of row {i} {problem}", offset=at)
        used = int(top[-1]) + 1 if count else 0
        if rows != used:
            at = sizes_at + 8 * h
            raise FormatError(f"{r.path}: {half} table has {rows} rows for {used} used", offset=at)
    del top
    stored = list(zip(TABLES_DTYPE.names, sizes, (dim // 2, dim - dim // 2)))[: 2 - shared]
    if r.pos + 4 * sum(rows * width for _, rows, width in stored) > r.size:
        raise FormatError(f"{r.path}: truncated while reading the tables", offset=r.pos)
    tables = []
    for half, rows, width in stored:
        at = r.pos
        table = r.array("<f4", rows * width, f"the {half} table").reshape(rows, width)
        for a, b in _chunks(rows, width):
            finite = np.isfinite(table[a:b]).all(axis=1)
            if not finite.all():
                row = a + int(finite.argmin())
                raise FormatError(
                    f"{r.path}: {half} table row {row} is not finite", offset=at + 4 * width * row
                )
        tables.append(table)
    return tables[0], tables[-1], ids


def load_index(path: str) -> PhraseIndex:
    """Read an index file, rejecting what would break a search later.

    Metadata must be strictly increasing on (doc_id, s, e) with s <= e, dense
    table indexes in range and in first-use order, floats finite, terms
    strictly increasing with df at most the document count, and each term's
    posting ordinals strictly increasing and in range.
    """
    with _Reader(path, MAGIC, VERSION) as r:
        kind, dim, count = r.record(HEADER_DTYPE, "header")
        if kind not in (KIND_DENSE, KIND_SPARSE):
            raise FormatError(f"{path}: unknown kind byte {kind}", offset=8)
        meta_at = r.pos
        metadata = r.array(METADATA_DTYPE, count, "metadata")
        key = _span_keys(metadata["doc_id"], metadata["s"], metadata["e"])
        found = _first_bad(
            (lambda: metadata["s"] > metadata["e"], "starts after it ends"),
            (lambda: np.r_[False, key[1:] <= key[:-1]],
             "is not after the one before in (doc_id, s, e)"),
        )
        del key  # O(count): free before the payload's own O(count) checks
        if found:
            i, problem = found
            at = meta_at + i * METADATA_DTYPE.itemsize
            raise FormatError(f"{path}: metadata record {i} {problem}", offset=at)

        if kind == KIND_DENSE:
            tables = _read_dense(r, count, dim)
            r.finish()
            return PhraseIndex("dense", metadata, tables=tables)

        num_terms, num_docs = r.record(SPARSE_DTYPE, "term and document counts")
        df: dict[str, int] = {}
        for i in range(num_terms):
            at = r.pos
            term_df, length = r.record(TERM_DTYPE, f"term {i}")
            raw = r.array("u1", length, f"term {i}").tobytes()
            try:
                term = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(f"{path}: term {i} is not valid utf-8", offset=at) from exc
            if i and term <= prev:  # IdfTable numbers the terms in sorted order
                raise FormatError(f"{path}: term {i} is not after the one before", offset=at)
            if term_df > num_docs:
                raise FormatError(
                    f"{path}: term {i} has df {term_df} above the document count {num_docs}",
                    offset=at,
                )
            df[term] = term_df
            prev = term
        indptr = np.zeros(num_terms + 1, dtype=np.uint64)
        np.cumsum(r.array("<u8", num_terms, "posting counts"), out=indptr[1:])
        if np.any(indptr[1:] < indptr[:-1]):
            at = r.pos - 8 * num_terms
            raise FormatError(f"{path}: posting counts add up past 2**64", offset=at)
        ords_at = r.pos
        ords = r.array("<u4", indptr[-1], "ordinals")
        ws = r.array("<f4", indptr[-1], "weights")
        indptr = indptr.astype(np.int64)

        def falling():
            out = np.zeros(len(ords), dtype=bool)
            np.less_equal(ords[1:], ords[:-1], out=out[1:])
            out[indptr[:-1][np.diff(indptr) > 0]] = False  # each term starts its own run
            return out

        found = _first_bad(
            (lambda: ords >= count, "reference an ordinal beyond the index"),
            (falling, "are not strictly increasing"),
            (lambda: ~np.isfinite(ws), "hold a non-finite weight"),
        )
        if found:
            term_id = int(np.searchsorted(indptr, found[0], side="right")) - 1
            raise FormatError(
                f"{path}: postings of term {term_id} {found[1]}",
                offset=ords_at + 4 * int(indptr[term_id]),
            )
        r.finish()
        idf = IdfTable(df=df, num_documents=num_docs)
        return PhraseIndex("sparse", metadata, postings=(indptr, ords, ws), idf=idf)
