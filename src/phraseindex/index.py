"""Immutable phrase index: build, exact inner-product search, persistence.

A dense index stores one float32 row per candidate span; a sparse index
stores its postings in CSR form, term id t owning the candidate ordinals
and weights ``ordinals[indptr[t]:indptr[t + 1]]``, plus the term dictionary
needed to encode questions against it. Metadata is a packed record array
sorted by (doc_id, s, e); the ordinal of a row in that order is the
candidate's identity everywhere (postings, hashes, filters).

File format (all integers little-endian):

    magic "PIQA" | version u32=3 | kind u8 (0 dense, 1 sparse) | dim u32
    | count u64 | count x (doc_id u32, s u16, e u16) | payload

Dense payload: u64 start-table rows S, u64 end-table rows E, count x start
index u32, count x end index u32, then the start table, S x (dim // 2)
float32, and the end table, E x (dim - dim // 2) float32, both row-major.
Row i of the vector block is start table row start[i] followed by end table
row end[i]. A row shares its neighbour's table row when that half is bitwise
equal, neighbours taken in (doc_id, s, e) order for the start half and in
(doc_id, e, s) order for the end half, and table rows are numbered by first
use in row order: an encoder-built block, whose rows are [words[s], words[e]],
stores each token's halves about once. Sparse payload: u64 term count T, u64
document count, T x (df u32, len u16, utf-8 term) with terms strictly
increasing, then T x posting count u64, then every term's ordinals u64
(strictly increasing within a term), then every weight f32, in term order.
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .candidates import CandidateSpan, span_bounds, span_count
from .encode.dense import LSTM, LSTM_SA, sa_all
from .encode.tfidf import IdfTable, SparseVector, tfidf_phrase_encode
from .errors import BuildError, ConfigError, FormatError

if TYPE_CHECKING:
    from .corpus import Corpus
    from .encode.wordvectors import WordVectorTable

MAGIC = b"PIQA"
VERSION = 3
KIND_DENSE = 0
KIND_SPARSE = 1
MAX_DOC_TOKENS = 65535  # u16 span endpoints

METADATA_DTYPE = np.dtype([("doc_id", "<u4"), ("s", "<u2"), ("e", "<u2")])
HEADER_DTYPE = np.dtype([("kind", "u1"), ("dim", "<u4"), ("count", "<u8")])
SPARSE_DTYPE = np.dtype([("terms", "<u8"), ("documents", "<u8")])
TERM_DTYPE = np.dtype([("df", "<u4"), ("length", "<u2")])
TABLES_DTYPE = np.dtype([("start", "<u8"), ("end", "<u8")])


@dataclass(frozen=True)
class SearchHit:
    span: CandidateSpan
    score: float


class PhraseIndex:
    """Read-only candidate store; safe for concurrent searches.

    Sparse postings: a CSR triple (indptr, ordinals, weights).
    """

    def __init__(
        self,
        kind: str,
        metadata: np.ndarray,
        *,
        vectors: np.ndarray | None = None,
        postings: tuple | None = None,
        idf: IdfTable | None = None,
    ):
        if kind not in ("dense", "sparse"):
            raise ValueError(f"unknown index kind {kind!r}")
        self.kind = kind
        self.metadata = np.ascontiguousarray(metadata, dtype=METADATA_DTYPE)
        self.vectors = vectors
        self.idf = idf
        if kind == "dense":
            if vectors is None or len(vectors) != len(self.metadata):
                raise ValueError("dense index needs one vector row per metadata record")
            self.dim = int(vectors.shape[1])
        else:
            if postings is None or idf is None:
                raise ValueError("sparse index needs postings and a term table")
            self.indptr = np.asarray(postings[0], dtype=np.int64)
            self.ordinals = np.asarray(postings[1], dtype=np.uint64)
            self.weights = np.asarray(postings[2], dtype=np.float32)
            b = self.indptr.tolist()
            self.postings = {
                t: (self.ordinals[b[t] : b[t + 1]], self.weights[b[t] : b[t + 1]])
                for t in np.flatnonzero(np.diff(self.indptr)).tolist()
            }
            self.dim = 0

    def __len__(self) -> int:
        return len(self.metadata)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PhraseIndex) or self.kind != other.kind:
            return NotImplemented if not isinstance(other, PhraseIndex) else False
        if not np.array_equal(self.metadata, other.metadata):
            return False
        if self.kind == "dense":
            return np.array_equal(self.vectors, other.vectors)
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
    metadata = np.empty(runs[-1], dtype=METADATA_DTYPE)
    for doc, lo, hi in zip(corpus.documents, runs, runs[1:]):
        rows = metadata[lo:hi]
        rows["doc_id"], rows["s"], rows["e"] = doc.doc_id, *span_bounds(len(doc), max_span_len)

    if encoder == "tfidf":
        idf = IdfTable.from_corpus(corpus)
        # Each document's bags are flattened before the next document's are
        # encoded, so only one document's per-span vectors are alive at a time.
        empty = SparseVector.empty()  # keeps every concatenation non-empty
        terms, weights, bag_sizes = [empty.term_ids], [empty.weights], []
        for doc, lo, hi in zip(corpus.documents, runs, runs[1:]):
            vecs = [empty] + [
                tfidf_phrase_encode(
                    doc, CandidateSpan(*row), window, idf, include_phrase=include_phrase
                )
                for row in metadata[lo:hi].tolist()
            ]
            terms.append(np.concatenate([v.term_ids for v in vecs]))
            weights.append(np.concatenate([v.weights for v in vecs]))
            bag_sizes += [len(v.term_ids) for v in vecs[1:]]
        # One stable sort by term keeps each term's ordinals ascending.
        terms = np.concatenate(terms)
        order = np.argsort(terms, kind="stable")
        ordinals = np.repeat(np.arange(len(bag_sizes), dtype=np.uint64), bag_sizes)[order]
        weights = np.concatenate(weights).astype(np.float32)[order]
        indptr = np.r_[0, np.cumsum(np.bincount(terms, minlength=len(idf.vocab)))]
        postings = (indptr, ordinals, weights)
        return PhraseIndex("sparse", metadata, postings=postings, idf=idf)

    if word_vectors is None:
        raise BuildError(f"encoder {encoder!r} needs a word-vector table")
    # Rows go straight into one block: [base, sa] of each span's start, then of
    # its end, for lstm_sa ([base] of each for lstm), cast once to float32.
    width = (2 if encoder == LSTM_SA else 1) * word_vectors.dim
    vectors = np.empty((len(metadata), 2 * width), dtype=np.float32)
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
        vectors[lo:hi, :width] = words[metadata["s"][lo:hi]]
        vectors[lo:hi, width:] = words[metadata["e"][lo:hi]]
    return PhraseIndex("dense", metadata, vectors=vectors)


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
        if q.ndim == 2:
            return _search_dense_block(index, q, k_top, lo, hi)
        if hi == lo:
            return []
        scores = index.vectors[lo:hi] @ q
    else:
        if hi == lo:
            return []
        if not isinstance(query, SparseVector):
            raise ValueError("sparse index expects a SparseVector query")
        # The query terms' CSR runs in query order: bincount adds each score in that order.
        known = (query.term_ids >= 0) & (query.term_ids < len(index.indptr) - 1)
        ids = query.term_ids[known]
        starts, sizes = index.indptr[ids], index.indptr[ids + 1] - index.indptr[ids]
        at = np.repeat(starts - np.cumsum(sizes) + sizes, sizes) + np.arange(sizes.sum())
        ords = index.ordinals[at].astype(np.int64)
        inside = (ords >= lo) & (ords < hi)
        products = np.repeat(query.weights[known].astype(np.float64), sizes) * index.weights[at]
        scores = np.bincount(ords[inside] - lo, weights=products[inside], minlength=hi - lo)

    return _hits(index, scores, k_top, lo)


# Budget of the float32 score block in a batched dense search: a pass over m
# query rows scores blocks of _SCORE_BLOCK_BYTES // (4 m) index rows, so that
# block, m x rows x 4 bytes, stays within it. Ranking adds an (m, 2k) merge
# and, for k > 1, the temporaries of one _top_k call on one row of the block.
# PerceptronFilter.score casts its rows to float64 within the same budget.
_SCORE_BLOCK_BYTES = 16 << 20
# Query rows per pass, so that a block keeps at least 4,096 index rows. Over a
# 36,183 x 256 block on a 2-core x86 VM, 16,384 questions took 0.13-0.14 ms
# each at 1,024-4,096 rows per pass, and 0.16-0.17 ms at 256 rows per pass or
# in one pass of 256-row blocks.
_QUERY_ROWS = 1024


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
        ords, scores, nan = _block_top_k(index.vectors, batch, k, lo, hi)
        nan &= k < n  # as _top_k: a NaN picks nothing unless every row is asked for
        spans = index.metadata[ords].tolist()  # (doc_id, s, e) per hit
        out.extend(
            [] if drop else [SearchHit(CandidateSpan(*sp), s) for sp, s in zip(row, row_scores)]
            for drop, row, row_scores in zip(nan.tolist(), spans, scores.tolist())
        )
    return out


def _block_top_k(
    vectors: np.ndarray, queries: np.ndarray, k: int, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each query row's top k of vectors[lo:hi]: (m, k) ordinals and scores, plus NaN flags.

    One product per block of index rows scores every query. k == 1 ranks the
    block with one argmax; k > 1 ranks each of its rows with _top_k. The winners
    merge into a running (m, k) set by score descending, then ordinal ascending,
    so an equal score in a later block never displaces an earlier, lower ordinal.
    nan flags the query rows whose scores hold a NaN anywhere in [lo, hi).
    """
    m = len(queries)
    step = max(1, _SCORE_BLOCK_BYTES // (4 * m))
    nan = np.zeros(m, dtype=bool)
    for start in range(lo, hi, step):
        block = queries @ vectors[start : min(start + step, hi)].T
        if k == 1:
            cols = block.argmax(axis=1)[:, None]  # the first maximum, or the first NaN
        else:
            cols = np.zeros((m, min(k, block.shape[1])), dtype=np.int64)
            rows = range(m)  # NaN rows too: when k >= n they still return all of theirs
            if start > lo and neg.shape[1] == k:
                # Skip rows whose block maximum is at or below their running k-th
                # score: their column-0 picks lose the merge on score or, tied, on
                # ordinal. A NaN maximum compares False, so its row is ranked.
                rows = np.flatnonzero(~(block.max(axis=1) <= -neg[:, -1]))
            for r in rows:
                picked = _top_k(block[r], k)
                if len(picked) < cols.shape[1]:
                    nan[r] = True  # _top_k picks nothing from a row holding a NaN
                else:
                    cols[r] = picked
        top = -np.take_along_axis(block, cols, axis=1)  # negated: lexsort ascends
        del block  # before the next product, so one score block is alive at a time
        nan |= np.isnan(top).any(axis=1)
        cand = cols + start
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
    vectors = np.empty((num_candidates, dim), dtype=np.float32)
    step = max(1, (1 << 22) // dim)  # ~16 MB float32 chunks
    for start in range(0, num_candidates, step):
        stop = min(num_candidates, start + step)
        vectors[start:stop] = rng.normal(size=(stop - start, dim)).astype(np.float32)
    return PhraseIndex("dense", metadata, vectors=vectors)


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
    copied. parts is iterated once, so a generator can hand over a large
    section in chunks.
    """
    with open(path, "wb") as f:
        for part in itertools.chain([magic, np.array(version, "<u4")], parts):
            f.write(part if isinstance(part, bytes) else np.ascontiguousarray(part))


# Budget of one chunk of rows when a dense payload is grouped, written, read
# or expanded: a step takes _CHUNK_BYTES // (4 dim) rows of the block.
_CHUNK_BYTES = 1 << 18


def _chunks(count: int, dim: int):
    """Consecutive (start, stop) row ranges covering count rows of width dim."""
    step = max(1, _CHUNK_BYTES // (4 * max(dim, 1)))
    return [(a, min(a + step, count)) for a in range(0, count, step)]


def _differs(bits: np.ndarray, cols: slice, order: np.ndarray | None = None) -> np.ndarray:
    """Mask over the positions of order (row order when None): True where the
    row's cols hold other bits than the row at the position before, or at 0."""
    new = np.ones(len(bits), bool)
    for a, b in _chunks(*bits.shape):
        a = max(a, 1)
        rows = bits[a - 1 : b, cols] if order is None else bits[order[a - 1 : b], cols]
        new[a:b] = (rows[1:] != rows[:-1]).any(axis=1)
    return new


def _half_tables(block: np.ndarray, metadata: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's start and end table index, (2, count) u32, and whether the
    row is the first user of its table row, (2, count) bool.

    Bits are compared, so -0.0 and 0.0 fall in different table rows.
    """
    if len(block) >= 2**32:
        raise ValueError("a dense index file holds fewer than 2**32 rows (u32 table indexes)")
    bits = block.view("<u4")
    half = block.shape[1] // 2
    # End halves: a run of equal neighbours in (doc_id, e, s) order is one
    # table row, first used by its lowest row. Runs are numbered in that order,
    # then renumbered by the rank of their lowest row. The outputs are
    # allocated after the sort, to keep the peak low.
    order = np.argsort(_span_keys(metadata["doc_id"], metadata["e"], metadata["s"])).astype("<u4")
    group = np.cumsum(_differs(bits, slice(half, None), order), dtype="<u4")
    group -= 1
    lowest = np.full(int(group[-1]) + 1 if len(group) else 0, len(block), "<u4")
    np.minimum.at(lowest, group, order)
    ids = np.empty((2, len(block)), "<u4")
    first = np.zeros((2, len(block)), bool)
    ids[1, order] = group
    del order, group
    first[1, lowest] = True
    np.cumsum(first[1], dtype="<u4", out=ids[0])  # ids[0] is scratch until the start halves
    ranks = ids[0, lowest] - 1
    del lowest
    ids[1] = ranks[ids[1]]
    # Start halves: a run of equal neighbours in row order is one table row.
    first[0] = _differs(bits, slice(0, half))
    np.cumsum(first[0], dtype="<u4", out=ids[0])
    ids[0] -= 1
    return ids, first


def _dense_payload(vectors: np.ndarray, metadata: np.ndarray):
    """The parts of a dense payload: table sizes, indexes, then the tables in chunks."""
    block = np.ascontiguousarray(vectors, dtype="<f4")
    ids, first = _half_tables(block, metadata)
    yield np.array(tuple(first.sum(axis=1).tolist()), TABLES_DTYPE)
    yield ids
    half = block.shape[1] // 2
    for used, cols in zip(first, (slice(0, half), slice(half, None))):
        for a, b in _chunks(*block.shape):
            yield block[a:b, cols][used[a:b]]


def save_index(index: PhraseIndex, path: str) -> None:
    kind = KIND_DENSE if index.kind == "dense" else KIND_SPARSE
    parts = [np.array((kind, index.dim, len(index)), HEADER_DTYPE), index.metadata]
    if index.kind == "dense":
        parts = itertools.chain(parts, _dense_payload(index.vectors, index.metadata))
    else:
        idf = index.idf
        raws = [term.encode("utf-8") for term in idf.vocab]
        heads = np.array([(idf.df[t], len(b)) for t, b in zip(idf.vocab, raws)], TERM_DTYPE)
        parts += [
            np.array((len(raws), idf.num_documents), SPARSE_DTYPE),
            b"".join(head.tobytes() + raw for head, raw in zip(heads, raws)),
            np.diff(index.indptr).astype("<u8"),
            np.asarray(index.ordinals, "<u8"),
            np.asarray(index.weights, "<f4"),
        ]
    _write(path, MAGIC, VERSION, parts)


def _first_bad(*checks: tuple[np.ndarray, str]) -> tuple[int, str] | None:
    """Position of the first True in the first mask holding one, with its message."""
    for bad, problem in checks:
        if bad.any():
            return int(bad.argmax()), problem
    return None


def _read_dense(r: _Reader, count: int, dim: int) -> np.ndarray:
    """The vector block of a dense payload (module docstring).

    The indexes must be in range, in first-use order, as a save writes them,
    and use every table row. So each is at most its own row number: the
    tables are read into the block's first rows, then expanded in place from
    the last row back, and rows below a chunk still hold the table rows it
    reads.
    """
    sizes_at = r.pos
    sizes = r.record(TABLES_DTYPE, "table sizes")
    ids_at = r.pos
    ids = r.array("<u4", 2 * count, "table indexes").reshape(2, count)
    for h, (half, rows) in enumerate(zip(TABLES_DTYPE.names, sizes)):
        top = np.maximum.accumulate(ids[h])
        found = _first_bad(
            (ids[h] >= rows, f"is past the {half} table's {rows} rows"),
            (np.r_[ids[h, :1] != 0, ids[h, 1:] > top[:-1] + 1], "is not in first-use order"),
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
    cols = (slice(0, dim // 2), slice(dim // 2, dim))
    nbytes = 4 * sum(rows * (c.stop - c.start) for rows, c in zip(sizes, cols))
    if r.pos + nbytes > r.size:  # before the block is allocated
        raise FormatError(f"{r.path}: truncated while reading the tables", offset=r.pos)
    vectors = np.empty((count, dim), np.float32)
    for half, rows, c in zip(TABLES_DTYPE.names, sizes, cols):
        width, at = c.stop - c.start, r.pos
        for a, b in _chunks(rows, width):
            table = r.array("<f4", (b - a) * width, f"the {half} table").reshape(b - a, width)
            finite = np.isfinite(table).all(axis=1)
            if not finite.all():
                row = a + int(finite.argmin())
                raise FormatError(
                    f"{r.path}: {half} table row {row} is not finite", offset=at + 4 * width * row
                )
            vectors[a:b, c] = table
    for a, b in reversed(_chunks(count, dim)):
        for h, c in enumerate(cols):
            vectors[a:b, c] = vectors[ids[h, a:b], c]
    return vectors


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
            (metadata["s"] > metadata["e"], "starts after it ends"),
            (np.r_[False, key[1:] <= key[:-1]], "is not after the one before in (doc_id, s, e)"),
        )
        del key  # O(count): free before the payload's own O(count) checks
        if found:
            i, problem = found
            at = meta_at + i * METADATA_DTYPE.itemsize
            raise FormatError(f"{path}: metadata record {i} {problem}", offset=at)

        if kind == KIND_DENSE:
            vectors = _read_dense(r, count, dim)
            r.finish()
            return PhraseIndex("dense", metadata, vectors=vectors)

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
        ords = r.array("<u8", indptr[-1], "ordinals")
        ws = r.array("<f4", indptr[-1], "weights")
        indptr = indptr.astype(np.int64)
        falling = np.r_[False, ords[1:] <= ords[:-1]]
        falling[indptr[:-1][np.diff(indptr) > 0]] = False  # each term starts its own run
        found = _first_bad(
            (ords >= count, "reference an ordinal beyond the index"),
            (falling, "are not strictly increasing"),
            (~np.isfinite(ws), "hold a non-finite weight"),
        )
        if found:
            term_id = int(np.searchsorted(indptr, found[0], side="right")) - 1
            raise FormatError(
                f"{path}: postings of term {term_id} {found[1]}",
                offset=ords_at + 8 * int(indptr[term_id]),
            )
        r.finish()
        idf = IdfTable(df=df, num_documents=num_docs)
        return PhraseIndex("sparse", metadata, postings=(indptr, ords, ws), idf=idf)
