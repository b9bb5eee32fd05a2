"""Immutable phrase index: build, exact inner-product search, persistence.

A dense index stores one float32 row per candidate span; a sparse index
stores its postings in CSR form, term id t owning the candidate ordinals
and weights ``ordinals[indptr[t]:indptr[t + 1]]``, plus the term dictionary
needed to encode questions against it. Metadata is a packed record array
sorted by (doc_id, s, e); the ordinal of a row in that order is the
candidate's identity everywhere (postings, hashes, filters).

File format (all integers little-endian):

    magic "PIQA" | version u32=2 | kind u8 (0 dense, 1 sparse) | dim u32
    | count u64 | count x (doc_id u32, s u16, e u16) | payload

Dense payload: count x dim float32, row-major. Sparse payload: u64 term
count T, u64 document count, T x (df u32, len u16, utf-8 term) with terms
strictly increasing, then T x posting count u64, then every term's ordinals
u64 (strictly increasing within a term), then every weight f32, in term order.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .candidates import CandidateSpan, span_bounds, span_count
from .encode.dense import LSTM, LSTM_SA, sa_all
from .encode.tfidf import IdfTable, SparseVector, tfidf_phrase_encode
from .errors import BuildError, FormatError

if TYPE_CHECKING:
    from .corpus import Corpus
    from .encode.wordvectors import WordVectorTable

MAGIC = b"PIQA"
VERSION = 2
KIND_DENSE = 0
KIND_SPARSE = 1
MAX_DOC_TOKENS = 65535  # u16 span endpoints

METADATA_DTYPE = np.dtype([("doc_id", "<u4"), ("s", "<u2"), ("e", "<u2")])
HEADER_DTYPE = np.dtype([("kind", "u1"), ("dim", "<u4"), ("count", "<u8")])
SPARSE_DTYPE = np.dtype([("terms", "<u8"), ("documents", "<u8")])
TERM_DTYPE = np.dtype([("df", "<u4"), ("length", "<u2")])


@dataclass(frozen=True)
class SearchHit:
    span: CandidateSpan
    score: float


class PhraseIndex:
    """Read-only candidate store; safe for concurrent searches.

    Sparse postings: a CSR triple (indptr, ordinals, weights), or a dict to flatten.
    """

    def __init__(
        self,
        kind: str,
        metadata: np.ndarray,
        *,
        vectors: np.ndarray | None = None,
        postings: tuple | dict[int, tuple[np.ndarray, np.ndarray]] | None = None,
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
            if isinstance(postings, dict):
                empty = (np.empty(0, np.uint64), np.empty(0, np.float32))
                runs = [postings.get(t, empty) for t in range(len(idf.vocab))]
                indptr = np.cumsum([0] + [len(o) for o, _ in runs])
                postings = (indptr, *map(np.concatenate, zip(*runs, empty)))
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

    def total_words(self) -> int:
        """Document words covered by the metadata (max end+1 per doc).

        Exact for unfiltered indexes; for filtered ones it is a lower
        bound, so storage reports should pass the true count explicitly.
        """
        if len(self.metadata) == 0:
            return 0
        ids = self.metadata["doc_id"]
        starts = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])
        per_doc = np.maximum.reduceat(self.metadata["e"].astype(np.int64), starts)
        return int((per_doc + 1).sum())


def _span_keys(doc_id, s, e) -> np.ndarray:
    """Each (doc_id, s, e) as one u64, doc_id << 32 | s << 16 | e: keys sort as the triples."""
    key = np.asarray(doc_id, np.uint64) << np.uint64(32)
    key |= np.asarray(s, np.uint64) << np.uint64(16)
    key |= np.asarray(e, np.uint64)
    return key


def _pack_metadata(rows: list[tuple[int, int, int]]) -> np.ndarray:
    arr = np.zeros(len(rows), dtype=METADATA_DTYPE)
    if rows:
        ids, ss, es = zip(*rows)
        arr["doc_id"], arr["s"], arr["e"] = ids, ss, es
    return arr


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

    def to_json(self) -> dict:
        return {
            "words_per_second": self.words_per_second,
            "candidates_per_second": self.candidates_per_second,
            "mean_query_seconds": self.mean_query_seconds,
            "num_candidates": self.num_candidates,
            "total_words": self.total_words,
            "dim": self.dim,
        }


def bench_scan(index: PhraseIndex, num_queries: int = 16, seed: int = 0) -> BenchResult:
    """Time exact scans over synthetic queries on a dense index.

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
        (index.vectors @ q).argmax()
    elapsed = []
    for q in queries:
        t0 = time.perf_counter()
        scores = index.vectors @ q
        scores.argmax()
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


def synthetic_dense_index(
    num_candidates: int,
    dim: int,
    seed: int = 0,
    vectors_per_word: float = 1.3,
) -> PhraseIndex:
    """Random dense index shaped like a filtered real one, for benchmarks.

    Fabricates documents of 1000 words keeping vectors_per_word spans per
    word (length-1 spans everywhere plus length-2 spans at the front), so
    total_words() reflects the requested ratio.
    """
    if num_candidates < 1 or dim < 1:
        raise ValueError("num_candidates and dim must be positive")
    doc_len = 1000
    extra = int(round(doc_len * (vectors_per_word - 1.0)))
    if not 0 <= extra < doc_len:
        raise ValueError("vectors_per_word must be in [1, 2) for the synthetic layout")
    per_doc: list[tuple[int, int]] = []
    for s in range(doc_len):
        per_doc.append((s, s))
        if s < extra:
            per_doc.append((s, s + 1))
    rows: list[tuple[int, int, int]] = []
    doc = 0
    while len(rows) < num_candidates:
        take = min(len(per_doc), num_candidates - len(rows))
        rows.extend((doc, s, e) for s, e in per_doc[:take])
        doc += 1
    rng = np.random.Generator(np.random.Philox(key=seed))
    vectors = np.empty((num_candidates, dim), dtype=np.float32)
    step = max(1, (1 << 22) // max(1, dim))  # ~16 MB float32 chunks
    for start in range(0, num_candidates, step):
        stop = min(num_candidates, start + step)
        vectors[start:stop] = rng.normal(size=(stop - start, dim)).astype(np.float32)
    return PhraseIndex("dense", _pack_metadata(rows), vectors=vectors)


class _Reader:
    """Cursor over a file past its magic and version; errors carry the byte offset.

    Each array is read into a buffer of its own, so it is aligned (the dense
    vectors start at the odd offset 21 + 8 count). A with block closes the file.
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


def _write(path: str, magic: bytes, version: int, parts: list) -> None:
    """Write magic, version u32 and the parts: bytes, or numpy values in file byte order.

    Each part goes to the file from its own buffer: a contiguous array is not copied.
    """
    with open(path, "wb") as f:
        for part in [magic, np.array(version, "<u4"), *parts]:
            f.write(part if isinstance(part, bytes) else np.ascontiguousarray(part))


def save_index(index: PhraseIndex, path: str) -> None:
    kind = KIND_DENSE if index.kind == "dense" else KIND_SPARSE
    parts = [np.array((kind, index.dim, len(index)), HEADER_DTYPE), index.metadata]
    if index.kind == "dense":
        parts.append(np.ascontiguousarray(index.vectors, dtype="<f4"))
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


def load_index(path: str) -> PhraseIndex:
    """Read an index file, rejecting what would break a search later.

    Metadata must be strictly increasing on (doc_id, s, e) with s <= e, floats
    finite, terms strictly increasing with df at most the document count, and
    each term's posting ordinals strictly increasing and in range.
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
        if found:
            i, problem = found
            at = meta_at + i * METADATA_DTYPE.itemsize
            raise FormatError(f"{path}: metadata record {i} {problem}", offset=at)

        if kind == KIND_DENSE:
            at = r.pos
            vectors = r.array("<f4", count * dim, "vectors").reshape(count, dim)
            # A row is finite when its extremes are (a NaN is both): no (count, dim) mask.
            finite = np.isfinite(vectors.max(axis=1, initial=0))
            finite &= np.isfinite(vectors.min(axis=1, initial=0))
            if not finite.all():
                row = int(finite.argmin())
                raise FormatError(f"{path}: vector row {row} is not finite", offset=at)
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
