"""Immutable phrase index: build, exact inner-product search, persistence.

A dense index stores one float32 row per candidate span; a sparse index
stores an inverted map term-id -> (candidate ordinals, weights) plus the
term dictionary needed to encode questions against it. Metadata is a
packed record array sorted by (doc_id, s, e); the ordinal of a row in
that order is the candidate's identity everywhere (postings, hashes,
filters).

File format (all integers little-endian):

    magic "PIQA" | version u32=1 | kind u8 (0 dense, 1 sparse) | dim u32
    | count u64 | count x (doc_id u32, s u16, e u16) | payload

Dense payload: count x dim float32, row-major. Sparse payload: u64 term
count T, u64 document count, T x (df u32, len u16, utf-8 term), then T
groups of u64 n followed by n x (ordinal u64, weight f32).
"""

from __future__ import annotations

import struct
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .candidates import CandidateSpan, enumerate_spans
from .encode.dense import LSTM, LSTM_SA, compose_phrase_lstm, compose_phrase_lstm_sa, sa_all
from .encode.tfidf import IdfTable, SparseVector, tfidf_phrase_encode
from .errors import BuildError, FormatError

if TYPE_CHECKING:
    from .corpus import Corpus
    from .encode.wordvectors import WordVectorTable

MAGIC = b"PIQA"
VERSION = 1
KIND_DENSE = 0
KIND_SPARSE = 1
MAX_DOC_TOKENS = 65535  # u16 span endpoints

METADATA_DTYPE = np.dtype([("doc_id", "<u4"), ("s", "<u2"), ("e", "<u2")])


@dataclass(frozen=True)
class SearchHit:
    span: CandidateSpan
    score: float


class PhraseIndex:
    """Read-only candidate store; safe for concurrent searches."""

    def __init__(
        self,
        kind: str,
        metadata: np.ndarray,
        *,
        vectors: np.ndarray | None = None,
        postings: dict[int, tuple[np.ndarray, np.ndarray]] | None = None,
        idf: IdfTable | None = None,
    ):
        if kind not in ("dense", "sparse"):
            raise ValueError(f"unknown index kind {kind!r}")
        self.kind = kind
        self.metadata = np.ascontiguousarray(metadata, dtype=METADATA_DTYPE)
        self.vectors = vectors
        self.postings = postings
        self.idf = idf
        if kind == "dense":
            if vectors is None or len(vectors) != len(self.metadata):
                raise ValueError("dense index needs one vector row per metadata record")
            self.dim = int(vectors.shape[1])
        else:
            if postings is None or idf is None:
                raise ValueError("sparse index needs postings and a term table")
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
        if self.postings.keys() != other.postings.keys():
            return False
        return all(
            np.array_equal(self.postings[t][0], other.postings[t][0])
            and np.array_equal(self.postings[t][1], other.postings[t][1])
            for t in self.postings
        )

    def span(self, ordinal: int) -> CandidateSpan:
        rec = self.metadata[ordinal]
        return CandidateSpan(int(rec["doc_id"]), int(rec["s"]), int(rec["e"]))

    def doc_ids(self) -> np.ndarray:
        return np.unique(self.metadata["doc_id"])

    def doc_range(self, doc_id: int) -> tuple[int, int]:
        """Half-open ordinal range of one document's candidates."""
        ids = self.metadata["doc_id"]
        lo = int(np.searchsorted(ids, doc_id, side="left"))
        hi = int(np.searchsorted(ids, doc_id, side="right"))
        return lo, hi

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

    meta_rows: list[tuple[int, int, int]] = []
    if encoder == "tfidf":
        idf = IdfTable.from_corpus(corpus)
        by_term: dict[int, tuple[list[int], list[float]]] = {}
        ordinal = 0
        for doc in corpus.documents:
            for s, e in enumerate_spans(len(doc), max_span_len):
                meta_rows.append((doc.doc_id, s, e))
                vec = tfidf_phrase_encode(
                    doc, CandidateSpan(doc.doc_id, s, e), window, idf,
                    include_phrase=include_phrase,
                )
                for term_id, weight in zip(vec.term_ids, vec.weights):
                    ords, ws = by_term.setdefault(int(term_id), ([], []))
                    ords.append(ordinal)
                    ws.append(np.float32(weight))
                ordinal += 1
        postings = {
            t: (np.asarray(o, dtype=np.uint64), np.asarray(w, dtype=np.float32))
            for t, (o, w) in by_term.items()
        }
        return PhraseIndex("sparse", _pack_metadata(meta_rows), postings=postings, idf=idf)

    if word_vectors is None:
        raise BuildError(f"encoder {encoder!r} needs a word-vector table")
    blocks: list[np.ndarray] = []
    for doc in corpus.documents:
        if doc.doc_id not in word_vectors.documents:
            raise BuildError(f"no word vectors for document {doc.doc_id} (channel base)")
        chan = word_vectors.documents[doc.doc_id]
        if len(chan.base) != len(doc):
            raise BuildError(
                f"document {doc.doc_id}: {len(chan.base)} base vectors for {len(doc)} tokens"
            )
        spans = [
            CandidateSpan(doc.doc_id, s, e) for s, e in enumerate_spans(len(doc), max_span_len)
        ]
        meta_rows.extend((sp.doc_id, sp.s, sp.e) for sp in spans)
        if encoder == LSTM_SA:
            if chan.sa_key is None or chan.sa_query is None:
                missing = "sa_key" if chan.sa_key is None else "sa_query"
                raise BuildError(
                    f"no word vectors for document {doc.doc_id} (channel {missing})"
                )
            sa = sa_all(chan)
            rows = [compose_phrase_lstm_sa(chan, sp, sa_matrix=sa) for sp in spans]
        else:
            rows = [compose_phrase_lstm(chan, sp) for sp in spans]
        if rows:
            blocks.append(np.asarray(rows, dtype=np.float32))
    if blocks:
        vectors = np.ascontiguousarray(np.concatenate(blocks, axis=0), dtype=np.float32)
    else:
        dim = 4 * word_vectors.dim if encoder == LSTM_SA else 2 * word_vectors.dim
        vectors = np.zeros((0, dim), dtype=np.float32)
    return PhraseIndex("dense", _pack_metadata(meta_rows), vectors=vectors)


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
        part = np.argpartition(scores, n - k)[n - k:]
        threshold = scores[part].min()
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
        scores = np.zeros(hi - lo, dtype=np.float64)
        for term_id, weight in zip(query.term_ids, query.weights):
            group = index.postings.get(int(term_id))
            if group is None:
                continue
            ords, ws = group
            a = int(np.searchsorted(ords, lo, side="left"))
            b = int(np.searchsorted(ords, hi, side="left"))
            sel = ords[a:b].astype(np.int64) - lo
            scores[sel] += float(weight) * ws[a:b].astype(np.float64)

    return _hits(index, scores, k_top, lo)


# Budget of one float32 score block in a batched dense search.
_SCORE_BLOCK_BYTES = 16 << 20


def _search_dense_block(
    index: PhraseIndex, queries: np.ndarray, k_top: int, lo: int, hi: int
) -> list[list[SearchHit]]:
    """One GEMM per chunk of query rows, then each row's top-k."""
    if hi == lo:
        return [[] for _ in queries]
    rows = index.vectors[lo:hi]
    step = max(1, _SCORE_BLOCK_BYTES // (4 * (hi - lo)))
    out: list[list[SearchHit]] = []
    for start in range(0, len(queries), step):
        block = queries[start : start + step] @ rows.T
        out.extend(_hits(index, scores, k_top, lo) for scores in block)
    return out


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
    """Cursor over a file image past its magic and version; errors carry the byte offset."""

    def __init__(self, path: str, magic: bytes, version: int):
        with open(path, "rb") as f:
            self.buf = f.read()
        self.pos = 0
        self.path = path
        if (got := self.take(4, "magic")) != magic:
            raise FormatError(f"{path}: bad magic {got!r}", offset=0)
        if (got := self.u32("version")) != version:
            raise FormatError(f"{path}: unsupported version {got}", offset=4)

    def finish(self) -> None:
        """Reject bytes past the last field read."""
        if self.pos != len(self.buf):
            extra = len(self.buf) - self.pos
            raise FormatError(f"{self.path}: {extra} bytes of trailing data", offset=self.pos)

    def skip(self, n: int, what: str) -> int:
        """Move past the next n bytes and return where they start."""
        if self.pos + n > len(self.buf):
            raise FormatError(f"{self.path}: truncated while reading {what}", offset=self.pos)
        self.pos += n
        return self.pos - n

    def take(self, n: int, what: str) -> bytes:
        start = self.skip(n, what)
        return self.buf[start : self.pos]

    def u8(self, what: str) -> int:
        return self.take(1, what)[0]

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def u64(self, what: str) -> int:
        return struct.unpack("<Q", self.take(8, what))[0]

    def array(self, dtype, count: int, what: str) -> np.ndarray:
        start = self.skip(int(count) * dtype.itemsize, what)
        return np.frombuffer(self.buf, dtype=dtype, count=int(count), offset=start).copy()


def save_index(index: PhraseIndex, path: str) -> None:
    parts = [
        MAGIC,
        struct.pack("<I", VERSION),
        struct.pack("<B", KIND_DENSE if index.kind == "dense" else KIND_SPARSE),
        struct.pack("<I", index.dim),
        struct.pack("<Q", len(index)),
        index.metadata.tobytes(),
    ]
    if index.kind == "dense":
        parts.append(np.ascontiguousarray(index.vectors, dtype="<f4").tobytes())
    else:
        terms = index.idf.vocab
        parts.append(struct.pack("<QQ", len(terms), index.idf.num_documents))
        for term in terms:
            raw = term.encode("utf-8")
            parts.append(struct.pack("<IH", index.idf.df[term], len(raw)))
            parts.append(raw)
        empty = (np.empty(0, dtype="<u8"), np.empty(0, dtype="<f4"))
        for term_id in range(len(terms)):
            ords, ws = index.postings.get(term_id, empty)
            parts.append(struct.pack("<Q", len(ords)))
            group = np.zeros(len(ords), dtype=[("o", "<u8"), ("w", "<f4")])
            group["o"], group["w"] = ords, ws
            parts.append(group.tobytes())
    with open(path, "wb") as f:
        f.write(b"".join(parts))


def _first_bad(*checks: tuple[np.ndarray, str]) -> tuple[int, str] | None:
    """Position of the first True in the first mask holding one, with its message."""
    for bad, problem in checks:
        if bad.any():
            return int(bad.argmax()), problem
    return None


def load_index(path: str) -> PhraseIndex:
    """Read an index file, rejecting what would break a search later.

    Metadata must be strictly increasing on (doc_id, s, e) with s <= e, floats
    finite, and each term's posting ordinals strictly increasing and in range.
    """
    r = _Reader(path, MAGIC, VERSION)
    kind = r.u8("kind")
    if kind not in (KIND_DENSE, KIND_SPARSE):
        raise FormatError(f"{path}: unknown kind byte {kind}", offset=8)
    dim = r.u32("dim")
    count = r.u64("count")
    meta_at = r.pos
    metadata = r.array(METADATA_DTYPE, count, "metadata")
    key = metadata["doc_id"].astype(np.uint64) << np.uint64(32)
    key |= metadata["s"].astype(np.uint64) << np.uint64(16)
    key |= metadata["e"]
    found = _first_bad(
        (metadata["s"] > metadata["e"], "starts after it ends"),
        (np.r_[False, key[1:] <= key[:-1]], "is not after the one before in (doc_id, s, e)"),
    )
    if found:
        i, problem = found
        raise FormatError(
            f"{path}: metadata record {i} {problem}", offset=meta_at + i * METADATA_DTYPE.itemsize
        )

    if kind == KIND_DENSE:
        at = r.pos
        vectors = r.array(np.dtype("<f4"), count * dim, "vectors").reshape(count, dim)
        finite = np.isfinite(vectors).all(axis=1)
        if not finite.all():
            row = int(finite.argmin())
            raise FormatError(f"{path}: vector row {row} is not finite", offset=at)
        index = PhraseIndex("dense", metadata, vectors=vectors)
    else:
        num_terms = r.u64("term count")
        num_docs = r.u64("document count")
        df: dict[str, int] = {}
        for i in range(num_terms):
            at = r.pos
            term_df = r.u32(f"df of term {i}")
            length = struct.unpack("<H", r.take(2, f"length of term {i}"))[0]
            raw = r.take(length, f"term {i}")
            try:
                term = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(f"{path}: term {i} is not valid utf-8", offset=at) from exc
            df[term] = term_df
        group_dtype = np.dtype([("o", "<u8"), ("w", "<f4")])
        group_at, groups = [], []
        for term_id in range(num_terms):
            group_at.append(r.pos)
            n = r.u64(f"posting count of term {term_id}")
            groups.append(r.array(group_dtype, n, f"postings of term {term_id}"))
        sizes = np.array([len(g) for g in groups], dtype=np.int64)
        ends = np.cumsum(sizes)
        ords, ws = (
            np.concatenate([g[f] for g in groups] or [np.empty(0, group_dtype[f])]) for f in "ow"
        )
        falling = np.r_[False, ords[1:] <= ords[:-1]]
        falling[ends[sizes > 0][:-1]] = False  # each term starts its own run
        found = _first_bad(
            (ords >= count, "reference an ordinal beyond the index"),
            (falling, "are not strictly increasing"),
            (~np.isfinite(ws), "hold a non-finite weight"),
        )
        if found:
            term_id = int(np.searchsorted(ends, found[0], side="right"))
            raise FormatError(
                f"{path}: postings of term {term_id} {found[1]}", offset=group_at[term_id]
            )
        runs = enumerate(zip(sizes.tolist(), ends.tolist()))
        postings = {t: (ords[e - n : e], ws[e - n : e]) for t, (n, e) in runs if n}
        index = PhraseIndex(
            "sparse", metadata, postings=postings, idf=IdfTable(df=df, num_documents=num_docs)
        )
    r.finish()
    return index
