"""Approximate maximum-inner-product search via asymmetric LSH over word-table rows.

A dense index scores span i as q_s . start[i] + q_e . end[i] (index.py), its
two halves indexing one word table, so the table's rows are hashed, not the
spans, scaled by the table's largest row norm. Sign-ALSH: rows are shrunk
into the unit ball and augmented with norm terms, each question half is
normalized and padded with zeros, and both sides are hashed by sign bits of
shared random hyperplanes as wide as a table row (plus m). A search re-scores
exactly every span whose start row shares a bucket with q_s or whose end row
shares one with q_e, so approximation can only lose recall, never corrupt
scores.

The index holds each table row's code in every hash table, as the file does,
and derives the buckets (AlshIndex) from them when it is built or loaded.

File format (all integers little-endian):

    magic "PQAH" | version u32=5 | m u32 | U f64 | bits u32 | tables u32
    | seed i64 | augmented dim u32 | word-table rows R u64 | max norm f64
    | tables x bits x augmented dim float64 hyperplanes | tables x R codes,
    each below 2**bits, in the narrowest unsigned integer that holds bits
    bits (u16 at 12)
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, FormatError
from .index import PhraseIndex, SearchHit, _half_products, _Reader, _row_scores, _top_k, _write

MAGIC = b"PQAH"
VERSION = 5
HEADER_DTYPE = np.dtype([("m", "<u4"), ("U", "<f8"), ("bits", "<u4"), ("tables", "<u4"),
                         ("seed", "<i8"), ("aug_dim", "<u4"), ("rows", "<u8"),
                         ("max_norm", "<f8")])


@dataclass(frozen=True)
class AlshParams:
    m: int = 2  # norm-correction terms appended to data vectors
    U: float = 0.75  # shrink factor; data norms end up <= U < 1
    bits_per_table: int = 12
    tables: int = 32
    seed: int = 0

    def validate(self) -> None:
        if self.m < 0:
            raise ConfigError(f"m must be >= 0, got {self.m}")
        if not 0.0 < self.U <= 1.0:
            raise ConfigError(f"U must be in (0, 1], got {self.U}")
        if not 0 <= self.bits_per_table <= 64:
            raise ConfigError(
                f"bits_per_table must be in [0, 64] (codes are one machine word), "
                f"got {self.bits_per_table}"
            )
        if self.tables < 1:
            raise ConfigError(f"tables must be >= 1, got {self.tables}")
        if self.bits_per_table + (self.tables - 1).bit_length() > 64:
            raise ConfigError(
                f"bits_per_table {self.bits_per_table} and {self.tables} tables do not fit a "
                f"bucket key, table << bits | code, in 64 bits"
            )


def _code_dtype(bits: int) -> np.dtype:
    """The narrowest unsigned type that holds bits bits, little-endian: u16 at 12."""
    return np.dtype(np.min_scalar_type((1 << bits) - 1)).newbyteorder("<")


@dataclass
class AlshIndex:
    params: AlshParams
    max_norm: float  # the word table's largest row norm (1.0 if none)
    hyperplanes: np.ndarray  # (T, b, dim - dim // 2 + m) float64, unit rows
    codes: np.ndarray  # (T, table rows) hash codes of every table row, in _code_dtype(b)
    backing: PhraseIndex
    # The buckets of every table, read-only: bucket i holds the u32 table rows
    # rows[indptr[i]:indptr[i + 1]], ascending, and is keyed by keys[i]
    # (u64, table << b | code, strictly increasing).
    keys: np.ndarray = field(init=False)
    indptr: np.ndarray = field(init=False)
    rows: np.ndarray = field(init=False)
    # Per half h (start, end), read-only: the spans whose half-h table row is
    # r are spans[h, span_ptr[h, r]:span_ptr[h, r + 1]] (u32, ascending).
    span_ptr: np.ndarray = field(init=False)
    spans: np.ndarray = field(init=False)

    def __post_init__(self):
        # A stable argsort of a table's codes groups its buckets in code order,
        # each bucket's rows ascending. The first pass sorts and counts the
        # buckets, so that the second writes the keys and bounds in place and
        # no more than one table's temporaries are live beside the result.
        t, n = self.codes.shape
        rows = np.empty((t, n), dtype=np.uint32)
        first = np.empty(n, dtype=bool)
        counts = []
        for row, order in zip(self.codes, rows):
            order[:] = np.argsort(row, kind="stable")
            counts.append(int(np.count_nonzero(_mark_runs(row.take(order), first))))
        self.keys = np.empty(sum(counts), dtype=np.uint64)
        self.indptr = np.full(len(self.keys) + 1, t * n, dtype=np.int64)
        table_keys = _table_keys(t, self.params.bits_per_table)
        stops = np.cumsum(counts)
        for table, (row, order, stop) in enumerate(zip(self.codes, rows, stops)):
            sorted_codes = row.take(order)
            starts = np.flatnonzero(_mark_runs(sorted_codes, first))
            at = slice(stop - len(starts), stop)
            np.bitwise_or(sorted_codes[starts], table_keys[table], out=self.keys[at])
            np.add(starts, table * n, out=self.indptr[at])
        self.rows = rows.reshape(t * n)
        # The row -> span CSRs; a canonical start half's argsort is the identity.
        ids = self.backing.table_ids
        self.spans = np.argsort(ids, axis=1, kind="stable").astype(np.uint32)
        self.span_ptr = np.zeros((2, n + 1), dtype=np.int64)
        for half, ptr in zip(ids, self.span_ptr):
            np.cumsum(np.bincount(half, minlength=n), out=ptr[1:])
        for arr in (self.keys, self.indptr, self.rows, self.span_ptr, self.spans):
            arr.flags.writeable = False

    @property
    def buckets(self) -> list[np.ndarray]:
        """Each table's bucket keys, a view of keys: its length is the bucket count."""
        t, b = self.params.tables, self.params.bits_per_table
        return np.split(self.keys, self.keys.searchsorted(_table_keys(t, b)[1:]))


def _mark_runs(values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Sets out[i] where sorted values[i] starts a run of equal values; returns out."""
    out[:1] = True
    np.not_equal(values[1:], values[:-1], out=out[1:])
    return out


def _table_keys(t: int, b: int) -> np.ndarray:
    """The key of code 0 in each of t tables, table << b as u64 (0 when b is 64)."""
    return np.arange(t, dtype=np.uint64) << np.uint64(b)


def _norm_terms(sq_norms: np.ndarray, m: int) -> np.ndarray:
    """Columns 1/2 - ||x'||^(2^i) for i = 1..m, from squared norms."""
    cols = np.empty(sq_norms.shape + (m,), dtype=np.float64)
    power = np.asarray(sq_norms, dtype=np.float64).copy()
    for i in range(m):
        cols[..., i] = 0.5 - power
        power = power * power
    return cols


def preprocess_query(q: np.ndarray, m: int = 2) -> np.ndarray:
    """Normalize a query vector and pad with m zeros.

    A zero vector stays zero, so it hashes to code 0 in every table.
    """
    q = np.asarray(q, dtype=np.float64)
    norm = float(np.linalg.norm(q))
    if norm:
        q = q / norm
    return np.concatenate([q, np.zeros(m)])


def _pack_codes(projections: np.ndarray, bits: int) -> np.ndarray:
    """Sign-bit hash codes from a (rows, bits) projection block."""
    on = (projections > 0).astype(np.uint64)
    on <<= np.arange(bits, dtype=np.uint64)
    return on.sum(axis=-1, dtype=np.uint64)


# Budget of each temporary of build_alsh's hashing: the rows of a chunk are
# cast to float64, scaled, augmented and projected on all t x b hyperplanes,
# and _pack_codes takes a uint64 copy of the projection, so a chunk holds
# _HASH_CHUNK_BYTES // (8 max(aug_dim, t b)) rows and at most four such
# temporaries are live at once. Freed temporaries below malloc's mmap
# threshold stay resident, so small chunks keep the heap's high-water mark small.
_HASH_CHUNK_BYTES = 2 << 20


def build_alsh(index: PhraseIndex, params: AlshParams = AlshParams()) -> AlshIndex:
    """Hash the rows of a dense index's word table into T bucket tables."""
    if index.kind != "dense":
        raise ValueError("aLSH requires a dense index")
    params.validate()
    t, b, m = params.tables, params.bits_per_table, params.m
    table = index.table
    aug_dim = table.shape[1] + m

    rng = np.random.Generator(np.random.Philox(key=params.seed))
    hyperplanes = rng.normal(size=(t, b, aug_dim))
    hyperplanes /= np.linalg.norm(hyperplanes, axis=2, keepdims=True)

    codes = np.empty((t, len(table)), dtype=_code_dtype(b))
    flat = hyperplanes.reshape(t * b, aug_dim)
    step = max(1, _HASH_CHUNK_BYTES // (8 * max(aug_dim, t * b)))
    chunks = [(a, min(len(table), a + step)) for a in range(0, len(table), step)]
    # Row norms do not depend on the chunking.
    top = max((np.linalg.norm(table[a:z].astype(np.float64), axis=1).max()
               for a, z in chunks), default=0.0)
    max_norm = float(top) or 1.0
    for a, z in chunks:
        # [row x U / max norm, norm terms]
        scaled = table[a:z].astype(np.float64)
        scaled *= params.U / max_norm
        aug = np.hstack([scaled, _norm_terms(np.square(scaled).sum(axis=1), m)])
        codes[:, a:z] = _pack_codes((aug @ flat.T).reshape(z - a, t, b), b).T
    return AlshIndex(params, max_norm, hyperplanes, codes, index)


def _gather(values: np.ndarray, ptr: np.ndarray, at: np.ndarray) -> np.ndarray:
    """The CSR runs values[ptr[i]:ptr[i + 1]] of every i in at, concatenated."""
    starts = ptr[at]
    lengths = ptr[at + 1] - starts
    shift = np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
    return values[shift + np.arange(len(shift))]


def search_approx(
    alsh: AlshIndex,
    query: np.ndarray,
    k_top: int = 1,
    doc_id: int | None = None,
) -> tuple[list[SearchHit], int]:
    """Probe every table with each question half, re-score the spans exactly.

    Returns the hits plus the probe count: the spans re-scored, each span
    whose start row shares a bucket with q_s or whose end row shares one
    with q_e, within doc_id's spans when one is given.
    """
    if k_top < 1:
        raise ValueError("k_top must be >= 1")
    index = alsh.backing
    q = np.asarray(query, dtype=np.float64)
    if q.ndim != 1 or q.shape[0] != index.dim:
        raise ValueError(f"query dim {q.shape} does not match index dim {index.dim}")

    t, b, aug_dim = alsh.hyperplanes.shape
    q_aug = np.zeros((2, aug_dim))
    for row, half in zip(q_aug, np.hsplit(q, [index.dim // 2])):
        row[: len(half) + alsh.params.m] = preprocess_query(half, alsh.params.m)
    projections = q_aug @ alsh.hyperplanes.reshape(t * b, aug_dim).T
    keys = _pack_codes(projections.reshape(2, t, b), b) | _table_keys(t, b)
    left = alsh.keys.searchsorted(keys)
    found = left < alsh.keys.searchsorted(keys, "right")
    probed = np.zeros(len(index), dtype=bool)
    for h in range(2):  # q_s's buckets to start rows, q_e's to end rows, to their spans
        rows = _gather(alsh.rows, alsh.indptr, left[h][found[h]])
        probed[_gather(alsh.spans[h], alsh.span_ptr[h], rows)] = True
    lo, hi = (0, len(index)) if doc_id is None else index.doc_range(doc_id)
    gathered = np.flatnonzero(probed[lo:hi]) + lo
    if len(gathered) == 0:
        return [], 0

    # Scored as search_exact scores: when every row is probed, the scores are its scores.
    halves = np.hsplit(q.astype(np.float32)[None], [index.dim // 2])
    scores = _row_scores(_half_products(index, halves, index.table_ids[:, gathered]))[:, 0]
    picked = _top_k(scores, min(k_top, len(gathered)))
    hits = [SearchHit(index.span(int(gathered[i])), float(scores[i])) for i in picked]
    return hits, int(len(gathered))


def save_alsh(alsh: AlshIndex, path: str) -> None:
    p, aug_dim = alsh.params, alsh.hyperplanes.shape[2]
    header = (p.m, p.U, p.bits_per_table, p.tables, p.seed, aug_dim, len(alsh.backing.table),
              alsh.max_norm)
    parts = [
        np.array(header, HEADER_DTYPE),
        np.ascontiguousarray(alsh.hyperplanes, "<f8"),
        np.ascontiguousarray(alsh.codes, _code_dtype(p.bits_per_table)),
    ]
    _write(path, MAGIC, VERSION, parts)


def load_alsh(path: str, backing: PhraseIndex) -> AlshIndex:
    with _Reader(path, MAGIC, VERSION) as r:
        m, U, bits, tables, seed, aug_dim, rows, max_norm = r.record(HEADER_DTYPE, "header")
        params = AlshParams(m=m, U=U, bits_per_table=bits, tables=tables, seed=seed)
        try:
            params.validate()
        except ConfigError as err:
            raise FormatError(f"{path}: {err}", offset=8) from None
        if backing.kind != "dense" or aug_dim != backing.dim - backing.dim // 2 + m:
            raise FormatError(f"{path}: augmented dim {aug_dim} does not fit backing index (its "
                              f"wider half {backing.dim - backing.dim // 2} + m {m})", offset=36)
        if rows != len(backing.table):
            raise FormatError(f"{path}: {rows} hashed rows; the backing index's table has "
                              f"{len(backing.table)}", offset=40)
        if not 0 < max_norm < np.inf:  # false for NaN too
            raise FormatError(f"{path}: max_norm {max_norm} is not finite and positive", offset=48)
        planes = r.array("<f8", tables * bits * aug_dim, "hyperplanes")
        if not np.isfinite(planes).all():
            raise FormatError(f"{path}: hyperplanes are not finite", offset=r.pos - planes.nbytes)
        codes = r.array(_code_dtype(bits), tables * rows, "codes")
        wide = np.flatnonzero(codes > (1 << bits) - 1)
        if len(wide):
            i = int(wide[0])
            raise FormatError(
                f"{path}: code {codes[i]} of table {i // rows} is wider than {bits} bits",
                offset=r.pos - codes.nbytes + i * codes.itemsize,
            )
        r.finish()
        return AlshIndex(
            params, max_norm, planes.reshape(tables, bits, aug_dim),
            codes.reshape(tables, rows), backing,
        )
