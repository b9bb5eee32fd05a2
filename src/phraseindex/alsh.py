"""Approximate maximum-inner-product search via asymmetric LSH.

Sign-ALSH construction: data vectors are shrunk into the unit ball and
augmented with norm-correction terms, queries are normalized and padded
with zeros, and both sides are hashed by sign bits of shared random
hyperplanes. Bucket collisions propose candidates; the proposals are then
re-scored exactly against the original vectors, so approximation can only
lose recall, never corrupt scores.

The index holds each candidate's code in every table, the layout of the
file, and derives each table's buckets from its codes when it is built or
loaded: as in an inverted-file index, the distinct codes in ascending order,
CSR bounds into one ordinal array, and the ordinals of each bucket in
ascending order. A lookup is one binary search.

File format (all integers little-endian):

    magic "PQAH" | version u32=3 | m u32 | U f64 | bits u32 | tables u32
    | seed i64 | max_norm f64 | augmented dim u32 | rows u64
    | tables x bits x augmented dim float64 hyperplanes
    | tables x rows codes, table by table in candidate order, each below
      2**bits, in the narrowest unsigned integer that holds bits bits
      (u16 at the default 12)
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, FormatError
from .index import PhraseIndex, SearchHit, _half_products, _Reader, _row_scores, _top_k, _write

MAGIC = b"PQAH"
VERSION = 3
HEADER_DTYPE = np.dtype([("m", "<u4"), ("U", "<f8"), ("bits", "<u4"), ("tables", "<u4"),
                         ("seed", "<i8"), ("max_norm", "<f8"), ("aug_dim", "<u4"),
                         ("rows", "<u8")])


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


class BucketTable(Mapping):
    """Read-only code -> ascending ordinals map over three flat arrays.

    ``codes`` (u64, strictly increasing) names the non-empty buckets, and
    bucket i holds ``ordinals[indptr[i]:indptr[i + 1]]`` (u32). Lookups are
    binary searches; ``len()`` is the bucket count.
    """

    __slots__ = ("codes", "indptr", "ordinals")

    def __init__(self, codes: np.ndarray, indptr: np.ndarray, ordinals: np.ndarray):
        for arr in (codes, indptr, ordinals):
            arr.flags.writeable = False
        self.codes = codes
        self.indptr = indptr
        self.ordinals = ordinals

    def get(self, code, default=None):
        try:
            key = np.uint64(code)
        except (OverflowError, TypeError, ValueError):
            return default
        i = int(self.codes.searchsorted(key))
        if i == len(self.codes) or self.codes[i] != code:
            return default
        return self.ordinals[self.indptr[i] : self.indptr[i + 1]]

    def __getitem__(self, code) -> np.ndarray:
        ords = self.get(code)
        if ords is None:
            raise KeyError(code)
        return ords

    def __iter__(self) -> Iterator[int]:
        return iter(self.codes.tolist())

    def __len__(self) -> int:
        return len(self.codes)


def _code_dtype(bits: int) -> np.dtype:
    """The narrowest unsigned type that holds bits bits, little-endian: u16 at 12."""
    return np.dtype(np.min_scalar_type((1 << bits) - 1)).newbyteorder("<")


@dataclass
class AlshIndex:
    params: AlshParams
    max_norm: float
    hyperplanes: np.ndarray  # (T, b, dim + m) float64, unit rows
    codes: np.ndarray  # (T, count) hash codes of every candidate, in _code_dtype(b)
    backing: PhraseIndex
    buckets: list[BucketTable] = field(init=False)  # one per hash table

    def __post_init__(self):
        # A stable argsort of a table's codes groups its buckets in code order,
        # each bucket's ordinals ascending.
        n = self.codes.shape[1]
        self.buckets = []
        for row in self.codes:
            order = np.argsort(row, kind="stable")
            sorted_codes = row[order]
            first = np.ones(n, dtype=bool)
            first[1:] = sorted_codes[1:] != sorted_codes[:-1]
            starts = np.flatnonzero(first)
            self.buckets.append(
                BucketTable(
                    sorted_codes[starts].astype(np.uint64),
                    np.append(starts, n).astype(np.uint64),
                    order.astype(np.uint32),
                )
            )


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
# _HASH_CHUNK_BYTES // (8 max(dim + m, t b)) rows and at most four such
# temporaries are live at once. Freed temporaries below malloc's mmap
# threshold stay resident, so small chunks keep the heap's high-water mark small.
_HASH_CHUNK_BYTES = 2 << 20


def build_alsh(index: PhraseIndex, params: AlshParams = AlshParams()) -> AlshIndex:
    """Hash every stored vector of a dense index into T bucket tables."""
    if index.kind != "dense":
        raise ValueError("aLSH requires a dense index")
    params.validate()
    n = len(index)
    t, b, m = params.tables, params.bits_per_table, params.m
    aug_dim = index.dim + m

    step = max(1, _HASH_CHUNK_BYTES // (8 * max(aug_dim, t * b)))
    chunks = [(start, min(n, start + step)) for start in range(0, n, step)]
    # Row norms do not depend on the chunking.
    chunk_norms = (
        np.linalg.norm(index.rows(slice(lo, hi)).astype(np.float64), axis=1) for lo, hi in chunks
    )
    top = np.max([norms.max() for norms in chunk_norms], initial=0.0)
    max_norm = float(top) if top > 0 else 1.0

    rng = np.random.Generator(np.random.Philox(key=params.seed))
    hyperplanes = rng.normal(size=(t, b, aug_dim))
    hyperplanes /= np.linalg.norm(hyperplanes, axis=2, keepdims=True)

    codes = np.empty((t, n), dtype=_code_dtype(b))
    flat = hyperplanes.reshape(t * b, aug_dim)
    scale = params.U / max_norm
    for start, stop in chunks:
        scaled = index.rows(slice(start, stop)).astype(np.float64)
        scaled *= scale
        aug = np.concatenate([scaled, _norm_terms((scaled * scaled).sum(axis=1), m)], axis=1)
        proj = aug @ flat.T
        codes[:, start:stop] = _pack_codes(proj.reshape(stop - start, t, b), b).T
    return AlshIndex(params, max_norm, hyperplanes, codes, index)


def _distinct(parts: list[np.ndarray]) -> np.ndarray:
    """Sorted distinct ordinals of the buckets as int64: np.unique of their concatenation."""
    ordinals = np.concatenate(parts, dtype=np.int64)
    ordinals.sort()
    first = np.empty(len(ordinals), dtype=bool)
    first[:1] = True
    np.not_equal(ordinals[1:], ordinals[:-1], out=first[1:])
    return ordinals[first]


def search_approx(
    alsh: AlshIndex,
    query: np.ndarray,
    k_top: int = 1,
    doc_id: int | None = None,
) -> tuple[list[SearchHit], int]:
    """Gather the query's bucket from every table, re-score exactly.

    Returns the hits plus the probe count (candidates re-scored after
    deduplication and any document restriction).
    """
    if k_top < 1:
        raise ValueError("k_top must be >= 1")
    index = alsh.backing
    q = np.asarray(query, dtype=np.float64)
    if q.ndim != 1 or q.shape[0] != index.dim:
        raise ValueError(f"query dim {q.shape} does not match index dim {index.dim}")
    q_aug = preprocess_query(q, alsh.params.m)

    t, b, aug_dim = alsh.hyperplanes.shape
    codes = _pack_codes((alsh.hyperplanes.reshape(t * b, aug_dim) @ q_aug).reshape(t, b), b)
    found = (table.get(code) for table, code in zip(alsh.buckets, codes))
    parts = [hit for hit in found if hit is not None]
    if not parts:
        return [], 0
    gathered = _distinct(parts)
    if doc_id is not None:
        lo, hi = index.doc_range(doc_id)
        gathered = gathered[(gathered >= lo) & (gathered < hi)]
    if len(gathered) == 0:
        return [], 0

    # Scored as search_exact scores: when every row is probed, the scores are its scores.
    halves = np.hsplit(q.astype(np.float32)[None], [index.dim // 2])
    scores = _row_scores(_half_products(index, halves, index.table_ids[:, gathered]))[:, 0]
    picked = _top_k(scores, min(k_top, len(gathered)))
    hits = [
        SearchHit(index.span(int(gathered[i])), float(scores[i])) for i in picked
    ]
    return hits, int(len(gathered))


def save_alsh(alsh: AlshIndex, path: str) -> None:
    p, aug_dim, rows = alsh.params, alsh.hyperplanes.shape[2], alsh.codes.shape[1]
    header = (p.m, p.U, p.bits_per_table, p.tables, p.seed, alsh.max_norm, aug_dim, rows)
    parts = [
        np.array(header, HEADER_DTYPE),
        np.ascontiguousarray(alsh.hyperplanes, "<f8"),
        np.ascontiguousarray(alsh.codes, _code_dtype(p.bits_per_table)),
    ]
    _write(path, MAGIC, VERSION, parts)


def load_alsh(path: str, backing: PhraseIndex) -> AlshIndex:
    with _Reader(path, MAGIC, VERSION) as r:
        m, U, bits, tables, seed, max_norm, aug_dim, rows = r.record(HEADER_DTYPE, "header")
        params = AlshParams(m=m, U=U, bits_per_table=bits, tables=tables, seed=seed)
        try:
            params.validate()
        except ConfigError as err:
            raise FormatError(f"{path}: {err}", offset=8) from None
        if not 0 < max_norm < np.inf:  # false for NaN too
            raise FormatError(f"{path}: max_norm {max_norm} is not finite and positive", offset=36)
        if backing.kind != "dense" or aug_dim != backing.dim + m:
            raise FormatError(
                f"{path}: augmented dim {aug_dim} does not fit backing index "
                f"(dim {backing.dim} + m {m})",
                offset=44,
            )
        if rows != len(backing):
            raise FormatError(
                f"{path}: {rows} rows do not match the backing index's {len(backing)}", offset=48
            )
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
