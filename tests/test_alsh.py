import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from phraseindex import alsh as alsh_module
from phraseindex.alsh import (
    AlshParams,
    _norm_terms,
    _pack_codes,
    build_alsh,
    load_alsh,
    preprocess_query,
    save_alsh,
    search_approx,
)
from phraseindex.errors import ConfigError, FormatError
from phraseindex.index import METADATA_DTYPE, search_exact

from .oracles import alsh_probe_search, preprocess_data, vectors_index
from .test_index import make_meta, quantized, sparse_fixture


def dense_fixture(n=120, dim=12, seed=77):
    return vectors_index(make_meta([n]), quantized((n, dim), seed))


def shared_fixture(docs=(9, 6), half=3, seed=5):
    """An index shaped as an encoder builds one: span (s, e) of a document with
    words W is [W[s], W[e]], spans of up to 3 words, and no two words alike
    (column 0 counts them), so both halves of a word use one table row."""
    meta, rows, base = [], [], 0
    words = quantized((sum(docs), half), seed)
    words[:, 0] = np.arange(len(words)) / 16
    for doc_id, n in enumerate(docs):
        for s in range(n):
            for e in range(s, min(s + 3, n)):
                meta.append((doc_id, s, e))
                rows.append(np.concatenate([words[base + s], words[base + e]]))
        base += n
    vectors = np.array(rows, dtype=np.float32).reshape(len(rows), 2 * half)
    index = vectors_index(np.array(meta, dtype=METADATA_DTYPE), vectors)
    assert len(index.table) == sum(docs)
    return index


def bucket_dicts(alsh):
    """The index's buckets as one code -> hashed rows dict per table, read off its keys."""
    b = alsh.params.bits_per_table
    tables = [{} for _ in range(alsh.params.tables)]
    for i, key in enumerate(alsh.keys.tolist()):
        tables[key >> b][key & ((1 << b) - 1)] = alsh.rows[alsh.indptr[i] : alsh.indptr[i + 1]]
    return tables


def table_norm(index):
    """The word table's largest row norm."""
    return float(np.linalg.norm(index.table.astype(np.float64), axis=1).max())


# ------------------------------------------------------------- preprocessing


def test_preprocess_data_worked_example():
    out = preprocess_data(np.array([3.0, 4.0]), max_norm=5.0, U=0.75, m=2)
    np.testing.assert_allclose(
        out, [0.45, 0.6, 0.5 - 0.5625, 0.5 - 0.31640625], rtol=1e-12, atol=0
    )


def test_preprocess_data_zero_vector_gets_constant_terms():
    out = preprocess_data(np.zeros(3), max_norm=2.0, U=0.75, m=2)
    np.testing.assert_array_equal(out, [0.0, 0.0, 0.0, 0.5, 0.5])


def test_preprocess_data_m_zero_is_pure_scaling():
    out = preprocess_data(np.array([1.0, -2.0]), max_norm=4.0, U=0.5, m=0)
    np.testing.assert_allclose(out, [0.125, -0.25], rtol=1e-15)
    assert out.shape == (2,)


def test_preprocess_data_validation():
    with pytest.raises(ValueError, match="max_norm"):
        preprocess_data(np.ones(2), max_norm=0.0)
    with pytest.raises(ValueError, match="exceeds"):
        preprocess_data(np.array([3.0, 4.0]), max_norm=4.0)


def test_preprocess_query_normalizes_and_pads():
    np.testing.assert_allclose(preprocess_query(np.array([0.0, 2.0]), m=1), [0.0, 1.0, 0.0])
    np.testing.assert_allclose(preprocess_query(np.array([5.0]), m=0), [1.0])
    # A zero vector is padded, not divided: it hashes to code 0 in every table.
    np.testing.assert_array_equal(preprocess_query(np.zeros(4)), np.zeros(6))


def test_transformed_similarity_is_monotone_for_fixed_norm_data():
    """Among equal-norm data points, hash-space cosine follows the inner product."""
    rng = np.random.Generator(np.random.Philox(key=5))
    q = rng.normal(size=8)
    data = rng.normal(size=(40, 8))
    data = 3.0 * data / np.linalg.norm(data, axis=1, keepdims=True)
    q_aug = preprocess_query(q, m=2)
    cosines, raw = [], []
    for x in data:
        x_aug = preprocess_data(x, max_norm=3.0, U=0.75, m=2)
        cosines.append(float(q_aug @ x_aug) / float(np.linalg.norm(x_aug)))
        raw.append(float(q @ x))
    assert np.array_equal(np.argsort(cosines), np.argsort(raw))


# ------------------------------------------------------------------ building


def test_params_validation():
    AlshParams().validate()
    AlshParams(bits_per_table=0).validate()
    AlshParams(bits_per_table=64, tables=1).validate()
    AlshParams(bits_per_table=59, tables=32).validate()
    for bad in (
        AlshParams(m=-1),
        AlshParams(U=0.0),
        AlshParams(U=1.5),
        AlshParams(bits_per_table=65, tables=1),
        AlshParams(tables=0),
        AlshParams(bits_per_table=64, tables=2),
        AlshParams(bits_per_table=60, tables=32),
    ):
        with pytest.raises(ConfigError):
            bad.validate()


def test_build_requires_dense_index():
    index, _ = sparse_fixture()
    with pytest.raises(ValueError, match="dense"):
        build_alsh(index)


def test_buckets_partition_every_table():
    dense = dense_fixture()
    alsh = build_alsh(dense, AlshParams(bits_per_table=3, tables=4, seed=9))
    hashed = len(dense.table)  # start halves at rows 0-119, end halves at 120-239
    assert alsh.codes.shape == (4, hashed) == (4, 240)
    assert alsh.max_norm == table_norm(dense)
    np.testing.assert_allclose(np.linalg.norm(alsh.hyperplanes, axis=2), 1.0, rtol=1e-12)
    assert alsh.keys.dtype == np.uint64 and alsh.rows.dtype == np.uint32
    assert np.all(alsh.keys[1:] > alsh.keys[:-1])
    assert alsh.indptr[0] == 0 and alsh.indptr[-1] == 4 * hashed
    derived = (alsh.keys, alsh.indptr, alsh.rows, alsh.span_ptr, alsh.spans)
    assert not any(a.flags.writeable for a in derived)
    for ti, (table, keys) in enumerate(zip(bucket_dicts(alsh), alsh.buckets)):
        np.testing.assert_array_equal(keys >> np.uint64(3), ti)  # the table's view of keys
        assert len(keys) == len(table)
        members = np.sort(np.concatenate(list(table.values())))
        np.testing.assert_array_equal(members, np.arange(hashed, dtype=np.uint64))
        for code, ords in table.items():
            assert 0 <= code < 2**3
            assert np.all(np.diff(ords.astype(np.int64)) > 0)  # ascending, unique


def test_build_is_seed_deterministic():
    dense = dense_fixture()
    a = build_alsh(dense, AlshParams(seed=4, tables=3))
    b = build_alsh(dense, AlshParams(seed=4, tables=3))
    c = build_alsh(dense, AlshParams(seed=5, tables=3))
    assert np.array_equal(a.hyperplanes, b.hyperplanes)
    for name in ("keys", "indptr", "rows"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert not np.array_equal(a.hyperplanes, c.hyperplanes)


def test_build_empty_index():
    empty = vectors_index(np.zeros(0, dtype=METADATA_DTYPE), np.zeros((0, 4), dtype=np.float32))
    alsh = build_alsh(empty, AlshParams(tables=2, bits_per_table=4))
    assert alsh.max_norm == 1.0  # an empty table has no norm to scale by
    assert [len(t) for t in alsh.buckets] == [0, 0]
    assert alsh.indptr.tolist() == [0]
    assert search_approx(alsh, np.ones(4, dtype=np.float32)) == ([], 0)


# ----------------------------------------------------------------- searching


def test_zero_bits_degenerates_to_exact_search():
    dense = dense_fixture(n=90, dim=8, seed=13)
    alsh = build_alsh(dense, AlshParams(bits_per_table=0, tables=2))
    q = quantized(8, 99)
    hits, probes = search_approx(alsh, q, k_top=7)
    assert probes == 90
    exact = search_exact(dense, q, k_top=7)
    assert [(h.span, h.score) for h in hits] == [(h.span, h.score) for h in exact]


def test_approx_scores_are_exact_for_surfaced_candidates():
    dense = dense_fixture(n=200, dim=16, seed=31)
    alsh = build_alsh(dense, AlshParams(bits_per_table=6, tables=8, seed=2))
    by_span = {dense.span(i): i for i in range(len(dense))}
    for qseed in range(5):
        q = quantized(16, 700 + qseed)
        hits, probes = search_approx(alsh, q, k_top=5)
        assert 0 < probes <= len(dense)
        assert len(hits) <= 5
        scores = [h.score for h in hits]
        assert scores == sorted(scores, reverse=True)
        for h in hits:
            row = dense.vectors[by_span[h.span]].astype(np.float64)
            assert h.score == float(row @ q.astype(np.float64))


def test_doc_filter_restricts_probes_and_hits():
    vectors = quantized((90, 8), 41)
    dense = vectors_index(make_meta([30, 30, 30]), vectors)
    alsh = build_alsh(dense, AlshParams(bits_per_table=2, tables=6, seed=3))
    hits, probes = search_approx(alsh, quantized(8, 42), k_top=10, doc_id=1)
    assert probes <= 30
    assert all(h.span.doc_id == 1 for h in hits)


def test_search_validation():
    dense = dense_fixture(n=10, dim=4)
    alsh = build_alsh(dense, AlshParams(tables=1, bits_per_table=2))
    with pytest.raises(ValueError):
        search_approx(alsh, np.ones(9))
    with pytest.raises(ValueError):
        search_approx(alsh, np.ones(4), k_top=0)


def test_zero_query_rescores_the_code_zero_buckets():
    """Both halves of a zero question probe bucket 0 of every table: the spans
    whose start row or end row (the rows after the start rows) is in one.
    Each probe scores 0, as in an exact search, so the hits are the lowest
    probed ordinals."""
    dense = dense_fixture(n=40, dim=6)
    alsh = build_alsh(dense, AlshParams(tables=4, bits_per_table=4))
    rows = np.unique(np.concatenate([table[0] for table in bucket_dicts(alsh) if 0 in table]))
    start, end = dense.table_ids
    probed = np.flatnonzero(np.isin(start, rows) | np.isin(end, rows))
    assert probed.tolist() == [2, 3, 7, 10, 12, 14, 15, 17, 19, 21, 24, 25, 28, 30, 33, 35, 37]
    hits, probes = search_approx(alsh, np.zeros(6), k_top=3)
    assert probes == 17
    assert [(h.span.s, h.score) for h in hits] == [(2, 0.0), (3, 0.0), (7, 0.0)]


def _recall_at_1(alsh, dense, queries):
    found = 0
    for q in queries:
        exact = search_exact(dense, q, k_top=1)[0]
        hits, _ = search_approx(alsh, q, k_top=1)
        found += bool(hits) and hits[0].span == exact.span
    return found / len(queries)


def test_more_tables_do_not_lose_recall():
    rng = np.random.Generator(np.random.Philox(key=8))
    data = rng.normal(size=(2000, 16))
    data /= np.linalg.norm(data, axis=1, keepdims=True)
    dense = vectors_index(make_meta([2000]), data.astype(np.float32))
    queries = [
        (data[i] + 0.1 * rng.normal(size=16)).astype(np.float32)
        for i in rng.integers(0, 2000, size=40)
    ]
    few = _recall_at_1(build_alsh(dense, AlshParams(bits_per_table=10, tables=8)), dense, queries)
    many = _recall_at_1(
        build_alsh(dense, AlshParams(bits_per_table=10, tables=16)), dense, queries
    )
    assert many >= few - 0.02
    assert many >= 0.8


# --------------------------------------------------------------- persistence


def test_sidecar_round_trip_is_bit_exact(tmp_path):
    """Over a table of distinct halves (an odd dim) and over one an encoder's words fill."""
    for dense in (dense_fixture(n=64, dim=7, seed=17), shared_fixture()):
        alsh = build_alsh(dense, AlshParams(bits_per_table=4, tables=3, seed=11))
        path = str(tmp_path / "x.alsh")
        save_alsh(alsh, path)
        loaded = load_alsh(path, dense)
        assert loaded.params == alsh.params
        assert loaded.max_norm == alsh.max_norm
        assert np.array_equal(loaded.hyperplanes, alsh.hyperplanes)
        assert np.array_equal(loaded.codes, alsh.codes)
        for name in ("keys", "indptr", "rows", "span_ptr", "spans"):
            assert np.array_equal(getattr(loaded, name), getattr(alsh, name)), name
        path2 = tmp_path / "y.alsh"
        save_alsh(loaded, str(path2))
        assert path2.read_bytes() == (tmp_path / "x.alsh").read_bytes()
        q = quantized(dense.dim, 3)
        assert search_approx(loaded, q, k_top=5) == search_approx(alsh, q, k_top=5)


def _saved(tmp_path, alsh):
    path = tmp_path / "x.alsh"
    save_alsh(alsh, str(path))
    return path, bytearray(path.read_bytes())


def test_load_rejects_bad_magic_and_version(tmp_path):
    dense = dense_fixture(n=16, dim=4)
    path, raw = _saved(tmp_path, build_alsh(dense, AlshParams(tables=1, bits_per_table=2)))
    bad = bytearray(raw)
    bad[:4] = b"WHAT"
    path.write_bytes(bad)
    with pytest.raises(FormatError, match="bad magic") as err:
        load_alsh(str(path), dense)
    assert err.value.offset == 0
    bad = bytearray(raw)
    bad[4] = 9
    path.write_bytes(bad)
    with pytest.raises(FormatError, match="version") as err:
        load_alsh(str(path), dense)
    assert err.value.offset == 4


def test_load_rejects_mismatched_backing(tmp_path):
    dense = dense_fixture(n=16, dim=4)
    path, _ = _saved(tmp_path, build_alsh(dense, AlshParams(tables=1, bits_per_table=2)))
    other = dense_fixture(n=16, dim=6)
    with pytest.raises(FormatError, match="augmented dim"):
        load_alsh(str(path), other)


def test_load_rejects_a_backing_index_of_another_size(tmp_path):
    dense = dense_fixture(n=16, dim=4)
    path, _ = _saved(tmp_path, build_alsh(dense, AlshParams(tables=1, bits_per_table=2)))
    shrunk = vectors_index(make_meta([4]), dense.vectors[:4])
    rows = len(dense.table)
    with pytest.raises(FormatError, match=f"{rows} hashed rows; the backing index's "
                                          "table has 8") as err:
        load_alsh(str(path), shrunk)
    assert err.value.offset == 40


@pytest.mark.parametrize("keep", [0, 2, 6, 20, 45, 80])
def test_load_rejects_truncation(tmp_path, keep):
    dense = dense_fixture(n=16, dim=4)
    path, raw = _saved(tmp_path, build_alsh(dense, AlshParams(tables=1, bits_per_table=2)))
    assert keep < len(raw)
    path.write_bytes(raw[:keep])
    with pytest.raises(FormatError, match="truncated"):
        load_alsh(str(path), dense)


def test_load_rejects_trailing_data(tmp_path):
    dense = dense_fixture(n=16, dim=4)
    path, raw = _saved(tmp_path, build_alsh(dense, AlshParams(tables=1, bits_per_table=2)))
    path.write_bytes(bytes(raw) + b"\x99")
    with pytest.raises(FormatError, match="trailing") as err:
        load_alsh(str(path), dense)
    assert err.value.offset == len(raw)

@pytest.mark.parametrize(
    "at, value, message",
    [
        # Table 1's code of row 21: the last 32 bytes are its codes, u8 at 3 bits.
        pytest.param(-32 + 21, np.uint8(8), "code 8 of table 1 is wider than 3 bits",
                     id="code too wide"),
        pytest.param(40, np.uint64(31), "31 hashed rows; the backing index's table has 32",
                     id="rows mismatch"),
        pytest.param(40, np.uint64(33), "33 hashed rows; the backing index's table has 32",
                     id="rows past the table"),
    ],
)
def test_load_rejects_malformed_table(tmp_path, at, value, message):
    dense = dense_fixture(n=16, dim=4)
    assert len(dense.table) == 32
    path, raw = _saved(tmp_path, build_alsh(dense, AlshParams(tables=2, bits_per_table=3)))
    at %= len(raw)
    raw[at : at + value.nbytes] = value.tobytes()
    path.write_bytes(raw)
    with pytest.raises(FormatError, match=message) as err:
        load_alsh(str(path), dense)
    assert err.value.offset == at


@pytest.mark.parametrize(
    "at, value, needle",
    [
        # bits 65 and tables 0: no hyperplanes or codes to read, yet no code type holds 65 bits.
        (20, np.uint64(65), "bits_per_table must be in \\[0, 64\\]"),
        (24, np.uint32(0), "tables must be >= 1, got 0"),
        (12, np.float64(np.nan), "U must be in \\(0, 1\\], got nan"),
        # bits 64 beside 2 tables: table 1's keys would need 65 bits.
        (20, np.uint32(64), "do not fit a bucket key, table << bits \\| code, in 64 bits"),
    ],
    ids=["bits over 64", "no tables", "U not a number", "key over 64 bits"],
)
def test_load_rejects_parameters_a_build_rejects(tmp_path, at, value, needle):
    """The header is checked as AlshParams.validate checks a build's parameters."""
    dense = dense_fixture(n=16, dim=4)
    path, raw = _saved(tmp_path, build_alsh(dense, AlshParams(tables=2, bits_per_table=3)))
    raw[at : at + value.nbytes] = value.tobytes()
    path.write_bytes(raw)
    with pytest.raises(FormatError, match=needle) as err:
        load_alsh(str(path), dense)
    assert err.value.offset == 8


def test_bucket_keys_fill_a_u64_and_no_more(tmp_path):
    """A bucket key is table << bits | code: a build whose code width plus the
    bit length of its last table number passes 64 is refused, and one that
    fills 64 bits keeps its top bit through a save and load."""
    dense = dense_fixture(n=16, dim=4)
    for bits, tables in ((64, 2), (63, 3), (33, 2**31 + 1)):
        with pytest.raises(ConfigError, match="do not fit a bucket key"):
            build_alsh(dense, AlshParams(bits_per_table=bits, tables=tables))
    widest = build_alsh(dense, AlshParams(bits_per_table=63, tables=2))
    assert (widest.buckets[1] >> np.uint64(63) == 1).all()
    path, _ = _saved(tmp_path, widest)
    loaded = load_alsh(str(path), dense)
    assert np.array_equal(loaded.keys, widest.keys)
    q = quantized(4, 5)
    assert search_approx(loaded, q, k_top=3) == search_approx(widest, q, k_top=3)


@pytest.mark.parametrize("version", [1, 2, 3, 4])
def test_load_rejects_old_versions(tmp_path, version):
    dense = dense_fixture(n=16, dim=4)
    path, raw = _saved(tmp_path, build_alsh(dense, AlshParams(tables=1, bits_per_table=2)))
    raw[4:8] = struct.pack("<I", version)
    path.write_bytes(raw)
    with pytest.raises(FormatError, match=f"unsupported version {version}") as err:
        load_alsh(str(path), dense)
    assert err.value.offset == 4


@pytest.mark.parametrize(
    "field, value, needle",
    [
        ("max_norm", np.nan, "max_norm nan"),
        ("max_norm", np.inf, "max_norm inf"),
        ("max_norm", 0.0, "max_norm 0.0"),
        ("max_norm", -2.0, "max_norm -2.0"),
        ("hyperplane", np.nan, "hyperplanes are not finite"),
        ("hyperplane", -np.inf, "hyperplanes are not finite"),
    ],
)
def test_load_rejects_unusable_floats(tmp_path, field, value, needle):
    dense = dense_fixture(n=16, dim=4)
    path, raw = _saved(tmp_path, build_alsh(dense, AlshParams(tables=2, bits_per_table=2)))
    at = 48 if field == "max_norm" else 56  # the header's max norm, or the first hyperplane
    where = at if field == "max_norm" else at + 8 * 5  # a value inside the block
    struct.pack_into("<d", raw, where, value)
    path.write_bytes(raw)
    with pytest.raises(FormatError, match=needle) as err:
        load_alsh(str(path), dense)
    assert err.value.offset == at


# ------------------------------------------- flat tables vs dict-of-arrays oracle


def _reference_build(index, params):
    """The per-bucket dict build over the word table's rows: (max_norm, planes, dicts).

    The table is scaled by its largest row norm and hashed in one block, the
    norm terms after its rows; a bucket holds table rows."""
    t, b, m = params.tables, params.bits_per_table, params.m
    aug_dim = index.dim - index.dim // 2 + m
    rng = np.random.Generator(np.random.Philox(key=params.seed))
    hyperplanes = rng.normal(size=(t, b, aug_dim))
    if b:
        hyperplanes /= np.linalg.norm(hyperplanes, axis=2, keepdims=True)
    flat = hyperplanes.reshape(t * b, aug_dim)
    table = index.table
    norms = np.linalg.norm(table.astype(np.float64), axis=1)
    max_norm = float(norms.max()) if len(table) and norms.max() > 0 else 1.0
    scaled = table.astype(np.float64) * (params.U / max_norm)
    aug = np.concatenate([scaled, _norm_terms((scaled * scaled).sum(axis=1), m)], axis=1)
    proj = aug @ flat.T
    codes = np.array([_pack_codes(proj[:, ti * b : (ti + 1) * b], b) for ti in range(t)])
    buckets = []
    for ti in range(t):
        table = {}
        order = np.argsort(codes[ti], kind="stable")
        for code in np.unique(codes[ti]).tolist():
            table[code] = order[codes[ti][order] == code].astype(np.uint64)
        buckets.append(table)
    return max_norm, hyperplanes, buckets


@settings(max_examples=60, deadline=None)
@given(
    docs=st.lists(st.integers(0, 25), min_size=1, max_size=3),
    dim=st.integers(1, 6),
    m=st.integers(0, 3),
    U=st.floats(0.05, 1.0),
    bits=st.integers(0, 10) | st.sampled_from([16, 17, 32, 33, 62, 64]),  # every code width
    tables=st.integers(1, 5),
    seed=st.integers(0, 2**16),
)
def test_flat_tables_match_dict_reference(docs, dim, m, U, bits, tables, seed):
    assume(bits + (tables - 1).bit_length() <= 64)  # a (table, code) key fits a u64
    n = sum(docs)
    index = vectors_index(make_meta(docs), quantized((n, dim), seed))
    params = AlshParams(m=m, U=U, bits_per_table=bits, tables=tables, seed=seed)
    alsh = build_alsh(index, params)
    max_norm, hyperplanes, reference = _reference_build(index, params)
    assert alsh.max_norm == max_norm
    assert np.array_equal(alsh.hyperplanes, hyperplanes)
    assert len(alsh.buckets) == tables
    for table, ref in zip(bucket_dicts(alsh), reference):
        assert list(table) == sorted(ref)
        for code, rows in ref.items():
            assert table[code].dtype == np.uint32
            np.testing.assert_array_equal(table[code], rows)
    for qseed in range(3):
        q = quantized(dim, seed + 1 + qseed)
        for doc_id in (None, qseed % len(docs)):
            hits, probes = search_approx(alsh, q, k_top=3, doc_id=doc_id)
            expected = alsh_probe_search(alsh, q, 3, doc_id)
            assert ([(h.span, h.score) for h in hits], probes) == expected


def test_build_over_several_chunks_matches_dict_reference():
    """A patched budget makes the build hash in chunks of 15 rows; the largest is last.

    The reference hashes each table's 40 rows in one chunk, so the codes cannot
    depend on the chunking."""
    dim = 8
    vectors = quantized((40, dim), 12)
    vectors[-1] *= 2
    index = vectors_index(make_meta([40]), vectors)
    params = AlshParams(bits_per_table=3, tables=2, seed=6)
    budget = 15 * 8 * (dim // 2 + params.m)  # 15 rows of the augmented float64 block
    with mock.patch.object(alsh_module, "_HASH_CHUNK_BYTES", budget):
        alsh = build_alsh(index, params)
    max_norm, _, reference = _reference_build(index, params)
    assert alsh.max_norm == max_norm
    for table, ref in zip(bucket_dicts(alsh), reference):
        assert list(table) == sorted(ref)
        assert all(np.array_equal(table[code], rows) for code, rows in ref.items())


@settings(max_examples=60, deadline=None)
@given(
    docs=st.lists(st.integers(0, 9), min_size=1, max_size=3),
    kind=st.sampled_from(["encoder", "filtered", "random"]),
    dim=st.integers(1, 7),
    bits=st.integers(0, 8),
    tables=st.integers(1, 4),
    k_top=st.integers(1, 6),
    seed=st.integers(0, 2**16),
)
def test_search_approx_matches_the_probe_oracle(docs, kind, dim, bits, tables, k_top, seed):
    """Probes, hits and score bits equal the one-span-at-a-time oracle's on an
    encoder-shaped index (each word's halves one table row), a filtered one and
    random rows of dims 1-7 (every half its own row); with zero bits every span
    is probed, as search_exact scores them."""
    if kind == "random":
        index = vectors_index(make_meta(docs), quantized((sum(docs), dim), seed))
    else:
        index = shared_fixture(docs, half=1 + dim // 2, seed=seed)
        if kind == "filtered":
            keep = quantized(len(index), seed + 1) > 0
            index = vectors_index(index.metadata[keep], index.vectors[keep])
    alsh = build_alsh(index, AlshParams(bits_per_table=bits, tables=tables, seed=seed))
    for qseed in range(2):
        q = quantized(index.dim, seed + 7 + qseed)
        for doc_id in (None, qseed % len(docs)):
            hits, probes = search_approx(alsh, q, k_top=k_top, doc_id=doc_id)
            got = [(h.span, h.score) for h in hits]
            assert (got, probes) == alsh_probe_search(alsh, q, k_top, doc_id)
            assert len(hits) <= probes <= len(index)
            if bits == 0:
                exact = search_exact(index, q, k_top=k_top, doc_id=doc_id)
                assert got == [(h.span, h.score) for h in exact]
