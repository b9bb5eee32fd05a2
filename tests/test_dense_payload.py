"""The version 4 dense payload: start and end half-row tables, or one table
shared by both halves, plus one u32 table index per candidate for each.
Round trips are bitwise, re-saves reproduce the file, and the bytes match the
per-row reference in oracles.py."""

import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phraseindex.errors import FormatError
from phraseindex.filtering import apply_filter, train_filter
from phraseindex.index import METADATA_DTYPE, PhraseIndex, load_index, save_index, search_exact

from .oracles import dense_payload_bytes, vectors_index

# -0.0 and 0.0 are equal floats with different bits; 1e-45 is subnormal.
VALUES = [0.0, -0.0, 1.0, -1.5, 0.1, 1e-45, 3e38]


def header_bytes(index):
    """Byte length of the magic, version, header and metadata of a saved index."""
    return 21 + len(index) * METADATA_DTYPE.itemsize


def dense(metadata, rows):
    meta = np.array(metadata, dtype=METADATA_DTYPE)
    return vectors_index(meta, np.asarray(rows, dtype=np.float32))


@st.composite
def planted_blocks(draw):
    """Dense indexes whose rows pick their halves from a few shared half-rows,
    so equal halves, and rows equal in one half only, land at arbitrary rows."""
    dim = draw(st.integers(0, 7), label="dim")
    keys = draw(
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 6), st.integers(0, 3)),
                 unique=True, max_size=40),
        label="(doc_id, s, length)",
    )
    metadata = sorted({(d, s, s + n) for d, s, n in keys})
    pools = [
        draw(st.lists(st.lists(st.sampled_from(VALUES), min_size=w, max_size=w),
                      min_size=1, max_size=4), label=f"{half} halves")
        for half, w in (("start", dim // 2), ("end", dim - dim // 2))
    ]
    picks = draw(
        st.lists(st.tuples(st.integers(0, len(pools[0]) - 1), st.integers(0, len(pools[1]) - 1)),
                 min_size=len(metadata), max_size=len(metadata)),
        label="picks",
    )
    rows = np.array([pools[0][a] + pools[1][b] for a, b in picks], dtype=np.float32)
    return dense(metadata, rows.reshape(len(metadata), dim))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("dense_payload")


def is_shared(raw, index) -> bool:
    """Whether a saved dense file marks its table shared by both halves."""
    return struct.unpack_from("<Q", raw, header_bytes(index) + 8)[0] == 2**64 - 1


def check_round_trip(workdir, index):
    """Save, compare with the reference bytes, load bitwise, re-save byte for byte.
    The index, and the loaded one, hold one array for a table the file shares."""
    path, again = workdir / "a.idx", workdir / "b.idx"
    save_index(index, str(path))
    raw = path.read_bytes()
    assert raw[header_bytes(index):] == dense_payload_bytes(index.vectors, index.metadata)
    loaded = load_index(str(path))
    for held in (index, loaded):
        assert (held.tables[1] is held.tables[0]) == is_shared(raw, index)
    assert loaded.vectors.dtype == np.float32 and loaded.vectors.flags.c_contiguous
    assert loaded.vectors.shape == index.vectors.shape
    assert loaded.vectors.tobytes() == np.ascontiguousarray(index.vectors, np.float32).tobytes()
    assert loaded.metadata.tobytes() == index.metadata.tobytes()
    save_index(loaded, str(again))
    assert again.read_bytes() == raw
    return raw


@settings(max_examples=150, deadline=None)
@given(index=planted_blocks())
@example(index=dense([], np.zeros((0, 5))))
@example(index=dense([(0, 0, 0), (0, 1, 1)], [[0.0, 1.0, 2.0], [-0.0, 1.0, 2.0]]))
def test_planted_blocks_round_trip_bitwise(workdir, index):
    check_round_trip(workdir, index)


def test_signed_zeros_are_separate_table_rows(workdir):
    index = dense([(0, 0, 0), (0, 0, 1), (0, 1, 1)], [[0.0, 2.0], [-0.0, 2.0], [-0.0, 2.0]])
    raw = check_round_trip(workdir, index)
    at = header_bytes(index)
    assert struct.unpack_from("<QQ", raw, at) == (2, 1)
    assert struct.unpack_from("<3I3I", raw, at + 16) == (0, 1, 1, 0, 0, 0)


@pytest.mark.parametrize("fixture", ["dense_lstm_index", "dense_index"])
def test_encoder_built_index_stores_each_token_half_once(workdir, request, mini_corpus, fixture):
    index = request.getfixturevalue(fixture)
    raw = check_round_trip(workdir, index)
    tokens = sum(len(doc) for doc in mini_corpus.documents)
    assert struct.unpack_from("<QQ", raw, header_bytes(index)) == (tokens, 2**64 - 1)
    # one shared table, tokens x dim/2 x 4 bytes, plus 8 bytes of indexes per candidate
    assert len(raw) == header_bytes(index) + 16 + 8 * len(index) + 2 * tokens * index.dim


@pytest.fixture(scope="module")
def mini_filter(mini_corpus, dense_index):
    return train_filter(dense_index, mini_corpus, epochs=5)


@settings(max_examples=25, deadline=None)
@given(quantile=st.floats(0.0, 1.0))
def test_filtered_index_round_trips_bitwise(workdir, dense_index, mini_filter, quantile):
    threshold = float(np.quantile(mini_filter.score(dense_index.vectors), quantile))
    check_round_trip(workdir, apply_filter(dense_index, mini_filter, threshold)[0])


@st.composite
def token_blocks(draw):
    """Encoder-like dense indexes, a row being [words[s], words[e]] over a few
    documents' tokens, with every span kept or a drawn subset; an odd dim adds
    a column to every end half, so that the halves differ in width."""
    width = draw(st.integers(0, 3), label="token width")
    lengths = draw(st.lists(st.integers(0, 5), min_size=1, max_size=3), label="doc lengths")
    words = [
        draw(st.lists(st.lists(st.sampled_from(VALUES), min_size=width, max_size=width),
                      min_size=n, max_size=n), label=f"doc {d} words")
        for d, n in enumerate(lengths)
    ]
    spans = [(d, s, e) for d, n in enumerate(lengths) for s in range(n) for e in range(s, n)]
    if draw(st.booleans(), label="drop spans"):
        spans = [sp for sp in spans if draw(st.booleans(), label=f"keep {sp}")]
    extra = [1.0] * draw(st.integers(0, 1), label="odd dim")
    rows = [words[d][s] + words[d][e] + extra for d, s, e in spans]
    return dense(spans, np.array(rows, dtype=np.float32).reshape(len(spans), 2 * width + len(extra)))


def hits_and_bits(index, queries, k, doc_id):
    """Each query row's hits as (span, score bits): -0.0 and 0.0 differ."""
    return [[(hit.span, struct.pack("<d", hit.score)) for hit in row]
            for row in search_exact(index, queries, k, doc_id=doc_id)]


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")  # 3e38 halves
@settings(max_examples=150, deadline=None)
@given(index=token_blocks(), data=st.data())
def test_table_is_shared_exactly_when_the_halves_tables_are_bit_equal(workdir, index, data):
    """The file shares the table exactly when the reference's two tables have
    equal bytes and width (check_round_trip), and a shared table scores as the
    same index with a separate copy of it as its end table."""
    raw = check_round_trip(workdir, index)
    if not is_shared(raw, index):
        return
    start = index.tables[0]
    unshared = PhraseIndex("dense", index.metadata, tables=(start, start.copy(), index.table_ids))
    assert unshared.tables[1] is not unshared.tables[0]
    values = st.sampled_from([0.0, -0.0, 1.0, -1.5, 0.1, 2.5])
    m = data.draw(st.integers(1, 3), label="queries")
    flat = data.draw(st.lists(values, min_size=m * index.dim, max_size=m * index.dim))
    queries = np.array(flat, dtype=np.float32).reshape(m, index.dim)
    for k in (1, 3):
        for doc_id in (None, *index.doc_ids().tolist()):
            assert hits_and_bits(index, queries, k, doc_id) == hits_and_bits(
                unshared, queries, k, doc_id)


def test_encoder_built_and_filtered_indexes_share_or_keep_their_tables(
    workdir, dense_index, dense_lstm_index, mini_filter
):
    """The halves of an encoder-built index group into one table; a filtered
    index keeps spans whose start and end tokens differ, and two tables."""
    for index in (dense_index, dense_lstm_index):
        assert is_shared(check_round_trip(workdir, index), index)
    threshold = float(np.median(mini_filter.score(dense_index.vectors)))
    filtered = apply_filter(dense_index, mini_filter, threshold)[0]
    assert not is_shared(check_round_trip(workdir, filtered), filtered)


def test_block_with_no_shared_halves_costs_eight_bytes_a_row(workdir):
    rows = np.arange(40, dtype=np.float32).reshape(10, 4)
    index = dense([(0, s, s) for s in range(10)], rows)
    raw = check_round_trip(workdir, index)
    assert len(raw) == header_bytes(index) + 16 + rows.nbytes + 8 * len(index)


# ---------------------------------------------------------------- corruption


@pytest.fixture
def saved(tmp_path, dense_index):
    """(path, bytes, offsets of the table sizes, the indexes and the tables, sizes)."""
    path = tmp_path / "dense.idx"
    save_index(dense_index, str(path))
    raw = bytearray(path.read_bytes())
    sizes_at = header_bytes(dense_index)
    ids_at = sizes_at + 16
    tables_at = ids_at + 8 * len(dense_index)
    return path, raw, (sizes_at, ids_at, tables_at), struct.unpack_from("<QQ", raw, sizes_at)


def rejects(path, raw, needle):
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match=needle) as err:
        load_index(str(path))
    return err.value.offset


def test_load_rejects_an_index_past_its_table(saved, dense_index):
    path, raw, (_, ids_at, _), (starts, _) = saved
    struct.pack_into("<I", raw, ids_at + 4 * 7, starts)
    offset = rejects(path, raw, f"start index of row 7 is past the start table's {starts} rows")
    assert offset == ids_at + 4 * 7


@pytest.mark.parametrize("half, row, value", [("start", 1, 2), ("end", 0, 1), ("end", 9, 50)])
def test_load_rejects_an_index_out_of_first_use_order(saved, dense_index, half, row, value):
    path, raw, (_, ids_at, _), _ = saved
    at = ids_at + 4 * (row + (len(dense_index) if half == "end" else 0))
    struct.pack_into("<I", raw, at, value)
    assert rejects(path, raw, f"{half} index of row {row} is not in first-use order") == at


@pytest.mark.parametrize("extra", [1, 2**40])
@pytest.mark.parametrize("h, half", [(0, "start"), (1, "end")])
def test_load_rejects_a_table_count_past_the_file(saved, h, half, extra):
    """The file shares its table: a start count past it counts for both halves,
    and an end count in place of the shared marker gives the end its own table."""
    path, raw, (sizes_at, _, _), (rows, marker) = saved
    assert marker == 2**64 - 1
    struct.pack_into("<Q", raw, sizes_at + 8 * h, rows + extra)
    needle = f"{half} table has {rows + extra} rows for {rows} used"
    assert rejects(path, raw, needle) == sizes_at + 8 * h


def test_unshared_file_with_equal_tables_loads_two_and_re_saves_verbatim(saved, dense_index):
    """The shared table written out as two equal tables stays two arrays on load."""
    path, raw, (sizes_at, _, _), (rows, _) = saved
    struct.pack_into("<Q", raw, sizes_at + 8, rows)
    raw += dense_index.tables[0].tobytes()
    path.write_bytes(bytes(raw))
    loaded = load_index(str(path))
    assert loaded.tables[1] is not loaded.tables[0]
    np.testing.assert_array_equal(loaded.tables[1], loaded.tables[0])
    again = path.with_suffix(".again")
    save_index(loaded, str(again))
    assert again.read_bytes() == bytes(raw)


def test_load_rejects_a_shared_table_with_an_odd_dim(tmp_path):
    """Halves of an odd dim differ in width, so they cannot share a table."""
    index = dense([(0, 0, 0), (0, 1, 1)], [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    path = tmp_path / "odd.idx"
    save_index(index, str(path))
    raw = bytearray(path.read_bytes())
    assert not is_shared(raw, index)
    struct.pack_into("<Q", raw, header_bytes(index) + 8, 2**64 - 1)
    assert rejects(path, raw, "shared table with an odd dim 3") == header_bytes(index) + 8


def test_load_rejects_truncated_tables(saved):
    path, raw, (_, _, tables_at), _ = saved
    assert rejects(path, raw[:-3], "truncated while reading the tables") == tables_at


@pytest.mark.parametrize("kind", ["dense", "sparse"])
def test_load_rejects_version_two(tmp_path, request, kind):
    """A version 2 dense file held the whole float32 block; it is not read."""
    index = request.getfixturevalue(f"{kind}_index")
    path = tmp_path / "v2.idx"
    if kind == "dense":
        head = struct.pack("<4sIBIQ", b"PIQA", 2, 0, index.dim, len(index))
        path.write_bytes(head + index.metadata.tobytes() + index.vectors.tobytes())
    else:
        save_index(index, str(path))
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", 2)
        path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="unsupported version 2") as err:
        load_index(str(path))
    assert err.value.offset == 4


@pytest.mark.parametrize("kind", ["dense", "sparse"])
def test_load_rejects_version_three(tmp_path, request, kind):
    """A version 3 dense file wrote both tables and a sparse one u64 ordinals;
    neither is read, so it must be built again."""
    index = request.getfixturevalue(f"{kind}_index")
    path = tmp_path / "v3.idx"
    save_index(index, str(path))
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", 3)
    if kind == "dense":  # the version 3 layout: both row counts, then both tables
        at = header_bytes(index) + 8
        raw[at : at + 8] = struct.pack("<Q", len(index.tables[0]))
        raw += index.tables[0].tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="unsupported version 3") as err:
        load_index(str(path))
    assert err.value.offset == 4
