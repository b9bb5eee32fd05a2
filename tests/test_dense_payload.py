"""The version 5 dense payload: one word table that both halves index, plus
one u32 table index per candidate for each half. Round trips are bitwise,
re-saves reproduce the file, and the bytes match the per-use reference in
oracles.py."""

import struct

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from phraseindex.alsh import build_alsh, save_alsh
from phraseindex.errors import FormatError
from phraseindex.filtering import _subset, apply_filter, train_filter
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


def check_round_trip(workdir, index):
    """Save, compare with the reference bytes, load bitwise, re-save byte for byte."""
    path, again = workdir / "a.idx", workdir / "b.idx"
    save_index(index, str(path))
    raw = path.read_bytes()
    assert raw[header_bytes(index):] == dense_payload_bytes(index.vectors, index.metadata)
    loaded = load_index(str(path))
    assert loaded.table.tobytes() == index.table.tobytes()
    assert loaded.table_ids.tobytes() == index.table_ids.tobytes()
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
    """Uses in (doc_id, token) order: token 0's starts 0.0 and -0.0 and end 2.0,
    then token 1's start -0.0 and ends 2.0, 2.0. The two -0.0 starts are not
    neighbours, so each is a table row of its own."""
    index = dense([(0, 0, 0), (0, 0, 1), (0, 1, 1)], [[0.0, 2.0], [-0.0, 2.0], [-0.0, 2.0]])
    raw = check_round_trip(workdir, index)
    at = header_bytes(index)
    assert struct.unpack_from("<Q", raw, at) == (5,)
    assert struct.unpack_from("<3I3I", raw, at + 8) == (0, 1, 2, 3, 4, 4)
    assert struct.unpack_from("<5I", raw, at + 32) == struct.unpack("<5I", struct.pack(
        "<5f", 0.0, -0.0, -0.0, 2.0, 2.0))


@pytest.mark.parametrize("fixture", ["dense_lstm_index", "dense_index"])
def test_encoder_built_index_stores_each_token_half_once(workdir, request, mini_corpus, fixture):
    index = request.getfixturevalue(fixture)
    raw = check_round_trip(workdir, index)
    tokens = sum(len(doc) for doc in mini_corpus.documents)
    assert struct.unpack_from("<Q", raw, header_bytes(index)) == (tokens,)
    # one table, tokens x dim/2 x 4 bytes, plus 8 bytes of indexes per candidate
    assert len(raw) == header_bytes(index) + 8 + 8 * len(index) + 2 * tokens * index.dim


@pytest.fixture(scope="module")
def mini_filter(mini_corpus, dense_index):
    return train_filter(dense_index, mini_corpus, epochs=5)


@settings(max_examples=25, deadline=None)
@given(quantile=st.floats(0.0, 1.0))
def test_filtered_index_round_trips_bitwise(workdir, dense_index, mini_filter, quantile):
    threshold = float(np.quantile(mini_filter.score(dense_index.vectors), quantile))
    check_round_trip(workdir, apply_filter(dense_index, mini_filter, threshold)[0])


@settings(max_examples=25, deadline=None)
@given(quantile=st.floats(0.0, 1.0))
@example(quantile=0.5)
def test_filtered_files_are_never_larger_than_their_parents(workdir, dense_index, mini_filter,
                                                           quantile):
    """A filtered index's rows are some of its parent's, so its table holds at
    most the parent's rows: its .idx and its .alsh are never the larger."""
    threshold = float(np.quantile(mini_filter.score(dense_index.vectors), quantile))
    filtered = apply_filter(dense_index, mini_filter, threshold)[0]
    sizes = {}
    for name, index in (("parent", dense_index), ("filtered", filtered)):
        save_index(index, str(workdir / f"{name}.idx"))
        save_alsh(build_alsh(index), str(workdir / f"{name}.alsh"))
        sizes[name] = [(workdir / f"{name}.{ext}").stat().st_size for ext in ("idx", "alsh")]
    assert all(f <= p for f, p in zip(sizes["filtered"], sizes["parent"]))


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


@settings(max_examples=150, deadline=None)
@given(index=token_blocks())
def test_a_tokens_halves_share_one_table_row(workdir, index):
    """Both halves of a token use one table row, as few as the tokens the spans
    use, kept or filtered. An odd dim pads start halves with 0.0 and gives end
    halves a 1.0, so there they take two rows."""
    check_round_trip(workdir, index)
    used = {(d, t) for d, s, e in index.metadata.tolist() for t in (s, e)}
    assert len(index.table) <= (1 + index.dim % 2) * len(used)


def hits_and_bits(index, queries, k, doc_id):
    """Each query row's hits as (span, score bits): -0.0 and 0.0 differ."""
    return [[(hit.span, struct.pack("<d", hit.score)) for hit in row]
            for row in search_exact(index, queries, k, doc_id=doc_id)]


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")  # 3e38 halves
@settings(max_examples=100, deadline=None)
@given(index=planted_blocks(), value=st.sampled_from(VALUES[2:]), data=st.data())
def test_the_last_column_of_a_start_only_row_changes_no_score(index, value, data):
    """A start half reads the first dim // 2 columns of its table row: with an
    odd dim, a row that only start halves use holds a last column no row reads,
    and regrouping the rows writes it as 0.0 again."""
    assume(index.dim % 2)
    start_only = np.setdiff1d(index.table_ids[0], index.table_ids[1])
    assume(len(start_only))
    table = index.table.copy()
    table[start_only, -1] = value
    changed = PhraseIndex("dense", index.metadata, dim=index.dim, table=table,
                          table_ids=index.table_ids)
    assert changed.vectors.tobytes() == index.vectors.tobytes()
    regrouped = _subset(changed, np.ones(len(index), dtype=bool))
    assert regrouped.table.tobytes() == index.table.tobytes()
    values = st.sampled_from([0.0, -0.0, 1.0, -1.5, 0.1, 2.5])
    m = data.draw(st.integers(1, 3), label="queries")
    flat = data.draw(st.lists(values, min_size=m * index.dim, max_size=m * index.dim))
    queries = np.array(flat, dtype=np.float32).reshape(m, index.dim)
    for k in (1, 3):
        for doc_id in (None, *index.doc_ids().tolist()):
            assert hits_and_bits(changed, queries, k, doc_id) == hits_and_bits(
                index, queries, k, doc_id)


def test_block_with_no_shared_halves_costs_eight_bytes_a_row(workdir):
    rows = np.arange(40, dtype=np.float32).reshape(10, 4)
    index = dense([(0, s, s) for s in range(10)], rows)
    raw = check_round_trip(workdir, index)
    assert len(raw) == header_bytes(index) + 8 + rows.nbytes + 8 * len(index)


# ---------------------------------------------------------------- corruption


@pytest.fixture
def saved(tmp_path, dense_index):
    """(path, bytes, offsets of the table's row count, the indexes and the table, rows)."""
    return save_and_read(tmp_path, dense_index)


def save_and_read(tmp_path, index):
    path = tmp_path / "dense.idx"
    save_index(index, str(path))
    raw = bytearray(path.read_bytes())
    rows_at = header_bytes(index)
    ids_at = rows_at + 8
    table_at = ids_at + 8 * len(index)
    return path, raw, (rows_at, ids_at, table_at), struct.unpack_from("<Q", raw, rows_at)[0]


def distinct_halves(n=30):
    """n length-1 spans whose 2n halves all differ: start rows 0..n-1, end rows n..2n-1."""
    return dense([(0, s, s) for s in range(n)], np.arange(4 * n, dtype=np.float32).reshape(n, 4))


def rejects(path, raw, needle):
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match=needle) as err:
        load_index(str(path))
    return err.value.offset


def test_load_rejects_an_index_past_its_table(saved, dense_index):
    path, raw, (_, ids_at, _), rows = saved
    struct.pack_into("<I", raw, ids_at + 4 * 7, rows)
    offset = rejects(path, raw, f"start index of row 7 is past the table's {rows} rows")
    assert offset == ids_at + 4 * 7


@pytest.mark.parametrize("half, row, value", [("start", 1, 2), ("end", 0, 31), ("end", 9, 50)])
def test_load_rejects_an_index_out_of_first_use_order(tmp_path, half, row, value):
    """First use runs over every start index, then every end index: here the
    start indexes are 0..29 and the end indexes 30..59."""
    index = distinct_halves()
    path, raw, (_, ids_at, _), _ = save_and_read(tmp_path, index)
    at = ids_at + 4 * (row + (len(index) if half == "end" else 0))
    struct.pack_into("<I", raw, at, value)
    assert rejects(path, raw, f"{half} index of row {row} is not in first-use order") == at


@pytest.mark.parametrize("extra", [1, 2**40])
@pytest.mark.parametrize("h, half", [(0, "start"), (1, "end")])
def test_load_rejects_a_table_count_past_the_file(tmp_path, dense_index, h, half, extra):
    """A row count past the rows the indexes use is refused, whether the last
    row is first used by a start index (an encoder-built file) or by an end
    index (a file whose halves all differ)."""
    index = (dense_index, distinct_halves())[h]
    assert int(index.table_ids[h].max()) == len(index.table) - 1
    path, raw, (rows_at, _, _), rows = save_and_read(tmp_path, index)
    struct.pack_into("<Q", raw, rows_at, rows + extra)
    needle = f"the table has {rows + extra} rows for {rows} used"
    assert rejects(path, raw, needle) == rows_at


def test_file_with_equal_table_rows_loads_them_apart_and_re_saves_verbatim(tmp_path):
    """Table rows made equal in the file, which no build writes, stay two rows."""
    index = distinct_halves()
    path, raw, (_, _, table_at), _ = save_and_read(tmp_path, index)
    raw[table_at + 8 : table_at + 16] = raw[table_at : table_at + 8]  # row 1 := row 0
    path.write_bytes(bytes(raw))
    loaded = load_index(str(path))
    assert len(loaded.table) == len(index.table)
    np.testing.assert_array_equal(loaded.table[1], loaded.table[0])
    again = path.with_suffix(".again")
    save_index(loaded, str(again))
    assert again.read_bytes() == bytes(raw)


def test_load_rejects_truncated_tables(saved):
    path, raw, (_, _, table_at), _ = saved
    assert rejects(path, raw[:-3], "truncated while reading the table") == table_at


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


def old_layout(tmp_path, index, version):
    """A file in the layout of version 3 or 4, which wrote a start-table and an
    end-table row count: version 3 both tables, version 4 one table shared
    (an end count of 2**64 - 1); sparse files differ only in the version."""
    path = tmp_path / f"v{version}.idx"
    save_index(index, str(path))
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", version)
    if index.kind == "dense":
        at = header_bytes(index) + 8
        raw[at:at] = struct.pack("<Q", len(index.table) if version == 3 else 2**64 - 1)
        raw += index.table.tobytes() if version == 3 else b""
    path.write_bytes(bytes(raw))
    return path


@pytest.mark.parametrize("kind", ["dense", "sparse"])
def test_load_rejects_version_three(tmp_path, request, kind):
    """A version 3 dense file wrote both tables and a sparse one u64 ordinals;
    neither is read, so it must be built again."""
    path = old_layout(tmp_path, request.getfixturevalue(f"{kind}_index"), 3)
    with pytest.raises(FormatError, match="unsupported version 3") as err:
        load_index(str(path))
    assert err.value.offset == 4


@pytest.mark.parametrize("kind", ["dense", "sparse"])
def test_load_rejects_version_four(tmp_path, request, kind):
    """A version 4 dense file marked a table shared by both halves, or wrote
    two; it is not read, so it must be built again."""
    path = old_layout(tmp_path, request.getfixturevalue(f"{kind}_index"), 4)
    with pytest.raises(FormatError, match="unsupported version 4") as err:
        load_index(str(path))
    assert err.value.offset == 4
