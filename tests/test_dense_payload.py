"""The version 3 dense payload: start and end half-row tables plus one u32
table index per candidate for each. Round trips are bitwise, re-saves
reproduce the file, and the bytes match the per-row reference in oracles.py."""

import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phraseindex.errors import FormatError
from phraseindex.filtering import apply_filter, train_filter
from phraseindex.index import METADATA_DTYPE, load_index, save_index

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
    assert struct.unpack_from("<QQ", raw, header_bytes(index)) == (tokens, tokens)
    # 2 x tokens x dim/2 x 4 bytes of tables plus 8 bytes of indexes per candidate
    assert len(raw) == header_bytes(index) + 16 + 8 * len(index) + 4 * tokens * index.dim


@pytest.fixture(scope="module")
def mini_filter(mini_corpus, dense_index):
    return train_filter(dense_index, mini_corpus, epochs=5)


@settings(max_examples=25, deadline=None)
@given(quantile=st.floats(0.0, 1.0))
def test_filtered_index_round_trips_bitwise(workdir, dense_index, mini_filter, quantile):
    threshold = float(np.quantile(mini_filter.score(dense_index.vectors), quantile))
    check_round_trip(workdir, apply_filter(dense_index, mini_filter, threshold)[0])


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
    path, raw, (sizes_at, _, _), sizes = saved
    struct.pack_into("<Q", raw, sizes_at + 8 * h, sizes[h] + extra)
    needle = f"{half} table has {sizes[h] + extra} rows for {sizes[h]} used"
    assert rejects(path, raw, needle) == sizes_at + 8 * h


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
